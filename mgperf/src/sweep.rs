//! The `sweep` workload: the simulator layer.
//!
//! Set-up prepares every registry workload on the reference input with
//! the artifact cache off, in quick mode, then runs the sweep once so
//! every trace, rewritten image and predecode plane exists. The timed
//! window repeats one fused `Engine::try_run` over a seed-drawn sample
//! of fig8_regfile, iq_capacity and fig8_bandwidth machines, so nearly
//! all of its time is `mg-uarch` and the harness's fused executor.
//!
//! Quick mode caps every trace and cell at `QUICK_MAX_OPS` operations.
//! A full-length pass takes 3.5 s on an idle 2-vCPU host and up to 9 s
//! on a busy one, so a window held three to five of them; a quick pass
//! takes 0.4 to 1 s, and the window holds dozens, which is what the
//! per-group minima below need.
//!
//! The engine's cell observer stamps each fused group's completion on
//! the worker thread that ran it; consecutive stamps on one thread give
//! each group's duration, from which the schedule's makespan, its lower
//! bound and its efficiency follow without a timer in the engine.
//!
//! The engine runs on [`SWEEP_THREADS`] thread, and the timed figures
//! are built from each fused group's fastest pass (see
//! [`crate::stats::min`]): a phase of load from outside the process
//! lengthens the groups of the passes it overlaps, which the per-group
//! minima leave out, where a median of whole passes follows the phases.
//! The preparation times come the same way from engine builds between
//! the passes.

use crate::replica::{self, Replay, Source};
use crate::seeded::{scalar_sample, sweep_runs, SWEEP_PAIRS};
use crate::stats::{gmean, median, min, tail};
use crate::{Ctx, Outcome, SETUPS};
use mg_harness::{speedup, CellDone, Engine, Image, Run, RunMatrix};
use mg_isa::HandleCatalog;
use mg_uarch::{simulate_with, SimStats};
use mg_workloads::Input;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Cells re-run scalar through `simulate_with` as a check.
const SCALAR_CHECKS: usize = 4;
/// Engine threads of the sweep. One thread runs the fused groups back
/// to back, so a group's duration is its own work, not also whatever
/// group the other thread ran beside it on a shared core.
pub const SWEEP_THREADS: usize = 1;

struct Stamp {
    thread: ThreadId,
    at: Instant,
    workload: String,
    label: String,
}

type Stamps = Arc<Mutex<Vec<Stamp>>>;

/// One fused group (a workload × image unit of the engine) as the
/// stamps show it.
struct Unit {
    /// The workload and the group's first column.
    key: (String, usize),
    lane: usize,
    start: Instant,
    end: Instant,
}

/// One timed `Engine::try_run`.
struct Pass {
    start: Instant,
    end: Instant,
    units: Vec<Unit>,
    lanes: usize,
}

impl Pass {
    fn wall(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    fn busy(&self) -> f64 {
        self.units.iter().map(|u| (u.end - u.start).as_secs_f64()).sum()
    }

    /// (makespan, lower bound, longest unit), in seconds.
    fn schedule(&self, threads: usize) -> (f64, f64, f64) {
        let units: Vec<f64> =
            self.units.iter().map(|u| (u.end - u.start).as_secs_f64()).collect();
        schedule(self.wall(), &units, threads)
    }
}

/// Makespan, lower bound and longest unit of a schedule of `units`
/// (durations) over `threads` that took `makespan`. The lower bound is
/// `max(total unit time / threads, longest unit)`: no schedule of these
/// units on these threads can finish sooner.
fn schedule(makespan: f64, units: &[f64], threads: usize) -> (f64, f64, f64) {
    let longest = units.iter().copied().fold(0.0, f64::max);
    let total: f64 = units.iter().sum();
    (makespan, (total / threads as f64).max(longest), longest)
}

fn build_engine(threads: usize, stamps: &Stamps) -> Result<Engine, String> {
    let stamps = Arc::clone(stamps);
    Engine::builder()
        .input(Input::reference())
        .quick(true)
        .fuse(true)
        .threads(threads)
        .observer(Arc::new(move |c: &CellDone| {
            let stamp = Stamp {
                thread: std::thread::current().id(),
                at: Instant::now(),
                workload: c.workload.clone(),
                label: c.label.clone(),
            };
            stamps.lock().expect("stamp lock poisoned").push(stamp);
        }))
        .try_build()
        .map_err(|e| e.to_string())
}

/// Runs the sweep once and splits the stamps into fused groups.
fn timed_pass(
    engine: &Engine,
    runs: &[Run],
    stamps: &Stamps,
    threads: usize,
) -> Result<(RunMatrix, Pass), String> {
    stamps.lock().expect("stamp lock poisoned").clear();
    let start = Instant::now();
    let matrix = engine.try_run(runs).map_err(|e| e.to_string())?;
    let end = Instant::now();
    let group_of: HashMap<&str, usize> = runs
        .iter()
        .map(|r| (r.label.as_str(), runs.iter().position(|o| o.image == r.image).unwrap_or(0)))
        .collect();
    let stamps = std::mem::take(&mut *stamps.lock().expect("stamp lock poisoned"));
    let mut lanes: Vec<ThreadId> = Vec::new();
    let mut units: Vec<Unit> = Vec::new();
    let mut last: Vec<(Instant, String, usize)> = Vec::new(); // per lane: end, workload, group
    for s in stamps {
        let lane = match lanes.iter().position(|&t| t == s.thread) {
            Some(l) => l,
            None => {
                lanes.push(s.thread);
                last.push((start, String::new(), usize::MAX));
                lanes.len() - 1
            }
        };
        let group = group_of.get(s.label.as_str()).copied().unwrap_or(0);
        let (prev_end, prev_w, prev_g) = &last[lane];
        if *prev_w == s.workload && *prev_g == group {
            continue; // another column of the same fused group
        }
        units.push(Unit {
            key: (s.workload.clone(), group),
            lane,
            start: *prev_end,
            end: s.at,
        });
        last[lane] = (s.at, s.workload, group);
    }
    Ok((matrix, Pass { start, end, units, lanes: lanes.len().max(threads) }))
}

/// One pass's figures from all passes' fused groups: each group's
/// fastest duration over the passes, and the least time a pass spent
/// outside its groups. The two add up to one pass's wall time.
struct Fastest {
    groups: Vec<f64>,
    rest: f64,
}

impl Fastest {
    fn of(passes: &[Pass]) -> Fastest {
        let mut by_key: BTreeMap<&(String, usize), Vec<f64>> = BTreeMap::new();
        for u in passes.iter().flat_map(|p| &p.units) {
            by_key.entry(&u.key).or_default().push((u.end - u.start).as_secs_f64());
        }
        let rest: Vec<f64> = passes.iter().map(|p| p.wall() - p.busy()).collect();
        Fastest { groups: by_key.values().map(|d| min(d)).collect(), rest: min(&rest) }
    }

    fn pass_s(&self) -> f64 {
        self.groups.iter().sum::<f64>() + self.rest
    }
}

/// Instructions in the trace that cell (`row`, `run`) replays, as the
/// functional simulator recorded them: what the cell must commit.
fn traced_insts(matrix: &RunMatrix, row: usize, run: &Run) -> Result<u64, String> {
    let prep = &matrix.rows[row].prep;
    Ok(match &run.image {
        Image::Baseline => prep.try_base_trace().map_err(|e| e.to_string())?.insts,
        Image::MiniGraph { policy, style } => {
            prep.try_image(policy, *style).map_err(|e| e.to_string())?.trace.insts
        }
    })
}

/// Scalar re-run of cell (`row`, `col`) through `simulate_with`.
fn scalar(matrix: &RunMatrix, row: usize, run: &Run) -> Result<SimStats, String> {
    let prep = &matrix.rows[row].prep;
    Ok(match &run.image {
        Image::Baseline => {
            let trace = prep.try_base_trace().map_err(|e| e.to_string())?;
            simulate_with(
                &run.cfg,
                &prep.prog,
                &trace,
                &HandleCatalog::new(),
                &prep.base_predecode(),
            )
        }
        Image::MiniGraph { policy, style } => {
            let img = prep.try_image(policy, *style).map_err(|e| e.to_string())?;
            simulate_with(&run.cfg, &img.program, &img.trace, &img.catalog, &img.predecode())
        }
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let runs = sweep_runs(ctx.seed);
    let stamps: Stamps = Arc::default();
    let t = &ctx.tracer;

    // Set-up, several times: prep cold (fresh engine, no cache), prep
    // again (the cache is off, so the warm pass redoes the cold work),
    // then a warm-up over one-op cells, which records every trace,
    // rewrites every image and builds every predecode plane.
    let warmup: Vec<Run> = runs
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.cfg.max_ops = 1;
            r
        })
        .collect();
    let (mut setups, mut colds, mut warms) = (Vec::new(), Vec::new(), Vec::new());
    let mut engine: Option<Engine> = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        crate::release_freed_heap();
        let t0 = Instant::now();
        drop(build_engine(SWEEP_THREADS, &stamps)?);
        colds.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let e = build_engine(SWEEP_THREADS, &stamps)?;
        warms.push(t1.elapsed().as_secs_f64());
        e.try_run(&warmup).map_err(|e| e.to_string())?;
        setups.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");

    // The timed window: repeat the sweep. Every cell must commit the
    // instructions of the trace it replays and repeat the first pass's
    // stats exactly.
    let mut passes = Vec::new();
    let mut first: Option<RunMatrix> = None;
    let mut traced: Vec<Vec<u64>> = Vec::new();
    let mut peaks = Vec::new();
    crate::release_freed_heap();
    let window = Instant::now();
    while passes.len() < 3 || window.elapsed() < ctx.seconds {
        crate::reset_peak_rss();
        let (matrix, pass) = timed_pass(&engine, &runs, &stamps, SWEEP_THREADS)?;
        peaks.push(crate::peak_rss_mb());
        passes.push(pass);
        if traced.is_empty() {
            for r in 0..matrix.rows.len() {
                traced.push(
                    runs.iter()
                        .map(|run| traced_insts(&matrix, r, run))
                        .collect::<Result<_, _>>()?,
                );
            }
        }
        let reference = first.as_ref().unwrap_or(&matrix);
        for ((row, want), insts) in matrix.rows.iter().zip(&reference.rows).zip(&traced) {
            for (c, (got, exp)) in row.stats.iter().zip(&want.stats).enumerate() {
                out.checks.check(got.insts == insts[c] && got == exp, || {
                    format!(
                        "{} {}: committed {} of {} traced instructions, or stats differ from the first pass",
                        row.prep.name, runs[c].label, got.insts, insts[c]
                    )
                });
            }
        }
        first.get_or_insert(matrix);

        // Between passes, prepare the registry twice more (with the cache
        // off the second redoes the first's work) for `prep_cold_s` and
        // `prep_warm_s`: spread over the window, their fastest times
        // escape the host's busy phases as the groups' do.
        let t0 = Instant::now();
        drop(build_engine(SWEEP_THREADS, &stamps)?);
        let t1 = Instant::now();
        drop(build_engine(SWEEP_THREADS, &stamps)?);
        colds.push((t1 - t0).as_secs_f64());
        warms.push(t1.elapsed().as_secs_f64());
    }
    let reference = first.expect("at least one pass");
    out.set("peak_rss_mb", median(&peaks));

    // Fused equals scalar on a seed-drawn sample of cells.
    let (mut scalar_cycles, mut scalar_secs) = (0u64, 0.0);
    let root = t.open("bench.scalar_check", None, 0);
    for (row, col) in scalar_sample(ctx.seed, reference.rows.len(), runs.len(), SCALAR_CHECKS) {
        let t0 = Instant::now();
        let got =
            t.time("uarch.scalar", Some(root), 0, || scalar(&reference, row, &runs[col]))?;
        scalar_secs += t0.elapsed().as_secs_f64();
        scalar_cycles += got.cycles;
        let want = &reference.rows[row].stats[col];
        out.checks.check(&got == want, || {
            format!(
                "{} {}: scalar stats differ from fused",
                reference.rows[row].prep.name, runs[col].label
            )
        });
    }
    t.close(root);

    // End-to-end metrics.
    let cells: Vec<&SimStats> = reference.rows.iter().flat_map(|r| &r.stats).collect();
    let cycles: u64 = cells.iter().map(|s| s.cycles).sum();
    let walls: Vec<f64> = passes.iter().map(Pass::wall).collect();
    let fastest = Fastest::of(&passes);
    let pass_s = fastest.pass_s();
    let latencies: Vec<f64> = fastest.groups.iter().map(|d| d * 1e3).collect();
    let speedups: Vec<f64> = reference
        .rows
        .iter()
        .flat_map(|r| SWEEP_PAIRS.iter().map(|&(b, m)| speedup(&r.stats[b], &r.stats[m])))
        .collect();
    let mg_cells = reference.rows.iter().flat_map(|r| {
        r.stats
            .iter()
            .zip(&runs)
            .filter(|(_, run)| run.image != Image::Baseline)
            .map(|(s, _)| s)
    });
    let (covered, insts) =
        mg_cells.fold((0u64, 0u64), |(c, i), s| (c + s.handle_insts, i + s.insts));
    let tl = tail(&latencies);
    out.set("setup_s", median(&setups));
    out.set("sweep_s", pass_s);
    out.set("sim_mcycles_per_s", cycles as f64 / 1e6 / pass_s);
    out.set("sim_speedup_gmean", gmean(&speedups));
    out.set("mg_coverage", covered as f64 / insts.max(1) as f64);
    out.set("prep_cold_s", min(&colds));
    out.set("prep_warm_s", min(&warms));
    out.set("serve_rps", latencies.len() as f64 / pass_s);
    out.set("serve_p50_ms", median(&latencies));
    out.set("serve_tail_ms", tl.value);
    out.note(format!(
        "sweep: {} workloads x {} columns [{}], {} passes, {} cells checked",
        reference.rows.len(),
        runs.len(),
        runs.iter().map(|r| r.label.as_str()).collect::<Vec<_>>().join(" "),
        passes.len(),
        out.checks.attempted
    ));
    out.note(format!(
        "sweep: passes {walls:.3?} s; fastest groups plus rest {pass_s:.3} s; {:.1} M simulated cycles a pass",
        cycles as f64 / 1e6
    ));
    out.note(format!(
        "sweep: requests are fused groups (workload x image), each at its fastest pass; \
         tail is p{:.1} over {} samples, {} beyond",
        tl.pct, tl.samples, tl.beyond
    ));

    if t.on() {
        // The stamps of every pass become spans, one lane per engine
        // thread: a lane's self time is the time its thread spent outside
        // a fused group. The stamps are taken with tracing off too, so the
        // traced passes are the untraced ones and only turning stamps into
        // spans is extra.
        let t0 = Instant::now();
        let root =
            t.record("bench.window", window, passes.last().map_or(window, |p| p.end), None, 0);
        for pass in &passes {
            let p = t.record("bench.pass", pass.start, pass.end, Some(root), 0);
            let lanes: Vec<_> = (0..pass.lanes)
                .map(|_| t.record("harness.engine", pass.start, pass.end, Some(p), 0))
                .collect();
            for u in &pass.units {
                t.record("uarch.fused", u.start, u.end, Some(lanes[u.lane]), 0);
            }
        }
        let attributed = crate::trace::covered_below(&t.spans(), root);
        out.set(
            "trace.coverage",
            attributed / (SWEEP_THREADS as f64 * walls.iter().sum::<f64>()),
        );
        out.set("trace.overhead_s", t0.elapsed().as_secs_f64());
        let sched: Vec<(f64, f64, f64)> =
            passes.iter().map(|p| p.schedule(SWEEP_THREADS)).collect();
        let pick =
            |f: fn(&(f64, f64, f64)) -> f64| median(&sched.iter().map(f).collect::<Vec<_>>());
        out.set("harness.makespan_s", pick(|s| s.0));
        out.set("harness.lower_bound_s", pick(|s| s.1));
        out.set("harness.longest_cell_s", pick(|s| s.2));
        out.set("harness.schedule_efficiency", pick(|s| s.1 / s.0));
        let busy: f64 = passes.iter().map(Pass::busy).sum();
        let fused_mcps = (cycles * passes.len() as u64) as f64 / 1e6 / busy;
        let scalar_mcps = scalar_cycles as f64 / 1e6 / scalar_secs;
        out.set("uarch.fused_mcps", fused_mcps);
        out.set("uarch.scalar_mcps", scalar_mcps);
        out.set("uarch.fused_gain", fused_mcps / scalar_mcps);
        out.set("uarch.sim_cycles", cycles as f64);
        out.set("uarch.sim_ops", cells.iter().map(|s| s.ops).sum::<u64>() as f64);
        out.set("uarch.sim_insts", cells.iter().map(|s| s.insts).sum::<u64>() as f64);

        // Where set-up time goes: the same preparation, replayed
        // through the layers' entry points.
        let replay = Replay {
            input: Input::reference(),
            quick: true,
            cache: None,
            runs: &runs,
            simulate: false,
            dp: false,
        };
        let root = t.open("bench.setup_replay", None, 0);
        for (i, w) in mg_workloads::all().into_iter().enumerate() {
            replica::prepare(&Source::Registry(w), &replay, t, Some(root), i as u64 + 1)?;
        }
        t.close(root);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::schedule;

    #[test]
    fn schedule_efficiency_is_at_most_one() {
        // Two lanes: [3, 1] and [2, 2]; the engine took 4.5 s.
        let (makespan, bound, longest) = schedule(4.5, &[3.0, 1.0, 2.0, 2.0], 2);
        assert_eq!((bound, longest), (4.0, 3.0));
        assert!(bound / makespan <= 1.0);
        // One long unit dominates the bound.
        let (_, bound, _) = schedule(9.0, &[9.0, 0.5, 0.5], 2);
        assert_eq!(bound, 9.0);
        // A perfect schedule reaches exactly 1.
        let (m, b, _) = schedule(2.0, &[1.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(b / m, 1.0);
    }
}
