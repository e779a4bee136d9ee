//! The `prep` workload: the preparation pipeline.
//!
//! The prep set is every registry workload on a seed-drawn input, the
//! mg-lang corpus, and [`GENERATED`] programs from
//! `mg_lang::gen::generate`. A pass runs each of them through one quick
//! fig6-shaped `Session::run` — first cold, with an empty artifact cache
//! and a fresh session (and so a fresh `PrepPool`), then warm, with a new
//! session over the filled cache directory, which is what a process
//! restart sees. Profile, enumerate, select, rewrite, trace recording and
//! the cache do most of the work; simulation is 30k-op quick cells.
//!
//! The window repeats the cold and warm passes. Each program's cold and
//! warm `Session::run` is timed on its own, and the reported pass times
//! add up every program's fastest repetition (see [`crate::stats::min`]).

use crate::replica::{self, Replay, Source};
use crate::seeded::prep_input;
use crate::stats::{fastest_whole, gmean, median, tail};
use crate::trace::covered_below;
use crate::{Ctx, Outcome, SETUPS};
use mg_api::{
    CellSpec, ImageSpec, InputSelector, PolicySelector, RunOutcome, RunSpec, Session,
    WorkloadSource,
};
use mg_bench::experiments::fig6_runs;
use mg_harness::{speedup, Image, PrepCache, Run};
use mg_lang::{codegen, interpret, LangWorkload};
use mg_uarch::SimStats;
use mg_workloads::Input;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Generated mg-lang programs in the prep set.
pub const GENERATED: u64 = 8;
/// Interpreter step budget for the output check.
const INTERP_STEPS: u64 = 20_000_000;
/// Functional-simulation step budget for the output check.
const SIM_STEPS: u64 = 200_000_000;
/// Engine threads of the prep sessions. One thread keeps each pass
/// sequential, so the layers' self times in the traced replay add up
/// to the pass's wall time.
pub const PREP_THREADS: usize = 1;
/// Column of the fig6 cells that holds the integer-memory machine.
pub const INTMEM: usize = 3;

/// The prep set: the programs and what a session needs to resolve them.
struct PrepSet {
    input: Input,
    sources: Vec<Source>,
    lang: Vec<Arc<LangWorkload>>,
}

/// Builds the prep set and checks every mg-lang program's compiled
/// output against the reference interpreter.
fn prep_set(seed: u64, out: &mut Outcome) -> Result<PrepSet, String> {
    let input = prep_input(seed);
    let mut sources: Vec<Source> =
        mg_workloads::all().into_iter().map(Source::Registry).collect();
    let mut texts: Vec<(String, String)> = mg_lang::corpus::all()
        .into_iter()
        .map(|(name, src)| (format!("mgl.{name}"), src.to_string()))
        .collect();
    for i in 0..GENERATED {
        let module = mg_lang::gen::generate(seed.wrapping_add(i));
        texts.push((format!("gen.{i}"), module.to_source()));
    }
    let mut lang = Vec::new();
    for (name, src) in texts {
        let wl = LangWorkload::from_source(name.clone(), &src)
            .map_err(|e| format!("{name}: {e}"))?;
        let agrees = check_program(&wl, &src, &input);
        out.checks.check(agrees.is_ok(), || format!("{name}: {}", agrees.unwrap_err()));
        sources.push(Source::Lang { name, stable_id: wl.stable_id(), src });
        lang.push(Arc::new(wl));
    }
    Ok(PrepSet { input, sources, lang })
}

/// The interpreter and the compiled program, run functionally, must
/// leave the same observables (checksum, outputs, globals, arrays).
fn check_program(wl: &LangWorkload, src: &str, input: &Input) -> Result<(), String> {
    let want = interpret(wl.module(), input, INTERP_STEPS).map_err(|e| e.to_string())?;
    let compiled = mg_lang::compile_source(src, input).map_err(|e| e.to_string())?;
    let mut mem = compiled.memory();
    mg_profile::run_program(&compiled.program, &mut mem, None, SIM_STEPS)
        .map_err(|e| format!("compiled program did not halt: {e:?}"))?;
    let got = codegen::observe(wl.module(), &mem);
    let want = codegen::Observation {
        checksum: want.checksum,
        outputs: want.outputs,
        globals: want.globals,
        arrays: want.arrays,
    };
    if got == want {
        Ok(())
    } else {
        Err("compiled output differs from the interpreter".into())
    }
}

/// The session cell for an engine run column.
pub fn cell(r: &Run) -> CellSpec {
    let image = match &r.image {
        Image::Baseline => ImageSpec::Baseline,
        Image::MiniGraph { policy, style } => ImageSpec::MiniGraph {
            policy: PolicySelector::Explicit(policy.clone()),
            style: *style,
        },
    };
    CellSpec { label: r.label.clone(), image, cfg: r.cfg.clone() }
}

fn session(set: &PrepSet, threads: usize, dir: &Path) -> Session {
    let mut b = Session::builder().quick(true).fuse(true).threads(threads).cache_dir(dir);
    for wl in &set.lang {
        b = b.register_workload(Arc::clone(wl) as Arc<dyn WorkloadSource>);
    }
    b.build()
}

/// One pass over the prep set through a fresh session; returns each
/// program's stats and the latency of each `Session::run`.
fn pass(
    set: &PrepSet,
    threads: usize,
    dir: &Path,
    cells: &[CellSpec],
) -> Result<(Vec<Vec<SimStats>>, Vec<f64>), String> {
    let session = session(set, threads, dir);
    let mut stats = Vec::new();
    let mut lat = Vec::new();
    for src in &set.sources {
        let spec = cells.iter().cloned().fold(
            RunSpec::new()
                .workloads([src.name()])
                .input(InputSelector::Explicit(set.input))
                .quick(true),
            RunSpec::cell,
        );
        let t0 = Instant::now();
        let outcome: RunOutcome =
            session.run(&spec).map_err(|e| format!("{}: {e}", src.name()))?;
        lat.push(t0.elapsed().as_secs_f64());
        stats.push(outcome.rows.into_iter().next().map(|r| r.stats).unwrap_or_default());
    }
    Ok((stats, lat))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = &ctx.tracer;
    let runs = fig6_runs();
    let cells: Vec<CellSpec> = runs.iter().map(cell).collect();

    // Set-up, several times: build the prep set, check the mg-lang
    // programs (the checks count once), and warm up with one cold pass
    // over a throwaway cache, so the timed passes start on a warm
    // process.
    let mut setups = Vec::new();
    let mut set = None;
    for i in 0..SETUPS {
        crate::release_freed_heap();
        let t0 = Instant::now();
        let mut scratch = Outcome::default();
        let s = prep_set(ctx.seed, if i == 0 { &mut out } else { &mut scratch })?;
        let dir = ctx.scratch.join(format!("prep-warmup-{i}"));
        pass(&s, PREP_THREADS, &dir, &cells)?;
        let _ = std::fs::remove_dir_all(&dir);
        setups.push(t0.elapsed().as_secs_f64());
        set = Some(s);
    }
    let set = set.expect("at least one set-up");

    // The timed window: cold and warm passes, each over a fresh cache
    // directory.
    let (mut colds, mut warms, mut cold_lats, mut warm_lats) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut cycles_per_pair = 0u64;
    let mut first: Option<Vec<Vec<SimStats>>> = None;
    let mut peaks = Vec::new();
    crate::release_freed_heap();
    let window = Instant::now();
    while colds.len() < 3 || window.elapsed() < ctx.seconds {
        crate::reset_peak_rss();
        let dir = ctx.scratch.join(format!("prep-{}", colds.len()));
        let t0 = Instant::now();
        let (cold, cold_lat) = pass(&set, PREP_THREADS, &dir, &cells)?;
        let t1 = Instant::now();
        let (warm, warm_lat) = pass(&set, PREP_THREADS, &dir, &cells)?;
        let t2 = Instant::now();
        peaks.push(crate::peak_rss_mb());
        let _ = std::fs::remove_dir_all(&dir);
        colds.push((t1 - t0).as_secs_f64());
        warms.push((t2 - t1).as_secs_f64());
        cold_lats.push(cold_lat);
        warm_lats.push(warm_lat);
        for ((src, c), w) in set.sources.iter().zip(&cold).zip(&warm) {
            out.checks.check(c == w && c.len() == runs.len(), || {
                format!("{}: warm results differ from cold", src.name())
            });
        }
        cycles_per_pair = cold.iter().chain(&warm).flatten().map(|s| s.cycles).sum();
        first.get_or_insert(cold);
    }
    let results = first.expect("at least one pass");
    out.set("peak_rss_mb", median(&peaks));

    let speedups: Vec<f64> = results.iter().map(|r| speedup(&r[0], &r[INTMEM])).collect();
    let (covered, insts) = results
        .iter()
        .fold((0u64, 0u64), |(c, i), r| (c + r[INTMEM].handle_insts, i + r[INTMEM].insts));
    // A pass is its programs' runs plus what the session does around
    // them (building it, opening the cache); both at their fastest.
    let (cold_s, cold_runs) = fastest_whole(&colds, &cold_lats);
    let (warm_s, warm_runs) = fastest_whole(&warms, &warm_lats);
    let lat: Vec<f64> = cold_runs.iter().chain(&warm_runs).map(|s| s * 1e3).collect();
    let pair_s = cold_s + warm_s;
    let tl = tail(&lat);
    out.set("setup_s", median(&setups));
    out.set("sweep_s", pair_s);
    out.set("sim_mcycles_per_s", cycles_per_pair as f64 / 1e6 / pair_s);
    out.set("sim_speedup_gmean", gmean(&speedups));
    out.set("mg_coverage", covered as f64 / insts.max(1) as f64);
    out.set("prep_cold_s", cold_s);
    out.set("prep_warm_s", warm_s);
    out.set("serve_rps", lat.len() as f64 / pair_s);
    out.set("serve_p50_ms", median(&lat));
    out.set("serve_tail_ms", tl.value);
    out.note(format!(
        "prep: {} programs on input seed {:#x} scale {}, {} cold+warm passes",
        set.sources.len(),
        set.input.seed,
        set.input.scale,
        colds.len()
    ));
    out.note(format!(
        "prep: cold passes {colds:.3?} s, warm passes {warms:.3?} s; fastest runs add up to \
         {cold_s:.3} s cold, {warm_s:.3} s warm"
    ));
    out.note(format!(
        "prep: requests are Session::run calls, each at its fastest pass; \
         tail is p{:.1} over {} samples, {} beyond",
        tl.pct, tl.samples, tl.beyond
    ));

    if t.on() {
        // One traced pass, cold then warm, replayed through the layers'
        // entry points; its results must equal the sessions'.
        let dir = ctx.scratch.join("prep-traced");
        let root = t.open("bench.pass", None, 0);
        for warm in [false, true] {
            let cache = PrepCache::new(&dir);
            let replay = Replay {
                input: set.input,
                quick: true,
                cache: Some(&cache),
                runs: &runs,
                simulate: true,
                dp: false,
            };
            for (i, (src, want)) in set.sources.iter().zip(&results).enumerate() {
                let req = i as u64 + 1;
                let span = t.open("bench.request", Some(root), req);
                let got = replica::prepare(src, &replay, t, Some(span), req);
                t.close(span);
                let ok = got.as_ref().is_ok_and(|g| g == want);
                out.checks.check(ok, || {
                    format!("{}: replayed prep differs from the session's", src.name())
                });
            }
            if !warm {
                out.set("harness.cache_bytes", cache.stats().bytes as f64);
            }
        }
        t.close(root);
        let _ = std::fs::remove_dir_all(&dir);
        let spans = t.spans();
        let traced = (spans[root].end - spans[root].start).as_secs_f64();
        // One traced pass against the untraced passes' medians, not
        // their fastest: the traced pass meets the host as it is.
        let untraced = median(&colds) + median(&warms);
        out.set("trace.coverage", covered_below(&spans, root) / untraced);
        out.set("trace.overhead_s", traced - untraced);
    }
    Ok(out)
}
