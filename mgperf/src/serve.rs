//! The `serve` workload: the daemon.
//!
//! Set-up starts an in-process `mg_serve::Server` running the registry
//! runner over its own fresh cache directory, then builds every reply
//! the schedule will need by calling the runner directly over a separate
//! session and cache — cold, then warm from the filled cache — so the
//! server itself still starts cold. The timed window is a closed loop:
//! each client connection sends its next request of the seeded schedule
//! only after the previous reply, as `mg client run` callers do (the
//! protocol also takes one connection per request). Queueing, merging of
//! equal requests, `PrepPool` reuse and image eviction and rebuild
//! happen only here.

use crate::prep::INTMEM;
use crate::replica::{self, Replay, Source};
use crate::seeded::{serve_schedule, Ask, SERVE_INPUTS};
use crate::stats::{fastest_whole, gmean, median, tail};
use crate::trace::covered_below;
use crate::{Ctx, Outcome};
use mg_api::{InputSelector, RunSpec, Session};
use mg_bench::experiments::fig6_runs;
use mg_bench::serve_cli::{bind_registry_server_with, registry_runner};
use mg_harness::{speedup, PrepCache};
use mg_serve::{Client, EmitFn, Request, Response, RunRequest, ServerConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. Each builds every
/// reference twice and takes seconds, so fewer than [`crate::SETUPS`].
const SERVE_SETUPS: usize = 3;

fn run_request(ask: &Ask) -> RunRequest {
    RunRequest {
        quick: Some(true),
        input: ask.input.into(),
        format: ask.format.into(),
        ..RunRequest::new(ask.experiment)
    }
}

/// `payload` without the policy lab's `select_ms` table, which holds
/// wall-clock selection times that no two runs share. The text format
/// omits that table; json puts it on one line, csv in one `# table:`
/// section and markdown in one pipe table ending at a blank line.
/// References and served payloads both pass through here, so only the
/// timings escape the byte-for-byte comparison.
fn without_timing(payload: &str) -> String {
    let mut out = String::new();
    let mut skipping = false;
    for line in payload.split_inclusive('\n') {
        if line.contains("\"id\": \"policy_lab.timing\"") {
            continue;
        }
        if line.starts_with("# table: ") {
            skipping = line.trim_end() == "# table: policy_lab.timing";
        } else if line.starts_with("| workload | family | select_ms |") {
            skipping = true;
        } else if skipping && line.trim().is_empty() {
            skipping = false;
            continue;
        }
        if !skipping {
            out.push_str(line);
        }
    }
    out
}

/// Replies for every distinct request of the schedule, from the runner
/// called directly over a fresh session on `dir`, and the time each
/// call took, in the order of `asks`.
fn references(
    asks: &BTreeSet<Ask>,
    threads: usize,
    dir: &Path,
) -> Result<(BTreeMap<Ask, String>, Vec<f64>), String> {
    let runner = registry_runner(Session::builder().threads(threads).cache_dir(dir).build());
    let emit: EmitFn = Arc::new(|_| {});
    let (mut refs, mut took) = (BTreeMap::new(), Vec::new());
    for a in asks {
        let t0 = Instant::now();
        let done = runner(&run_request(a), Arc::clone(&emit))
            .map_err(|e| format!("reference {a:?}: {e}"))?;
        took.push(t0.elapsed().as_secs_f64());
        refs.insert(a.clone(), without_timing(&done.payload));
    }
    Ok((refs, took))
}

struct Daemon {
    addr: String,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(threads: usize, dir: &Path) -> Result<Daemon, String> {
        let session = Session::builder().threads(threads).cache_dir(dir).build();
        let cfg = ServerConfig { workers: threads, ..ServerConfig::default() };
        let server = bind_registry_server_with("127.0.0.1:0", false, session, cfg)
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().ok_or("server has no TCP address")?.to_string();
        let handle = server.spawn();
        Client::tcp(&addr).ping().map_err(|e| format!("ping: {e}"))?;
        Ok(Daemon { addr, handle })
    }

    fn stats(&self) -> BTreeMap<String, u64> {
        match Client::tcp(&self.addr).request(&Request::Stats, |_| {}) {
            Ok(Response::Stats { pairs }) => pairs.into_iter().collect(),
            _ => BTreeMap::new(),
        }
    }

    fn stop(self) -> Result<(), String> {
        Client::tcp(&self.addr)
            .request(&Request::Shutdown { drain: true }, |_| {})
            .map_err(|e| format!("shutdown: {e}"))?;
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// One request as the client saw it.
struct Record {
    lane: usize,
    send: Instant,
    queued: Option<Instant>,
    first_cell: Option<Instant>,
    last_cell: Option<Instant>,
    done: Instant,
    cycles: u64,
    ok: bool,
    completed: bool,
}

/// The closed loop: the client connections walk the schedule's rounds
/// until `seconds` have passed, each sending its request of a round only
/// after its previous reply and starting a round only when every client
/// has finished the last one. Every reply is checked against its
/// reference.
fn closed_loop(
    addr: &str,
    schedule: &[[Ask; 2]],
    refs: &BTreeMap<Ask, String>,
    ctx: &Ctx,
) -> (Vec<Record>, Vec<f64>, Instant, Instant) {
    let clients = ctx.threads;
    let barrier = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    let peaks = Mutex::new(Vec::new());
    let start = Instant::now();
    let records: Vec<Record> = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..clients)
            .map(|lane| {
                let (barrier, stop, peaks) = (&barrier, &stop, &peaks);
                scope.spawn(move || {
                    let client = Client::tcp(addr);
                    let mut out = Vec::new();
                    for (n, round) in schedule.iter().cycle().enumerate() {
                        if barrier.wait().is_leader() {
                            if n > 0 {
                                peaks
                                    .lock()
                                    .expect("peak lock poisoned")
                                    .push(crate::peak_rss_mb());
                            }
                            crate::reset_peak_rss();
                            stop.store(start.elapsed() >= ctx.seconds, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        for ask in round.iter().skip(lane).step_by(clients) {
                            out.push(request(&client, ask, refs, lane));
                        }
                    }
                    out
                })
            })
            .collect();
        lanes.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let end = records.iter().map(|r| r.done).max().unwrap_or(start);
    (records, peaks.into_inner().expect("peak lock poisoned"), start, end)
}

/// Sends one request and records what the client saw.
fn request(client: &Client, ask: &Ask, refs: &BTreeMap<Ask, String>, lane: usize) -> Record {
    let send = Instant::now();
    let (mut queued, mut first_cell, mut last_cell, mut cycles) = (None, None, None, 0);
    let reply = client.request(&Request::Run(run_request(ask)), |ev| match ev {
        Response::Queued { .. } => queued = Some(Instant::now()),
        Response::Cell { cycles: c, .. } => {
            let now = Instant::now();
            first_cell.get_or_insert(now);
            last_cell = Some(now);
            cycles += c;
        }
        _ => {}
    });
    let done = Instant::now();
    let (ok, completed) = match &reply {
        Ok(Response::Done { payload, .. }) => {
            (refs.get(ask) == Some(&without_timing(payload)), true)
        }
        Ok(other) => {
            eprintln!("mgperf: serve {ask:?}: {other:?}");
            (false, false)
        }
        Err(e) => {
            eprintln!("mgperf: serve {ask:?}: {e}");
            (false, false)
        }
    };
    Record { lane, send, queued, first_cell, last_cell, done, cycles, ok, completed }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = &ctx.tracer;
    let schedule = serve_schedule(ctx.seed);
    let distinct: BTreeSet<Ask> = schedule.iter().flatten().cloned().collect();

    // Set-up, several times: server start, then cold and warm references.
    let (mut setups, mut colds, mut warms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cold_took, mut warm_took) = (Vec::new(), Vec::new());
    let mut state: Option<(Daemon, BTreeMap<Ask, String>)> = None;
    for i in 0..SERVE_SETUPS {
        if let Some((daemon, _)) = state.take() {
            daemon.stop()?;
        }
        crate::release_freed_heap();
        let dir = ctx.scratch.join(format!("serve-{i}"));
        let t0 = Instant::now();
        let daemon = Daemon::start(ctx.threads, &dir.join("server"))?;
        let t1 = Instant::now();
        let (cold, cold_each) = references(&distinct, ctx.threads, &dir.join("refs"))?;
        let t2 = Instant::now();
        let (warm, warm_each) = references(&distinct, ctx.threads, &dir.join("refs"))?;
        let t3 = Instant::now();
        setups.push(t0.elapsed().as_secs_f64());
        colds.push((t2 - t1).as_secs_f64());
        warms.push((t3 - t2).as_secs_f64());
        cold_took.push(cold_each);
        warm_took.push(warm_each);
        if i == 0 {
            for (a, payload) in &cold {
                out.checks.check(warm.get(a) == Some(payload), || {
                    format!("{a:?}: warm reference differs from cold")
                });
            }
        }
        state = Some((daemon, cold));
    }
    let (daemon, refs) = state.expect("at least one set-up");
    let refs_dir = ctx.scratch.join(format!("serve-{}", SERVE_SETUPS - 1)).join("refs");

    crate::release_freed_heap();
    let (records, peaks, start, end) = closed_loop(&daemon.addr, &schedule, &refs, ctx);
    out.set("peak_rss_mb", median(&peaks));
    for r in &records {
        out.checks.check(r.ok, || {
            "a served payload differs from its reference, or the request failed".into()
        });
    }
    let wall = (end - start).as_secs_f64();
    let done: Vec<&Record> = records.iter().filter(|r| r.completed).collect();
    let lat: Vec<f64> = done.iter().map(|r| (r.done - r.send).as_secs_f64() * 1e3).collect();
    let cycles: u64 = done.iter().map(|r| r.cycles).sum();
    let tl = tail(&lat);

    // The simulated figures: a fig6-shaped quick run per input, over the
    // references' warm session.
    let session = Session::builder().threads(ctx.threads).cache_dir(refs_dir).build();
    let (mut speedups, mut covered, mut insts) = (Vec::new(), 0u64, 0u64);
    for input in SERVE_INPUTS {
        let spec = fig6_runs().into_iter().fold(
            RunSpec::new().input(InputSelector::Named(input.into())).quick(true),
            |s, r| s.cell(crate::prep::cell(&r)),
        );
        let fig6 = session.run(&spec).map_err(|e| format!("fig6: {e}"))?;
        for r in &fig6.rows {
            speedups.push(speedup(&r.stats[0], &r.stats[INTMEM]));
            covered += r.stats[INTMEM].handle_insts;
            insts += r.stats[INTMEM].insts;
        }
    }
    let sim = (gmean(&speedups), covered as f64 / insts.max(1) as f64);

    out.set("setup_s", median(&setups));
    let per_walk = 2 * schedule.len();
    out.set("sweep_s", wall * per_walk as f64 / done.len().max(1) as f64);
    out.set("sim_mcycles_per_s", cycles as f64 / 1e6 / wall);
    out.set("sim_speedup_gmean", sim.0);
    out.set("mg_coverage", sim.1);
    // A reference pass is its requests plus the session around them,
    // each at its fastest set-up.
    let (cold_s, _) = fastest_whole(&colds, &cold_took);
    let (warm_s, _) = fastest_whole(&warms, &warm_took);
    out.set("prep_cold_s", cold_s);
    out.set("prep_warm_s", warm_s);
    out.set("serve_rps", done.len() as f64 / wall);
    out.set("serve_p50_ms", median(&lat));
    out.set("serve_tail_ms", tl.value);
    out.note(format!(
        "serve: {} clients, closed loop over a {}-request schedule ({} distinct), {} requests in {:.2}s",
        ctx.threads,
        per_walk,
        distinct.len(),
        records.len(),
        wall
    ));
    out.note(format!(
        "serve: tail is p{:.1} over {} samples, {} beyond",
        tl.pct, tl.samples, tl.beyond
    ));
    out.note(format!(
        "serve: set-ups {setups:.3?} s, cold references {colds:.3?} s, warm {warms:.3?} s; \
         fastest requests add up to {cold_s:.3} s cold, {warm_s:.3} s warm"
    ));

    if t.on() {
        // The window's requests become spans: per request, accept (send
        // to Queued), first cell (Queued to the first Cell: queue wait,
        // merge wait and prep), run (first to last Cell) and finish (last
        // Cell to Done: render, encode, write). The client takes these
        // instants with tracing off too, so only turning them into spans
        // is extra.
        let t0 = Instant::now();
        let root = t.record("bench.window", start, end, None, 0);
        let lanes: Vec<_> = (0..ctx.threads)
            .map(|lane| {
                let lane_end = records
                    .iter()
                    .filter(|r| r.lane == lane)
                    .map(|r| r.done)
                    .max()
                    .unwrap_or(start);
                t.record("bench.client", start, lane_end, Some(root), 0)
            })
            .collect();
        let mut sums = [0.0f64; 4];
        for (i, r) in records.iter().enumerate() {
            let req = i as u64 + 1;
            let span = t.record("serve.request", r.send, r.done, Some(lanes[r.lane]), req);
            let queued = r.queued.unwrap_or(r.send);
            let first = r.first_cell.unwrap_or(r.done);
            let last = r.last_cell.unwrap_or(first);
            let phases = [
                ("serve.accept", r.send, queued),
                ("serve.first_cell", queued, first),
                ("serve.run", first, last),
                ("serve.finish", last, r.done),
            ];
            for (k, (name, a, b)) in phases.into_iter().enumerate() {
                t.record(name, a, b, Some(span), req);
                sums[k] += (b - a).as_secs_f64() * 1e3;
            }
        }
        let n = records.len().max(1) as f64;
        for (k, name) in
            ["serve.accept_ms", "serve.first_cell_ms", "serve.run_ms", "serve.finish_ms"]
                .into_iter()
                .enumerate()
        {
            out.set(name, sums[k] / n);
        }
        let spans = t.spans();
        out.set("trace.coverage", covered_below(&spans, root) / (ctx.threads as f64 * wall));
        out.set("trace.overhead_s", t0.elapsed().as_secs_f64());
        let stats = daemon.stats();
        let get = |k: &str| stats.get(k).copied().unwrap_or(0) as f64;
        out.set("serve.batched", get("batched"));
        out.set("serve.busy", get("busy_rejections"));
        out.set("serve.preps_prepared", get("preps_prepared"));
        out.set("serve.preps_reused", get("preps_reused"));
        let pool = get("preps_prepared") + get("preps_reused");
        out.set(
            "serve.pool_reuse_ratio",
            if pool > 0.0 { get("preps_reused") / pool } else { 0.0 },
        );

        // What the daemon's preparation costs per layer: the schedule's
        // inputs prepared through the layers' entry points, with the
        // policy lab's exact DP selector.
        let dir = ctx.scratch.join("serve-replay");
        let cache = PrepCache::new(&dir);
        let runs = fig6_runs();
        let inputs: BTreeSet<&str> = distinct.iter().map(|a| a.input).collect();
        let root = t.open("bench.prep_replay", None, 0);
        for input in inputs {
            let replay = Replay {
                input: InputSelector::resolve_named(input).ok_or("unknown input")?,
                quick: true,
                cache: Some(&cache),
                runs: &runs,
                simulate: false,
                dp: true,
            };
            for w in mg_workloads::all() {
                replica::prepare(&Source::Registry(w), &replay, t, Some(root), 0)?;
            }
        }
        t.close(root);
    }
    daemon.stop()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::without_timing;

    #[test]
    fn timing_table_is_removed_in_every_format() {
        let json = "{\n  \"blocks\": [\n    {\"id\": \"a\"},\n    {\"type\": \"table\", \"id\": \"policy_lab.timing\", \"rows\": [[\"1.0\"]]},\n    {\"id\": \"b\"}\n]}\n";
        assert_eq!(
            without_timing(json),
            "{\n  \"blocks\": [\n    {\"id\": \"a\"},\n    {\"id\": \"b\"}\n]}\n"
        );
        let csv = "# table: x\nc\n1\n# table: policy_lab.timing\nworkload,family,select_ms\nw,dp,0.1\n# table: y\nc\n2\n";
        assert_eq!(without_timing(csv), "# table: x\nc\n1\n# table: y\nc\n2\n");
        let md = "### t\n\n| a |\n|---|\n| 1 |\n\n\n| workload | family | select_ms |\n|---|---|---|\n| w | dp | 0.1 |\n\nafter\n";
        assert_eq!(without_timing(md), "### t\n\n| a |\n|---|\n| 1 |\n\n\nafter\n");
        let text = "== t ==\nrow 1\n";
        assert_eq!(without_timing(text), text);
    }
}
