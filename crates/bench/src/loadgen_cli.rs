//! The `mg loadgen` subcommand: a seeded load generator for the shard
//! cluster, and the producer of the committed `BENCH_serve.json`
//! serving-latency trajectory.
//!
//! `mg loadgen` stands up an in-process [`mg_cluster::Cluster`] (each
//! shard an `mg serve` daemon over the full registry, with a
//! shard-private cache root reading through to one shared root) and
//! drives it with N concurrent retrying clients walking a seeded
//! request schedule:
//!
//! * **hot duplicates** (~70% of slots) repeat one cheap cell
//!   (`fig7`/`tiny`, json and text) so concurrent identical requests
//!   exercise batching and cross-client coalescing on the owning shard;
//! * **cold uniques** (~30%) draw from a small pool of distinct
//!   `(experiment, format)` cells so preparation, per-shard caches, and
//!   the shared read-through root all see work.
//!
//! The schedule is a pure function of `(seed, client, slot)` — no
//! clock, no global RNG — so the same seed replays the same request
//! multiset, and with `--shards 1` the cluster degenerates into a
//! single daemon whose every payload is byte-compared against the
//! sequential `mg run` output (the differential in
//! `crates/bench/tests/loadgen.rs`).
//!
//! After the soak a **warm verification wave** re-requests every
//! distinct cell once: payloads must still match, and (when no shard
//! was killed) the per-shard `preps_prepared` counters must not move —
//! the cluster-wide exactly-once preparation gate. With `--kill-shard`
//! the deterministic `cluster.shard.panic` fault point hard-kills one
//! shard mid-soak; every accepted request must still complete (the
//! coordinator reroutes, clients retry shutdown answers), which is the
//! zero-dropped-requests acceptance the resilience tests pin down.
//!
//! Results — throughput plus p50/p95/p99 client-observed latency for
//! the soak and the warm wave, and the cluster's routing/steal counters
//! — are written to `BENCH_serve.json` (schema `mg-serve-report-v1`),
//! the serving-side sibling of `BENCH_pipeline.json`.

use crate::cli::{self, Format, RunArgs};
use crate::serve_cli;
use crate::soak::{self, SoakJob};
use mg_api::{MgError, Session};
use mg_cluster::{Cluster, ClusterConfig, ShardFactory};
use mg_fault::{points, FaultPlan};
use mg_serve::{Client, ServerConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock bound on the whole loadgen soak (looser than the chaos
/// deadline: hundreds of clients serialize onto a few coalescing
/// cells).
pub const LOADGEN_DEADLINE: Duration = Duration::from_secs(600);

/// The hot cell both hot slots share: the cheapest real registry
/// experiment, in the two renderings that coalesce as distinct batches.
const HOT: [(&str, Format); 2] = [("fig7", Format::Json), ("fig7", Format::Text)];

/// The cold pool: distinct cells that exercise preparation (a second
/// experiment) and per-shard routing (same prep key as the hot cell for
/// the fig7 rows — format is not part of the route key — plus fig5's
/// own key landing wherever the ring says).
const COLD: [(&str, Format); 4] = [
    ("fig7", Format::Csv),
    ("fig7", Format::Markdown),
    ("fig5", Format::Json),
    ("fig5", Format::Text),
];

/// `mg loadgen` configuration (the argv surface, test-constructible).
#[derive(Clone, Debug)]
pub struct LoadgenOpts {
    /// Schedule and jitter seed.
    pub seed: u64,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Shard count.
    pub shards: usize,
    /// Quick-mode runs (`--duration-cycles quick|full`).
    pub quick: bool,
    /// Arm `cluster.shard.panic` to hard-kill one shard mid-soak.
    pub kill_shard: bool,
    /// Where to write the `mg-serve-report-v1` document (`None`: skip).
    pub out: Option<PathBuf>,
}

impl Default for LoadgenOpts {
    fn default() -> LoadgenOpts {
        LoadgenOpts {
            seed: 7,
            clients: 16,
            requests: 4,
            shards: 3,
            quick: true,
            kill_shard: false,
            out: None,
        }
    }
}

/// One fixed-point round of splitmix64 — the schedule's only source of
/// pseudo-randomness, so a `(seed, client, slot)` triple always draws
/// the same cell.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded request schedule: for each client, `requests` cells drawn
/// ~70% from the hot pair and ~30% from the cold pool. Pure in `(seed,
/// clients, requests)`; the differential test replays it bit-for-bit.
pub fn schedule(
    seed: u64,
    clients: usize,
    requests: usize,
) -> Vec<Vec<(&'static str, Format)>> {
    (0..clients)
        .map(|c| {
            (0..requests)
                .map(|s| {
                    let r = splitmix(seed ^ ((c as u64) << 20) ^ s as u64);
                    if r % 10 < 7 {
                        HOT[(r / 10) as usize % HOT.len()]
                    } else {
                        COLD[(r / 10) as usize % COLD.len()]
                    }
                })
                .collect()
        })
        .collect()
}

/// The fault-free reference payloads for every distinct cell of
/// `plan`, computed in-process through the exact `mg run` code path
/// (hermetic session: no cache, no pool sharing with the cluster under
/// test). One report build per experiment, one rendering per format.
fn references(
    plan: &[Vec<(&'static str, Format)>],
    quick: bool,
) -> Result<BTreeMap<(&'static str, Format), Arc<String>>, MgError> {
    let mut reports: BTreeMap<&'static str, cli::Report> = BTreeMap::new();
    let mut refs = BTreeMap::new();
    for &(experiment, fmt) in plan.iter().flatten() {
        if refs.contains_key(&(experiment, fmt)) {
            continue;
        }
        if !reports.contains_key(experiment) {
            let args = RunArgs {
                quick: Some(quick),
                input: cli::parse_input("tiny").expect("tiny input"),
                no_cache: true,
                ..RunArgs::default()
            };
            let spec = cli::experiment(experiment).expect("registered experiment");
            reports.insert(experiment, (spec.build)(&args)?);
        }
        refs.insert((experiment, fmt), Arc::new(cli::render(&reports[experiment], fmt)));
    }
    Ok(refs)
}

/// Turns one client's schedule row into harness jobs carrying their
/// reference payloads.
fn jobs_for(
    row: &[(&'static str, Format)],
    refs: &BTreeMap<(&'static str, Format), Arc<String>>,
    quick: bool,
) -> Vec<SoakJob> {
    row.iter()
        .map(|&(experiment, fmt)| SoakJob {
            label: format!("{experiment}/{fmt:?}"),
            request: mg_serve::RunRequest {
                quick: Some(quick),
                input: "tiny".into(),
                format: match fmt {
                    Format::Json => "json",
                    Format::Text => "text",
                    Format::Csv => "csv",
                    Format::Markdown => "markdown",
                }
                .into(),
                ..mg_serve::RunRequest::new(experiment)
            },
            want: Some(Arc::clone(&refs[&(experiment, fmt)])),
        })
        .collect()
}

/// Latency percentiles of one wave, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Percentiles {
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile (the tail the trajectory tracks).
    pub p99_ms: f64,
}

/// Throughput and latency of one wave of requests.
#[derive(Clone, Copy, Debug, Default)]
pub struct Wave {
    /// Requests completed.
    pub requests: usize,
    /// Wall-clock of the whole wave.
    pub wall_ms: f64,
    /// Completed requests per second of wall clock.
    pub rps: f64,
    /// Client-observed latency percentiles.
    pub lat: Percentiles,
    /// Transient terminal errors recovered by outer retries.
    pub recovered: u64,
}

/// Everything `mg loadgen` measured (and gates on).
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// The concurrent soak.
    pub soak: Wave,
    /// The sequential warm verification wave (every distinct cell once).
    pub verify: Wave,
    /// `preps_prepared` growth across the verification wave — must be
    /// zero unless a shard was killed (exactly-once preparation).
    pub prep_delta: u64,
    /// Final aggregated cluster stats (the front-socket `Stats` pairs).
    pub stats: Vec<(String, u64)>,
}

impl LoadgenReport {
    /// One aggregated counter (0 when absent).
    pub fn stat(&self, name: &str) -> u64 {
        soak::stat(&self.stats, name)
    }
}

/// `q`-th percentile (nearest-rank) of an already-sorted latency list.
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (sorted_ms.len() as f64 * q).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

fn wave(latencies: &mut [f64], wall: Duration, recovered: u64) -> Wave {
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let wall_ms = wall.as_secs_f64() * 1000.0;
    Wave {
        requests: latencies.len(),
        wall_ms,
        rps: if wall_ms > 0.0 { latencies.len() as f64 / (wall_ms / 1000.0) } else { 0.0 },
        lat: Percentiles {
            p50_ms: percentile(latencies, 0.50),
            p95_ms: percentile(latencies, 0.95),
            p99_ms: percentile(latencies, 0.99),
        },
        recovered,
    }
}

/// Sum of every shard's `preps_prepared` across the aggregated pairs.
fn total_preps(pairs: &[(String, u64)]) -> u64 {
    pairs.iter().filter(|(n, _)| n.ends_with(".preps_prepared")).map(|(_, v)| *v).sum()
}

/// Runs the whole loadgen soak in-process and returns the measured
/// report (the library entry behind `mg loadgen`; the differential test
/// drives it directly with `shards: 1`).
///
/// # Errors
///
/// The first violated invariant, or the cluster setup failure — in
/// either case the cluster has been torn down and the scratch cache
/// roots removed.
pub fn run_loadgen(opts: &LoadgenOpts) -> Result<LoadgenReport, String> {
    let plan = schedule(opts.seed, opts.clients.max(1), opts.requests.max(1));
    eprintln!(
        "mg loadgen: computing fault-free references ({} distinct cells)",
        plan.iter().flatten().collect::<std::collections::BTreeSet<_>>().len()
    );
    let refs = references(&plan, opts.quick).map_err(|e| format!("reference run: {e}"))?;

    // The cluster under load: per-shard cache roots behind one shared
    // read-through root, all under a throwaway scratch directory.
    let scratch =
        std::env::temp_dir().join(format!("mg-loadgen-{}-{}", opts.seed, std::process::id()));
    let shared_root = scratch.join("shared");
    let factory: ShardFactory = {
        let scratch = scratch.clone();
        let shared_root = shared_root.clone();
        Arc::new(move |shard| {
            let session = Session::builder()
                .cache_dir(scratch.join(format!("shard{shard}")))
                .cache_fallback_dir(&shared_root)
                .build();
            let cfg = ServerConfig {
                workers: 2,
                slow_client_timeout: Duration::from_secs(2),
                ..ServerConfig::default()
            };
            serve_cli::bind_registry_server_with("127.0.0.1:0", false, session, cfg)
        })
    };
    let faults = opts.kill_shard.then(|| {
        // ~one fire per 25 routed runs, capped at a single kill: the
        // shard dies somewhere in the middle of the soak, once.
        Arc::new(FaultPlan::new(opts.seed).with_burst(points::SHARD_PANIC, 40, 1))
    });
    let cfg = ClusterConfig { shards: opts.shards.max(1), faults, ..ClusterConfig::default() };
    let cluster = Cluster::bind("127.0.0.1:0", factory, cfg)
        .map_err(|e| format!("cannot bind cluster: {e}"))?;
    let controller = cluster.controller();
    let addr = cluster.local_addr().expect("tcp bind has an address").to_string();
    let handle = cluster.spawn();
    eprintln!(
        "mg loadgen: cluster on {addr} ({} shards), seed {}, {} clients x {} requests{}",
        opts.shards.max(1),
        opts.seed,
        plan.len(),
        opts.requests.max(1),
        if opts.kill_shard { ", shard-kill armed" } else { "" }
    );

    let mut violations: Vec<String> = Vec::new();

    // --- the soak: N concurrent clients under the shared harness ---
    let soak_started = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    let mut recovered = 0u64;
    let driven = soak::drive(
        plan.len(),
        LOADGEN_DEADLINE,
        |idx| {
            let client = Client::tcp(addr.clone());
            let jobs = jobs_for(&plan[idx], &refs, opts.quick);
            let policy = soak::retry_policy(opts.seed, idx);
            Box::new(move || soak::client_soak(&client, &policy, &jobs))
        },
        |idx, result| {
            if let Err(e) = result {
                eprintln!("mg loadgen: client {idx} FAILED: {e}");
            }
        },
    );
    let soak_wall = soak_started.elapsed();
    match driven {
        Ok(results) => {
            for (idx, result) in results {
                match result {
                    Ok(outcome) => {
                        recovered += outcome.recovered;
                        latencies
                            .extend(outcome.latencies.iter().map(|d| d.as_secs_f64() * 1000.0));
                    }
                    Err(e) => violations.push(format!("client {idx} dropped work: {e}")),
                }
            }
        }
        Err(hang) => violations.push(hang),
    }
    let soak_wave = wave(&mut latencies, soak_wall, recovered);

    // --- warm verification wave: every distinct cell once, preps must
    // not move (exactly-once preparation, cluster-wide) ---
    let preps_before = total_preps(&controller.stats_pairs());
    let distinct: Vec<(&'static str, Format)> = plan
        .iter()
        .flatten()
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let verify_jobs = jobs_for(&distinct, &refs, opts.quick);
    let verify_started = Instant::now();
    let verify_client = Client::tcp(addr.clone());
    let verify_policy = soak::retry_policy(opts.seed, plan.len());
    let mut verify_lat: Vec<f64> = Vec::new();
    let mut verify_recovered = 0u64;
    match soak::client_soak(&verify_client, &verify_policy, &verify_jobs) {
        Ok(outcome) => {
            verify_recovered = outcome.recovered;
            verify_lat.extend(outcome.latencies.iter().map(|d| d.as_secs_f64() * 1000.0));
        }
        Err(e) => violations.push(format!("warm verification wave failed: {e}")),
    }
    let verify_wave = wave(&mut verify_lat, verify_started.elapsed(), verify_recovered);
    let prep_delta = total_preps(&controller.stats_pairs()).saturating_sub(preps_before);
    if prep_delta > 0 && !opts.kill_shard {
        violations.push(format!(
            "exactly-once preparation VIOLATED: the warm wave added {prep_delta} preps"
        ));
    }

    // --- p99 sanity: the tail exists and sits inside the deadline ---
    if soak_wave.requests > 0 {
        let p = soak_wave.lat;
        if !(p.p50_ms > 0.0 && p.p50_ms <= p.p95_ms && p.p95_ms <= p.p99_ms) {
            violations.push(format!("nonsensical percentiles: {p:?}"));
        }
        if p.p99_ms >= LOADGEN_DEADLINE.as_secs_f64() * 1000.0 {
            violations.push(format!("p99 {}ms at or past the soak deadline", p.p99_ms));
        }
    }

    // --- teardown: graceful drain through the front socket ---
    let stats = controller.stats_pairs();
    if !soak::drain_endpoint(&Client::tcp(addr)) {
        violations.push("drain shutdown was never acknowledged".into());
    }
    match handle.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => violations.push(format!("cluster exited with error: {e}")),
        Err(_) => violations.push("cluster serve thread panicked".into()),
    }
    let _ = std::fs::remove_dir_all(&scratch);

    if violations.is_empty() {
        Ok(LoadgenReport { soak: soak_wave, verify: verify_wave, prep_delta, stats })
    } else {
        Err(violations.join("; "))
    }
}

/// Renders the `mg-serve-report-v1` document for `BENCH_serve.json`:
/// one row per wave (throughput + latency percentiles) and one row of
/// cluster counters — the serving-side trajectory committed next to
/// `BENCH_pipeline.json`.
pub fn render_serve_report(opts: &LoadgenOpts, report: &LoadgenReport) -> String {
    let row = |name: &str, w: &Wave| {
        format!(
            "    {{\"name\": \"{name}\", \"requests\": {}, \"wall_ms\": {:.1}, \
             \"rps\": {:.2}, \"p50_ms\": {:.1}, \"p95_ms\": {:.1}, \"p99_ms\": {:.1}, \
             \"recovered\": {}}}",
            w.requests, w.wall_ms, w.rps, w.lat.p50_ms, w.lat.p95_ms, w.lat.p99_ms, w.recovered
        )
    };
    format!(
        "{{\n  \"schema\": \"mg-serve-report-v1\",\n  \"mode\": \"{}\",\n  \
         \"seed\": {},\n  \"shards\": {},\n  \"clients\": {},\n  \"rows\": [\n{},\n{},\n    \
         {{\"name\": \"cluster\", \"routed\": {}, \"reroutes\": {}, \"steals\": {}, \
         \"shard_deaths\": {}, \"preps_prepared\": {}}}\n  ]\n}}\n",
        if opts.quick { "quick" } else { "full" },
        opts.seed,
        opts.shards,
        opts.clients,
        row("soak", &report.soak),
        row("warm_verify", &report.verify),
        report.stat("routed"),
        report.stat("reroutes"),
        report.stat("steals"),
        report.stat("shard_deaths"),
        total_preps(&report.stats),
    )
}

/// `mg loadgen`: run the seeded cluster soak (see the module docs).
/// Exit status 0 when every invariant held and the report (if
/// requested) was written.
pub fn cmd_loadgen(argv: &[String]) -> i32 {
    let mut opts =
        LoadgenOpts { out: Some(PathBuf::from("BENCH_serve.json")), ..LoadgenOpts::default() };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        fn positive(flag: &str, v: String) -> Result<usize, String> {
            v.parse()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or_else(|| format!("{flag} requires a positive integer"))
        }
        let parsed: Result<(), String> = (|| {
            match a.as_str() {
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed requires an unsigned integer".to_string())?
                }
                "--clients" => opts.clients = positive(a, value(a)?)?,
                "--requests" => opts.requests = positive(a, value(a)?)?,
                "--shards" => opts.shards = positive(a, value(a)?)?,
                "--kill-shard" => opts.kill_shard = true,
                "--duration-cycles" => {
                    opts.quick = match value("--duration-cycles")?.as_str() {
                        "quick" => true,
                        "full" => false,
                        _ => return Err("--duration-cycles is quick|full".to_string()),
                    }
                }
                "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
                "--no-out" => opts.out = None,
                other => return Err(format!("unknown argument {other:?}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("mg loadgen: {e}");
            return 2;
        }
    }
    let report = match run_loadgen(&opts) {
        Ok(r) => r,
        Err(e) => {
            println!("mg loadgen: seed {}: FAILED: {e}", opts.seed);
            return 1;
        }
    };
    eprintln!(
        "mg loadgen: routed {}, reroutes {}, steals {}, shard deaths {}, preps {}",
        report.stat("routed"),
        report.stat("reroutes"),
        report.stat("steals"),
        report.stat("shard_deaths"),
        total_preps(&report.stats),
    );
    if let Some(out) = &opts.out {
        if let Err(e) = std::fs::write(out, render_serve_report(&opts, &report)) {
            eprintln!("mg loadgen: cannot write {}: {e}", out.display());
            return 1;
        }
        eprintln!("mg loadgen: wrote {}", out.display());
    }
    println!(
        "mg loadgen: seed {}: all invariants held ({} requests, {:.2} req/s, \
         p50 {:.0}ms p95 {:.0}ms p99 {:.0}ms, {} recovered)",
        opts.seed,
        report.soak.requests,
        report.soak.rps,
        report.soak.lat.p50_ms,
        report.soak.lat.p95_ms,
        report.soak.lat.p99_ms,
        report.soak.recovered,
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schedule is a pure function of its arguments: same seed,
    /// same multiset of requests, bit for bit; a different seed draws a
    /// different mix.
    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a = schedule(7, 8, 16);
        assert_eq!(a, schedule(7, 8, 16));
        assert_ne!(a, schedule(8, 8, 16));
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|row| row.len() == 16));
        // The mix holds roughly: a majority of slots are hot cells.
        let hot = a.iter().flatten().filter(|cell| HOT.contains(cell)).count();
        assert!(hot * 10 >= 8 * 16 * 5, "hot share collapsed: {hot}/128");
        assert!(hot < 8 * 16, "cold cells must appear");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[42.0], 0.99), 42.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn serve_report_renders_the_v1_schema() {
        let opts = LoadgenOpts::default();
        let report = LoadgenReport {
            soak: Wave {
                requests: 64,
                wall_ms: 2000.0,
                rps: 32.0,
                lat: Percentiles { p50_ms: 100.0, p95_ms: 400.0, p99_ms: 900.0 },
                recovered: 1,
            },
            ..LoadgenReport::default()
        };
        let doc = render_serve_report(&opts, &report);
        assert!(doc.contains("\"schema\": \"mg-serve-report-v1\""));
        assert!(doc.contains("\"name\": \"soak\""));
        assert!(doc.contains("\"name\": \"warm_verify\""));
        assert!(doc.contains("\"name\": \"cluster\""));
        assert!(doc.contains("\"p99_ms\": 900.0"));
    }
}
