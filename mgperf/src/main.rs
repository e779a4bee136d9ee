//! `mgperf`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path mgperf/Cargo.toml -- \
//!     --workload sweep|prep|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run measures one workload in its own process, so peak memory
//! never carries over from another workload. Standard output starts
//! with a header line (`{"header": ...}`), then report lines starting
//! with `#`, and ends with one JSON object: whether every output was
//! correct, the operations attempted and failed, and the metrics —
//! every end-to-end metric with `--trace 0`, every per-layer metric
//! with `--trace 1`. See `README.md` for what each metric means.

mod prep;
mod replica;
mod seeded;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("sim_mcycles_per_s", "Mc/s"),
    ("sim_speedup_gmean", "x"),
    ("mg_coverage", "fraction"),
    ("prep_cold_s", "s"),
    ("prep_warm_s", "s"),
    ("serve_rps", "req/s"),
    ("serve_p50_ms", "ms"),
    ("serve_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
/// A `<layer>.<call>_ms` metric is the self time of that call's spans.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.build_ms", "ms"),
    ("lang.compile_ms", "ms"),
    ("profile.cfg_ms", "ms"),
    ("profile.functional_ms", "ms"),
    ("profile.dyn_insts", "count"),
    ("profile.trace_record_ms", "ms"),
    ("profile.trace_ops", "count"),
    ("core.enumerate_ms", "ms"),
    ("core.candidates", "count"),
    ("core.select_ms", "ms"),
    ("core.rewrite_ms", "ms"),
    ("policy.dp_select_ms", "ms"),
    ("uarch.predecode_ms", "ms"),
    ("uarch.fused_ms", "ms"),
    ("uarch.scalar_ms", "ms"),
    ("uarch.scalar_mcps", "Mc/s"),
    ("uarch.fused_mcps", "Mc/s"),
    ("uarch.fused_gain", "x"),
    ("uarch.sim_cycles", "count"),
    ("uarch.sim_ops", "count"),
    ("uarch.sim_insts", "count"),
    ("harness.fingerprint_ms", "ms"),
    ("harness.engine_ms", "ms"),
    ("harness.makespan_s", "s"),
    ("harness.lower_bound_s", "s"),
    ("harness.longest_cell_s", "s"),
    ("harness.schedule_efficiency", "fraction"),
    ("harness.cache_load_ms", "ms"),
    ("harness.cache_store_ms", "ms"),
    ("harness.cache_hits", "count"),
    ("harness.cache_misses", "count"),
    ("harness.cache_bytes", "bytes"),
    ("serve.accept_ms", "ms"),
    ("serve.first_cell_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.finish_ms", "ms"),
    ("serve.batched", "count"),
    ("serve.busy", "count"),
    ("serve.preps_prepared", "count"),
    ("serve.preps_reused", "count"),
    ("serve.pool_reuse_ratio", "fraction"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_s", "s"),
];

/// Set-ups per run of `sweep` and `prep`; `setup_s` is their median.
/// Each takes about a second, as long as the host's shortest busy
/// phases, so a median of three still moved by a third between runs.
pub const SETUPS: usize = 5;

/// What every workload runner gets.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: Duration,
    /// Spans and counts for the traced run (disabled otherwise).
    pub tracer: Tracer,
    /// Engine threads, server workers and client connections.
    pub threads: usize,
    /// Scratch directory for artifact caches, removed at exit.
    pub scratch: PathBuf,
}

/// Correctness gates: each check is one attempted operation, and a
/// failed check is a failed operation, never an abort.
#[derive(Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or gave a wrong output.
    pub failed: u64,
}

impl Checks {
    /// Counts one operation; reports it on standard error when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("mgperf: check failed: {}", what());
            }
        }
    }
}

/// A workload run's result.
#[derive(Default)]
pub struct Outcome {
    /// The correctness gates.
    pub checks: Checks,
    /// Measured metrics by name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Report lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Fills the per-layer metrics a workload left unset: each span name's
/// summed self time as `<name>_ms` (total over the traced work), and
/// every counter.
pub fn layer_metrics(out: &mut Outcome, tracer: &Tracer) {
    let spans = trace::self_time_by_name(&tracer.spans());
    let counts = tracer.counts();
    for &(metric, _) in &PER_LAYER {
        let value = match metric.strip_suffix("_ms") {
            Some(name) => spans.get(name).map(|s| s * 1e3),
            None => counts.get(metric).copied(),
        };
        if let Some(v) = value {
            out.metrics.entry(metric).or_insert(v);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !["sweep", "prep", "serve"].contains(&a.workload.as_str()) {
        return Err(format!("--workload must be sweep, prep or serve, not {:?}", a.workload));
    }
    Ok(a)
}

/// Starts a new peak-memory window: the kernel resets this process's
/// peak resident set (`VmHWM`) to its current resident set. Where the
/// kernel refuses, the peak keeps covering the whole run.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hands freed heap memory back to the kernel. Called before each
/// set-up and before the timed window, so that each starts from the same
/// heap and the window's peaks count live memory, not whatever the
/// allocator's per-thread arenas happened to keep.
pub fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // returns unused pages of the heap to the kernel; it is safe to
        // call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set of this process since the last
/// [`reset_peak_rss`], in MB (`VmHWM`). A workload reports the median of
/// these peaks over the units of its timed window (passes, or rounds for
/// `serve`): allocator arenas make a single process-wide peak jump by
/// hundreds of MB from run to run, while the per-unit peak is steady.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit, when the checkout is a git work tree.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// FNV-1a over the library sources (`crates/`, sorted paths and
/// contents), which identifies the code measured when the checkout
/// carries no git metadata.
fn source_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mgperf: {e}");
            eprintln!(
                "usage: mgperf --workload sweep|prep|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("mgperf: run from the repository root (no crates/ directory here)");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    let scratch = PathBuf::from(".bench_scratch").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("mgperf: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    println!(
        "{{\"header\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"engine_threads\": {}, \"server_workers\": {}, \
         \"client_connections\": {}, \"pinning\": \"none\", \"build_profile\": {}, \
         \"commit\": {}, \"source_fnv\": {}, \"model\": \"unvalidated: no reference \
         hardware results, so no error figure\"}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        match args.workload.as_str() {
            "sweep" => sweep::SWEEP_THREADS,
            "prep" => prep::PREP_THREADS,
            _ => threads,
        },
        if args.workload == "serve" { threads } else { 0 },
        if args.workload == "serve" { threads } else { 0 },
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&commit()),
        json_str(&source_hash()),
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        tracer: Tracer::new(args.trace),
        threads,
        scratch: scratch.clone(),
    };
    let result = match args.workload.as_str() {
        "sweep" => sweep::run(&ctx),
        "prep" => prep::run(&ctx),
        _ => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("mgperf: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        layer_metrics(&mut out, &ctx.tracer);
        let path = PathBuf::from(".bench_scratch")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, &ctx.tracer.spans()) {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => eprintln!("mgperf: cannot write {}: {e}", path.display()),
        }
    }
    for line in &out.notes {
        println!("# {line}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {v:?}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    let Checks { attempted, failed } = out.checks;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
    );
    ExitCode::SUCCESS
}
