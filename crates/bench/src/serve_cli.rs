//! The `mg serve` and `mg client` subcommands: the experiment registry
//! wired onto the generic `mg-serve` service.
//!
//! `mg serve` starts a long-running daemon that
//!
//! * validates incoming [`RunRequest`]s against the same registry
//!   `mg run` uses ([`crate::cli::experiments`]);
//! * executes them through the registry's report builders over one
//!   shared [`Session`] (and with it one warm-prep pool), so every
//!   client reuses one warm prep per (workload, input, trace budget,
//!   cache root) — the first request pays for preparation, later ones
//!   (from any client) skip it entirely;
//! * streams per-cell progress frames while a matrix runs (the engine's
//!   [`CellObserver`] forwarded as [`Response::Cell`] frames);
//! * batches field-for-field equal requests onto one execution and
//!   bounds its queue with a documented `Busy` reply (see
//!   `docs/PROTOCOL.md`).
//!
//! Served payloads are **byte-identical** to the stdout of the same
//! `mg run --format <fmt>` invocation (asserted by
//! `crates/bench/tests/serve.rs`), and — because preparation artifacts
//! come from the same pool + persistent cache — the harness's cold/warm
//! bit-identity guarantee extends to served results. The `perf`
//! experiment is deliberately **not served**: it writes
//! `BENCH_pipeline.json` into the daemon's working directory (which a
//! client cannot redirect, and concurrent runs would race on), and its
//! wall-clock timings would measure the daemon host under load rather
//! than the code — it stays a one-shot `mg run perf` tool.

use crate::cli::{self, Format, RunArgs};
use mg_api::{InputSelector, MgError, MgErrorKind, Session};
use mg_harness::{CellDone, CellObserver};
use mg_serve::{
    Client, EmitFn, Request, Response, RetryPolicy, RunOutcome, RunRequest, Runner, Server,
    ServerConfig,
};
use std::sync::Arc;
use std::time::Duration;

/// Default TCP endpoint of `mg serve` / `mg client`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4571";

/// Exit status of `mg client run` when the server replies `Busy`
/// (distinct from the statuses registry experiments actually return —
/// 0 and 1 — so scripts can key retries on it; a successful run exits
/// with the experiment's own status, exactly like `mg run`).
pub const EXIT_BUSY: i32 = 75; // EX_TEMPFAIL

/// Prints a client-side transport/protocol failure and returns the
/// documented `protocol` exit status (76; see `mg help`).
fn protocol_fail(what: &str, e: &dyn std::fmt::Display) -> i32 {
    eprintln!("mg client {what}: {e}");
    MgErrorKind::Protocol.exit_code()
}

/// Builds the daemon's [`Runner`]: registry validation plus experiment
/// execution over the shared [`Session`] — every request clones the one
/// session, so all clients share its warm-prep pool — with per-cell
/// streaming. Failures are typed [`MgError`]s; the wire flattens them to
/// `"<kind>: <message>"` Error frames.
pub fn registry_runner(session: Session) -> Runner {
    Arc::new(move |req: &RunRequest, emit: EmitFn| {
        run_request(&session, req, emit).map_err(|e| format!("{}: {e}", e.kind()))
    })
}

/// Executes one validated run request against `session` (the typed half
/// of [`registry_runner`]).
fn run_request(
    session: &Session,
    req: &RunRequest,
    emit: EmitFn,
) -> Result<RunOutcome, MgError> {
    let spec = cli::experiment(&req.experiment).ok_or_else(|| {
        MgError::invalid_spec(format!("unknown experiment {:?}", req.experiment))
    })?;
    let format = Format::parse(&req.format).ok_or_else(|| {
        MgError::invalid_spec(format!(
            "unknown format {:?} (text|json|csv|markdown)",
            req.format
        ))
    })?;
    let input = session.resolve_input(&InputSelector::Named(req.input.clone()))?;
    let progress: CellObserver = {
        let emit = Arc::clone(&emit);
        Arc::new(move |cell: &CellDone| {
            emit(Response::Cell {
                workload: cell.workload.clone(),
                label: cell.label.clone(),
                cycles: cell.cycles,
                ops: cell.ops,
            });
        })
    };
    let args = RunArgs {
        quick: req.quick,
        threads: req.threads.map(|n| n as usize),
        best: req.best,
        no_cache: req.no_cache,
        no_fuse: req.no_fuse,
        input,
        session: session.clone(),
        progress: Some(progress),
        ..RunArgs::default()
    };
    // Builders return harness failures as typed errors. A panic is a
    // bug, but it still must not take the worker thread (and every
    // batched client) down with it; surface it as a typed error too.
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (spec.build)(&args)))
        .map_err(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("experiment builder panicked");
            MgError::exec(format!("experiment {:?} failed: {msg}", req.experiment))
        })??;
    Ok(RunOutcome { status: report.status, payload: cli::render(&report, format) })
}

/// Constructs a ready-to-serve [`Server`] for the full experiment
/// registry (shared by `mg serve` and the in-process tests). `addr` is a
/// TCP address, or a Unix-socket path when `unix` is set.
pub fn bind_registry_server(
    addr: &str,
    unix: bool,
    workers: usize,
    max_queue: usize,
) -> std::io::Result<Server> {
    // One session for the daemon's lifetime: its warm-prep pool is what
    // every client shares, and its cache root (the default, unless a
    // request says --no-cache) is what served runs persist into.
    let session = Session::builder().cache(true).build();
    let cfg = ServerConfig { workers, max_queue, ..ServerConfig::default() };
    bind_registry_server_with(addr, unix, session, cfg)
}

/// [`bind_registry_server`] with an explicit [`Session`] and
/// [`ServerConfig`] — the entry point for deadline-configured daemons
/// and the fault-injecting `mg chaos` harness. The config's
/// `stats_extra` slot is claimed for the session pool's counters.
pub fn bind_registry_server_with(
    addr: &str,
    unix: bool,
    session: Session,
    mut cfg: ServerConfig,
) -> std::io::Result<Server> {
    // Everything except `perf`: the perf driver writes
    // BENCH_pipeline.json (and a sweep cache) into the *daemon's* cwd —
    // a client cannot redirect it, concurrent runs would race on the
    // file, and its wall-clock numbers would measure the daemon host
    // under load rather than the code. It stays a one-shot `mg run
    // perf` tool.
    let experiments: Vec<String> = cli::experiments()
        .iter()
        .filter(|e| e.name != "perf")
        .map(|e| e.name.to_string())
        .collect();
    let pool = Arc::clone(session.pool());
    let runner = registry_runner(session);
    cfg.stats_extra = Some(Arc::new(move || {
        vec![
            ("preps_prepared".to_string(), pool.prepared()),
            ("preps_reused".to_string(), pool.reused()),
            ("preps_retried".to_string(), pool.retried()),
        ]
    }));
    if unix {
        Server::bind_unix(addr, experiments, runner, cfg)
    } else {
        Server::bind(addr, experiments, runner, cfg)
    }
}

struct EndpointArgs {
    addr: String,
    unix: bool,
}

impl Default for EndpointArgs {
    fn default() -> EndpointArgs {
        EndpointArgs { addr: DEFAULT_ADDR.to_string(), unix: false }
    }
}

impl EndpointArgs {
    fn client(&self) -> Client {
        if self.unix {
            Client::unix(&self.addr)
        } else {
            Client::tcp(&self.addr)
        }
    }
}

/// `mg serve`: run the experiment daemon until a client sends
/// `shutdown`.
pub fn cmd_serve(argv: &[String]) -> i32 {
    let mut endpoint = EndpointArgs::default();
    let mut cfg = ServerConfig::default();
    fn positive(flag: &str, v: String) -> Result<usize, String> {
        v.parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("{flag} requires a positive integer"))
    }
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        let parsed: Result<(), String> = (|| {
            match a.as_str() {
                "--addr" => endpoint.addr = value("--addr")?,
                "--socket" => {
                    endpoint.addr = value("--socket")?;
                    endpoint.unix = true;
                }
                "--workers" => cfg.workers = positive(a, value(a)?)?,
                // A zero bound would Busy-reject every run forever.
                "--max-queue" => cfg.max_queue = positive(a, value(a)?)?,
                "--queue-deadline-ms" => {
                    cfg.queue_deadline =
                        Some(Duration::from_millis(positive(a, value(a)?)? as u64))
                }
                "--run-deadline-ms" => {
                    cfg.run_deadline =
                        Some(Duration::from_millis(positive(a, value(a)?)? as u64))
                }
                "--drain-deadline-ms" => {
                    cfg.drain_deadline = Duration::from_millis(positive(a, value(a)?)? as u64)
                }
                "--slow-client-ms" => {
                    cfg.slow_client_timeout =
                        Duration::from_millis(positive(a, value(a)?)? as u64)
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("mg serve: {e}");
            return 2;
        }
    }
    let (workers, max_queue) = (cfg.workers, cfg.max_queue);
    let session = Session::builder().cache(true).build();
    let server = match bind_registry_server_with(&endpoint.addr, endpoint.unix, session, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mg serve: cannot bind {}: {e}", endpoint.addr);
            return 1;
        }
    };
    let shown =
        server.local_addr().map(|a| a.to_string()).unwrap_or_else(|| endpoint.addr.clone());
    eprintln!(
        "mg serve: listening on {shown} ({workers} workers, queue bound {max_queue}); \
         stop with `mg client shutdown`"
    );
    match server.serve() {
        Ok(()) => {
            eprintln!("mg serve: shut down cleanly");
            0
        }
        Err(e) => {
            eprintln!("mg serve: {e}");
            1
        }
    }
}

/// `mg client`: one-shot wire client (`run`, `ping`, `stats`,
/// `shutdown`).
pub fn cmd_client(argv: &[String]) -> i32 {
    let mut endpoint = EndpointArgs::default();
    let mut retry = 0u32;
    let mut backoff_ms: Option<u64> = None;
    let mut drain = true;
    let mut run = RunRequest::new(String::new());
    let mut action: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        let parsed: Result<(), String> = (|| {
            match a.as_str() {
                "--addr" => endpoint.addr = value("--addr")?,
                "--socket" => {
                    endpoint.addr = value("--socket")?;
                    endpoint.unix = true;
                }
                "--retry" => {
                    retry = value("--retry")?
                        .parse()
                        .map_err(|_| "--retry requires a non-negative integer".to_string())?
                }
                "--backoff-ms" => {
                    backoff_ms = Some(value("--backoff-ms")?.parse().map_err(|_| {
                        "--backoff-ms requires a non-negative integer".to_string()
                    })?)
                }
                "--no-drain" => drain = false,
                "--quick" => run.quick = Some(true),
                "--full" => run.quick = Some(false),
                "--best" => run.best = true,
                "--no-cache" => run.no_cache = true,
                "--no-fuse" => run.no_fuse = true,
                "--threads" => {
                    run.threads = Some(
                        value("--threads")?
                            .parse()
                            .map_err(|_| "--threads requires a positive integer".to_string())?,
                    )
                }
                "--input" => run.input = value("--input")?,
                "--format" => run.format = value("--format")?,
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag:?}"));
                }
                pos if action.is_none() => action = Some(pos.to_string()),
                pos if action.as_deref() == Some("run") && run.experiment.is_empty() => {
                    run.experiment = pos.to_string()
                }
                pos => return Err(format!("unexpected argument {pos:?}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("mg client: {e}");
            return 2;
        }
    }
    let client = endpoint.client();
    // `--retry N` means N retries on top of the first attempt; the
    // policy counts total attempts.
    let policy = RetryPolicy {
        attempts: retry.saturating_add(1),
        backoff_ms: backoff_ms.unwrap_or(200),
        ..RetryPolicy::default()
    };
    match action.as_deref() {
        Some("ping") => match client.request_with_retry(&Request::Ping, &policy, |_| {}) {
            Ok(Response::Pong { protocol }) => {
                println!("pong (protocol {protocol})");
                0
            }
            Ok(other) => protocol_fail("ping", &format!("unexpected reply {other:?}")),
            Err(e) => protocol_fail("ping", &e),
        },
        Some("stats") => match client.request_with_retry(&Request::Stats, &policy, |_| {}) {
            Ok(Response::Stats { pairs }) => {
                for (name, v) in pairs {
                    println!("{name} {v}");
                }
                0
            }
            Ok(other) => protocol_fail("stats", &format!("unexpected reply {other:?}")),
            Err(e) => protocol_fail("stats", &e),
        },
        Some("shutdown") => match client.request(&Request::Shutdown { drain }, |_| {}) {
            Ok(Response::Done { .. }) => {
                eprintln!("server acknowledged shutdown");
                0
            }
            Ok(other) => protocol_fail("shutdown", &format!("unexpected reply {other:?}")),
            Err(e) => protocol_fail("shutdown", &e),
        },
        Some("run") if !run.experiment.is_empty() => {
            let on_event = |event: &Response| match event {
                Response::Queued { position } => {
                    eprintln!("queued at position {position}");
                }
                Response::Cell { workload, label, cycles, ops } => {
                    eprintln!("cell {workload}/{label}: {cycles} cycles, {ops} ops");
                }
                _ => {}
            };
            match client.request_with_retry(&Request::Run(run), &policy, on_event) {
                Ok(Response::Done { status, payload }) => {
                    print!("{payload}");
                    // Exit with the experiment's own status, exactly as
                    // `mg run` would (the OS truncates both identically).
                    status as i32
                }
                Ok(Response::Busy { depth, capacity }) => {
                    eprintln!(
                        "mg client run: server busy (queue {depth}/{capacity}); retry later"
                    );
                    EXIT_BUSY
                }
                Ok(Response::Expired { phase, waited_ms, budget_ms }) => {
                    eprintln!(
                        "mg client run: {phase} deadline exceeded \
                         ({waited_ms}ms waited, {budget_ms}ms budget)"
                    );
                    MgErrorKind::Timeout.exit_code()
                }
                Ok(Response::Error { message }) => {
                    eprintln!("mg client run: {message}");
                    1
                }
                Ok(other) => protocol_fail("run", &format!("unexpected reply {other:?}")),
                Err(e) => protocol_fail("run", &e),
            }
        }
        _ => {
            eprintln!(
                "mg client: expected `run <experiment>`, `ping`, `stats`, or `shutdown` \
                 (plus --addr HOST:PORT or --socket PATH)"
            );
            2
        }
    }
}
