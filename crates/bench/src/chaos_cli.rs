//! The `mg chaos` subcommand: a seeded, self-checking resilience soak.
//!
//! `mg chaos` stands up an in-process `mg serve` daemon with a
//! deterministic [`FaultPlan`] armed across the whole stack — torn and
//! reset frame writes, delayed and interrupted reads, worker-closure
//! panics, prep-pool panics, cache write failures and post-write
//! corruption — then drives it with N concurrent retrying clients and
//! asserts three invariants the failure model promises
//! (see `docs/DESIGN.md` §9):
//!
//! 1. **No hang**: every client reaches a terminal outcome before the
//!    soak deadline, whatever the injected faults did to its
//!    connections.
//! 2. **Exactly-once preparation**: the warm-prep pool prepares each
//!    (workload, input) key once — injected prep panics are retried
//!    without duplicating a successful preparation (`preps_prepared`
//!    stays at the figure's focus-workload count).
//! 3. **Byte-identity**: every payload a client finally receives is
//!    byte-identical to the fault-free `mg run` output for the same
//!    request, computed in-process before the daemon starts.
//!
//! Fault decisions are a pure function of `(seed, point, hit index)` —
//! no wall clock, no global RNG — so a failing seed replays. Injection
//! rates are capped bursts chosen so the worst deterministic schedule
//! still fits inside the clients' retry budgets: the soak either proves
//! the invariants or fails loudly; it never flakes by construction.

use crate::cli::{self, Format, RunArgs};
use crate::serve_cli;
use crate::soak::{self, SoakJob, CLIENT_ATTEMPTS, SOAK_DEADLINE};
use mg_api::{MgError, Session};
use mg_fault::{points, FaultPlan};
use mg_serve::{Client, Request, Response, RetryPolicy, RunRequest, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// Cap on fires per injected I/O fault point. Every I/O point is a
/// capped burst, so the total number of connection-killing events the
/// plan can ever produce stays below the clients' transport retry
/// budget ([`soak::CLIENT_ATTEMPTS`]) — a client cannot
/// deterministically run out of retries.
const BURST_CAP: u64 = 4;

/// Which fault families `--faults` arms.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Faults {
    /// Every family below.
    All,
    /// Connection-level read/write faults (`serve.read.*`,
    /// `serve.write.*`).
    Io,
    /// Worker-closure and prep-closure panics.
    Panic,
    /// Artifact-cache write failures and corruption.
    Cache,
    /// No injection — a plain concurrency soak.
    None,
}

impl Faults {
    fn parse(s: &str) -> Option<Faults> {
        match s {
            "all" => Some(Faults::All),
            "io" => Some(Faults::Io),
            "panic" => Some(Faults::Panic),
            "cache" => Some(Faults::Cache),
            "none" => Some(Faults::None),
            _ => None,
        }
    }
}

/// Builds the seeded plan for the selected fault families. I/O points
/// are capped bursts (see [`BURST_CAP`]); the prep panic is capped
/// below the pool's retry budget (`MAX_PREP_ATTEMPTS`) so a slot can
/// never be deterministically exhausted; cache faults are uncapped
/// (the cache absorbs them silently by design).
fn build_plan(seed: u64, faults: Faults) -> Option<Arc<FaultPlan>> {
    let mut plan = FaultPlan::new(seed);
    if matches!(faults, Faults::All | Faults::Io) {
        plan = plan
            .with_burst(points::SERVE_READ_INTERRUPT, 60, BURST_CAP)
            .with_burst(points::SERVE_READ_DELAY, 30, BURST_CAP)
            .with_burst(points::SERVE_READ_RESET, 40, BURST_CAP)
            .with_burst(points::SERVE_WRITE_TORN, 40, BURST_CAP)
            .with_burst(points::SERVE_WRITE_RESET, 40, BURST_CAP)
            .with_burst(points::SERVE_WRITE_STALL, 30, BURST_CAP);
    }
    if matches!(faults, Faults::All | Faults::Panic) {
        plan = plan.with_burst(points::WORKER_PANIC, 200, 3).with_burst(
            points::PREP_PANIC,
            300,
            2,
        );
    }
    if matches!(faults, Faults::All | Faults::Cache) {
        plan = plan.with(points::CACHE_WRITE_FAIL, 250).with(points::CACHE_CORRUPT, 250);
    }
    if faults == Faults::None {
        None
    } else {
        Some(Arc::new(plan))
    }
}

/// The request matrix every client walks: one figure, two renderings.
/// Distinct formats are distinct batches server-side; identical
/// requests from different clients coalesce — both paths get soaked.
fn request_matrix(quick: bool) -> Vec<(Format, RunRequest)> {
    [Format::Json, Format::Text]
        .into_iter()
        .map(|fmt| {
            let name = match fmt {
                Format::Json => "json",
                Format::Text => "text",
                Format::Csv => "csv",
                Format::Markdown => "markdown",
            };
            (
                fmt,
                RunRequest {
                    quick: Some(quick),
                    input: "tiny".into(),
                    format: name.into(),
                    ..RunRequest::new("fig7")
                },
            )
        })
        .collect()
}

/// The fault-free reference payloads, computed in-process through the
/// exact `mg run` code path (hermetic session: no cache, no pool
/// sharing with the daemon under test).
fn references(quick: bool) -> Result<Vec<(Format, String)>, MgError> {
    let args = RunArgs {
        quick: Some(quick),
        input: cli::parse_input("tiny").expect("tiny input"),
        no_cache: true,
        ..RunArgs::default()
    };
    let spec = cli::experiment("fig7").expect("fig7 registered");
    let report = (spec.build)(&args)?;
    Ok(request_matrix(quick)
        .into_iter()
        .map(|(fmt, _)| (fmt, cli::render(&report, fmt)))
        .collect())
}

/// The matrix plus its references as [`SoakJob`]s for the shared
/// harness ([`soak::client_soak`]): every client walks the same jobs,
/// each carrying the byte-exact payload it must receive.
fn soak_jobs(quick: bool) -> Result<Vec<SoakJob>, MgError> {
    let refs = references(quick)?;
    Ok(request_matrix(quick)
        .into_iter()
        .map(|(fmt, request)| {
            let want = &refs.iter().find(|(f, _)| *f == fmt).expect("reference rendered").1;
            SoakJob {
                label: format!("{}/{fmt:?}", request.experiment),
                request,
                want: Some(Arc::new(want.clone())),
            }
        })
        .collect())
}

/// `mg chaos`: run the seeded fault-injection soak (see the module
/// docs). Exit status 0 when every invariant held.
pub fn cmd_chaos(argv: &[String]) -> i32 {
    let mut seed = 7u64;
    let mut clients = 4usize;
    let mut faults = Faults::All;
    let mut quick = true;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        let parsed: Result<(), String> = (|| {
            match a.as_str() {
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed requires an unsigned integer".to_string())?
                }
                "--clients" => {
                    clients =
                        value("--clients")?.parse().ok().filter(|n| *n >= 1).ok_or_else(
                            || "--clients requires a positive integer".to_string(),
                        )?
                }
                "--faults" => {
                    faults = Faults::parse(&value("--faults")?)
                        .ok_or_else(|| "--faults is all|io|panic|cache|none".to_string())?
                }
                "--duration-cycles" => {
                    quick = match value("--duration-cycles")?.as_str() {
                        "quick" => true,
                        "full" => false,
                        _ => return Err("--duration-cycles is quick|full".to_string()),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("mg chaos: {e}");
            return 2;
        }
    }

    eprintln!("mg chaos: computing fault-free references (fig7, tiny)");
    let jobs = match soak_jobs(quick) {
        Ok(jobs) => jobs,
        Err(e) => return cli::fail("chaos", e),
    };

    // The daemon under test: loopback TCP, a throwaway cache root (so
    // cache-fault injection exercises real stores), and the plan armed
    // through every layer — connection wrapper, worker closures, prep
    // pool, artifact cache.
    let plan = build_plan(seed, faults);
    let cache_dir =
        std::env::temp_dir().join(format!("mg-chaos-{seed}-{}", std::process::id()));
    let mut session = Session::builder().cache_dir(&cache_dir);
    if let Some(plan) = &plan {
        session = session.fault_plan(Arc::clone(plan));
    }
    let cfg = ServerConfig {
        slow_client_timeout: Duration::from_secs(2),
        faults: plan.clone(),
        ..ServerConfig::default()
    };
    let server = match serve_cli::bind_registry_server_with(
        "127.0.0.1:0",
        false,
        session.build(),
        cfg,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mg chaos: cannot bind loopback: {e}");
            return 1;
        }
    };
    let addr = server.local_addr().expect("tcp bind has an address").to_string();
    let handle = server.spawn();
    eprintln!("mg chaos: daemon on {addr}, seed {seed}, {clients} clients");

    // --- the soak: N concurrent clients under the shared harness's
    // hang watchdog (`soak::drive`) ---
    let mut failures = 0usize;
    let mut recovered_panics = 0u64;
    let driven = soak::drive(
        clients,
        SOAK_DEADLINE,
        |idx| {
            let client = Client::tcp(addr.clone());
            let jobs = jobs.clone();
            let policy = soak::retry_policy(seed, idx);
            Box::new(move || soak::client_soak(&client, &policy, &jobs))
        },
        |idx, result| match result {
            Ok(outcome) => {
                recovered_panics += outcome.recovered;
                eprintln!("mg chaos: client {idx} ok ({} panics recovered)", outcome.recovered);
            }
            Err(e) => {
                failures += 1;
                eprintln!("mg chaos: client {idx} FAILED: {e}");
            }
        },
    );
    if let Err(hang) = driven {
        eprintln!("mg chaos: {hang}");
        return 1;
    }

    // --- invariants visible from the outside: stats + graceful drain ---
    let stats_client = Client::tcp(addr.clone());
    let policy =
        RetryPolicy { attempts: CLIENT_ATTEMPTS, backoff_ms: 10, ..RetryPolicy::default() };
    let pairs = match stats_client.request_with_retry(&Request::Stats, &policy, |_| {}) {
        Ok(Response::Stats { pairs }) => pairs,
        other => {
            eprintln!("mg chaos: stats request failed: {other:?}");
            return 1;
        }
    };
    let stat = |name: &str| soak::stat(&pairs, name);
    let prepared = stat("preps_prepared");
    if prepared > 6 {
        failures += 1;
        eprintln!(
            "mg chaos: exactly-once preparation VIOLATED: {prepared} preps for 6 focus \
             workloads"
        );
    }

    // Graceful drain; a torn shutdown ack is itself a fault to survive —
    // the harness retries until acknowledged or the endpoint is gone
    // (= already down).
    if !soak::drain_endpoint(&stats_client) {
        eprintln!("mg chaos: drain shutdown was never acknowledged");
        return 1;
    }
    if let Err(e) = handle.join().expect("server thread") {
        eprintln!("mg chaos: server exited with error: {e}");
        return 1;
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    // --- summary ---
    if let Some(plan) = &plan {
        for (point, fired) in plan.report() {
            if fired > 0 {
                eprintln!("mg chaos: fault {point}: fired {fired}x");
            }
        }
    }
    eprintln!(
        "mg chaos: retried preps {}, expired {}, evicted slow clients {}, worker panics {}, \
         drained {}",
        stat("preps_retried"),
        stat("expired"),
        stat("evicted_slow_clients"),
        stat("worker_panics"),
        stat("drained_requests"),
    );
    if failures > 0 {
        println!(
            "mg chaos: seed {seed}: {failures} invariant violation(s) across {clients} clients"
        );
        return 1;
    }
    println!(
        "mg chaos: seed {seed}: all invariants held ({clients} clients, {} requests, \
         {recovered_panics} injected panics recovered)",
        clients * jobs.len(),
    );
    0
}
