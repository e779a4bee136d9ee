//! End-to-end contract of `mg serve` over the real experiment registry:
//!
//! 1. a served `run` request returns a payload **byte-identical** to the
//!    stdout of the same `mg run --format json` invocation;
//! 2. two concurrent clients requesting the same experiment trigger
//!    exactly one preparation per workload (batching + the shared warm
//!    prep pool, asserted through the serve counters);
//! 3. a later identical request reuses the warm pool (cold/warm
//!    bit-identity extends to served results);
//! 4. the protocol version is pinned to the cache schema version.
//!
//! Everything runs in-process over a loopback TCP socket; the experiment
//! is `fig7` on the tiny input in quick mode (the cheapest real
//! registry entry: six focus workloads), with the on-disk cache off so
//! the test is hermetic — sharing comes from the pool alone.

use mg_bench::cli::{self, Format, RunArgs};
use mg_bench::serve_cli;
use mg_serve::{Client, Request, Response, RunRequest};

fn fig7_request() -> RunRequest {
    RunRequest {
        quick: Some(true),
        input: "tiny".into(),
        no_cache: true,
        format: "json".into(),
        ..RunRequest::new("fig7")
    }
}

/// The stdout `mg run fig7 --quick --input tiny --no-cache --format
/// json` prints, computed in-process through the same code path
/// (`cmd_run` is `build` + `render` + `print!`).
fn direct_mg_run_stdout() -> String {
    let args = RunArgs {
        quick: Some(true),
        input: cli::parse_input("tiny").unwrap(),
        no_cache: true,
        ..RunArgs::default()
    };
    let spec = cli::experiment("fig7").unwrap();
    cli::render(&(spec.build)(&args).expect("fig7 builds"), Format::Json)
}

fn stat(pairs: &[(String, u64)], name: &str) -> u64 {
    pairs.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or_else(|| {
        panic!("counter {name:?} missing from {pairs:?}");
    })
}

#[test]
fn served_results_are_byte_identical_and_share_one_prep() {
    let server =
        serve_cli::bind_registry_server("127.0.0.1:0", false, 2, 16).expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.spawn();
    let client = Client::tcp(&addr);
    let run = Request::Run(fig7_request());

    // --- two concurrent clients, same experiment ---
    let (first, second) = std::thread::scope(|scope| {
        let a = {
            let client = client.clone();
            let run = run.clone();
            scope.spawn(move || {
                let mut cells = 0usize;
                let terminal = client
                    .request(&run, |e| {
                        if matches!(e, Response::Cell { .. }) {
                            cells += 1;
                        }
                    })
                    .expect("request");
                (terminal, cells)
            })
        };
        // Launch the duplicate only once the first request is visibly
        // in flight, so the attach is deterministic rather than a race
        // against the (multi-second) run completing first. The batch
        // stays attachable from enqueue to terminal delivery.
        loop {
            let Response::Stats { pairs } =
                client.request(&Request::Stats, |_| {}).expect("stats")
            else {
                panic!("expected stats");
            };
            if stat(&pairs, "in_flight") >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let b = {
            let client = client.clone();
            let run = run.clone();
            scope.spawn(move || client.request(&run, |_| {}).expect("request"))
        };
        (a.join().unwrap(), b.join().unwrap())
    });

    let (terminal_a, cells_a) = first;
    let Response::Done { status: 0, payload: payload_a } = terminal_a else {
        panic!("expected Done, got {terminal_a:?}");
    };
    let Response::Done { status: 0, payload: payload_b } = second else {
        panic!("expected Done, got {second:?}");
    };
    assert_eq!(payload_a, payload_b, "batched clients receive identical payloads");
    assert!(cells_a > 0, "per-cell progress frames streamed while running");

    // Exactly one preparation per focus workload, despite two clients:
    // the duplicate attached to the in-flight batch (batched == 1) and
    // the pool prepared each workload once.
    let Response::Stats { pairs } = client.request(&Request::Stats, |_| {}).unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(stat(&pairs, "batched"), 1, "second client attached to the first batch");
    assert_eq!(stat(&pairs, "preps_prepared"), 6, "one prep per fig7 focus workload");
    assert_eq!(stat(&pairs, "preps_reused"), 0);
    assert_eq!(stat(&pairs, "served"), 2);

    // --- a later identical request: warm pool, identical bytes ---
    let warm = client.request(&run, |_| {}).expect("request");
    let Response::Done { status: 0, payload: payload_warm } = warm else {
        panic!("expected Done, got {warm:?}");
    };
    assert_eq!(payload_warm, payload_a, "warm-pool rerun is bit-identical");
    let Response::Stats { pairs } = client.request(&Request::Stats, |_| {}).unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(stat(&pairs, "preps_prepared"), 6, "no re-preparation for the warm rerun");
    assert_eq!(stat(&pairs, "preps_reused"), 6, "every workload came from the warm pool");

    // --- byte-identity against the one-shot `mg run` path ---
    assert_eq!(payload_a, direct_mg_run_stdout(), "served JSON == `mg run --format json`");

    // --- invalid requests are rejected before queueing ---
    let bad = client.request(&Request::Run(RunRequest::new("fig99")), |_| {}).expect("request");
    assert!(matches!(&bad, Response::Error { message } if message.contains("fig99")));
    let bad_input = client
        .request(&Request::Run(RunRequest { input: "huge".into(), ..fig7_request() }), |_| {})
        .expect("request");
    assert!(matches!(&bad_input, Response::Error { message } if message.contains("huge")));
    // `perf` is a one-shot tool (it writes files into the daemon's cwd
    // and times the daemon host); the served registry excludes it.
    let perf = client.request(&Request::Run(RunRequest::new("perf")), |_| {}).expect("request");
    assert!(matches!(&perf, Response::Error { message } if message.contains("perf")));

    client.request(&Request::Shutdown { drain: true }, |_| {}).expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// `docs/PROTOCOL.md` versioning rule: a `CACHE_SCHEMA_VERSION` bump
/// changes what a byte-identical request may return, so it must drag
/// `PROTOCOL_VERSION` with it. This pin fails on either bump until the
/// pairing (and the doc's table) is updated.
#[test]
fn protocol_version_is_pinned_to_the_cache_schema_version() {
    assert_eq!(
        (mg_serve::PROTOCOL_VERSION, mg_harness::CACHE_SCHEMA_VERSION),
        (3, 1),
        "bumping either version requires updating docs/PROTOCOL.md and this pairing"
    );
}
