//! Engine-level tests: parallel/sequential determinism, artifact-cache
//! coherence, quick-mode plumbing, and a smoke pass taking every
//! registered workload one stage past preparation.

use mg_core::{Policy, RewriteStyle};
use mg_harness::{Engine, HarnessError, Prep, Run};
use mg_uarch::SimConfig;
use mg_workloads::Input;

fn quick(mut cfg: SimConfig) -> SimConfig {
    cfg.max_ops = 15_000;
    cfg
}

fn spec_matrix() -> [Run; 3] {
    [
        Run::baseline(quick(SimConfig::baseline())),
        Run::mini_graph(
            Policy::integer(),
            RewriteStyle::NopPadded,
            quick(SimConfig::mg_integer()),
        )
        .label("int"),
        Run::mini_graph(
            Policy::integer_memory(),
            RewriteStyle::Compressed,
            quick(SimConfig::mg_integer_memory()),
        )
        .label("intmem"),
    ]
}

const WORKLOADS: [&str; 5] = ["bitcount", "crc32", "rgba.conv", "adpcm.enc", "mcf.netw"];

/// The tentpole determinism contract: a parallel engine run produces
/// bit-identical `SimStats` to a fully sequential run over the same
/// (workload × config) matrix.
#[test]
fn parallel_matrix_matches_sequential_exactly() -> Result<(), HarnessError> {
    let runs = spec_matrix();
    let parallel = Engine::builder()
        .try_workloads(&WORKLOADS)?
        .input(Input::tiny())
        .quick(false)
        .threads(4)
        .try_build()?
        .try_run(&runs)?;
    let sequential = Engine::builder()
        .try_workloads(&WORKLOADS)?
        .input(Input::tiny())
        .quick(false)
        .threads(1)
        .try_build()?
        .try_run(&runs)?;

    assert_eq!(parallel.rows.len(), sequential.rows.len());
    for (p, s) in parallel.rows.iter().zip(&sequential.rows) {
        assert_eq!(p.prep.name, s.prep.name, "row order is deterministic");
        for (label, (ps, ss)) in parallel.labels.iter().zip(p.stats.iter().zip(&s.stats)) {
            assert_eq!(
                ps, ss,
                "{}/{label}: parallel and sequential stats diverge",
                p.prep.name
            );
        }
    }
    Ok(())
}

/// Repeated runs on one engine hit the artifact caches and still agree.
#[test]
fn cached_rerun_is_identical() -> Result<(), HarnessError> {
    let runs = spec_matrix();
    let engine = Engine::builder()
        .try_workloads(&["crc32", "bitcount"])?
        .input(Input::tiny())
        .quick(false)
        .threads(2)
        .try_build()?;
    let first = engine.try_run(&runs)?;
    let second = engine.try_run(&runs)?;
    for (a, b) in first.rows.iter().zip(&second.rows) {
        assert_eq!(a.stats, b.stats);
    }
    Ok(())
}

/// Smoke test: every registered workload makes it one step past
/// `Prep::try_new` — a policy selection drawn from its candidate pool —
/// and the prep invariants hold.
#[test]
fn every_workload_preps_and_selects() -> Result<(), HarnessError> {
    let engine = Engine::builder().input(Input::tiny()).quick(false).try_build()?;
    assert!(engine.preps().len() >= 24, "every registered workload is prepared");
    let checks = engine.map(|p: &Prep| {
        let sel = p.select(&Policy::integer_memory());
        (p.name.clone(), p.total_dyn, p.candidates.len(), sel.saved_slots())
    });
    for (name, total_dyn, candidates, saved) in checks {
        assert!(total_dyn > 0, "{name}: profile observed no instructions");
        assert!(candidates > 0, "{name}: no legal mini-graph candidates");
        assert!(saved <= total_dyn, "{name}: selection cannot save more than it covers");
    }
    Ok(())
}

/// `Engine::map` preserves workload order regardless of thread count.
#[test]
fn map_results_are_in_workload_order() -> Result<(), HarnessError> {
    let engine = Engine::builder()
        .try_workloads(&WORKLOADS)?
        .input(Input::tiny())
        .quick(false)
        .threads(4)
        .try_build()?;
    let names = engine.map(|p| p.name.clone());
    assert_eq!(names, WORKLOADS.map(String::from).to_vec());
    Ok(())
}

/// Quick mode caps simulated work through the engine's tuner.
#[test]
fn quick_mode_caps_ops() -> Result<(), HarnessError> {
    let engine = Engine::builder()
        .try_workloads(&["bitcount"])?
        .input(Input::tiny())
        .quick(true)
        .try_build()?;
    let tuned = engine.tune(SimConfig::baseline());
    assert_eq!(tuned.max_ops, mg_harness::QUICK_MAX_OPS);
    let matrix = engine.try_run(&[Run::baseline(SimConfig::baseline())])?;
    assert!(matrix.rows[0].stats[0].ops <= mg_harness::QUICK_MAX_OPS);
    Ok(())
}
