//! Cache-vs-fresh bit-identity: an engine running against a warm
//! persistent artifact cache must produce byte-for-byte the same
//! artifacts and simulation statistics as one computing everything from
//! scratch. This is the contract that lets `mg run <experiment>` promise
//! identical output with and without a warm cache.

use mg_core::{Policy, RewriteStyle};
use mg_harness::{Engine, HarnessError, PrepCache, Run};
use mg_isa::wire::to_bytes;
use mg_uarch::SimConfig;
use mg_workloads::Input;
use std::path::PathBuf;

fn cache_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mg-harness-cache-test-{tag}-{}", std::process::id()))
}

fn engine(dir: &PathBuf) -> Result<Engine, HarnessError> {
    Engine::builder()
        .try_workloads(&["crc32", "rgba.conv", "mcf.netw"])?
        .input(Input::tiny())
        .quick(true)
        .cache_dir(dir)
        .try_build()
}

fn runs() -> Vec<Run> {
    vec![
        Run::baseline(SimConfig::baseline()),
        Run::mini_graph(
            Policy::integer_memory(),
            RewriteStyle::NopPadded,
            SimConfig::mg_integer_memory(),
        )
        .label("intmem"),
        Run::mini_graph(
            Policy::integer_memory(),
            RewriteStyle::Compressed,
            SimConfig::mg_integer_memory(),
        )
        .label("compressed"),
    ]
}

#[test]
fn warm_cache_is_bit_identical_to_fresh() -> Result<(), HarnessError> {
    let dir = cache_dir("bitident");
    let cache = PrepCache::new(&dir);
    cache.clear().unwrap();

    // Fresh (cache enabled but empty): everything computes and persists.
    let fresh_engine = engine(&dir)?;
    let fresh = fresh_engine.try_run(&runs())?;
    let stats = cache.stats();
    assert!(stats.selections > 0, "selections were persisted");
    assert!(stats.traces > 0, "baseline traces were persisted");
    assert!(stats.images > 0, "rewritten images were persisted");

    // Warm: a new engine (new process stand-in) over the same cache.
    let warm_engine = engine(&dir)?;
    let warm = warm_engine.try_run(&runs())?;
    assert_eq!(fresh.labels, warm.labels);
    for (f, w) in fresh.rows.iter().zip(&warm.rows) {
        assert_eq!(f.prep.name, w.prep.name);
        assert_eq!(f.stats, w.stats, "SimStats bit-identical for {}", f.prep.name);
    }

    // Artifact-level identity, not just stats: selections, traces, and
    // image programs/catalogs encode to the same bytes.
    let policy = Policy::integer_memory();
    for (f, w) in fresh_engine.preps().iter().zip(warm_engine.preps()) {
        assert_eq!(f.fingerprint(), w.fingerprint(), "fingerprints are stable");
        assert_eq!(
            to_bytes(&*f.select(&policy)),
            to_bytes(&*w.select(&policy)),
            "selection bytes for {}",
            f.name
        );
        assert_eq!(to_bytes(&*f.try_base_trace()?), to_bytes(&*w.try_base_trace()?));
        let fi = f.try_image(&policy, RewriteStyle::NopPadded)?;
        let wi = w.try_image(&policy, RewriteStyle::NopPadded)?;
        assert_eq!(fi.program.insts, wi.program.insts);
        assert_eq!(to_bytes(&fi.trace), to_bytes(&wi.trace));
        assert_eq!(to_bytes(&fi.catalog), to_bytes(&wi.catalog));
    }

    // And a cache-disabled engine agrees too.
    let nocache = Engine::builder()
        .try_workloads(&["crc32", "rgba.conv", "mcf.netw"])?
        .input(Input::tiny())
        .quick(true)
        .try_build()?
        .try_run(&runs())?;
    for (f, n) in fresh.rows.iter().zip(&nocache.rows) {
        assert_eq!(f.stats, n.stats, "cache on/off identical for {}", f.prep.name);
    }

    cache.clear().unwrap();
    Ok(())
}

#[test]
fn quick_and_full_budgets_do_not_share_trace_entries() -> Result<(), HarnessError> {
    let dir = cache_dir("budget");
    let cache = PrepCache::new(&dir);
    cache.clear().unwrap();

    // Quick engine records 30k-op trace prefixes into the cache.
    let quick = Engine::builder()
        .try_workloads(&["crc32"])?
        .input(Input::tiny())
        .quick(true)
        .cache_dir(&dir)
        .try_build()?;
    let quick_len = quick.preps()[0].try_base_trace()?.len();

    // A full engine over the same cache must not pick up the prefix.
    let full = Engine::builder()
        .try_workloads(&["crc32"])?
        .input(Input::tiny())
        .quick(false)
        .cache_dir(&dir)
        .try_build()?;
    let full_len = full.preps()[0].try_base_trace()?.len();
    assert!(
        full_len >= quick_len,
        "full trace ({full_len} ops) must cover the quick prefix ({quick_len} ops)"
    );

    cache.clear().unwrap();
    Ok(())
}

#[test]
fn mg_no_cache_env_is_a_kill_switch() -> Result<(), HarnessError> {
    // Can't set the env var here (tests share a process), but the builder
    // must at minimum produce identical results with the cache disabled.
    let plain = Engine::builder()
        .try_workloads(&["bitcount"])?
        .input(Input::tiny())
        .quick(true)
        .cache(false)
        .try_build()?
        .try_run(&runs())?;
    assert!(plain.rows[0].stats[0].cycles > 0);
    Ok(())
}
