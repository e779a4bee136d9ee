//! Warm preparation is cold preparation, without the profiling run.
//!
//! A prep fingerprints its program before profiling and, with a warm
//! artifact cache, loads the block profile and candidate pool instead of
//! executing the program. This test builds a cold engine over every
//! registry workload on the tiny input, then a warm engine over the same
//! cache directory, and checks that
//!
//! - the warm engine's cache counted one profile hit and no profile miss
//!   per workload (so no warm prep ran the functional model), read bytes
//!   and found no corrupt file;
//! - every warm prep's profile, dynamic total and candidate pool equal
//!   the cold ones bit for bit;
//! - the Figure 5 selections, recomputed from the warm prep's inputs, and
//!   the integer-memory images, rebuilt from them, equal the cold ones.

use mg_bench::experiments::{FIG5_CAPACITIES, FIG5_SIZES};
use mg_core::{GreedySelector, Policy, RewriteStyle, Selector};
use mg_harness::{Engine, HarnessError, LookupCounts, PrepCache};
use mg_isa::wire::to_bytes;
use mg_workloads::Input;
use std::path::Path;

fn engine(dir: &Path) -> Result<Engine, HarnessError> {
    Engine::builder().input(Input::tiny()).quick(true).cache_dir(dir).try_build()
}

/// Profile lookups counted by the engine's cache, which all its preps
/// share.
fn profile_lookups(engine: &Engine) -> LookupCounts {
    engine.preps()[0].cache().expect("engine built with a cache").counters().profiles
}

#[test]
fn warm_preps_load_the_profile_and_match_cold_bit_for_bit() -> Result<(), HarnessError> {
    let dir = std::env::temp_dir().join(format!("mg-prep-warm-{}", std::process::id()));
    PrepCache::new(&dir).clear().expect("fresh cache root");

    let cold = engine(&dir)?;
    let n = cold.preps().len() as u64;
    assert_eq!(n, mg_workloads::all().len() as u64, "every registry workload");
    let c = profile_lookups(&cold);
    assert_eq!((c.hits, c.misses, c.corrupt, c.bytes_read), (0, n, 0, 0), "cold profiles");

    let warm = engine(&dir)?;
    let w = profile_lookups(&warm);
    assert_eq!((w.hits, w.misses, w.corrupt), (n, 0, 0), "warm profiles");
    assert!(w.bytes_read > 0, "warm profiles are read from disk");

    let intmem = Policy::integer_memory();
    for (c, w) in cold.preps().iter().zip(warm.preps()) {
        assert_eq!(c.name, w.name);
        assert_eq!(c.fingerprint(), w.fingerprint(), "{}", c.name);
        assert_eq!(c.prof, w.prof, "{}: profile", c.name);
        assert_eq!(c.total_dyn, w.total_dyn, "{}: dynamic total", c.name);
        assert_eq!(to_bytes(&c.candidates), to_bytes(&w.candidates), "{}: pool", c.name);

        // Recompute from the warm inputs, past every selection cache.
        for base in [Policy::integer(), Policy::integer_memory()] {
            for cap in FIG5_CAPACITIES {
                for sz in FIG5_SIZES {
                    let policy = base.clone().with_capacity(cap).with_max_size(sz);
                    let fresh = GreedySelector.select(&w.select_inputs(), &policy);
                    assert_eq!(
                        to_bytes(&fresh),
                        to_bytes(&*c.select(&policy)),
                        "{}: fig5 selection {policy:?}",
                        c.name
                    );
                }
            }
        }
        let selection = GreedySelector.select(&w.select_inputs(), &intmem);
        let rebuilt = w.try_build_image(&selection, RewriteStyle::NopPadded)?;
        let want = c.try_image(&intmem, RewriteStyle::NopPadded)?;
        assert_eq!(to_bytes(&rebuilt.program), to_bytes(&want.program), "{}: image", c.name);
        assert_eq!(to_bytes(&rebuilt.catalog), to_bytes(&want.catalog), "{}: catalog", c.name);
        assert_eq!(to_bytes(&rebuilt.trace), to_bytes(&want.trace), "{}: trace", c.name);
    }
    PrepCache::new(&dir).clear().unwrap();
    Ok(())
}
