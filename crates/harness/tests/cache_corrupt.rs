//! Corrupt-cache robustness: a damaged `target/mg-cache`-style artifact
//! must degrade to a **cache miss** — recompute and overwrite — never to
//! a panic or a wrong artifact.
//!
//! The cache's contract (`prep_cache` module docs) is that any read
//! error is a miss. This test enforces it the hostile way: it populates
//! a real cache from a real workload prep, then fuzz-truncates every
//! artifact file at a sweep of lengths (and bit-flips header and payload
//! bytes) and asserts the decode paths (`isa::wire` up through
//! `PrepCache::load_*`) refuse quietly, each counted as one corrupt
//! read. A final fresh prep over the mangled cache must recompute
//! bit-identical artifacts.

use mg_core::{Policy, RewriteStyle};
use mg_harness::{CacheCounters, HarnessError, Prep, PrepCache};
use mg_isa::wire;
use mg_workloads::Input;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const BUDGET: u64 = 2_000;

/// Corrupt reads counted so far, over every artifact kind.
fn corrupt_reads(cache: &PrepCache) -> u64 {
    let CacheCounters { selections, traces, images, profiles } = cache.counters();
    [selections, traces, images, profiles].iter().map(|c| c.corrupt).sum()
}

fn cache_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    walk(root, &mut files);
    files.sort();
    files
}

/// Builds a cached prep of `crc32` on the tiny input (which stores its
/// profile) and fills the cache with the three other artifact kinds.
fn populated_prep(cache: &Arc<PrepCache>) -> Result<Prep, HarnessError> {
    let w = mg_workloads::by_name("crc32").expect("registered");
    let prep =
        Prep::try_new(&w, &Input::tiny(), Some(Arc::clone(cache)))?.with_trace_budget(BUDGET);
    let policy = Policy::integer_memory();
    let _ = prep.select(&policy);
    let _ = prep.try_base_trace()?;
    let _ = prep.try_image(&policy, RewriteStyle::NopPadded)?;
    Ok(prep)
}

#[test]
fn truncated_and_flipped_artifacts_degrade_to_misses_not_panics() -> Result<(), HarnessError> {
    let root = std::env::temp_dir().join(format!("mg-cache-corrupt-{}", std::process::id()));
    let cache = Arc::new(PrepCache::new(&root));
    cache.clear().expect("fresh cache root");
    let policy = Policy::integer_memory();

    let prep = populated_prep(&cache)?;
    let fp = prep.fingerprint();
    let prog = prep.prog.clone();

    // Golden copies for bit-identity after recomputation.
    let golden_sel = wire::to_bytes(&*prep.select(&policy));
    let golden_trace = wire::to_bytes(&*prep.try_base_trace()?);
    let golden_candidates = wire::to_bytes(&prep.candidates);

    let files = cache_files(&root);
    assert!(files.len() >= 4, "profile + selection + trace + image cached, got {files:?}");

    // All four artifact kinds load while the files are intact.
    assert!(cache.load_profile(fp, &prog).is_some());
    assert!(cache.load_selection(fp, &policy).is_some());
    assert!(cache.load_trace(fp, BUDGET).is_some());
    assert!(cache.load_image(fp, &policy, RewriteStyle::NopPadded, BUDGET).is_some());

    let originals: Vec<Vec<u8>> =
        files.iter().map(|f| fs::read(f).expect("artifact readable")).collect();

    assert_eq!(corrupt_reads(&cache), 0, "intact files are not corrupt");

    // Runs all four loaders; nothing may panic.
    let load_all = || {
        (
            cache.load_profile(fp, &prog).is_some(),
            cache.load_selection(fp, &policy).is_some(),
            cache.load_trace(fp, BUDGET).is_some(),
            cache.load_image(fp, &policy, RewriteStyle::NopPadded, BUDGET).is_some(),
        )
    };
    // Which loader a file feeds, by its `prof-`/`sel-`/`trace-`/`img-`
    // name: `probe` runs every loader and returns whether the one owning
    // `file` found its artifact, and how many corrupt reads it counted.
    let probe = |file: &Path| -> (bool, u64) {
        let before = corrupt_reads(&cache);
        let (prof, sel, trace, img) = load_all();
        let corrupt = corrupt_reads(&cache) - before;
        let name = file.file_name().unwrap().to_string_lossy().to_string();
        let hit = if name.starts_with("prof-") {
            prof
        } else if name.starts_with("sel-") {
            sel
        } else if name.starts_with("trace-") {
            trace
        } else if name.starts_with("img-") {
            img
        } else {
            panic!("unexpected cache file {name}");
        };
        (hit, corrupt)
    };

    // --- fuzz-truncation sweep: every artifact, many cut points ---
    for (file, original) in files.iter().zip(&originals) {
        let n = original.len();
        for cut in [0, 1, 7, n / 4, n / 2, n.saturating_sub(1)] {
            fs::write(file, &original[..cut.min(n)]).unwrap();
            // No unwrap/panic anywhere down the decode path; the
            // truncated artifact is a miss (its siblings still load) and
            // one corrupt read.
            let (hit, corrupt) = probe(file);
            assert!(!hit, "truncated {} at {cut} still decodes", file.display());
            assert_eq!(corrupt, 1, "truncated {} at {cut}", file.display());
        }
        fs::write(file, original).unwrap();
        assert_eq!(probe(file), (true, 0), "restoring {} restores the hit", file.display());
    }

    // --- header bit-flips: magic, kind tag, key-length prefix ---
    for (file, original) in files.iter().zip(&originals) {
        for pos in 0..13.min(original.len()) {
            let mut bytes = original.clone();
            bytes[pos] ^= 0xff;
            fs::write(file, &bytes).unwrap();
            // A mangled header (or key-length prefix) can never satisfy
            // the magic + stored-key verification.
            let (hit, corrupt) = probe(file);
            assert!(!hit, "flipped header byte {pos} of {} hits", file.display());
            assert_eq!(corrupt, 1, "flipped header byte {pos} of {}", file.display());
        }
        fs::write(file, original).unwrap();
    }

    // --- payload bit-flips: must not panic; the checksum trailer turns
    // every one-byte change into a miss and one corrupt read ---
    for (file, original) in files.iter().zip(&originals) {
        let n = original.len();
        for pos in [n / 3, n / 2, (2 * n) / 3, n - 1] {
            let mut bytes = original.clone();
            bytes[pos] ^= 0x55;
            fs::write(file, &bytes).unwrap();
            assert_eq!(probe(file), (false, 1), "flipped byte {pos} of {}", file.display());
        }
        fs::write(file, original).unwrap();
    }

    // --- leave everything mangled: a fresh prep must recompute the
    // identical artifacts straight through the misses ---
    for (file, original) in files.iter().zip(&originals) {
        let mut bytes = original.clone();
        let keep = bytes.len() / 3;
        bytes.truncate(keep);
        fs::write(file, &bytes).unwrap();
    }
    let fresh = populated_prep(&cache)?;
    assert_eq!(fresh.fingerprint(), fp, "same prep coordinates, same fingerprint");
    assert_eq!(fresh.prof.inst_counts, prep.prof.inst_counts, "recomputed profile counts");
    assert_eq!(fresh.total_dyn, prep.total_dyn, "recomputed dynamic total");
    assert_eq!(
        wire::to_bytes(&fresh.candidates),
        golden_candidates,
        "recomputed candidate pool is bit-identical"
    );
    assert_eq!(
        wire::to_bytes(&*fresh.select(&policy)),
        golden_sel,
        "recomputed selection is bit-identical"
    );
    assert_eq!(
        wire::to_bytes(&*fresh.try_base_trace()?),
        golden_trace,
        "recomputed trace is bit-identical"
    );
    // And the recomputation healed the cache: artifacts load again.
    assert!(cache.load_profile(fp, &prog).is_some(), "profile overwritten on recompute");
    assert!(cache.load_selection(fp, &policy).is_some(), "overwritten on recompute");
    cache.clear().unwrap();
    Ok(())
}
