//! Corrupt-cache robustness: a damaged `target/mg-cache`-style artifact
//! must degrade to a **cache miss** — recompute and overwrite — never to
//! a panic or a wrong artifact.
//!
//! The cache's contract (`prep_cache` module docs) is that any read
//! error is a miss. This test enforces it the hostile way: it populates
//! a real cache from a real workload prep, then fuzz-truncates every
//! artifact file at a sweep of lengths (and bit-flips header and payload
//! bytes) and asserts the decode paths (`isa::wire` up through
//! `PrepCache::load_*`) refuse quietly. A final fresh prep over the
//! mangled cache must recompute bit-identical artifacts.

use mg_core::{Policy, RewriteStyle};
use mg_harness::{HarnessError, Prep, PrepCache};
use mg_isa::wire;
use mg_workloads::Input;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const BUDGET: u64 = 2_000;

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

/// Builds a cached prep of `crc32` on the tiny input and fills the
/// cache with all three artifact kinds.
fn populated_prep(cache: &Arc<PrepCache>) -> Result<Prep, HarnessError> {
    let w = mg_workloads::by_name("crc32").expect("registered");
    let prep = Prep::try_new(&w, &Input::tiny())?
        .with_trace_budget(BUDGET)
        .with_cache(Some(Arc::clone(cache)));
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

    // Golden copies for bit-identity after recomputation.
    let golden_sel = wire::to_bytes(&*prep.select(&policy));
    let golden_trace = wire::to_bytes(&*prep.try_base_trace()?);

    let files = cache_files(&root);
    assert!(files.len() >= 3, "selection + trace + image cached, got {files:?}");

    // All three artifact kinds load while the files are intact.
    assert!(cache.load_selection(fp, &policy).is_some());
    assert!(cache.load_trace(fp, BUDGET).is_some());
    assert!(cache.load_image(fp, &policy, RewriteStyle::NopPadded, BUDGET).is_some());

    let originals: Vec<Vec<u8>> =
        files.iter().map(|f| fs::read(f).expect("artifact readable")).collect();

    // Which loader a file feeds, by its `sel-`/`trace-`/`img-` name.
    // `probe` runs all three loaders (nothing may panic) and returns
    // whether the loader owning `file` found its artifact.
    let probe = |file: &Path| -> bool {
        let sel = cache.load_selection(fp, &policy).is_some();
        let trace = cache.load_trace(fp, BUDGET).is_some();
        let img = cache.load_image(fp, &policy, RewriteStyle::NopPadded, BUDGET).is_some();
        let name = file.file_name().unwrap().to_string_lossy().to_string();
        if name.starts_with("sel-") {
            sel
        } else if name.starts_with("trace-") {
            trace
        } else if name.starts_with("img-") {
            img
        } else {
            panic!("unexpected cache file {name}");
        }
    };

    // --- fuzz-truncation sweep: every artifact, many cut points ---
    for (file, original) in files.iter().zip(&originals) {
        let n = original.len();
        for cut in [0, 1, 7, n / 4, n / 2, n.saturating_sub(1)] {
            fs::write(file, &original[..cut.min(n)]).unwrap();
            // No unwrap/panic anywhere down the decode path; the
            // truncated artifact is a miss (its siblings still load).
            assert!(!probe(file), "truncated {} at {cut} still decodes", file.display());
        }
        fs::write(file, original).unwrap();
        assert!(probe(file), "restoring {} restores the hit", file.display());
    }

    // --- header bit-flips: magic, kind tag, key-length prefix ---
    for (file, original) in files.iter().zip(&originals) {
        for pos in 0..13.min(original.len()) {
            let mut bytes = original.clone();
            bytes[pos] ^= 0xff;
            fs::write(file, &bytes).unwrap();
            // A mangled header (or key-length prefix) can never satisfy
            // the magic + stored-key verification.
            assert!(!probe(file), "flipped header byte {pos} of {} hits", file.display());
        }
        fs::write(file, original).unwrap();
    }

    // --- payload bit-flips: must not panic (hit-or-miss is fine) ---
    for (file, original) in files.iter().zip(&originals) {
        let n = original.len();
        for pos in [n / 3, n / 2, (2 * n) / 3, n - 1] {
            let mut bytes = original.clone();
            bytes[pos] ^= 0x55;
            fs::write(file, &bytes).unwrap();
            let _ = cache.load_selection(fp, &policy);
            let _ = cache.load_trace(fp, BUDGET);
            let _ = cache.load_image(fp, &policy, RewriteStyle::NopPadded, BUDGET);
        }
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
    assert!(cache.load_selection(fp, &policy).is_some(), "overwritten on recompute");
    cache.clear().unwrap();
    Ok(())
}
