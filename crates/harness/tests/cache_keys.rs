//! Cache-key soundness for the profile artifact: the block profile and
//! candidate pool are stored under the prep fingerprint alone, so every
//! input of the fingerprint must separate them. A change to any one of
//! them that still served the old profile would hand selection the
//! frequencies of another program or another input.
//!
//! A stored profile that does not fit the program it is loaded for must
//! also be a miss — never a panic, never an out-of-bounds index further
//! down — and a prep over such a file must recompute the true profile.

use mg_harness::{prep_cache, HarnessError, LookupCounts, Prep, PrepCache};
use mg_isa::wire;
use mg_profile::BlockProfile;
use mg_workloads::Input;
use std::sync::Arc;

fn cache(tag: &str) -> Arc<PrepCache> {
    let root = std::env::temp_dir().join(format!("mg-cache-keys-{tag}-{}", std::process::id()));
    let cache = PrepCache::new(root);
    cache.clear().expect("fresh cache root");
    Arc::new(cache)
}

fn crc32(input: &Input, cache: &Arc<PrepCache>) -> Result<Prep, HarnessError> {
    let w = mg_workloads::by_name("crc32").expect("registered");
    Prep::try_new(&w, input, Some(Arc::clone(cache)))
}

#[test]
fn every_fingerprint_input_separates_the_profile() -> Result<(), HarnessError> {
    let cache = cache("perturb");
    let input = Input::tiny();
    let prep = crc32(&input, &cache)?;
    let prog = &prep.prog;
    let id = prep.cache_id().to_string();
    let mem_hash = prep.try_fresh_memory()?.content_hash();

    // The unperturbed coordinates rebuild the prep's fingerprint and hit.
    let fp = prep_cache::fingerprint(&id, &input, prog, mem_hash);
    assert_eq!(fp, prep.fingerprint());
    assert!(cache.load_profile(fp, prog).is_some(), "the stored profile loads");

    let mut reordered = prog.clone();
    reordered.insts.reverse();
    assert_ne!(wire::to_bytes(&reordered), wire::to_bytes(prog), "program bytes differ");

    let perturbed = [
        ("workload id", prep_cache::fingerprint("custom/crc32", &input, prog, mem_hash)),
        (
            "input seed",
            prep_cache::fingerprint(
                &id,
                &Input { seed: input.seed + 1, ..input },
                prog,
                mem_hash,
            ),
        ),
        (
            "input scale",
            prep_cache::fingerprint(
                &id,
                &Input { scale: input.scale + 1, ..input },
                prog,
                mem_hash,
            ),
        ),
        ("program bytes", prep_cache::fingerprint(&id, &input, &reordered, mem_hash)),
        ("initial memory", prep_cache::fingerprint(&id, &input, prog, mem_hash ^ 1)),
    ];
    for (what, key) in perturbed {
        assert_ne!(key, fp, "{what} is part of the fingerprint");
        // Loaded against the original program, so only the key can miss.
        assert!(cache.load_profile(key, prog).is_none(), "{what}: a changed key misses");
    }
    let LookupCounts { hits, misses, corrupt, .. } = cache.counters().profiles;
    assert_eq!(
        (hits, misses, corrupt),
        (1, 1 + perturbed.len() as u64, 0),
        "the construction miss, the one hit, and one miss per perturbation"
    );

    // End to end: a prep of the same workload on another input is a
    // profile miss too, and recomputes instead of reusing.
    let other = crc32(&Input { seed: input.seed + 1, ..input }, &cache)?;
    assert_ne!(other.fingerprint(), fp);
    assert_eq!(cache.counters().profiles.misses, 2 + perturbed.len() as u64);
    cache.clear().unwrap();
    Ok(())
}

#[test]
fn a_profile_that_does_not_fit_its_program_is_a_miss() -> Result<(), HarnessError> {
    let cache = cache("misfit");
    let prep = crc32(&Input::tiny(), &cache)?;
    let (fp, prog) = (prep.fingerprint(), &prep.prog);
    assert!(cache.load_profile(fp, prog).is_some());

    // One count too many, then one too few.
    for len in [prog.len() + 1, prog.len() - 1] {
        let mut counts = prep.prof.inst_counts.clone();
        counts.resize(len, 1);
        let prof = BlockProfile { inst_counts: counts, total: prep.total_dyn };
        cache.store_profile(fp, &prof, &prep.candidates);
        assert!(cache.load_profile(fp, prog).is_none(), "{len} counts for {}", prog.len());
    }

    // A candidate whose member lies past the end of the program.
    let mut candidates = prep.candidates.clone();
    candidates.first_mut().expect("crc32 has candidates").members.push(prog.len());
    cache.store_profile(fp, &prep.prof, &candidates);
    assert!(cache.load_profile(fp, prog).is_none(), "out-of-range member");

    // A prep over the misfit file recomputes the true profile and
    // overwrites the file.
    let fresh = crc32(&Input::tiny(), &cache)?;
    assert_eq!(fresh.prof, prep.prof);
    assert_eq!(wire::to_bytes(&fresh.candidates), wire::to_bytes(&prep.candidates));
    assert!(cache.load_profile(fp, prog).is_some(), "healed by the recompute");
    cache.clear().unwrap();
    Ok(())
}
