//! Preparation replayed through the layers' public entry points.
//!
//! `Session::run` and `Engine::try_build` prepare a workload in one
//! opaque call. To see where that time goes without a timer inside the
//! program, the traced run repeats the same steps itself, in the
//! library's order, with one span around each call: build or compile,
//! fingerprint, CFG, functional profile, enumerate, then per image the
//! artifact-cache lookup, select, rewrite, trace record and store,
//! predecode, and the fused simulation of the image's cells. Its
//! results must equal the library's, which the callers check.

use crate::trace::{SpanId, Tracer};
use mg_core::{enumerate_candidates, rewrite, GreedySelector, Policy, SelectInputs, Selector};
use mg_harness::prep::{ENUMERATION_SIZE, STEP_BUDGET};
use mg_harness::{apply_quick, prep_cache, run_fused, Image, MgImage, PrepCache, Run};
use mg_isa::{HandleCatalog, Memory, Program};
use mg_profile::{build_cfg, profile_program, record_trace};
use mg_uarch::{Predecode, SimConfig, SimStats};
use mg_workloads::{Input, Workload};
use std::sync::Arc;

/// A program the benchmark prepares.
#[derive(Clone)]
pub enum Source {
    /// A registry workload.
    Registry(Workload),
    /// An mg-lang program: engine-visible name, stable id, source text.
    Lang {
        /// Name the session knows the program by.
        name: String,
        /// The session's stable id for it (content-hashed).
        stable_id: String,
        /// mg-lang source text.
        src: String,
    },
}

impl Source {
    /// Name the session knows the program by.
    pub fn name(&self) -> &str {
        match self {
            Source::Registry(w) => w.name,
            Source::Lang { name, .. } => name,
        }
    }

    fn stable_id(&self) -> String {
        match self {
            Source::Registry(w) => w.stable_id(),
            Source::Lang { stable_id, .. } => stable_id.clone(),
        }
    }

    /// Builds the program and its initial memory, inside a
    /// `workloads.build` or `lang.compile` span.
    fn build(
        &self,
        input: &Input,
        t: &Tracer,
        parent: Option<SpanId>,
        req: u64,
    ) -> Result<(Program, Memory), String> {
        match self {
            Source::Registry(w) => {
                Ok(t.time("workloads.build", parent, req, || w.build(input)))
            }
            Source::Lang { src, .. } => {
                let c = t
                    .time("lang.compile", parent, req, || mg_lang::compile_source(src, input))
                    .map_err(|e| format!("{}: {e}", self.name()))?;
                let mem = c.memory();
                Ok((c.program, mem))
            }
        }
    }
}

/// How to replay one preparation.
pub struct Replay<'a> {
    /// Input the program is built for.
    pub input: Input,
    /// Quick mode: traces capped at the quick op limit and every cell's
    /// `max_ops` lowered to it, as a quick session does.
    pub quick: bool,
    /// Artifact cache, or `None` with the cache off.
    pub cache: Option<&'a PrepCache>,
    /// Cells whose images are prepared.
    pub runs: &'a [Run],
    /// Simulate the cells too (fused per image), or only prepare them.
    pub simulate: bool,
    /// Also time the exact DP selector on the integer-memory policy.
    pub dp: bool,
}

/// Prepares `src` as the library would and, when asked, simulates
/// `replay.runs`, returning one stats entry per run (default stats for
/// runs not simulated).
pub fn prepare(
    src: &Source,
    replay: &Replay<'_>,
    t: &Tracer,
    parent: Option<SpanId>,
    req: u64,
) -> Result<Vec<SimStats>, String> {
    let budget = if replay.quick { mg_harness::QUICK_MAX_OPS } else { STEP_BUDGET };
    let input = replay.input;
    let (prog, mut mem) = src.build(&input, t, parent, req)?;
    let mem_hash = t.time("harness.fingerprint", parent, req, || mem.content_hash());
    let cfg = t.time("profile.cfg", parent, req, || build_cfg(&prog));
    let prof = t
        .time("profile.functional", parent, req, || {
            profile_program(&prog, &mut mem, None, STEP_BUDGET)
        })
        .map_err(|e| format!("{}: profile: {e:?}", src.name()))?;
    t.count("profile.dyn_insts", prof.total as f64);
    let candidates = t.time("core.enumerate", parent, req, || {
        enumerate_candidates(&prog, &cfg, &prof, ENUMERATION_SIZE)
    });
    t.count("core.candidates", candidates.len() as f64);
    let fp = t.time("harness.fingerprint", parent, req, || {
        prep_cache::fingerprint(&src.stable_id(), &input, &prog, mem_hash)
    });
    let inputs = SelectInputs { candidates: &candidates, cfg: &cfg, prof: &prof };
    if replay.dp {
        let policy = Policy::integer_memory();
        t.time("policy.dp_select", parent, req, || {
            mg_policy::ExactDpSelector.select(&inputs, &policy)
        });
    }

    // Cache lookups count a hit or a miss each, like the library's
    // load-then-compute paths.
    let load = |hit: bool| {
        t.count(if hit { "harness.cache_hits" } else { "harness.cache_misses" }, 1.0);
    };

    let mut stats = vec![SimStats::default(); replay.runs.len()];
    let mut groups: Vec<(&Image, Vec<usize>)> = Vec::new();
    for (i, run) in replay.runs.iter().enumerate() {
        match groups.iter_mut().find(|(img, _)| **img == run.image) {
            Some((_, cols)) => cols.push(i),
            None => groups.push((&run.image, vec![i])),
        }
    }
    let base_catalog = HandleCatalog::new();
    for (image, cols) in groups {
        let img: MgImage = match image {
            Image::Baseline => {
                let cached = replay.cache.and_then(|c| {
                    let hit =
                        t.time("harness.cache_load", parent, req, || c.load_trace(fp, budget));
                    load(hit.is_some());
                    hit
                });
                let trace = match cached {
                    Some(trace) => trace,
                    None => {
                        let (_, mut mem) = src.build(&input, t, parent, req)?;
                        let trace = t
                            .time("profile.trace_record", parent, req, || {
                                record_trace(&prog, &mut mem, None, budget)
                            })
                            .map_err(|e| format!("{}: trace: {e:?}", src.name()))?;
                        t.count("profile.trace_ops", trace.len() as f64);
                        if let Some(c) = replay.cache {
                            t.time("harness.cache_store", parent, req, || {
                                c.store_trace(fp, budget, &trace)
                            });
                        }
                        trace
                    }
                };
                MgImage::new(prog.clone(), trace, base_catalog.clone())
            }
            Image::MiniGraph { policy, style } => {
                let id = GreedySelector.id();
                let cached = replay.cache.and_then(|c| {
                    let hit = t.time("harness.cache_load", parent, req, || {
                        c.load_image_with(fp, id, policy, *style, budget)
                    });
                    load(hit.is_some());
                    hit
                });
                match cached {
                    Some(img) => img,
                    None => {
                        let cached_sel = replay.cache.and_then(|c| {
                            let hit = t.time("harness.cache_load", parent, req, || {
                                c.load_selection_with(fp, id, policy)
                            });
                            load(hit.is_some());
                            hit
                        });
                        let sel = match cached_sel {
                            Some(sel) => sel,
                            None => {
                                let sel = t.time("core.select", parent, req, || {
                                    GreedySelector.select(&inputs, policy)
                                });
                                if let Some(c) = replay.cache {
                                    t.time("harness.cache_store", parent, req, || {
                                        c.store_selection_with(fp, id, policy, &sel)
                                    });
                                }
                                sel
                            }
                        };
                        let rw = t
                            .time("core.rewrite", parent, req, || rewrite(&prog, &sel, *style));
                        let (_, mut mem) = src.build(&input, t, parent, req)?;
                        let trace = t
                            .time("profile.trace_record", parent, req, || {
                                record_trace(&rw.program, &mut mem, Some(&sel.catalog), budget)
                            })
                            .map_err(|e| format!("{}: rewritten trace: {e:?}", src.name()))?;
                        t.count("profile.trace_ops", trace.len() as f64);
                        let img = MgImage::new(rw.program, trace, sel.catalog.clone());
                        if let Some(c) = replay.cache {
                            t.time("harness.cache_store", parent, req, || {
                                c.store_image_with(fp, id, policy, *style, budget, &img)
                            });
                        }
                        img
                    }
                }
            }
        };
        let pre: Arc<Predecode> = t.time("uarch.predecode", parent, req, || {
            Arc::new(Predecode::new(&img.program, &img.catalog))
        });
        if !replay.simulate {
            continue;
        }
        let cfgs: Vec<SimConfig> = cols
            .iter()
            .map(|&i| {
                let mut c = replay.runs[i].cfg.clone();
                apply_quick(&mut c, replay.quick);
                c
            })
            .collect();
        let out = t.time("uarch.fused", parent, req, || {
            run_fused(&img.program, &img.trace, &img.catalog, &pre, &cfgs)
        });
        for (&i, s) in cols.iter().zip(out) {
            stats[i] = s;
        }
    }
    Ok(stats)
}
