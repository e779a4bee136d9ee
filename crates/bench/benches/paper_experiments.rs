//! Criterion wrappers over scaled-down versions of each paper experiment,
//! so `cargo bench --workspace` exercises the whole harness. The full-size
//! tables are produced by `mg run <experiment>` (see `EXPERIMENTS.md`).

use criterion::{criterion_group, criterion_main, Criterion};
use mg_bench::{Engine, Run};
use mg_core::{select_domain, Policy, RewriteStyle};
use mg_uarch::SimConfig;
use mg_workloads::Input;

const QUICK_OPS: u64 = 20_000;

fn quick(mut cfg: SimConfig) -> SimConfig {
    cfg.max_ops = QUICK_OPS;
    cfg
}

/// Two prepared workloads (crc32, rgba.conv) behind a shared engine.
fn engine() -> Engine {
    engine_of(&["crc32", "rgba.conv"])
}

/// The named workloads prepared on the tiny input.
fn engine_of(names: &[&str]) -> Engine {
    Engine::builder()
        .try_workloads(names)
        .and_then(|b| b.input(Input::tiny()).quick(false).try_build())
        .expect("bench workloads prepare")
}

/// Figure 5: coverage sweep (capacity × size, both policies).
fn bench_fig5(c: &mut Criterion) {
    let e = engine();
    let p = &e.preps()[0];
    c.bench_function("fig5/coverage_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for cap in [32usize, 512] {
                for sz in [2usize, 4] {
                    for pol in [Policy::integer(), Policy::integer_memory()] {
                        // Uncached select: measure the greedy pass itself,
                        // not the engine's memoized fast path.
                        let sel = mg_core::select(
                            &p.candidates,
                            &pol.with_capacity(cap).with_max_size(sz),
                        );
                        acc += sel.coverage(p.total_dyn);
                    }
                }
            }
            acc
        })
    });
}

/// Figure 6: baseline vs integer-memory mini-graph timing simulation,
/// through the engine's matrix fan-out (one workload, so the measured
/// cost is exactly the crc32 baseline + mg pair).
fn bench_fig6(c: &mut Criterion) {
    let e = engine_of(&["crc32"]);
    let runs = [
        Run::baseline(quick(SimConfig::baseline())),
        Run::mini_graph(
            Policy::integer_memory(),
            RewriteStyle::NopPadded,
            quick(SimConfig::mg_integer_memory()),
        ),
    ];
    c.bench_function("fig6/baseline_vs_mg", |b| {
        b.iter(|| {
            let matrix = e.try_run(&runs).expect("fig6 cells run");
            (matrix.rows[0].stats[0].cycles, matrix.rows[0].stats[1].cycles)
        })
    });
}

/// Figure 7: policy-restricted selection.
fn bench_fig7(c: &mut Criterion) {
    let e = engine();
    let p = &e.preps()[0];
    c.bench_function("fig7/policy_ablation", |b| {
        b.iter(|| {
            let restricted = Policy {
                allow_external_serial: false,
                allow_internal_parallel: false,
                allow_interior_loads: false,
                ..Policy::integer_memory()
            };
            let s1 = mg_core::select(&p.candidates, &Policy::integer_memory());
            let s2 = mg_core::select(&p.candidates, &restricted);
            (s1.saved_slots(), s2.saved_slots())
        })
    });
}

/// Figure 8: reduced register file and narrow machine.
fn bench_fig8(c: &mut Criterion) {
    let e = engine();
    let p = &e.preps()[1];
    let policy = Policy::integer_memory();
    c.bench_function("fig8/reduced_resources", |b| {
        b.iter(|| {
            let small = p.try_run_policy(
                &policy,
                RewriteStyle::NopPadded,
                &quick(SimConfig::mg_integer_memory().with_phys_regs(104)),
            );
            let narrow = p.try_run_baseline(&quick(SimConfig::baseline().with_front_width(4)));
            let (small, narrow) = (small.expect("mg run"), narrow.expect("baseline run"));
            (small.cycles, narrow.cycles)
        })
    });
}

/// §6.1 domain-specific selection across two programs.
fn bench_domain(c: &mut Criterion) {
    let e = engine();
    let (a, b2) = (&e.preps()[0], &e.preps()[1]);
    c.bench_function("fig5/domain_selection", |b| {
        b.iter(|| {
            let (sels, catalog) = select_domain(
                &[a.candidates.clone(), b2.candidates.clone()],
                &Policy::integer_memory().with_capacity(128),
            );
            (sels.len(), catalog.len())
        })
    });
}

/// §6.2 compressed-image rewriting.
fn bench_icache(c: &mut Criterion) {
    let e = engine();
    let p = &e.preps()[0];
    let sel = p.select(&Policy::integer_memory());
    c.bench_function("icache/compressed_rewrite", |b| {
        b.iter(|| {
            let rw = mg_core::rewrite(&p.prog, &sel, RewriteStyle::Compressed);
            rw.program.len()
        })
    });
}

criterion_group!(
    name = experiments;
    config = Criterion::default().sample_size(10);
    targets = bench_fig5, bench_fig6, bench_fig7, bench_fig8, bench_domain, bench_icache
);
criterion_main!(experiments);
