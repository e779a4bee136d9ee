//! Component micro-benchmarks: the building blocks the experiments lean
//! on (functional simulation, extraction, cache model, timing simulation
//! throughput).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mg_bench::Prep;
use mg_core::Policy;
use mg_isa::HandleCatalog;
use mg_profile::record_trace;
use mg_uarch::{simulate, Cache, SimConfig};
use mg_workloads::{by_name, Input};

fn bench_functional_sim(c: &mut Criterion) {
    let w = by_name("crafty.bits").expect("registered");
    let (prog, mem) = w.build(&Input::tiny());
    let n = {
        let mut m = mem.clone();
        record_trace(&prog, &mut m, None, u64::MAX).unwrap().insts
    };
    let mut g = c.benchmark_group("functional_sim");
    g.throughput(Throughput::Elements(n));
    g.bench_function("crafty.bits", |b| {
        b.iter(|| {
            let mut m = mem.clone();
            record_trace(&prog, &mut m, None, u64::MAX).unwrap().insts
        })
    });
    g.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let w = by_name("adpcm.enc").expect("registered");
    c.bench_function("extraction/enumerate_and_select", |b| {
        b.iter(|| {
            // Fresh Prep each iteration: measures the uncached stage-one
            // cost (profile + enumerate + select).
            let p = Prep::try_new(&w, &Input::tiny()).expect("adpcm.enc prepares");
            let sel = p.select(&Policy::integer_memory());
            (p.candidates.len(), sel.chosen.len())
        })
    });
}

fn bench_cache_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("l1_strided_access", |b| {
        let mut cache = Cache::new(32 * 1024, 2, 32);
        let mut addr = 0u64;
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..100_000 {
                if cache.access(addr) {
                    hits += 1;
                }
                addr = addr.wrapping_add(24) & 0xf_ffff;
            }
            hits
        })
    });
    g.finish();
}

fn bench_timing_sim(c: &mut Criterion) {
    let w = by_name("rgba.conv").expect("registered");
    let (prog, mem) = w.build(&Input::tiny());
    let trace = {
        let mut m = mem.clone();
        record_trace(&prog, &mut m, None, u64::MAX).unwrap()
    };
    let mut cfg = SimConfig::baseline();
    cfg.max_ops = 50_000;
    let mut g = c.benchmark_group("timing_sim");
    g.throughput(Throughput::Elements(50_000));
    g.bench_function("baseline_50k_ops", |b| {
        b.iter(|| simulate(&cfg, &prog, &trace, &HandleCatalog::new()).cycles)
    });
    g.finish();
}

criterion_group!(
    name = components;
    config = Criterion::default().sample_size(10);
    targets = bench_functional_sim, bench_extraction, bench_cache_model, bench_timing_sim
);
criterion_main!(components);
