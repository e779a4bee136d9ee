//! Shared experiment definitions: the run matrices each figure's
//! experiment simulates, factored out so the report builders in
//! [`crate::figures`] and the `mg run perf` benchmark driver measure
//! exactly the same work.
//!
//! Each `*_runs()` function returns the column specification of one
//! figure's (workload × run) matrix; the report builders add their own
//! rendering, and `mg run perf` times `Engine::try_run` over the same
//! columns. Keep these in sync with the paper sections cited in
//! `EXPERIMENTS.md`.

use mg_core::{select_domain, Policy, RewriteStyle};
use mg_harness::{Engine, Run};
use mg_uarch::SimConfig;

/// Figure 6 columns: baseline plus the four mini-graph machine
/// configurations (integer / integer-memory, plain / collapsing ALU
/// pipelines).
pub fn fig6_runs() -> Vec<Run> {
    let style = RewriteStyle::NopPadded;
    vec![
        Run::baseline(SimConfig::baseline()),
        Run::mini_graph(Policy::integer(), style, SimConfig::mg_integer()).label("int"),
        Run::mini_graph(Policy::integer(), style, SimConfig::mg_integer().with_collapsing())
            .label("int+coll"),
        Run::mini_graph(Policy::integer_memory(), style, SimConfig::mg_integer_memory())
            .label("intmem"),
        Run::mini_graph(
            Policy::integer_memory(),
            style,
            SimConfig::mg_integer_memory().with_collapsing(),
        )
        .label("intmem+coll"),
    ]
}

/// The paper's six Figure 7 focus benchmarks (behavioural analogues).
pub const FIG7_FOCUS: [&str; 6] =
    ["gsm.toast", "mpeg2.idct", "reed.enc", "mcf.netw", "sha.rounds", "adpcm.enc"];

/// Figure 7 integer-policy ablations: (label, policy).
pub fn fig7_int_policies() -> Vec<(&'static str, Policy)> {
    vec![
        ("int", Policy::integer()),
        ("int -ext", Policy { allow_external_serial: false, ..Policy::integer() }),
        ("int -int", Policy { allow_internal_parallel: false, ..Policy::integer() }),
        (
            "int -both",
            Policy {
                allow_external_serial: false,
                allow_internal_parallel: false,
                ..Policy::integer()
            },
        ),
    ]
}

/// Figure 7 integer-memory-policy ablations: (label, policy).
pub fn fig7_mem_policies() -> Vec<(&'static str, Policy)> {
    vec![
        ("intmem", Policy::integer_memory()),
        (
            "intmem -serial",
            Policy {
                allow_external_serial: false,
                allow_internal_parallel: false,
                ..Policy::integer_memory()
            },
        ),
        (
            "intmem -serial -replay",
            Policy {
                allow_external_serial: false,
                allow_internal_parallel: false,
                allow_interior_loads: false,
                ..Policy::integer_memory()
            },
        ),
    ]
}

/// Figure 7 columns: baseline plus all seven serialization/replay
/// ablations.
pub fn fig7_runs() -> Vec<Run> {
    let mut runs = vec![Run::baseline(SimConfig::baseline())];
    for (name, policy) in fig7_int_policies() {
        runs.push(
            Run::mini_graph(policy, RewriteStyle::NopPadded, SimConfig::mg_integer())
                .label(name),
        );
    }
    for (name, policy) in fig7_mem_policies() {
        runs.push(
            Run::mini_graph(policy, RewriteStyle::NopPadded, SimConfig::mg_integer_memory())
                .label(name),
        );
    }
    runs
}

/// Figure 8 (top) physical-register-file sweep points.
pub const REGFILE_SIZES: [usize; 4] = [164, 144, 124, 104];

/// Figure 8 (top) columns: the 164-register baseline reference, then
/// (baseline, int, intmem) per register-file size.
pub fn fig8_regfile_runs() -> Vec<Run> {
    let style = RewriteStyle::NopPadded;
    let mut runs = vec![Run::baseline(SimConfig::baseline())];
    for &regs in &REGFILE_SIZES {
        runs.push(
            Run::baseline(SimConfig::baseline().with_phys_regs(regs))
                .label(format!("base@{regs}")),
        );
        runs.push(
            Run::mini_graph(
                Policy::integer(),
                style,
                SimConfig::mg_integer().with_phys_regs(regs),
            )
            .label(format!("int@{regs}")),
        );
        runs.push(
            Run::mini_graph(
                Policy::integer_memory(),
                style,
                SimConfig::mg_integer_memory().with_phys_regs(regs),
            )
            .label(format!("intmem@{regs}")),
        );
    }
    runs
}

/// Figure 8 (bottom): the narrowed 4-wide machine (fetch/rename/retire
/// and execute, 1 load port).
pub fn four_wide() -> SimConfig {
    let mut c = SimConfig::baseline().with_front_width(4);
    c.issue_width = 4;
    c.load_ports = 1;
    c
}

/// Figure 8 (bottom): a 4-wide front end with 6-wide execution
/// ("can execute 6 instructions per cycle, including 2 loads").
pub fn four_wide_six_exec() -> SimConfig {
    SimConfig::baseline().with_front_width(4)
}

/// Figure 8 (bottom): the 2-cycle (pipelined) scheduler baseline.
pub fn two_cycle_sched() -> SimConfig {
    let mut c = SimConfig::baseline();
    c.sched_loop = 2;
    c
}

/// Figure 8 (bottom) columns: each bandwidth/scheduler reduction with
/// and without integer-memory mini-graphs.
pub fn fig8_bandwidth_runs() -> Vec<Run> {
    let with_mg = |mut cfg: SimConfig| {
        cfg.mg = mg_uarch::MgSupport::IntegerMemory;
        cfg
    };
    let mg = |cfg: SimConfig, label: &str| {
        Run::mini_graph(Policy::integer_memory(), RewriteStyle::NopPadded, with_mg(cfg))
            .label(label)
    };
    vec![
        Run::baseline(SimConfig::baseline()).label("6w"),
        mg(SimConfig::baseline(), "6w+mg"),
        Run::baseline(four_wide()).label("4w"),
        mg(four_wide(), "4w+mg"),
        Run::baseline(four_wide_six_exec()).label("4w6x"),
        mg(four_wide_six_exec(), "4w6x+mg"),
        Run::baseline(two_cycle_sched()).label("2cyc"),
        mg(two_cycle_sched(), "2cyc+mg"),
    ]
}

/// §6.2 instruction-cache-effects selection policy — shared with the
/// report's compressed-image static-size lookup, which must use the
/// same policy the matrix simulated for its memo-cache hit (and its
/// numbers) to be the right ones.
pub fn icache_policy() -> Policy {
    Policy::integer_memory()
}

/// §6.2 instruction-cache-effects columns: baseline, nop-padded image,
/// compressed image.
pub fn icache_runs() -> Vec<Run> {
    let policy = icache_policy();
    vec![
        Run::baseline(SimConfig::baseline()),
        Run::mini_graph(
            policy.clone(),
            RewriteStyle::NopPadded,
            SimConfig::mg_integer_memory(),
        )
        .label("padded"),
        Run::mini_graph(policy, RewriteStyle::Compressed, SimConfig::mg_integer_memory())
            .label("compressed"),
    ]
}

/// §6.3 issue-queue sweep points.
pub const IQ_SIZES: [usize; 4] = [50, 40, 30, 20];

/// §6.3 columns: the 50-entry baseline reference, then (baseline,
/// intmem) per issue-queue size.
pub fn iq_capacity_runs() -> Vec<Run> {
    let mut runs = vec![Run::baseline(SimConfig::baseline())];
    for &iq in &IQ_SIZES {
        let mut b_cfg = SimConfig::baseline();
        b_cfg.iq_size = iq;
        let mut m_cfg = SimConfig::mg_integer_memory();
        m_cfg.iq_size = iq;
        runs.push(Run::baseline(b_cfg).label(format!("base@{iq}")));
        runs.push(
            Run::mini_graph(Policy::integer_memory(), RewriteStyle::NopPadded, m_cfg)
                .label(format!("intmem@{iq}")),
        );
    }
    runs
}

/// Figure 5 capacity sweep (MGT entries).
pub const FIG5_CAPACITIES: [usize; 4] = [32, 128, 512, 2048];
/// Figure 5 size sweep (max instructions per mini-graph).
pub const FIG5_SIZES: [usize; 4] = [2, 3, 4, 8];

/// The selection work behind all three Figure 5 panels (application-
/// specific integer + integer-memory grids, and the domain-specific
/// shared-MGT panel), without the rendering. Returns the total number of
/// instances selected, as a cheap checksum for the caller.
pub fn fig5_selection_sweep(engine: &Engine) -> u64 {
    let mut selected = 0u64;
    for base in [Policy::integer(), Policy::integer_memory()] {
        let per_workload: Vec<u64> = engine.map(|p| {
            let mut n = 0u64;
            for cap in FIG5_CAPACITIES {
                for sz in FIG5_SIZES {
                    let policy = base.clone().with_capacity(cap).with_max_size(sz);
                    n += p.select(&policy).chosen.len() as u64;
                }
            }
            n
        });
        selected += per_workload.iter().sum::<u64>();
    }
    for (_, members) in engine.by_suite() {
        let per_prog: Vec<Vec<mg_core::MiniGraph>> =
            members.iter().map(|p| p.candidates.clone()).collect();
        if per_prog.is_empty() {
            continue;
        }
        for cap in FIG5_CAPACITIES {
            let policy = Policy::integer_memory().with_capacity(cap).with_max_size(4);
            let (sels, _) = select_domain(&per_prog, &policy);
            selected += sels.iter().map(|s| s.chosen.len() as u64).sum::<u64>();
        }
    }
    selected
}
