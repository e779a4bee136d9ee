//! Golden-stats regression tests: full [`SimStats`] structs for fixed
//! (workload, policy, machine) cells, recorded before the event-wheel /
//! idle-skip / incremental-selection refactor landed.
//!
//! The simulator hot loop is performance-tuned under a **cycle-exactness
//! contract**: any rewrite of the scheduling machinery must reproduce
//! these statistics bit for bit. If a change legitimately alters timing
//! semantics (a *model* change, not an optimisation), re-record the
//! baselines in the same commit and say so in the commit message.
//!
//! Baselines were recorded with `threads = 1`, quick mode (30 000-op
//! cap), on the `reference` input; the engine's determinism contract
//! makes thread count irrelevant, and quick mode keeps the test fast.

use mg_core::{Policy, RewriteStyle};
use mg_harness::{Engine, HarnessError, Run};
use mg_uarch::{SimConfig, SimStats};

fn golden_engine() -> Result<Engine, HarnessError> {
    Engine::builder().try_workloads(&["crc32", "rgba.conv"])?.threads(1).quick(true).try_build()
}

fn golden_runs() -> [Run; 3] {
    [
        Run::baseline(SimConfig::baseline()),
        Run::mini_graph(Policy::integer(), RewriteStyle::NopPadded, SimConfig::mg_integer())
            .label("int"),
        Run::mini_graph(
            Policy::integer_memory(),
            RewriteStyle::NopPadded,
            SimConfig::mg_integer_memory(),
        )
        .label("intmem"),
    ]
}

#[test]
fn golden_stats_are_bit_identical() -> Result<(), HarnessError> {
    let matrix = golden_engine()?.try_run(&golden_runs())?;
    let expected: [(&str, [SimStats; 3]); 2] = [
        (
            "crc32",
            [
                SimStats {
                    cycles: 23518,
                    insts: 30000,
                    ops: 30000,
                    handles: 0,
                    handle_insts: 0,
                    branches: 2727,
                    mispredicts: 5,
                    il1_accesses: 16275,
                    il1_misses: 3,
                    dl1_accesses: 5452,
                    dl1_misses: 64,
                    l2_accesses: 67,
                    l2_misses: 17,
                    mg_replays: 0,
                    violations: 0,
                    stall_pregs: 0,
                    stall_rob: 10,
                    stall_iq: 23202,
                    stall_lsq: 0,
                    preg_occupancy_sum: 2466864,
                    iq_occupancy_sum: 1165375,
                    rob_occupancy_sum: 1880413,
                },
                SimStats {
                    cycles: 39567,
                    insts: 47129,
                    ops: 30000,
                    handles: 12848,
                    handle_insts: 29977,
                    branches: 4285,
                    mispredicts: 7,
                    il1_accesses: 29441,
                    il1_misses: 3,
                    dl1_accesses: 8564,
                    dl1_misses: 64,
                    l2_accesses: 67,
                    l2_misses: 17,
                    mg_replays: 0,
                    violations: 0,
                    stall_pregs: 0,
                    stall_rob: 0,
                    stall_iq: 38943,
                    stall_lsq: 216,
                    preg_occupancy_sum: 4744587,
                    iq_occupancy_sum: 1963638,
                    rob_occupancy_sum: 3478443,
                },
                SimStats {
                    cycles: 73620,
                    insts: 65963,
                    ops: 30000,
                    handles: 17984,
                    handle_insts: 53947,
                    branches: 5998,
                    mispredicts: 8,
                    il1_accesses: 17836,
                    il1_misses: 3,
                    dl1_accesses: 11986,
                    dl1_misses: 64,
                    l2_accesses: 67,
                    l2_misses: 17,
                    mg_replays: 64,
                    violations: 0,
                    stall_pregs: 0,
                    stall_rob: 0,
                    stall_iq: 5854,
                    stall_lsq: 67243,
                    preg_occupancy_sum: 8235693,
                    iq_occupancy_sum: 3508521,
                    rob_occupancy_sum: 5879853,
                },
            ],
        ),
        (
            "rgba.conv",
            [
                SimStats {
                    cycles: 10566,
                    insts: 30000,
                    ops: 30000,
                    handles: 0,
                    handle_insts: 0,
                    branches: 1364,
                    mispredicts: 4,
                    il1_accesses: 10710,
                    il1_misses: 4,
                    dl1_accesses: 2727,
                    dl1_misses: 256,
                    l2_accesses: 260,
                    l2_misses: 65,
                    mg_replays: 0,
                    violations: 0,
                    stall_pregs: 0,
                    stall_rob: 3208,
                    stall_iq: 6511,
                    stall_lsq: 0,
                    preg_occupancy_sum: 1330013,
                    iq_occupancy_sum: 416778,
                    rob_occupancy_sum: 1089615,
                },
                SimStats {
                    cycles: 11003,
                    insts: 41245,
                    ops: 30000,
                    handles: 7497,
                    handle_insts: 18742,
                    branches: 1875,
                    mispredicts: 4,
                    il1_accesses: 12486,
                    il1_misses: 4,
                    dl1_accesses: 3749,
                    dl1_misses: 256,
                    l2_accesses: 260,
                    l2_misses: 65,
                    mg_replays: 0,
                    violations: 0,
                    stall_pregs: 0,
                    stall_rob: 3178,
                    stall_iq: 6674,
                    stall_lsq: 0,
                    preg_occupancy_sum: 1414280,
                    iq_occupancy_sum: 436197,
                    rob_occupancy_sum: 1134188,
                },
                SimStats {
                    cycles: 11088,
                    insts: 43994,
                    ops: 30000,
                    handles: 7997,
                    handle_insts: 21991,
                    branches: 2000,
                    mispredicts: 4,
                    il1_accesses: 12563,
                    il1_misses: 4,
                    dl1_accesses: 3999,
                    dl1_misses: 256,
                    l2_accesses: 260,
                    l2_misses: 65,
                    mg_replays: 0,
                    violations: 0,
                    stall_pregs: 0,
                    stall_rob: 3086,
                    stall_iq: 6783,
                    stall_lsq: 0,
                    preg_occupancy_sum: 1420712,
                    iq_occupancy_sum: 436938,
                    rob_occupancy_sum: 1142232,
                },
            ],
        ),
    ];
    for (name, want) in &expected {
        let row = matrix.row(name).expect("workload present");
        for (li, (got, want)) in row.stats.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                got, want,
                "SimStats drifted for {name}/{} — the scheduling refactor must be cycle-exact",
                matrix.labels[li]
            );
        }
    }
    Ok(())
}
