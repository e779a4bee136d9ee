//! Scalar-vs-fused differential test: the fused sweep executor must
//! produce **bit-identical** `SimStats` to one-config-at-a-time scalar
//! execution, for every registered workload, on a sweep that exercises
//! the divergence machinery (different widths, register files, and
//! images diverge in time almost immediately).

use mg_core::{Policy, RewriteStyle};
use mg_harness::{Engine, HarnessError, Run};
use mg_uarch::SimConfig;
use mg_workloads::Input;

fn quick(mut cfg: SimConfig) -> SimConfig {
    cfg.max_ops = 10_000;
    cfg
}

/// A 4-config sweep per image group: a baseline anchor, a deliberate
/// duplicate of it (exercises replica dedup), a narrow front end, and a
/// small register file — plus two mini-graph cells so policy images run
/// through the fused path too.
fn sweep() -> Vec<Run> {
    [
        Run::baseline(quick(SimConfig::baseline())).label("base"),
        Run::baseline(quick(SimConfig::baseline())).label("base-dup"),
        Run::baseline(quick(SimConfig::baseline().with_front_width(4))).label("narrow"),
        Run::baseline(quick(SimConfig::baseline().with_phys_regs(96))).label("small-prf"),
        Run::mini_graph(
            Policy::integer(),
            RewriteStyle::NopPadded,
            quick(SimConfig::mg_integer()),
        )
        .label("int"),
        Run::mini_graph(
            Policy::integer_memory(),
            RewriteStyle::Compressed,
            quick(SimConfig::mg_integer_memory()),
        )
        .label("intmem"),
    ]
    .into()
}

/// Every registry workload × tiny input × the sweep above: fused and
/// scalar matrices must be bit-identical, cell for cell.
#[test]
fn fused_sweep_matches_scalar_on_every_workload() -> Result<(), HarnessError> {
    let runs = sweep();
    let build = |fuse: bool| {
        Engine::builder()
            .input(Input::tiny())
            .quick(false)
            .fuse(fuse)
            .try_build()?
            .try_run(&runs)
    };
    let fused = build(true)?;
    let scalar = build(false)?;

    assert_eq!(fused.labels, scalar.labels);
    assert!(fused.rows.len() >= 24, "every registered workload is covered");
    for (f, s) in fused.rows.iter().zip(&scalar.rows) {
        assert_eq!(f.prep.name, s.prep.name, "row order is deterministic");
        for (label, (fs, ss)) in fused.labels.iter().zip(f.stats.iter().zip(&s.stats)) {
            assert_eq!(fs, ss, "{}/{label}: fused and scalar SimStats diverge", f.prep.name);
        }
    }
    Ok(())
}
