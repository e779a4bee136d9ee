//! Suite report: runs one workload from each of the paper's four suites
//! through the full pipeline and reports coverage, amplification, and
//! speedup — a miniature of the paper's Figure 6 row for each suite.
//!
//! Run with: `cargo run --release --example suite_report`

use mini_graphs::core::{Policy, RewriteStyle};
use mini_graphs::harness::{Engine, Run};
use mini_graphs::uarch::SimConfig;
use mini_graphs::workloads::Input;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let policy = Policy::integer_memory();
    let engine = Engine::builder()
        .try_workloads(&["twolf.place", "adpcm.dec", "reed.enc", "bitcount"])?
        .input(Input { seed: 0x5eed_0001, scale: 2 })
        .try_build()?;

    // Speedup over represented instructions: with max_ops truncation the
    // two runs cover different amounts of program, so compare IPC.
    let cap = |mut cfg: SimConfig| {
        cfg.max_ops = 60_000;
        cfg
    };
    let matrix = engine.try_run(&[
        Run::baseline(cap(SimConfig::baseline())),
        Run::mini_graph(
            policy.clone(),
            RewriteStyle::NopPadded,
            cap(SimConfig::mg_integer_memory()),
        ),
    ])?;

    println!(
        "{:<14} {:>8} {:>7} {:>9} {:>9} {:>8}",
        "benchmark", "baseIPC", "cov%", "handles", "mgIPC", "speedup"
    );
    for row in &matrix.rows {
        let (base, mg) = (&row.stats[0], &row.stats[1]);
        let cov = row.prep.select(&policy).coverage(row.prep.total_dyn);
        println!(
            "{:<14} {:>8.2} {:>7.1} {:>9} {:>9.2} {:>7.3}x",
            row.prep.name,
            base.ipc(),
            100.0 * cov,
            mg.handles,
            mg.ipc(),
            mg.ipc() / base.ipc(),
        );
    }
    Ok(())
}
