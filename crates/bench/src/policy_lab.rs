//! The selection-policy lab: `mg run policy_lab`.
//!
//! Runs every selection-policy family in [`mg_policy::all_selectors`] —
//! the paper's greedy baseline, loop-weighted greedy, tree tiling, and
//! the exact-DP selector — over the registry kernels *and* the compiled
//! `mgl.*` corpus, and compares them on four axes per workload:
//!
//! * **coverage** — dynamic instructions inside chosen mini-graphs,
//!   always measured with the true benefit `(n-1)·f` regardless of the
//!   family's internal ranking;
//! * **IPC** — a real timing simulation of each family's rewritten
//!   image under the integer-memory machine configuration, executed
//!   through the fused sweep path ([`Prep::try_run_selector_sweep`]);
//! * **selection time** — wall-clock milliseconds spent inside the
//!   selector itself (preparation and simulation excluded);
//! * **optimality gap** — saved slots left on the table versus the
//!   per-block exact optimum, certified by [`DpCertifier`] on every
//!   block within the DP bounds (see `mg_policy::dp`); blocks outside
//!   the bounds are reported uncertified, never estimated.
//!
//! Selections and rewritten images are memoized and persisted per
//! selector id (see `mg_harness::prep_cache`): running the lab warms a
//! disjoint cache-key space per family and never touches cached greedy
//! artifacts.

use crate::cli::{Report, RunArgs, TableBlock};
use mg_api::MgError;
use mg_core::{Policy, RewriteStyle, Selection, Selector};
use mg_harness::{gmean, Prep};
use mg_policy::{all_selectors, DpCertifier};
use mg_uarch::SimConfig;
use std::sync::Arc;
use std::time::Instant;

/// One (workload × family) cell of the lab matrix.
struct LabCell {
    family: String,
    coverage: f64,
    ipc: Option<f64>,
    select_ms: f64,
    gap: u64,
    gap_pct: f64,
}

/// Measures every family on one prepared workload. IPC is `None` when
/// the rewritten image fails to simulate (surfaced as an error row, not
/// a panic, so one bad workload cannot sink the whole lab).
fn run_workload(prep: &Prep, policy: &Policy, selectors: &[Arc<dyn Selector>]) -> Vec<LabCell> {
    let certifier = DpCertifier::new(&prep.select_inputs(), policy);
    selectors
        .iter()
        .map(|s| {
            let t = Instant::now();
            let sel: Arc<Selection> = prep.select_with(s.as_ref(), policy);
            let select_ms = t.elapsed().as_secs_f64() * 1e3;
            let gap = certifier.evaluate(&sel, &prep.cfg);
            let ipc = prep
                .try_run_selector_sweep(
                    s.as_ref(),
                    policy,
                    RewriteStyle::NopPadded,
                    &[SimConfig::mg_integer_memory()],
                )
                .ok()
                .and_then(|stats| stats.first().map(mg_uarch::SimStats::ipc));
            LabCell {
                family: s.id().to_string(),
                coverage: sel.coverage(prep.total_dyn),
                ipc,
                select_ms,
                gap: gap.gap(),
                gap_pct: gap.gap_pct(),
            }
        })
        .collect()
}

/// `mg run policy_lab` — the experiment registry's builder.
pub fn policy_lab(args: &RunArgs) -> Result<Report, MgError> {
    let mut r = Report::new("policy_lab");
    r.line("== selection-policy lab: greedy / weighted / tiling / exact DP ==");

    let policy = Policy::integer_memory();
    let selectors = all_selectors();

    // Registry kernels plus the compiled corpus: extra sources join the
    // default all-workloads set, so one engine prepares both.
    let mut b = args.engine();
    for x in crate::lang::corpus_extras() {
        b = b.extra_source(x);
    }
    let engine = b.try_build()?;

    r.blank_then("-- per-workload matrix (integer_memory policy, nop-padded images) --");
    // The visible tables carry only deterministic quick-mode columns
    // (coverage, IPC, gap): this report lands verbatim in the generated
    // `EXPERIMENTS.md`, which CI regenerates and diffs. Wall-clock
    // selection times go in a hidden table, visible to the structured
    // formats (`--format json`) the smoke job reads.
    let mut t = TableBlock::new(
        "policy_lab.matrix",
        &["workload", "family", "cov%", "IPC", "gap", "gap%"],
    );
    let mut timing =
        TableBlock::new("policy_lab.timing", &["workload", "family", "select_ms"]).hidden();
    // Columns for the summary: per family, across workloads.
    #[derive(Default)]
    struct FamilyTotals {
        id: String,
        covs: Vec<f64>,
        ipcs: Vec<f64>,
        select_ms: f64,
        gap: u64,
    }
    let mut by_family: Vec<FamilyTotals> = selectors
        .iter()
        .map(|s| FamilyTotals { id: s.id().to_string(), ..FamilyTotals::default() })
        .collect();
    // Workloads where a non-greedy family strictly beats greedy coverage.
    let mut beats_greedy: Vec<(String, String)> = Vec::new();

    let cells: Vec<(String, Vec<LabCell>)> = engine
        .map(|p| (p.name.clone(), run_workload(p, &policy, &selectors)))
        .into_iter()
        .collect();
    for (workload, row) in &cells {
        let greedy_cov =
            row.iter().find(|c| c.family == "greedy").map(|c| c.coverage).unwrap_or(0.0);
        for c in row {
            t.row(vec![
                workload.clone(),
                c.family.clone(),
                format!("{:.1}", 100.0 * c.coverage),
                c.ipc.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into()),
                c.gap.to_string(),
                format!("{:.2}", c.gap_pct),
            ]);
            timing.row(vec![workload.clone(), c.family.clone(), format!("{:.3}", c.select_ms)]);
            if let Some(f) = by_family.iter_mut().find(|f| f.id == c.family) {
                f.covs.push(c.coverage);
                if let Some(ipc) = c.ipc {
                    f.ipcs.push(ipc);
                }
                f.select_ms += c.select_ms;
                f.gap += c.gap;
            }
            if c.family != "greedy" && c.coverage > greedy_cov {
                beats_greedy.push((workload.clone(), c.family.clone()));
            }
        }
    }
    r.table(t);

    r.blank_then("-- per-family summary --");
    let mut t = TableBlock::new(
        "policy_lab.summary",
        &["family", "workloads", "mean cov%", "gmean IPC", "total gap"],
    );
    for f in &by_family {
        let mean_cov = if f.covs.is_empty() {
            0.0
        } else {
            f.covs.iter().sum::<f64>() / f.covs.len() as f64
        };
        t.row(vec![
            f.id.clone(),
            f.covs.len().to_string(),
            format!("{:.1}", 100.0 * mean_cov),
            format!("{:.3}", gmean(&f.ipcs)),
            f.gap.to_string(),
        ]);
        timing.row(vec!["(total)".into(), f.id.clone(), format!("{:.3}", f.select_ms)]);
    }
    r.table(t);
    r.table(timing);

    // The DP gauge's certification footprint, over one representative
    // prep set: how many blocks the exact bound actually covers.
    let certified: Vec<(String, usize, usize)> = engine
        .map(|p| {
            let c = DpCertifier::new(&p.select_inputs(), &policy);
            (p.name.clone(), c.certified_blocks(), p.cfg.blocks.len())
        })
        .into_iter()
        .collect();
    let (cert_total, blocks_total) =
        certified.iter().fold((0, 0), |(c, b), (_, cc, bb)| (c + cc, b + bb));
    r.line(format!(
        "DP gauge: {cert_total}/{blocks_total} blocks certified exactly across {} workloads",
        certified.len()
    ));

    beats_greedy.sort();
    beats_greedy.dedup();
    if beats_greedy.is_empty() {
        r.line("non-greedy coverage wins: none (greedy matched or beat every family)");
    } else {
        let wins: Vec<String> =
            beats_greedy.iter().map(|(w, f)| format!("{f} on {w}")).collect();
        r.line(format!("non-greedy coverage wins: {}", wins.join(", ")));
    }
    Ok(r)
}
