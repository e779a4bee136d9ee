//! The mg-lang frontend in the CLI: the `lang` experiment (`mg run
//! lang`, also available through `mg serve` / `mg client run lang`) and
//! the `mg compile` subcommand.
//!
//! The experiment drives the built-in regression corpus — plus, for
//! one-off runs, any `--lang FILE.mgl` program — through the full
//! pipeline three times over: static compilation (stats table),
//! three-way verification (reference interpreter vs. compiled image vs.
//! rewritten image, both styles), and a (workload × run) simulation
//! matrix in which every compiled program is registered through the
//! [`WorkloadSource`] extension point exactly like an out-of-tree
//! embedder would, so preparation, the warm pool, and the artifact
//! cache all see content-hashed `mgl/...` identities.

use crate::cli::{parse_input, render, Format, Report, RunArgs, TableBlock};
use mg_api::{MgError, WorkloadSource};
use mg_core::{extract, rewrite, Policy, RewriteStyle};
use mg_harness::{gmean, BuildError, ExtraSource, Run};
use mg_lang::codegen::observe;
use mg_lang::{corpus, interpret, LangWorkload};
use mg_profile::run_program;
use mg_uarch::SimConfig;
use mg_workloads::Input;
use std::path::Path;
use std::sync::Arc;

/// Step budget for the reference interpreter (AST nodes visited).
const INTERP_STEPS: u64 = 20_000_000;
/// Step budget for functional simulation of compiled images.
const SIM_STEPS: u64 = 200_000_000;

/// Loads the built-in corpus plus (optionally) the `--lang FILE`
/// program, which reports under its file stem.
///
/// # Errors
///
/// [`MgError`] of kind `io` if the file cannot be read, `parse` if it
/// does not compile.
fn load_programs(args: &RunArgs) -> Result<Vec<Arc<LangWorkload>>, MgError> {
    let mut programs: Vec<Arc<LangWorkload>> = corpus::all()
        .into_iter()
        .map(|(name, src)| {
            Arc::new(LangWorkload::from_source(name, src).expect("corpus programs compile"))
        })
        .collect();
    if let Some(path) = &args.lang {
        let src = std::fs::read_to_string(path)
            .map_err(|e| MgError::io(format!("cannot read {path}: {e}")).with_source(e))?;
        let stem = Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("program")
            .to_string();
        let wl = LangWorkload::from_source(stem, &src)
            .map_err(|e| MgError::parse(format!("{path}: {e}")))?;
        programs.push(Arc::new(wl));
    }
    Ok(programs)
}

/// Adapts a [`LangWorkload`] to the harness's [`ExtraSource`] shape —
/// the same adaptation `mg_api` applies to session-registered sources.
/// Engine-visible names get an `mgl.` prefix so served pool stats and
/// report rows are unambiguous next to registry kernels.
pub(crate) fn to_extra(wl: &Arc<LangWorkload>) -> ExtraSource {
    let owned = Arc::clone(wl);
    ExtraSource {
        name: format!("mgl.{}", wl.name()),
        suite: wl.suite(),
        stable_id: wl.stable_id(),
        build: Arc::new(move |input: &Input| {
            owned.build(input).map_err(|e| Box::new(e) as BuildError)
        }),
    }
}

/// The built-in corpus as engine-ready extra sources (`mgl.<name>`
/// identities) — shared with the `policy_lab` experiment, which runs
/// the compiled corpus through every selection policy alongside the
/// registry kernels.
pub(crate) fn corpus_extras() -> Vec<ExtraSource> {
    corpus::all()
        .into_iter()
        .map(|(name, src)| {
            let wl = Arc::new(
                LangWorkload::from_source(name, src).expect("corpus programs compile"),
            );
            to_extra(&wl)
        })
        .collect()
}

/// One program's three-way verification outcome (all cells `ok` on a
/// healthy build).
struct Verification {
    checksum: i64,
    outputs: usize,
    sim: &'static str,
    nop: &'static str,
    compressed: &'static str,
}

/// Runs `wl` three ways for `input` and compares the architectural
/// observables. `Err` carries a diagnostic (interpreter budget, a
/// non-halting image) — never a mismatch, which is reported per-cell.
fn verify(wl: &LangWorkload, input: &Input) -> Result<Verification, String> {
    let module = wl.module();
    let want = interpret(module, input, INTERP_STEPS).map_err(|e| e.to_string())?;
    let compiled = wl.compile(input).map_err(|e| e.to_string())?;

    let run = |prog: &mg_isa::Program,
               catalog: Option<&mg_isa::HandleCatalog>|
     -> Result<mg_lang::codegen::Observation, String> {
        let mut mem = compiled.memory();
        run_program(prog, &mut mem, catalog, SIM_STEPS)
            .map_err(|e| format!("image did not halt: {e:?}"))?;
        Ok(observe(module, &mem))
    };

    let expected = mg_lang::codegen::Observation {
        checksum: want.checksum,
        outputs: want.outputs,
        globals: want.globals,
        arrays: want.arrays,
    };
    let sim = if run(&compiled.program, None)? == expected { "ok" } else { "MISMATCH" };

    let ex = extract(
        &compiled.program,
        &mut compiled.memory(),
        &Policy::integer_memory(),
        SIM_STEPS,
    )
    .map_err(|e| format!("extraction failed: {e:?}"))?;
    let mut styled = ["ok"; 2];
    for (i, style) in
        [RewriteStyle::NopPadded, RewriteStyle::Compressed].into_iter().enumerate()
    {
        let rw = rewrite(&compiled.program, &ex.selection, style);
        if run(&rw.program, Some(&ex.selection.catalog))? != expected {
            styled[i] = "MISMATCH";
        }
    }
    Ok(Verification {
        checksum: want.checksum,
        outputs: expected.outputs.len(),
        sim,
        nop: styled[0],
        compressed: styled[1],
    })
}

/// `mg run lang` — the experiment registry's builder.
pub fn lang_report(args: &RunArgs) -> Result<Report, MgError> {
    let programs = load_programs(args)?;
    let mut r = Report::new("lang");
    r.line("== mg-lang: compiled programs through the mini-graph pipeline ==");

    r.blank_then("-- compilation --");
    let mut t = TableBlock::new(
        "lang.compile",
        &["program", "stable id", "procs", "insts", "vregs", "spills", "divmod"],
    );
    for wl in &programs {
        let c = wl
            .compile(&args.input)
            .map_err(|e| MgError::exec(format!("{}: {e}", wl.name())))?;
        t.row(vec![
            wl.name().to_string(),
            wl.stable_id(),
            c.stats.procs.to_string(),
            c.stats.insts.to_string(),
            c.stats.vregs.to_string(),
            c.stats.spills.to_string(),
            if c.stats.uses_divmod { "yes" } else { "no" }.to_string(),
        ]);
    }
    r.table(t);

    r.blank_then("-- three-way verification (interpreter / compiled / rewritten) --");
    let mut t = TableBlock::new(
        "lang.verify",
        &["program", "checksum", "outputs", "compiled", "nop-padded", "compressed"],
    );
    for wl in &programs {
        let v = verify(wl, &args.input)
            .map_err(|e| MgError::exec(format!("{}: {e}", wl.name())))?;
        if [v.sim, v.nop, v.compressed].contains(&"MISMATCH") {
            r.status = 1;
        }
        t.row(vec![
            wl.name().to_string(),
            v.checksum.to_string(),
            v.outputs.to_string(),
            v.sim.to_string(),
            v.nop.to_string(),
            v.compressed.to_string(),
        ]);
    }
    r.table(t);

    r.blank_then("-- simulated matrix (registered via WorkloadSource) --");
    let names: Vec<String> = programs.iter().map(|w| format!("mgl.{}", w.name())).collect();
    let mut b = args.engine();
    for wl in &programs {
        b = b.extra_source(to_extra(wl));
    }
    let engine = b.try_workloads(&names)?.try_build()?;
    let runs = vec![
        Run::baseline(SimConfig::baseline()),
        Run::mini_graph(
            Policy::integer_memory(),
            RewriteStyle::NopPadded,
            SimConfig::mg_integer_memory(),
        )
        .label("intmem"),
    ];
    let matrix = engine.try_run(&runs)?;
    let mut t = TableBlock::new("lang.matrix", &["program", "baseIPC", "intmem", "cov%"]);
    let mut speedups = Vec::new();
    for row in &matrix.rows {
        let x = row.speedup_over(0, 1);
        speedups.push(x);
        let cov = row.prep.select(&Policy::integer_memory()).coverage(row.prep.total_dyn);
        t.row(vec![
            row.prep.name.clone(),
            format!("{:.2}", row.stats[0].ipc()),
            format!("{x:.3}"),
            format!("{:.1}", 100.0 * cov),
        ]);
    }
    r.table(t);
    r.line(format!("gmean intmem speedup: {:.3}", gmean(&speedups)));
    Ok(r)
}

/// `mg compile FILE.mgl` — compiles one source file and prints the
/// image: stats, memory-initialization footprint, and a disassembly
/// with labels. Exit codes follow the documented table (2 usage, 64
/// unknown input/format name, 65 parse/semantic error, 70 codegen
/// resource exhaustion, 74 I/O).
pub fn cmd_compile(argv: &[String]) -> i32 {
    let mut input = Input::reference();
    let mut format = Format::Text;
    let mut positional = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        match a.as_str() {
            "--input" => {
                let v = match value("--input") {
                    Ok(v) => v,
                    Err(msg) => {
                        eprintln!("mg compile: {msg}");
                        return 2;
                    }
                };
                input = match parse_input(&v) {
                    Some(i) => i,
                    None => {
                        eprintln!(
                            "mg compile: unknown input {v:?} (reference|alternative|tiny)"
                        );
                        return 64;
                    }
                };
            }
            "--format" => {
                let v = match value("--format") {
                    Ok(v) => v,
                    Err(msg) => {
                        eprintln!("mg compile: {msg}");
                        return 2;
                    }
                };
                format = match Format::parse(&v) {
                    Some(f) => f,
                    None => {
                        eprintln!("mg compile: unknown format {v:?} (text|json|csv|markdown)");
                        return 64;
                    }
                };
            }
            flag if flag.starts_with("--") => {
                eprintln!("mg compile: unknown flag {flag:?}");
                return 2;
            }
            pos => positional.push(pos.to_string()),
        }
    }
    let [path] = positional.as_slice() else {
        eprintln!("mg compile: expected exactly one source file (e.g. `mg compile prog.mgl`)");
        return 2;
    };

    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mg compile: cannot read {path}: {e}");
            return 74;
        }
    };
    let stem = Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("program");
    let wl = match LangWorkload::from_source(stem, &src) {
        Ok(wl) => wl,
        Err(e) => {
            eprintln!("mg compile: {path}: {e}");
            return 65;
        }
    };
    let compiled = match wl.compile(&input) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mg compile: {path}: {e}");
            return 70;
        }
    };

    let mut r = Report::new("compile");
    r.line(format!("== {} ({}) ==", wl.name(), wl.stable_id()));
    let mut t = TableBlock::new("compile.stats", &["metric", "value"]);
    t.row(vec!["procedures".into(), compiled.stats.procs.to_string()]);
    t.row(vec!["instructions".into(), compiled.stats.insts.to_string()]);
    t.row(vec!["virtual registers".into(), compiled.stats.vregs.to_string()]);
    t.row(vec!["spilled vregs".into(), compiled.stats.spills.to_string()]);
    t.row(vec![
        "divmod routine".into(),
        if compiled.stats.uses_divmod { "yes" } else { "no" }.into(),
    ]);
    t.row(vec!["entry index".into(), compiled.program.entry.to_string()]);
    t.row(vec!["memory init words".into(), compiled.mem_init.len().to_string()]);
    r.table(t);

    // Labels, inverted to index order, for the disassembly below.
    let mut labels_at: std::collections::BTreeMap<usize, Vec<&str>> = Default::default();
    for (name, &idx) in &compiled.program.labels {
        labels_at.entry(idx).or_default().push(name);
    }
    r.blank_then("-- disassembly --");
    let mut t = TableBlock::new("compile.disasm", &["idx", "label", "instruction"]);
    for (i, inst) in compiled.program.insts.iter().enumerate() {
        let label = labels_at.get(&i).map(|ls| ls.join(", ")).unwrap_or_default();
        t.row(vec![i.to_string(), label, inst.to_string()]);
    }
    r.table(t);
    print!("{}", render(&r, format));
    0
}
