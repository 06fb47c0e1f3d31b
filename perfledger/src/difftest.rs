//! The `difftest` workload: one op is `compiler::run_seed` on one generated
//! program — validated compile, the seven-stage oracle and the
//! link-metamorphic checks — and it must end `Agree`.

use std::time::Instant;

use clight::build_symtab;
use compcerto_core::cc::Ca;
use compcerto_core::conv::SimConv;
use compcerto_core::iface::CQuery;
use compcerto_core::lts::RunBudget;
use compcerto_core::sim::SimCheckError;
use compcerto_core::symtab::SymbolTable;
use compcerto_gen::generate::gen_queries;
use compcerto_gen::{generate, GProgram};
use compiler::driver::compile_program;
use compiler::{
    check_thm35_budgeted, run_seed, run_stage, try_c_query, CompiledUnit, CompilerOptions,
    DifftestCfg, ExtLib, FindingKind, ObsSnapshot, QueryVerdict, SeedOutcome, StageOutcome,
    StagePrograms, STAGES,
};
use mem::Val;

use crate::harness::{shuffled_block, warm_up_seeds, Workload};
use crate::trace::{self, probe_validators, Trace};

/// Programs in the pool: generator seeds `0..POOL`, the head of the block
/// the committed `DIFFTEST.json` campaign covers.
pub const POOL: usize = 128;

/// Warm-up ops that end each set-up: generator seeds `0..WARM_UP`.
pub const WARM_UP: usize = 8;

/// The stable verdict line of one seed.
pub fn verdict_line(seed: u64, outcome: &SeedOutcome) -> String {
    format!("{seed:016x} {outcome:?}")
}

/// Compiled units kept from a traced op for the validator probes.
type Compiled = (Vec<CompiledUnit>, SymbolTable);

pub struct Difftest {
    pool: Vec<u64>,
    cfg: DifftestCfg,
    compiled: Vec<Compiled>,
}

impl Difftest {
    pub fn new(seed: u64) -> Difftest {
        Difftest::with_pool(seed, POOL)
    }

    /// The workload over generator seeds `0..n`.
    pub fn with_pool(seed: u64, n: usize) -> Difftest {
        Difftest {
            pool: shuffled_block(n, seed),
            cfg: DifftestCfg::default(),
            compiled: Vec::new(),
        }
    }
}

impl Workload for Difftest {
    type Req = u64;
    type Resp = SeedOutcome;

    fn pass_len(&self) -> usize {
        self.pool.len()
    }

    fn prepare(&mut self, i: usize) -> u64 {
        self.pool[i]
    }

    fn run(&mut self, seed: &u64) -> SeedOutcome {
        run_seed(*seed, &self.cfg).outcome
    }

    fn run_traced(&mut self, seed: &u64, tr: &mut Trace) -> SeedOutcome {
        let snap = ObsSnapshot::take();
        let prog = tr.span("gen.ms", || generate(*seed, &self.cfg.gen));
        let outcome = traced_check(&prog, &self.cfg, tr, &mut self.compiled);
        tr.obs(&snap.delta());
        outcome
    }

    fn probe(&mut self, tr: &mut Trace) {
        for (units, symtab) in self.compiled.drain(..) {
            probe_validators(tr, &units, &symtab);
        }
    }

    fn check(&mut self, seed: &u64, outcome: SeedOutcome) -> Result<String, String> {
        match outcome {
            SeedOutcome::Agree { .. } => Ok(verdict_line(*seed, &outcome)),
            other => Err(verdict_line(*seed, &other)),
        }
    }

    fn warm_up_reqs(&mut self) -> Vec<u64> {
        warm_up_seeds(WARM_UP)
    }
}

fn finding(kind: FindingKind, detail: String) -> SeedOutcome {
    SeedOutcome::Finding { kind, detail }
}

/// The Clight-linked whole program of the link-metamorphic check, compiled
/// as one unit against its own symbol table.
struct Whole {
    unit: CompiledUnit,
    symtab: SymbolTable,
    lib: ExtLib,
    /// Stage programs holding only the whole program's Asm.
    stages: StagePrograms,
}

fn build_whole(
    tr: &mut Trace,
    linked: &clight::Program,
    opts: CompilerOptions,
) -> Result<Whole, String> {
    let symtab = tr
        .span("clight.symtab_ms", || build_symtab(&[linked]))
        .map_err(|e| format!("whole-program symtab: {e}"))?;
    let unit = compile_program(linked, &symtab, opts)
        .map_err(|e| format!("whole-program compile: {e}"))?;
    tr.units(std::slice::from_ref(&unit));
    let lib = ExtLib::demo(symtab.clone());
    let stages = StagePrograms {
        clight: Default::default(),
        clight_simpl: Default::default(),
        rtl: Default::default(),
        rtl_opt: Default::default(),
        linear: Default::default(),
        mach: Default::default(),
        ra_map: Default::default(),
        asm: unit.asm.clone(),
    };
    Ok(Whole {
        unit,
        symtab,
        lib,
        stages,
    })
}

/// Run one stage under a span, counting its steps.
fn traced_stage(
    tr: &mut Trace,
    sp: &StagePrograms,
    symtab: &SymbolTable,
    lib: &ExtLib,
    stage: &str,
    q: &CQuery,
    budget: &RunBudget,
) -> StageOutcome {
    let snap = ObsSnapshot::take();
    let out = tr.span(&format!("interp.{stage}_ms"), || {
        run_stage(sp, symtab, lib, stage, q, budget)
    });
    tr.add(
        &format!("interp.{stage}.steps"),
        snap.delta().get("lts.steps") as f64,
    );
    out
}

/// `difftest::check_query`, one timed `run_stage` per stage.
fn traced_query(
    tr: &mut Trace,
    sp: &StagePrograms,
    symtab: &SymbolTable,
    lib: &ExtLib,
    q: &CQuery,
    budget: &RunBudget,
) -> QueryVerdict {
    let base = match traced_stage(tr, sp, symtab, lib, STAGES[0], q, budget) {
        StageOutcome::Ok(obs) => obs,
        other => return stage_failure(STAGES[0], other),
    };
    for stage in &STAGES[1..] {
        match traced_stage(tr, sp, symtab, lib, stage, q, budget) {
            StageOutcome::Ok(obs) if obs == base => {}
            StageOutcome::Ok(obs) => {
                return QueryVerdict::Finding {
                    kind: FindingKind::Disagreement { stage },
                    detail: format!("clight observed [{base}] but {stage} observed [{obs}]"),
                }
            }
            other => return stage_failure(stage, other),
        }
    }
    QueryVerdict::Agree(Box::new(base))
}

fn stage_failure(stage: &'static str, out: StageOutcome) -> QueryVerdict {
    let (kind, detail) = match out {
        StageOutcome::Ok(_) | StageOutcome::Budget(_) => {
            return QueryVerdict::Skipped { stage };
        }
        StageOutcome::Stuck(d) => (FindingKind::Stuck { stage }, d),
        StageOutcome::EnvRefused(d) => (FindingKind::EnvRefused { stage }, d),
        StageOutcome::Transport(d) => (FindingKind::Transport { stage }, d),
    };
    QueryVerdict::Finding { kind, detail }
}

/// `difftest::check_program` built from public calls, each layer timed.
/// It compiles on one thread, so the work counters of every step land on
/// this thread. Reduction of findings is left out: a finding fails the op.
fn traced_check(
    prog: &GProgram,
    cfg: &DifftestCfg,
    tr: &mut Trace,
    keep: &mut Vec<Compiled>,
) -> SeedOutcome {
    let srcs = prog.render();
    let opts = CompilerOptions::validated().with_metrics();
    let (units, symtab) = match trace::compile(tr, &srcs, opts) {
        Ok(x) => x,
        Err(e) => return finding(FindingKind::Compile, e),
    };
    for (i, u) in units.iter().enumerate() {
        if let Some(d) = u.diagnostics.first() {
            return finding(FindingKind::ValidatorRejected, format!("unit {i}: {d}"));
        }
    }
    let sp = match tr.span("difftest.stage_build_ms", || StagePrograms::build(&units)) {
        Ok(sp) => sp,
        Err(e) => return finding(FindingKind::Compile, e),
    };
    let lib = ExtLib::demo(symtab.clone());
    let (_, entry) = prog.entry();
    let entry_name = entry.name.clone();
    let queries = gen_queries(prog.seed, entry.nparams as usize, cfg.queries);
    let budget = RunBudget::with_fuel(cfg.fuel).no_trace();
    let init = match symtab.build_init_mem() {
        Ok(m) => m,
        Err(e) => return finding(FindingKind::Compile, format!("initial memory: {e:?}")),
    };
    let (Some(vf), Some(sig)) = (symtab.func_ptr(&entry_name), sp.clight.sig_of(&entry_name))
    else {
        return finding(
            FindingKind::Compile,
            format!("entry `{entry_name}` missing from the linked program"),
        );
    };

    let (t0, child0) = (Instant::now(), tr.child_ms);
    let whole = if cfg.check_links && units.len() >= 2 {
        match build_whole(tr, &sp.clight, opts) {
            Ok(w) => Some(w),
            Err(e) => return finding(FindingKind::LinkMismatch, e),
        }
    } else {
        None
    };
    tr.self_time("difftest.link_check_ms", t0, child0);

    let mut queries_run = 0usize;
    let mut queries_skipped = 0usize;
    for (qi, args) in queries.iter().enumerate() {
        let q = CQuery {
            vf,
            sig: sig.clone(),
            args: args.iter().map(|&a| Val::Int(a)).collect(),
            mem: init.clone(),
        };
        let obs = match traced_query(tr, &sp, &symtab, &lib, &q, &budget) {
            QueryVerdict::Agree(obs) => obs,
            QueryVerdict::Skipped { .. } => {
                queries_skipped += 1;
                continue;
            }
            QueryVerdict::Finding { kind, detail } => {
                return finding(kind, format!("query {qi} args {args:?}: {detail}"))
            }
        };
        queries_run += 1;
        if let Some(w) = &whole {
            let (t0, child0) = (Instant::now(), tr.child_ms);
            let r = link_checks(
                w,
                &units,
                &symtab,
                &lib,
                &entry_name,
                &q,
                &obs,
                qi,
                args,
                &budget,
            );
            tr.self_time("difftest.link_check_ms", t0, child0);
            if let Some(f) = r {
                return f;
            }
        }
    }
    keep.push((units, symtab));
    if let Some(w) = whole {
        keep.push((vec![w.unit], w.symtab));
    }
    if queries_run == 0 {
        SeedOutcome::Skipped(format!("all {queries_skipped} queries budget-limited"))
    } else {
        SeedOutcome::Agree {
            queries_run,
            queries_skipped,
        }
    }
}

/// The two link-metamorphic checks of one query: link-then-compile must
/// observe what compile-then-link observed, and for two units
/// `Asm(p1) ⊕ Asm(p2)` must simulate the linked Asm (Thm 3.5).
#[allow(clippy::too_many_arguments)]
fn link_checks(
    w: &Whole,
    units: &[CompiledUnit],
    symtab: &SymbolTable,
    lib: &ExtLib,
    entry: &str,
    q: &CQuery,
    obs: &compiler::Obs,
    qi: usize,
    args: &[i32],
    budget: &RunBudget,
) -> Option<SeedOutcome> {
    let wq = match try_c_query(&w.symtab, &w.unit, entry, q.args.clone()) {
        Ok(wq) => wq,
        Err(e) => {
            return Some(finding(
                FindingKind::LinkMismatch,
                format!("query {qi}: whole-program query: {e}"),
            ))
        }
    };
    match run_stage(&w.stages, &w.symtab, &w.lib, "asm", &wq, budget) {
        StageOutcome::Ok(wobs) if wobs != *obs => {
            return Some(finding(
                FindingKind::LinkMismatch,
                format!(
                    "query {qi} args {args:?}: link-then-compile observed \
                     [{wobs}] but compile-then-link observed [{obs}]"
                ),
            ))
        }
        StageOutcome::Ok(_) | StageOutcome::Budget(_) => {}
        StageOutcome::Stuck(d) | StageOutcome::EnvRefused(d) | StageOutcome::Transport(d) => {
            return Some(finding(
                FindingKind::LinkMismatch,
                format!("query {qi}: whole-program asm: {d}"),
            ))
        }
    }
    if units.len() == 2 {
        if let Some((_w, qa)) = Ca::new(symtab.len() as u32).transport_query(q) {
            match check_thm35_budgeted(&units[0].asm, &units[1].asm, symtab, lib, &qa, budget) {
                Ok(_) => {}
                Err(SimCheckError::OutOfFuel { .. } | SimCheckError::BudgetExceeded { .. }) => {}
                Err(e) => {
                    return Some(finding(
                        FindingKind::LinkMismatch,
                        format!("query {qi} args {args:?}: thm35: {e}"),
                    ))
                }
            }
        }
    }
    None
}
