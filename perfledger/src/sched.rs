//! The `sched` workload: one op is `compiler::run_seed_sched` on one
//! generated program with yield sites (3 threads × 8 schedules through all
//! seven stages), and it must end `Agree`.

use compcerto_core::iface::CQuery;
use compcerto_core::lts::RunBudget;
use compcerto_core::symtab::SymbolTable;
use compcerto_core::threaded::schedules;
use compcerto_gen::generate::gen_queries;
use compcerto_gen::{generate, GProgram};
use compiler::{
    check_query_sched, run_seed_sched, CompiledUnit, CompilerOptions, ExtLib, FindingKind,
    ObsSnapshot, SchedCfg, SchedSeedOutcome, SchedVerdict, StagePrograms, SCHED_AUX_SALT,
};
use mem::Val;

use crate::harness::{shuffled_block, warm_up_seeds, Workload};
use crate::trace::{self, probe_validators, Trace};

/// Programs in the pool: generator seeds `0..POOL`, the block the committed
/// `SCHED.json` campaign covers.
pub const POOL: usize = 64;

/// Warm-up ops that end each set-up: generator seeds `0..WARM_UP`.
pub const WARM_UP: usize = 8;

/// An op's result: the seed verdict and one line per schedule explored.
pub type SchedResult = (SchedSeedOutcome, Vec<String>);

pub struct Sched {
    pool: Vec<u64>,
    cfg: SchedCfg,
    compiled: Vec<(Vec<CompiledUnit>, SymbolTable)>,
}

impl Sched {
    pub fn new(seed: u64) -> Sched {
        Sched::with_pool(seed, POOL)
    }

    /// The workload over generator seeds `0..n`.
    pub fn with_pool(seed: u64, n: usize) -> Sched {
        Sched {
            pool: shuffled_block(n, seed),
            cfg: SchedCfg::default(),
            compiled: Vec::new(),
        }
    }
}

/// The stable verdict text of one seed: the outcome, then every schedule's
/// verdict line.
pub fn verdict_text(seed: u64, (outcome, verdicts): &SchedResult) -> String {
    let mut s = format!("{seed:016x} {outcome:?}");
    for v in verdicts {
        s.push_str("\n  ");
        s.push_str(v);
    }
    s
}

impl Workload for Sched {
    type Req = u64;
    type Resp = SchedResult;

    fn pass_len(&self) -> usize {
        self.pool.len()
    }

    fn prepare(&mut self, i: usize) -> u64 {
        self.pool[i]
    }

    fn run(&mut self, seed: &u64) -> SchedResult {
        let r = run_seed_sched(*seed, &self.cfg);
        (r.outcome, r.verdicts)
    }

    fn run_traced(&mut self, seed: &u64, tr: &mut Trace) -> SchedResult {
        let snap = ObsSnapshot::take();
        let prog = tr.span("gen.ms", || generate(*seed, &self.cfg.gen));
        let r = traced_check(&prog, &self.cfg, tr, &mut self.compiled);
        tr.obs(&snap.delta());
        r
    }

    fn probe(&mut self, tr: &mut Trace) {
        for (units, symtab) in self.compiled.drain(..) {
            probe_validators(tr, &units, &symtab);
        }
    }

    fn check(&mut self, seed: &u64, r: SchedResult) -> Result<String, String> {
        let text = verdict_text(*seed, &r);
        match r.0 {
            SchedSeedOutcome::Agree { .. } => Ok(text),
            _ => Err(text),
        }
    }

    fn warm_up_reqs(&mut self) -> Vec<u64> {
        warm_up_seeds(WARM_UP)
    }
}

fn finding(kind: FindingKind, detail: String) -> SchedResult {
    (SchedSeedOutcome::Finding { kind, detail }, Vec::new())
}

/// `sched::check_program_sched` built from public calls, each layer timed,
/// compiling on one thread.
fn traced_check(
    prog: &GProgram,
    cfg: &SchedCfg,
    tr: &mut Trace,
    keep: &mut Vec<(Vec<CompiledUnit>, SymbolTable)>,
) -> SchedResult {
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
    let nparams = entry.nparams as usize;
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
    let main_args = gen_queries(prog.seed, nparams, 1);
    let aux_args = gen_queries(
        prog.seed ^ SCHED_AUX_SALT,
        nparams,
        cfg.threads.saturating_sub(1),
    );
    let mk_query = |args: &[i32]| CQuery {
        vf,
        sig: sig.clone(),
        args: args.iter().map(|&a| Val::Int(a)).collect(),
        mem: init.clone(),
    };
    let q = mk_query(&main_args[0]);
    let aux: Vec<CQuery> = aux_args.iter().map(|a| mk_query(a)).collect();

    let mut verdicts = Vec::with_capacity(cfg.schedules);
    let mut run = 0usize;
    let mut skipped = 0usize;
    for schedule in schedules(cfg.schedules, prog.seed) {
        let v = tr.span("sched.check_query_ms", || {
            check_query_sched(&sp, &symtab, &lib, &q, &aux, schedule, &budget)
        });
        tr.add("lts.sched.schedules", 1.0);
        verdicts.push(v.line(schedule));
        match v {
            SchedVerdict::Agree(_) => run += 1,
            SchedVerdict::Skipped { .. } => skipped += 1,
            SchedVerdict::Finding { kind, detail } => {
                let detail = format!("schedule {schedule} args {:?}: {detail}", q.args);
                return (SchedSeedOutcome::Finding { kind, detail }, verdicts);
            }
        }
    }
    keep.push((units, symtab));
    let outcome = if run == 0 {
        SchedSeedOutcome::Skipped(format!("all {skipped} schedules budget-limited"))
    } else {
        SchedSeedOutcome::Agree {
            schedules_run: run,
            schedules_skipped: skipped,
        }
    };
    (outcome, verdicts)
}
