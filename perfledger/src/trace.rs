//! The per-layer trace: the catalogue of layer metrics, an accumulator of
//! spans and counts, and timed versions of the compile and validation steps
//! built from the library's public calls.
//!
//! Spans are taken here, around calls into each layer, and kept in memory
//! until the run ends. The traced op does the same work as the untraced op;
//! work done only to split a layer further (the per-validator and fact
//! solver timings, the serve probes) runs after the op's CPU window and is
//! kept out of its counters.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use clight::build_symtab;
use compcerto_core::symtab::SymbolTable;
use compcerto_validate::{
    lint_asm, lint_linear, lint_ltl, lint_mach, lint_rtl, needed_facts_program,
    validate_allocation, validate_asmgen, validate_constprop, validate_deadcode,
    validate_linearize, value_facts_program,
};
use compiler::driver::compile_typed_jobs;
use compiler::{front_end, CompileError, CompiledUnit, CompilerOptions, Counters, Jobs, STAGES};

/// The pass spans that `CompilerOptions::metrics` records, in pipeline
/// order.
pub const PASSES: [&str; 19] = [
    "simpl_locals",
    "cshmgen",
    "cminorgen",
    "selection",
    "rtlgen",
    "tailcall",
    "inlining",
    "renumber",
    "constprop",
    "cse",
    "deadcode",
    "vprop",
    "ndce",
    "allocation",
    "tunneling",
    "linearize",
    "cleanup_labels",
    "stacking",
    "asmgen",
];

/// Static IR sizes and rewrite counts taken from each compiled unit's
/// metrics.
const IR_KEYS: [&str; 5] = [
    "ir.rtl_nodes",
    "ir.rtl_opt_nodes",
    "ir.asm_instrs",
    "ir.vprop_rewrites",
    "ir.ndce_eliminated",
];

/// Deterministic work counters taken from the `ObsSnapshot` delta of an op.
pub const OBS_KEYS: [&str; 12] = [
    "lts.steps",
    "lts.external_calls",
    "mem.allocs",
    "mem.alloc_bytes",
    "mem.loads",
    "mem.stores",
    "mem.promotes",
    "mem.demotes",
    "solver.value.iters",
    "solver.needed.iters",
    "solver.rtl_iterations",
    "solver.validate_iterations",
];

/// One per-layer metric: its name and unit.
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name: name.into(),
        unit,
    }
}

/// Every per-layer metric a traced run prints, on every workload (a layer a
/// workload does not reach reads 0). `BENCHMARK.json` lists the same names.
pub fn catalogue() -> Vec<LayerMetric> {
    let mut v = vec![
        metric("clight.front_end_ms", "ms"),
        metric("clight.symtab_ms", "ms"),
        metric("clight.source_bytes", "bytes"),
    ];
    v.extend(PASSES.iter().map(|p| metric(format!("pass.{p}_ms"), "ms")));
    v.extend(IR_KEYS.iter().map(|k| metric(*k, "count")));
    v.push(metric("validate_ms", "ms"));
    for name in [
        "vprop",
        "ndce",
        "allocation",
        "linearize",
        "asmgen",
        "lints",
    ] {
        v.push(metric(format!("validator.{name}_ms"), "ms"));
    }
    v.push(metric("absint.value_facts_ms", "ms"));
    v.push(metric("absint.needed_facts_ms", "ms"));
    v.push(metric("difftest.stage_build_ms", "ms"));
    v.push(metric("difftest.link_check_ms", "ms"));
    for s in STAGES {
        v.push(metric(format!("interp.{s}_ms"), "ms"));
        v.push(metric(format!("interp.{s}.steps"), "count"));
    }
    v.push(metric("sched.check_query_ms", "ms"));
    v.push(metric("lts.sched.schedules", "count"));
    for k in OBS_KEYS {
        let unit = if k == "mem.alloc_bytes" {
            "bytes"
        } else {
            "count"
        };
        v.push(metric(k, unit));
    }
    v.extend([
        metric("serve.hit", "count"),
        metric("serve.miss", "count"),
        metric("serve.evict", "count"),
        metric("serve.hit_ratio", "ratio"),
        metric("serve.miss_compile_ms", "ms"),
        metric("serve.request_self_ms", "ms"),
        metric("serve.cache_bytes", "bytes"),
        metric("par.pools", "count"),
        metric("par.items", "count"),
        metric("par.workers_max", "count"),
        metric("gen.ms", "ms"),
        metric("host.calibration_ms", "ms"),
        metric("host.steal_pct", "%"),
        metric("trace.overhead_pct", "%"),
    ]);
    v
}

/// Metrics that are states or ratios of the whole traced run rather than
/// sums over its ops; they are not divided by the op count.
pub const WHOLE_RUN: [&str; 6] = [
    "serve.hit_ratio",
    "serve.cache_bytes",
    "par.workers_max",
    "host.calibration_ms",
    "host.steal_pct",
    "trace.overhead_pct",
];

/// Sums of spans (milliseconds) and counts over the traced ops.
#[derive(Default)]
pub struct Trace {
    sums: BTreeMap<String, f64>,
    /// Total of every layer span recorded so far; an enclosing span
    /// subtracts the growth of this over its interval to get self time.
    pub child_ms: f64,
}

impl Trace {
    pub fn add(&mut self, key: &str, v: f64) {
        *self.sums.entry(key.to_string()).or_insert(0.0) += v;
    }

    pub fn set(&mut self, key: &str, v: f64) {
        self.sums.insert(key.to_string(), v);
    }

    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Run `f` as a layer span named `key` (milliseconds).
    pub fn span<R>(&mut self, key: &str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.add(key, ms);
        self.child_ms += ms;
        r
    }

    /// Record the self time of an enclosing span that started at `t0`, when
    /// the child total stood at `child0`.
    pub fn self_time(&mut self, key: &str, t0: Instant, child0: f64) {
        let total = t0.elapsed().as_secs_f64() * 1e3;
        let children = self.child_ms - child0;
        self.add(key, total - children);
        self.child_ms += total - children;
    }

    /// Add the work counters of one op's `ObsSnapshot` delta.
    pub fn obs(&mut self, delta: &Counters) {
        for k in OBS_KEYS {
            self.add(k, delta.get(k) as f64);
        }
    }

    /// Add the pass spans and IR counts that the compiler recorded in each
    /// unit's metrics.
    pub fn units(&mut self, units: &[CompiledUnit]) {
        for m in units.iter().filter_map(|u| u.metrics.as_ref()) {
            for (pass, ms) in &m.pass_ms {
                let key = if *pass == "validate" {
                    "validate_ms".to_string()
                } else {
                    format!("pass.{pass}_ms")
                };
                self.add(&key, *ms);
                self.child_ms += ms;
            }
            for k in IR_KEYS {
                self.add(k, m.counters.get(k) as f64);
            }
        }
    }

    /// Per-op values: every sum divided by `ops`, except [`WHOLE_RUN`]
    /// metrics, which are kept as they are. Metrics of the catalogue that
    /// were never recorded read 0.
    pub fn per_op(&self, ops: usize) -> Vec<(LayerMetric, f64)> {
        catalogue()
            .into_iter()
            .map(|m| {
                let v = self.get(&m.name);
                let v = if WHOLE_RUN.contains(&m.name.as_str()) {
                    v
                } else {
                    v / ops.max(1) as f64
                };
                (m, v)
            })
            .collect()
    }
}

/// `compile_all_jobs` on one thread, split into its front end, symbol table
/// and back-end calls so each is timed. `opts` should have metrics on, so
/// the units carry their pass spans.
///
/// # Errors
/// The compile error, rendered as `compile_all` callers render it.
pub fn compile(
    tr: &mut Trace,
    srcs: &[String],
    opts: CompilerOptions,
) -> Result<(Vec<CompiledUnit>, SymbolTable), String> {
    tr.add(
        "clight.source_bytes",
        srcs.iter().map(String::len).sum::<usize>() as f64,
    );
    let typed = srcs
        .iter()
        .map(|s| tr.span("clight.front_end_ms", || front_end(s)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{e}"))?;
    let refs: Vec<&clight::Program> = typed.iter().collect();
    let symtab = tr
        .span("clight.symtab_ms", || build_symtab(&refs))
        .map_err(|e| format!("{}", CompileError::Link(e)))?;
    let units =
        compile_typed_jobs(&typed, &symtab, opts, Jobs::N(1)).map_err(|e| format!("{e}"))?;
    tr.units(&units);
    Ok((units, symtab))
}

/// Time each public validator, and the two fact solvers they call, on
/// compiled units. This repeats the validation that the op's compile
/// already ran (its total is `validate_ms`), so it runs outside the op.
pub fn probe_validators(tr: &mut Trace, units: &[CompiledUnit], symtab: &SymbolTable) {
    let romem = rtl::Romem::new(symtab);
    for u in units {
        tr.span("validator.vprop_ms", || {
            black_box(validate_constprop(&u.rtl_vprop_in, &u.rtl_ndce_in, &romem));
        });
        tr.span("validator.ndce_ms", || {
            black_box(validate_deadcode(&u.rtl_ndce_in, &u.rtl_opt));
        });
        tr.span("validator.allocation_ms", || {
            for rf in &u.rtl_opt.functions {
                if let Some(lf) = u.ltl.functions.iter().find(|lf| lf.name == rf.name) {
                    black_box(validate_allocation(rf, lf));
                }
            }
        });
        tr.span("validator.linearize_ms", || {
            for tf in &u.ltl_tunneled.functions {
                if let Some(nf) = u.linear_raw.functions.iter().find(|nf| nf.name == tf.name) {
                    black_box(validate_linearize(tf, nf));
                }
            }
        });
        tr.span("validator.asmgen_ms", || {
            for mf in &u.mach.functions {
                if let Some(af) = u.asm.functions.iter().find(|af| af.name == mf.name) {
                    black_box(validate_asmgen(mf, af));
                }
            }
        });
        tr.span("validator.lints_ms", || {
            black_box(lint_rtl(&u.rtl_opt));
            black_box(lint_ltl(&u.ltl_tunneled));
            black_box(lint_linear(&u.linear));
            black_box(lint_mach(&u.mach));
            black_box(lint_asm(&u.asm));
        });
        tr.span("absint.value_facts_ms", || {
            black_box(value_facts_program(&u.rtl_vprop_in, &romem));
        });
        tr.span("absint.needed_facts_ms", || {
            black_box(needed_facts_program(&u.rtl_ndce_in));
        });
    }
}
