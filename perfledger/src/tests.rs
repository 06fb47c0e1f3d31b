//! The benchmark's own checks: the traced ops reach the verdicts of the
//! library's own entry points, traced work counts repeat exactly, the serve
//! edits behave as the workload claims, and `BENCHMARK.json` names exactly
//! the metrics this program prints.
//!
//! Run with `cargo test --release` (the debug build is slow).

use compcerto_gen::generate;
use compiler::serve::symtab_fingerprint;
use compiler::{compile_all, run_seed, run_seed_sched, CompilerOptions, DifftestCfg, SchedCfg};

use crate::difftest::Difftest;
use crate::harness::{run_traced, shuffled_block, Workload};
use crate::rawjson::{self, Value};
use crate::sched::Sched;
use crate::serve::{batch_cfg, edited, Serve};
use crate::trace::{catalogue, Trace};

/// Seeds of the pool blocks the decomposition tests cover.
const CHECKED: u64 = 12;

/// The thread-pool counters are process-wide, so the tests that compile
/// take turns.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn traced_difftest_op_reaches_the_verdict_of_run_seed() {
    let _serial = serial();
    let cfg = DifftestCfg::default();
    let mut w = Difftest::with_pool(0, CHECKED as usize);
    for seed in 0..CHECKED {
        let want = run_seed(seed, &cfg).outcome;
        let got = w.run_traced(&seed, &mut Trace::default());
        assert_eq!(got, want, "seed {seed}");
        assert_eq!(w.run(&seed), want, "seed {seed}");
    }
}

#[test]
fn traced_sched_op_reaches_the_verdict_of_run_seed_sched() {
    let _serial = serial();
    let cfg = SchedCfg::default();
    let mut w = Sched::with_pool(0, CHECKED as usize);
    for seed in 0..CHECKED {
        let want = run_seed_sched(seed, &cfg);
        let (outcome, verdicts) = w.run_traced(&seed, &mut Trace::default());
        assert_eq!(outcome, want.outcome, "seed {seed}");
        assert_eq!(verdicts, want.verdicts, "seed {seed}");
    }
}

/// Every count-type layer metric of two traced runs of `build()`.
fn traced_counts<W: Workload>(mut build: impl FnMut() -> W) -> Vec<Vec<(String, f64)>> {
    (0..2)
        .map(|_| {
            let mut w = build();
            let ops = w.pass_len();
            let (tr, tally) = run_traced(&mut w);
            assert_eq!(tally.failed, 0, "a traced run failed an op");
            tr.per_op(ops)
                .into_iter()
                .filter(|(m, _)| matches!(m.unit, "count" | "bytes" | "ratio"))
                .map(|(m, v)| (m.name, v))
                .collect()
        })
        .collect()
}

#[test]
fn count_metrics_repeat_exactly_across_traced_runs() {
    let _serial = serial();
    let d = traced_counts(|| Difftest::with_pool(5, 6));
    assert_eq!(d[0], d[1], "difftest");
    assert!(d[0]
        .iter()
        .any(|(k, v)| k == "interp.asm.steps" && *v > 0.0));
    let s = traced_counts(|| Sched::with_pool(5, 4));
    assert_eq!(s[0], s[1], "sched");
    assert!(s[0]
        .iter()
        .any(|(k, v)| k == "lts.sched.schedules" && *v == 8.0));
    let mut n = 0;
    let v = traced_counts(|| {
        n += 1;
        Serve::with_batches(5, 3, &format!("repeat-{n}")).expect("serve set-up")
    });
    assert_eq!(v[0], v[1], "serve");
    assert!(v[0].iter().any(|(k, v)| k == "serve.miss" && *v == 0.25));
}

#[test]
fn an_edit_keeps_the_symbol_table_and_compiles_clean() {
    let _serial = serial();
    let prog = generate(4, &batch_cfg());
    let before = prog.render();
    let (_, symtab) = compile_all(
        &before.iter().map(String::as_str).collect::<Vec<_>>(),
        CompilerOptions::default(),
    )
    .expect("batch compiles");
    for unit in 0..prog.units.len() {
        for func in 0..prog.units[unit].funcs.len() {
            let after = edited(&prog, unit, func, 12345).render();
            for (i, (a, b)) in before.iter().zip(&after).enumerate() {
                assert_eq!(a == b, i != unit, "only unit {unit} changes");
            }
            let refs: Vec<&str> = after.iter().map(String::as_str).collect();
            let (units, edited_symtab) =
                compile_all(&refs, CompilerOptions::validated()).expect("edit compiles");
            assert_eq!(
                symtab_fingerprint(&edited_symtab),
                symtab_fingerprint(&symtab)
            );
            assert!(units[unit].diagnostics.is_empty(), "edit validates clean");
        }
    }
}

#[test]
fn every_edit_request_is_one_miss_and_two_hits() {
    let _serial = serial();
    let dir;
    {
        let mut w = Serve::with_batches(9, 3, "edits").expect("serve set-up");
        dir = w.cache_dir();
        assert!(std::path::Path::new(&dir).is_dir());
        let mut edited_units = std::collections::BTreeSet::new();
        for i in 0..w.pass_len() {
            let req = w.prepare(i);
            let resp = w.run(&req).expect("a response");
            let j = rawjson::parse(&resp).expect("json");
            let stat = |k: &str| j.get("cache").and_then(|c| c.get(k)).and_then(Value::u64);
            let want = if i % 4 == 3 { (2, 1) } else { (3, 0) };
            assert_eq!(
                (stat("hit"), stat("miss")),
                (Some(want.0), Some(want.1)),
                "request {i}"
            );
            if let Some(u) = req.edited_unit() {
                edited_units.insert((req.batch(), u));
            }
            w.check(&req, Some(resp)).expect("request checks out");
        }
        assert_eq!(edited_units.len(), 9, "one pass edits every unit once");
    }
    assert!(
        !std::path::Path::new(&dir).exists(),
        "cache directory removed"
    );
}

#[test]
fn shuffled_block_is_a_seeded_permutation() {
    let a = shuffled_block(64, 1);
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..64).collect::<Vec<u64>>());
    assert_eq!(a, shuffled_block(64, 1));
    assert_ne!(a, shuffled_block(64, 2));
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = rawjson::parse(&text).expect("BENCHMARK.json parses");
    let rows = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::arr)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let f = |k: &str| m.get(k).and_then(Value::str).unwrap_or("").to_string();
                (f("name"), f("unit"))
            })
            .collect()
    };
    let layers: Vec<(String, String)> = catalogue()
        .into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect();
    assert_eq!(rows("per_layer"), layers);
    let e2e: Vec<String> = rows("end_to_end").into_iter().map(|r| r.0).collect();
    assert_eq!(
        e2e,
        [
            "setup_s",
            "ops_per_s",
            "cpu_ms_per_op",
            "op_ms_p50",
            "op_ms_p90",
            "rss_peak_mb"
        ]
    );
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::str))
        .collect();
    assert_eq!(workloads, ["difftest", "sched", "serve"]);
}
