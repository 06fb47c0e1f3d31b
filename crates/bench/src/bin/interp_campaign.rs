//! Interpreter-throughput benchmark for the arena/fused-dispatch hot path
//! (EXPERIMENTS.md row B12, DESIGN.md §13).
//!
//! Every difftest seed runs *seven* interpreters under one budget, so raw
//! stepping speed is the campaign bottleneck. This bin isolates exactly that
//! phase: a fixed 64-seed block is generated and compiled **untimed** (the
//! per-stage programs of [`compiler::StagePrograms`]), then the
//! cross-stage interpretation sweep ([`compiler::check_query`] over every
//! seed and query) is timed, median of 5 repetitions. Two determinism
//! anchors ride along:
//!
//! * an FNV-1a checksum over every query verdict (answers, external-call
//!   traces, final globals) — byte-identical before and after any pure
//!   performance change, on any box;
//! * a per-stage step-rate breakdown attributed via the deterministic
//!   `lts.*` counters (steps per interpreter per second).
//!
//! Usage:
//!
//! ```text
//! interp_campaign [--out PATH] [--before PATH] [--check PATH] [--min-ratio R]
//! ```
//!
//! `--out` writes a `compcerto-interp/1` report; `--before` embeds a prior
//! report's measurement as the `before` block and reports the speedup
//! ratio. `--check` re-measures and gates against a committed report
//! (`BENCH_PR8.json`): the verdict checksum must match exactly (mandatory —
//! the optimization must be observationally invisible), and the seeds/sec
//! ratio against the committed `before` must clear `--min-ratio` (advisory
//! on boxes with fewer than 4 cores, where timings are too noisy to gate).

use std::process::ExitCode;
use std::time::Instant;

use bench::campaign::{self, Args, Baseline, Fail};
use bench::json::Json;
use compcerto_core::iface::CQuery;
use compcerto_core::lts::RunBudget;
use compcerto_core::symtab::SymbolTable;
use compcerto_gen::generate::gen_queries;
use compcerto_gen::{generate, GenCfg};
use compiler::{
    available_parallelism, check_query, compile_all, fnv1a, run_stage, CompilerOptions, ExtLib,
    QueryVerdict, StagePrograms, FNV_OFFSET, STAGES,
};
use mem::{Mem, Val};

/// The fixed seed block: interpretation throughput is measured over exactly
/// these generated programs (byte-stable across runs and machines).
const SEEDS: u64 = 64;
/// Incoming queries per seed (the difftest default).
const QUERIES: usize = 3;
/// Fuel per stage execution (the difftest default).
const FUEL: u64 = 2_000_000;
/// Timed sweep repetitions (median taken).
const REPS: usize = 5;

/// One seed's compiled stage programs and query inputs — everything the
/// timed sweep needs, built once outside the timed region.
struct Prepared {
    seed: u64,
    sp: StagePrograms,
    symtab: SymbolTable,
    lib: ExtLib,
    init: Mem,
    vf: Val,
    sig: compcerto_core::iface::Signature,
    queries: Vec<Vec<i32>>,
}

fn prepare(seed: u64) -> Result<Prepared, String> {
    let prog = generate(seed, &GenCfg::default());
    let srcs = prog.render();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let (units, symtab) =
        compile_all(&refs, CompilerOptions::default()).map_err(|e| format!("seed {seed}: {e}"))?;
    let sp = StagePrograms::build(&units).map_err(|e| format!("seed {seed}: {e}"))?;
    let lib = ExtLib::demo(symtab.clone());
    let init = symtab
        .build_init_mem()
        .map_err(|e| format!("seed {seed}: initial memory: {e:?}"))?;
    let (_, entry) = prog.entry();
    let vf = symtab
        .func_ptr(&entry.name)
        .ok_or_else(|| format!("seed {seed}: entry `{}` has no symbol", entry.name))?;
    let sig = sp
        .clight
        .sig_of(&entry.name)
        .ok_or_else(|| format!("seed {seed}: entry `{}` has no signature", entry.name))?;
    let queries = gen_queries(seed, entry.nparams as usize, QUERIES);
    Ok(Prepared {
        seed,
        sp,
        symtab,
        lib,
        init,
        vf,
        sig,
        queries,
    })
}

fn c_query(p: &Prepared, args: &[i32]) -> CQuery {
    CQuery {
        vf: p.vf,
        sig: p.sig.clone(),
        args: args.iter().map(|&a| Val::Int(a)).collect(),
        mem: p.init.clone(),
    }
}

/// One full cross-stage sweep over the prepared block; returns the verdict
/// checksum and the (agree, skip, finding) tallies.
fn sweep(block: &[Prepared], budget: &RunBudget) -> (u64, u64, u64, u64) {
    let mut h = FNV_OFFSET;
    let (mut agrees, mut skips, mut findings) = (0u64, 0u64, 0u64);
    for p in block {
        h = fnv1a(h, &p.seed.to_le_bytes());
        for (qi, args) in p.queries.iter().enumerate() {
            let q = c_query(p, args);
            h = fnv1a(h, &(qi as u64).to_le_bytes());
            match check_query(&p.sp, &p.symtab, &p.lib, &q, budget) {
                QueryVerdict::Agree(obs) => {
                    agrees += 1;
                    h = fnv1a(h, format!("{obs}").as_bytes());
                }
                QueryVerdict::Skipped { stage } => {
                    skips += 1;
                    h = fnv1a(h, format!("skip@{stage}").as_bytes());
                }
                QueryVerdict::Finding { kind, detail } => {
                    findings += 1;
                    h = fnv1a(h, format!("finding:{kind}:{detail}").as_bytes());
                }
            }
        }
    }
    (h, agrees, skips, findings)
}

/// Per-stage throughput: run every (seed, query) pair through a single
/// stage interpreter and attribute its steps via the `lts.steps` counter
/// delta (thread-local, exact — the whole bin is single-threaded).
struct StageRate {
    name: &'static str,
    steps: u64,
    secs: f64,
}

fn stage_rates(block: &[Prepared], budget: &RunBudget) -> Vec<StageRate> {
    let mut out = Vec::with_capacity(STAGES.len());
    for &stage in &STAGES {
        let before = compcerto_core::obs::counters();
        let t0 = Instant::now();
        for p in block {
            for args in &p.queries {
                let q = c_query(p, args);
                // Outcome intentionally discarded: verdicts are anchored by
                // the checksummed sweep; this loop only attributes steps.
                let _ = run_stage(&p.sp, &p.symtab, &p.lib, stage, &q, budget);
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        let steps = compcerto_core::obs::counters().since(&before).steps;
        out.push(StageRate { name: stage, steps, secs });
    }
    out
}

/// One complete measurement: median-of-`REPS` timed sweeps plus the
/// per-stage breakdown.
struct Measurement {
    seeds_per_sec: f64,
    sweep_secs: f64,
    checksum: u64,
    agrees: u64,
    skips: u64,
    findings: u64,
    stages: Vec<StageRate>,
}

fn measure(block: &[Prepared], budget: &RunBudget) -> Result<Measurement, String> {
    let mut times = Vec::with_capacity(REPS);
    let mut result = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = sweep(block, budget);
        times.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = result {
            if prev != r {
                return Err("sweep verdicts changed between repetitions".into());
            }
        }
        result = Some(r);
    }
    times.sort_by(f64::total_cmp);
    let sweep_secs = times[times.len() / 2];
    let (checksum, agrees, skips, findings) =
        result.ok_or("no sweep ran (REPS must be positive)")?;
    let stages = stage_rates(block, budget);
    Ok(Measurement {
        seeds_per_sec: block.len() as f64 / sweep_secs.max(1e-9),
        sweep_secs,
        checksum,
        agrees,
        skips,
        findings,
        stages,
    })
}

fn measurement_json(m: &Measurement, indent: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "{indent}  \"seeds_per_sec\": {:.3},\n",
        m.seeds_per_sec
    ));
    s.push_str(&format!("{indent}  \"sweep_secs\": {:.6},\n", m.sweep_secs));
    s.push_str(&format!("{indent}  \"agrees\": {},\n", m.agrees));
    s.push_str(&format!("{indent}  \"skips\": {},\n", m.skips));
    s.push_str(&format!("{indent}  \"findings\": {},\n", m.findings));
    s.push_str(&format!(
        "{indent}  \"checksum\": \"{:016x}\",\n",
        m.checksum
    ));
    s.push_str(&format!("{indent}  \"stages\": [\n"));
    for (i, r) in m.stages.iter().enumerate() {
        s.push_str(&format!(
            "{indent}    {{\"name\": \"{}\", \"steps\": {}, \"secs\": {:.6}, \
             \"steps_per_sec\": {:.0}}}{}\n",
            r.name,
            r.steps,
            r.secs,
            r.steps as f64 / r.secs.max(1e-9),
            if i + 1 < m.stages.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!("{indent}  ]\n"));
    s.push_str(&format!("{indent}}}"));
    s
}

/// Extract the fields `--before`/`--check` need from a prior report: the
/// measured block is `after` when present (a before/after report), else the
/// bare measurement.
fn parsed_measurement(doc: &Json) -> Result<(f64, String), String> {
    let block = doc.get("after").unwrap_or(doc);
    let sps = match block.get("seeds_per_sec") {
        Some(Json::Num(raw)) => raw
            .parse::<f64>()
            .map_err(|e| format!("bad seeds_per_sec: {e}"))?,
        _ => return Err("report has no seeds_per_sec".into()),
    };
    let ck = block
        .get("checksum")
        .and_then(Json::as_str)
        .ok_or("report has no checksum")?;
    Ok((sps, ck.to_string()))
}

/// The `before` block's seeds/sec in a committed before/after report.
fn parsed_before(doc: &Json) -> Option<f64> {
    match doc.get("before")?.get("seeds_per_sec") {
        Some(Json::Num(raw)) => raw.parse::<f64>().ok(),
        _ => None,
    }
}

struct Cli {
    out: Option<String>,
    before: Option<String>,
    check: Option<String>,
    min_ratio: f64,
}

fn parse_args(args: &mut Args) -> Result<Cli, String> {
    let mut cli = Cli {
        out: None,
        before: None,
        check: None,
        min_ratio: 4.0,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => cli.out = Some(args.value(&flag)?),
            "--before" => cli.before = Some(args.value(&flag)?),
            "--check" => cli.check = Some(args.value(&flag)?),
            "--min-ratio" => cli.min_ratio = args.value(&flag)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cli.out.is_none() && cli.check.is_none() {
        cli.out = Some("BENCH_PR8.json".to_string());
    }
    Ok(cli)
}

/// A prior `compcerto-interp/1` report (`--check` or `--before`).
fn load_report(path: &Option<String>) -> Result<Option<Baseline>, Fail> {
    path.as_deref()
        .map(|p| Baseline::load(p, "compcerto-interp/1"))
        .transpose()
}

fn run(cli: &Cli) -> Result<(), Fail> {
    let check = load_report(&cli.check)?;
    let before = load_report(&cli.before)?;
    let cores = available_parallelism();
    println!(
        "interp_campaign: {SEEDS} seeds x {QUERIES} queries, fuel {FUEL}, median of {REPS}"
    );

    println!("compiling seed block (untimed setup)...");
    let mut block = Vec::with_capacity(SEEDS as usize);
    for seed in 0..SEEDS {
        block.push(prepare(seed).map_err(Fail::Finding)?);
    }
    let budget = RunBudget::with_fuel(FUEL).no_trace();

    let m = measure(&block, &budget).map_err(Fail::Finding)?;
    println!(
        "interpretation sweep: {:.3} seeds/sec (median {:.3}s; {} agree, {} skip, {} findings)",
        m.seeds_per_sec, m.sweep_secs, m.agrees, m.skips, m.findings
    );
    println!("verdict checksum: {:016x}", m.checksum);
    println!("{:-<56}", "");
    println!("{:<14}{:>14}{:>10}{:>16}", "stage", "steps", "secs", "steps/sec");
    for r in &m.stages {
        println!(
            "{:<14}{:>14}{:>10.3}{:>16.0}",
            r.name,
            r.steps,
            r.secs,
            r.steps as f64 / r.secs.max(1e-9)
        );
    }
    println!("{:-<56}", "");

    if let Some(base) = &check {
        let (doc, path) = (&base.doc, &base.path);
        let (_committed_sps, committed_ck) = parsed_measurement(doc).map_err(Fail::Usage)?;
        let now_ck = format!("{:016x}", m.checksum);
        if now_ck != committed_ck {
            return Err(Fail::Finding(format!(
                "verdict checksum {now_ck} != committed {committed_ck} in `{path}` — \
                 the interpreters' observable behaviour drifted"
            )));
        }
        println!("checksum gate: matches `{path}` ✓");
        match parsed_before(doc) {
            Some(before_sps) => {
                let ratio = m.seeds_per_sec / before_sps.max(1e-9);
                let gated = cores >= 4;
                println!(
                    "throughput: {:.3} seeds/sec vs committed before {:.3} = {ratio:.2}x \
                     (floor {:.1}x, {})",
                    m.seeds_per_sec,
                    before_sps,
                    cli.min_ratio,
                    if gated { "gated" } else { "advisory: <4 cores" }
                );
                if gated && ratio < cli.min_ratio {
                    return Err(Fail::Finding(format!(
                        "interp throughput regressed: {ratio:.2}x < {:.1}x floor",
                        cli.min_ratio
                    )));
                }
            }
            None => println!("no `before` block in `{path}`; ratio gate skipped"),
        }
        return Ok(());
    }

    // Report emission (`--out`, optional `--before` embedding).
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"compcerto-interp/1\",\n");
    j.push_str(&format!("  \"seeds\": {SEEDS},\n"));
    j.push_str(&format!("  \"queries_per_seed\": {QUERIES},\n"));
    j.push_str(&format!("  \"fuel\": {FUEL},\n"));
    j.push_str(&format!("  \"reps\": {REPS},\n"));
    j.push_str(&format!("  \"cores\": {cores},\n"));
    let mut ratio = None;
    if let Some(base) = &before {
        let (before_sps, before_ck) = parsed_measurement(&base.doc).map_err(Fail::Usage)?;
        let now_ck = format!("{:016x}", m.checksum);
        if now_ck != before_ck {
            return Err(Fail::Finding(format!(
                "verdict checksum {now_ck} != before-measurement {before_ck} in `{}` — \
                 refusing to report a speedup over different behaviour",
                base.path
            )));
        }
        ratio = Some(m.seeds_per_sec / before_sps.max(1e-9));
        j.push_str(&format!(
            "  \"before\": {{\n    \"seeds_per_sec\": {before_sps:.3},\n    \
             \"checksum\": \"{before_ck}\"\n  }},\n"
        ));
    }
    j.push_str("  \"after\": ");
    j.push_str(&measurement_json(&m, "  "));
    match ratio {
        Some(r) => {
            j.push_str(",\n");
            j.push_str(&format!("  \"ratio\": {r:.3}\n"));
            println!("speedup vs `--before`: {r:.2}x");
        }
        None => j.push('\n'),
    }
    j.push_str("}\n");

    match &cli.out {
        Some(out) => campaign::deliver(&j, None, out),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    campaign::main(
        "interp_campaign [--out PATH] [--before PATH] [--check PATH] [--min-ratio R]",
        parse_args,
        run,
    )
}
