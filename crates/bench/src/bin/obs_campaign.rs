//! Observability campaign (EXPERIMENTS.md row B9): regenerate and gate the
//! committed `OBS.json` — the deterministic counter baseline of the
//! observability layer (DESIGN.md §10).
//!
//! Three phases:
//!
//! 1. **Golden compile** — the five committed golden workloads
//!    (`crates/compiler/tests/golden/*.c`, embedded at build time) are
//!    compiled with metrics on; their per-unit deterministic counters
//!    (IR sizes, solver iterations, memory-model traffic) are aggregated.
//! 2. **Difftest sweep** — a block of seeds runs through
//!    [`compiler::run_seed_obs`]: the cross-stage oracle under full
//!    observability. Per-seed counter deltas, generator grammar coverage and
//!    the compared stage pairs are folded in seed order (commutative sums
//!    and set unions: the bag is byte-identical for every `--jobs` setting).
//! 3. **Overhead probe** — the golden workloads are compiled in a loop with
//!    metrics off and again with metrics on; the wall-clock ratio is
//!    reported under `timings_ms` (volatile, stripped by the normalizer)
//!    and optionally gated by `--max-overhead PCT` (with an absolute slack
//!    so sub-millisecond noise cannot flake CI).
//!
//! `--check PATH` compares the freshly computed document against a
//! committed baseline through [`compiler::normalize_metrics_json`] — i.e.
//! after stripping the volatile `pool`/`timings_ms` sections — and exits
//! nonzero on drift. Counters are gated; wall-clock never is.
//!
//! ```text
//! cargo run --release -p bench --bin obs_campaign -- \
//!     [--seeds N] [--jobs N|auto] [--reps N] [--max-overhead PCT] \
//!     [--out PATH | --check PATH]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use bench::campaign::{self, Args, Baseline, Fail, ObsFold};
use compiler::{
    compile_all, normalize_metrics_json, par_map, pool_stats, run_seed_obs, CompilerOptions,
    DifftestCfg, Jobs, MetricsReport, SeedOutcome, OBS_SCHEMA, STAGES,
};

/// The five golden workloads, embedded so the binary is cwd-independent.
const GOLDEN: [(&str, &str); 5] = [
    ("arith", include_str!("../../../compiler/tests/golden/arith.c")),
    ("branch", include_str!("../../../compiler/tests/golden/branch.c")),
    ("calls", include_str!("../../../compiler/tests/golden/calls.c")),
    ("loop", include_str!("../../../compiler/tests/golden/loop.c")),
    ("memory", include_str!("../../../compiler/tests/golden/memory.c")),
];

struct Cli {
    seeds: u64,
    jobs: Jobs,
    reps: usize,
    max_overhead: Option<f64>,
    out: String,
    check: Option<String>,
}

fn parse_args(args: &mut Args) -> Result<Cli, String> {
    let mut cli = Cli {
        seeds: 16,
        jobs: Jobs::Auto,
        reps: 40,
        max_overhead: None,
        out: "OBS.json".to_string(),
        check: None,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seeds" => cli.seeds = args.value(&flag)?,
            "--reps" => cli.reps = args.value(&flag)?,
            "--max-overhead" => cli.max_overhead = Some(args.value(&flag)?),
            "--jobs" => cli.jobs = args.jobs(&flag)?,
            "--out" => cli.out = args.value(&flag)?,
            "--check" => cli.check = Some(args.value(&flag)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cli)
}

/// Compile every golden workload once; returns the aggregate report.
fn golden_phase() -> Result<MetricsReport, String> {
    let srcs: Vec<&str> = GOLDEN.iter().map(|(_, s)| *s).collect();
    let (units, _symtab) = compile_all(&srcs, CompilerOptions::validated().with_metrics())
        .map_err(|e| format!("golden workloads failed to compile: {e}"))?;
    Ok(MetricsReport::from_units("golden-compile", &units))
}

/// Wall-clock of `reps` compilations of the golden block under `opts`.
fn time_compiles(reps: usize, opts: CompilerOptions) -> Result<f64, String> {
    let srcs: Vec<&str> = GOLDEN.iter().map(|(_, s)| *s).collect();
    let t0 = Instant::now();
    for _ in 0..reps {
        let (units, _) =
            compile_all(&srcs, opts).map_err(|e| format!("overhead probe compile: {e}"))?;
        // Keep the optimizer honest.
        std::hint::black_box(units.len());
    }
    Ok(t0.elapsed().as_secs_f64() * 1000.0)
}

#[derive(Default)]
struct DifftestPhase {
    agree: usize,
    skipped: usize,
    findings: usize,
    obs: ObsFold,
}

fn difftest_phase(seeds: u64, jobs: Jobs) -> DifftestPhase {
    let cfg = DifftestCfg::quick();
    let block: Vec<u64> = (0..seeds).collect();
    let results = par_map(jobs, &block, |_, &s| run_seed_obs(s, &cfg));
    let mut out = DifftestPhase::default();
    for (report, obs) in &results {
        match &report.outcome {
            SeedOutcome::Agree { .. } => out.agree += 1,
            SeedOutcome::Skipped(_) => out.skipped += 1,
            SeedOutcome::Finding { .. } => out.findings += 1,
        }
        out.obs.add(obs);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    cli: &Cli,
    golden: &MetricsReport,
    dt: &DifftestPhase,
    off_ms: f64,
    on_ms: f64,
) -> String {
    let overhead_pct = if off_ms > 0.0 {
        (on_ms - off_ms) / off_ms * 100.0
    } else {
        0.0
    };
    let pool = pool_stats();
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!("  \"schema\": \"{OBS_SCHEMA}\",\n"));
    j.push_str("  \"kind\": \"obs-campaign\",\n");
    j.push_str(&format!(
        "  \"items\": {},\n",
        golden.items + cli.seeds
    ));
    j.push_str("  \"golden\": {\n");
    j.push_str(&format!("    \"units\": {},\n", golden.items));
    j.push_str(&format!(
        "    \"counters\": {}\n",
        golden.counters.to_json_object(4)
    ));
    j.push_str("  },\n");
    j.push_str("  \"difftest\": {\n");
    j.push_str(&format!("    \"seeds\": {},\n", cli.seeds));
    j.push_str(&format!("    \"agree\": {},\n", dt.agree));
    j.push_str(&format!("    \"skipped\": {},\n", dt.skipped));
    j.push_str(&format!("    \"findings\": {},\n", dt.findings));
    j.push_str(&dt.obs.report_members());
    j.push_str("  },\n");
    j.push_str("  \"pool\": {\n");
    j.push_str(&format!("    \"pools\": {},\n", pool.pools));
    j.push_str(&format!("    \"items\": {},\n", pool.items));
    j.push_str(&format!("    \"workers_max\": {},\n", pool.workers_max));
    j.push_str(&format!(
        "    \"busiest_worker_items\": {}\n",
        pool.busiest_worker_items
    ));
    j.push_str("  },\n");
    j.push_str("  \"timings_ms\": {\n");
    j.push_str(&format!("    \"golden_compile\": {:.3},\n", golden.total_ms));
    j.push_str(&format!(
        "    \"overhead_probe\": {{\"reps\": {}, \"metrics_off\": {off_ms:.3}, \
         \"metrics_on\": {on_ms:.3}, \"overhead_pct\": {overhead_pct:.2}}}\n",
        cli.reps
    ));
    j.push_str("  }\n");
    j.push_str("}\n");
    j
}

fn run(cli: &Cli) -> Result<(), Fail> {
    let baseline = match &cli.check {
        Some(path) => Some(Baseline::load(path, OBS_SCHEMA)?),
        None => None,
    };
    println!(
        "obs_campaign: seeds={} reps={} (quick difftest profile)",
        cli.seeds, cli.reps
    );

    // Phase 1 — golden compile metrics.
    let golden = golden_phase().map_err(Fail::Finding)?;
    println!(
        "golden: {} units, {} counter keys",
        golden.items,
        golden.counters.0.len()
    );

    // Phase 2 — observed difftest sweep.
    let dt = difftest_phase(cli.seeds, cli.jobs);
    println!(
        "difftest: {} agree, {} skipped, {} findings, stage pairs {}/{}, \
         grammar coverage complete: {}",
        dt.agree,
        dt.skipped,
        dt.findings,
        dt.obs.stages.len(),
        STAGES.len() - 1,
        dt.obs.coverage.complete()
    );

    // Phase 3 — overhead probe (volatile; reported, optionally gated with
    // absolute slack).
    let off_ms = time_compiles(cli.reps, CompilerOptions::validated()).map_err(Fail::Finding)?;
    let on_ms = time_compiles(cli.reps, CompilerOptions::validated().with_metrics())
        .map_err(Fail::Finding)?;
    let overhead_pct = if off_ms > 0.0 {
        (on_ms - off_ms) / off_ms * 100.0
    } else {
        0.0
    };
    println!(
        "overhead probe: metrics off {off_ms:.1} ms, on {on_ms:.1} ms ({overhead_pct:+.2}%)"
    );

    let doc = render_json(cli, &golden, &dt, off_ms, on_ms);
    let mut failed = false;

    if dt.findings > 0 {
        eprintln!("error: difftest sweep produced {} finding(s)", dt.findings);
        failed = true;
    }
    if !dt.obs.coverage.complete() {
        eprintln!(
            "error: grammar coverage incomplete, missing: {:?}",
            dt.obs.coverage.missing()
        );
        failed = true;
    }
    if let Some(max) = cli.max_overhead {
        // Absolute slack: tiny workloads measure in single-digit
        // milliseconds where scheduler noise dwarfs any real cost.
        const SLACK_MS: f64 = 50.0;
        if on_ms > off_ms * (1.0 + max / 100.0) + SLACK_MS {
            eprintln!(
                "error: metrics overhead {overhead_pct:.2}% exceeds the {max:.1}% gate \
                 (off {off_ms:.1} ms, on {on_ms:.1} ms, slack {SLACK_MS} ms)"
            );
            failed = true;
        } else {
            println!("overhead gate: within {max:.1}% (+{SLACK_MS} ms slack)");
        }
    }

    // Counters are gated; the volatile `pool`/`timings_ms` sections are
    // normalized away on both sides, so wall-clock never is.
    match &baseline {
        Some(base) => base.compare_by(&doc, normalize_metrics_json)?,
        None => campaign::deliver(&doc, None, &cli.out)?,
    }
    if failed {
        return Err(Fail::Finding("observability gates failed".to_string()));
    }
    Ok(())
}

fn main() -> ExitCode {
    campaign::main(
        "obs_campaign [--seeds N] [--jobs N|auto] [--reps N] [--max-overhead PCT] \
         [--out PATH | --check PATH]",
        parse_args,
        run,
    )
}
