//! Schedule-exploration campaign (EXPERIMENTS.md row B14): run the
//! N-seeds × M-schedules threaded differential oracle over a block of
//! seeds and summarize agreement plus per-schedule FNV verdict checksums.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin sched_campaign -- \
//!     [--seeds N] [--seed-base N] [--jobs N|auto] [--quick] \
//!     [--fuel N] [--threads N] [--schedules M] [--out PATH] \
//!     [--block N] [--ckpt PATH] [--resume] [--max-blocks N] \
//!     [--check PATH]
//! ```
//!
//! Writes a machine-readable summary (schema `compcerto-sched/1`) to
//! `SCHED.json` (or `--out`). With `--check PATH` the campaign runs,
//! renders the report and byte-compares it to the committed baseline
//! instead of writing: a mismatch is a regression (exit 1). Before any
//! seed runs, the baseline's configuration header is compared to this
//! invocation's — a mismatch is a usage error (exit 2) naming the exact
//! regeneration command. The report is **byte-identical for a given seed
//! block under any `--jobs` setting**: every per-seed verdict is a pure
//! function of `(seed, SchedCfg)`, the fan-out uses the order-preserving
//! worker pool ([`compiler::par_map`]), the checksums fold verdict lines
//! in seed order, and the JSON records no machine facts.
//!
//! # Checkpoint/resume (resilience layer, DESIGN.md §11)
//!
//! Seeds are processed in blocks of `--block` (default 16); after each
//! block a `compcerto-ckpt/1` checkpoint is written atomically next to the
//! report. A killed campaign restarted with `--resume` continues from the
//! last completed block and produces a final report **byte-identical** to
//! the uninterrupted run: per-seed results are pure, the scalar fold is
//! commutative, and the FNV chains are folded strictly in seed order by
//! block, so where the process died is unobservable. `--max-blocks N`
//! stops after N blocks (leaving the checkpoint behind) — the hook the CI
//! kill-and-resume smoke uses.

use std::fmt::Write as _;
use std::process::ExitCode;

use bench::campaign::{self, Aggregate, Args, Fail, SeedBlock};
use bench::ckpt::{self, json_str, Finding};
use bench::json::Json;
use compiler::{
    fnv1a, intern_sched_counter_key, par_map, run_seed_sched_obs, Counters, SchedCfg,
    SchedSeedOutcome, SchedSeedReport, FNV_OFFSET,
};

const BIN: &str = "sched_campaign";

struct Cli {
    sb: SeedBlock,
    threads: Option<usize>,
    schedules: Option<usize>,
}

fn parse_args(args: &mut Args) -> Result<Cli, String> {
    let mut cli = Cli {
        sb: SeedBlock::new(64, "SCHED.json"),
        threads: None,
        schedules: None,
    };
    while let Some(flag) = args.next() {
        if cli.sb.take(&flag, args)? {
            continue;
        }
        match flag.as_str() {
            "--threads" => cli.threads = Some(args.value::<usize>(&flag)?.clamp(1, 8)),
            "--schedules" => cli.schedules = Some(args.value::<usize>(&flag)?.clamp(1, 64)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cli.sb.quick {
        cli.sb.seeds = cli.sb.seeds.min(8);
    }
    Ok(cli)
}

/// The effective oracle configuration of this invocation (`--quick`
/// presets, then the explicit overrides).
fn build_cfg(cli: &Cli) -> SchedCfg {
    let mut cfg = if cli.sb.quick {
        SchedCfg::quick()
    } else {
        SchedCfg::default()
    };
    if let Some(fuel) = cli.sb.fuel {
        cfg.fuel = fuel;
    }
    if let Some(t) = cli.threads {
        cfg.threads = t;
    }
    if let Some(m) = cli.schedules {
        cfg.schedules = m;
    }
    cfg
}

/// The campaign aggregate. Scalar folds are commutative; the FNV chains
/// are folded strictly in seed order (blocks run in order, `par_map`
/// preserves index order within a block), so block-wise accumulation and
/// resume are byte-equivalent to the one-shot run. The threaded oracle
/// runs no reducer: a finding's schedule context is its reproducer.
struct Agg {
    agree: usize,
    skipped: usize,
    schedules_run: usize,
    schedules_skipped: usize,
    /// FNV-1a over every verdict line in (seed, schedule) order.
    checksum: u64,
    /// Per-schedule-slot FNV-1a chains: entry `j` folds schedule `j`'s
    /// verdict line of every seed, in seed order.
    sched_checksums: Vec<u64>,
    counters: Counters,
    findings: Vec<Finding>,
}

impl Agg {
    fn new(nschedules: usize) -> Agg {
        Agg {
            agree: 0,
            skipped: 0,
            schedules_run: 0,
            schedules_skipped: 0,
            checksum: FNV_OFFSET,
            sched_checksums: vec![FNV_OFFSET; nschedules],
            counters: Counters::default(),
            findings: Vec::new(),
        }
    }

    /// Fold one seed's report + counter delta (printing findings as they
    /// are folded).
    fn fold(&mut self, r: &SchedSeedReport, c: &Counters) {
        self.counters.add(c);
        for (j, line) in r.verdicts.iter().enumerate() {
            self.checksum = fnv1a(self.checksum, &r.seed.to_le_bytes());
            self.checksum = fnv1a(self.checksum, line.as_bytes());
            if let Some(h) = self.sched_checksums.get_mut(j) {
                *h = fnv1a(*h, &r.seed.to_le_bytes());
                *h = fnv1a(*h, line.as_bytes());
            }
        }
        match &r.outcome {
            SchedSeedOutcome::Agree {
                schedules_run,
                schedules_skipped,
            } => {
                self.agree += 1;
                self.schedules_run += schedules_run;
                self.schedules_skipped += schedules_skipped;
            }
            SchedSeedOutcome::Skipped(_) => self.skipped += 1,
            SchedSeedOutcome::Finding { kind, detail } => {
                println!("FINDING seed={} kind={kind}: {detail}", r.seed);
                self.findings.push(Finding {
                    seed: r.seed,
                    kind: format!("{kind}"),
                    detail: detail.clone(),
                    stmts: -1,
                    source: String::new(),
                });
            }
        }
    }
}

impl Aggregate for Agg {
    fn save(&self) -> Vec<(&'static str, String)> {
        let chains: Vec<String> = self.sched_checksums.iter().map(u64::to_string).collect();
        vec![
            ("agree", self.agree.to_string()),
            ("skipped", self.skipped.to_string()),
            ("schedules_run", self.schedules_run.to_string()),
            ("schedules_skipped", self.schedules_skipped.to_string()),
            ("checksum", self.checksum.to_string()),
            ("sched_checksums", format!("[{}]", chains.join(", "))),
            ("counters", ckpt::counters_json(&self.counters)),
            ("findings", ckpt::findings_json(&self.findings)),
        ]
    }

    fn load(doc: &Json) -> Result<Agg, String> {
        let count = |key: &str| ckpt::u64_field(doc, key).map(|n| n as usize);
        let sched_checksums = doc
            .get("sched_checksums")
            .and_then(Json::as_arr)
            .ok_or("missing `sched_checksums`")?
            .iter()
            .map(|c| c.as_u64().ok_or("non-u64 schedule chain"))
            .collect::<Result<Vec<u64>, &str>>()?;
        Ok(Agg {
            agree: count("agree")?,
            skipped: count("skipped")?,
            schedules_run: count("schedules_run")?,
            schedules_skipped: count("schedules_skipped")?,
            checksum: ckpt::u64_field(doc, "checksum")?,
            sched_checksums,
            counters: ckpt::counters(doc, "counters", intern_sched_counter_key)?,
            findings: ckpt::findings(doc)?,
        })
    }
}

/// The fingerprint of every flag that affects report bytes (`--jobs`,
/// `--block` and the checkpoint plumbing deliberately excluded: the report
/// is invariant under them).
fn fingerprint(cli: &Cli, cfg: &SchedCfg) -> String {
    format!(
        "sched seed_base={} seeds={} quick={} fuel={} threads={} schedules={}",
        cli.sb.seed_base, cli.sb.seeds, cli.sb.quick, cfg.fuel, cfg.threads, cfg.schedules
    )
}

/// Render the final `compcerto-sched/1` report.
fn render_report(cli: &Cli, cfg: &SchedCfg, agg: &Agg) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"compcerto-sched/1\",\n");
    let _ = writeln!(j, "  \"quick\": {},", cli.sb.quick);
    let _ = writeln!(j, "  \"seed_base\": {},", cli.sb.seed_base);
    let _ = writeln!(j, "  \"seeds\": {},", cli.sb.seeds);
    let _ = writeln!(j, "  \"fuel\": {},", cfg.fuel);
    let _ = writeln!(j, "  \"threads\": {},", cfg.threads);
    let _ = writeln!(j, "  \"schedules_per_seed\": {},", cfg.schedules);
    let _ = writeln!(j, "  \"agree\": {},", agg.agree);
    let _ = writeln!(j, "  \"skipped\": {},", agg.skipped);
    let _ = writeln!(j, "  \"schedules_compared\": {},", agg.schedules_run);
    let _ = writeln!(
        j,
        "  \"schedules_budget_skipped\": {},",
        agg.schedules_skipped
    );
    let _ = writeln!(j, "  \"findings\": {},", agg.findings.len());
    j.push_str("  \"finding_rows\": [\n");
    for (i, f) in agg.findings.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"seed\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}{}",
            f.seed,
            json_str(&f.kind),
            json_str(&f.detail),
            if i + 1 < agg.findings.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");
    let _ = writeln!(j, "  \"verdict_checksum\": \"{:016x}\",", agg.checksum);
    j.push_str("  \"schedule_checksums\": [\n");
    for (i, h) in agg.sched_checksums.iter().enumerate() {
        let _ = writeln!(
            j,
            "    \"{h:016x}\"{}",
            if i + 1 < agg.sched_checksums.len() {
                ","
            } else {
                ""
            }
        );
    }
    j.push_str("  ],\n");
    // Observability: deterministic counters summed over the seed block
    // (standard delta keys plus the `lts.sched.*` family). No timings —
    // wall-clock never enters a committed report.
    j.push_str("  \"obs\": {\n");
    let _ = writeln!(j, "    \"counters\": {}", agg.counters.to_json_object(4));
    j.push_str("  }\n");
    j.push_str("}\n");
    j
}

fn run(cli: &Cli) -> Result<(), Fail> {
    let sb = &cli.sb;
    let cfg = build_cfg(cli);
    let baseline = sb.baseline(
        BIN,
        "compcerto-sched/1",
        cfg.fuel,
        &[
            ("threads", cfg.threads.to_string()),
            ("schedules_per_seed", cfg.schedules.to_string()),
        ],
    )?;
    println!(
        "sched_campaign: seeds {}..{} quick={} fuel={} threads={} schedules={}",
        sb.seed_base,
        sb.seed_base + sb.seeds,
        sb.quick,
        cfg.fuel,
        cfg.threads,
        cfg.schedules
    );

    // The pool returns a block's reports in seed order, so the FNV chains
    // fold exactly as in a serial run.
    let resume = sb.resume(BIN, fingerprint(cli, &cfg));
    let fresh = Agg::new(cfg.schedules);
    let Some(agg) = resume.run(sb.seeds, sb.block, "seeds", fresh, |agg, units| {
        for (r, c) in &par_map(sb.jobs, &sb.seeds_of(units), |_, &s| {
            run_seed_sched_obs(s, &cfg)
        }) {
            agg.fold(r, c);
        }
    })?
    else {
        return Ok(());
    };
    if agg.sched_checksums.len() != cfg.schedules {
        return Err(Fail::Usage(format!(
            "checkpoint: {} schedule chains but --schedules is {}",
            agg.sched_checksums.len(),
            cfg.schedules
        )));
    }
    println!(
        "oracle: {} agree, {} skipped, {} findings \
         ({} schedules compared, {} budget-skipped; checksum {:016x})",
        agg.agree,
        agg.skipped,
        agg.findings.len(),
        agg.schedules_run,
        agg.schedules_skipped,
        agg.checksum
    );
    sb.finish(
        &render_report(cli, &cfg, &agg),
        baseline.as_ref(),
        agg.findings.len(),
    )
}

fn main() -> ExitCode {
    campaign::main(
        "sched_campaign [--seeds N] [--seed-base N] [--jobs N|auto] [--quick] [--fuel N] \
         [--threads N] [--schedules M] [--out PATH] [--block N] [--ckpt PATH] [--resume] \
         [--max-blocks N] [--check PATH]",
        parse_args,
        run,
    )
}
