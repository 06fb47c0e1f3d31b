//! Differential-testing campaign (EXPERIMENTS.md row B8): run the seeded
//! generator → cross-stage oracle over a block of seeds, shrink any finding
//! to a minimal reproducer, and re-run the fault-injection mutation classes
//! against generated programs to measure escape rates on random inputs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin difftest_campaign -- \
//!     [--seeds N] [--seed-base N] [--jobs N|auto] [--quick] \
//!     [--fuel N] [--queries N] [--no-reduce] \
//!     [--escape-seeds N] [--per-class N] [--out PATH] \
//!     [--block N] [--ckpt PATH] [--resume] [--max-blocks N] \
//!     [--check PATH]
//! ```
//!
//! Writes a machine-readable summary (schema `compcerto-difftest/1`) to
//! `DIFFTEST.json` (or `--out`). With `--check PATH` the campaign runs,
//! renders the report and byte-compares it to the committed baseline
//! instead of writing: a mismatch is a regression (exit 1). Before any
//! seed runs, the baseline's own configuration header (`seeds`,
//! `seed_base`, `quick`, `fuel`, `queries_per_seed`) is compared to this
//! invocation's — a mismatch (e.g. checking a 500-seed baseline with
//! `--seeds 50`) is a **usage error (exit 2)** that names the exact
//! regeneration command, never a silent half-comparison. The report is **byte-identical for a given
//! seed block under any `--jobs` setting**: every per-seed verdict is a pure
//! function of `(seed, cfg)`, the fan-out uses the order-preserving worker
//! pool ([`compiler::par_map`]), and the JSON deliberately records no
//! machine facts (no core counts, no timings). `ci.sh` runs `--quick` and
//! fails on any finding; a non-quick sweep exits 1 on findings too, with
//! each finding's shrunk reproducer inlined in the JSON.
//!
//! # Checkpoint/resume (resilience layer, DESIGN.md §11)
//!
//! Seeds are processed in blocks of `--block` (default 16); after each
//! block a `compcerto-ckpt/1` checkpoint is written atomically next to the
//! report (`--ckpt`, default `<out>.ckpt`). A killed campaign restarted
//! with `--resume` continues from the last completed block and produces a
//! final report **byte-identical** to the uninterrupted run — per-seed
//! results are pure and the aggregation is a commutative fold in seed
//! order, so where the process died is unobservable in the output. The
//! checkpoint embeds a fingerprint of every result-affecting flag; resuming
//! under different flags is a usage error. `--max-blocks N` stops after N
//! blocks (leaving the checkpoint behind) — the hook the CI kill-and-resume
//! smoke uses to simulate a mid-campaign kill at a block boundary.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bench::campaign::{self, Aggregate, Args, Fail, ObsFold, SeedBlock};
use bench::ckpt::{self, json_str, Finding};
use bench::json::Json;
use compiler::{
    faultinj_escape_rates, par_map, run_seed_obs, DifftestCfg, SeedObs, SeedOutcome, SeedReport,
};

const BIN: &str = "difftest_campaign";

struct Cli {
    sb: SeedBlock,
    queries: Option<usize>,
    no_reduce: bool,
    escape_seeds: u64,
    per_class: usize,
}

fn parse_args(args: &mut Args) -> Result<Cli, String> {
    let mut cli = Cli {
        sb: SeedBlock::new(50, "DIFFTEST.json"),
        queries: None,
        no_reduce: false,
        escape_seeds: 2,
        per_class: 3,
    };
    while let Some(flag) = args.next() {
        if cli.sb.take(&flag, args)? {
            continue;
        }
        match flag.as_str() {
            "--queries" => cli.queries = Some(args.value(&flag)?),
            "--escape-seeds" => cli.escape_seeds = args.value(&flag)?,
            "--per-class" => cli.per_class = args.value(&flag)?,
            "--no-reduce" => cli.no_reduce = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cli.sb.quick {
        cli.sb.seeds = cli.sb.seeds.min(12);
        cli.escape_seeds = cli.escape_seeds.min(1);
        cli.per_class = cli.per_class.min(2);
    }
    Ok(cli)
}

/// The campaign's phase-1 aggregate: everything the final report needs.
/// The fold is commutative per seed, which is what makes block-wise
/// accumulation (and therefore resume) byte-equivalent to the one-shot
/// run.
#[derive(Default)]
struct Agg {
    agree: usize,
    skipped: usize,
    queries_run: usize,
    queries_skipped: usize,
    obs: ObsFold,
    findings: Vec<Finding>,
}

impl Agg {
    /// Fold one seed's report + observability bundle (printing findings as
    /// they are folded, exactly like the pre-checkpoint campaign did).
    fn fold(&mut self, r: &SeedReport, o: &SeedObs) {
        self.obs.add(o);
        match &r.outcome {
            SeedOutcome::Agree {
                queries_run: qr,
                queries_skipped: qs,
            } => {
                self.agree += 1;
                self.queries_run += qr;
                self.queries_skipped += qs;
            }
            SeedOutcome::Skipped(_) => self.skipped += 1,
            SeedOutcome::Finding { kind, detail } => {
                println!("FINDING seed={} kind={kind}: {detail}", r.seed);
                let (stmts, source) = match &r.reproducer {
                    Some(rep) => {
                        println!(
                            "  reduced to {} statements ({} checks, {} rounds):",
                            rep.stmts, rep.stats.checks, rep.stats.rounds
                        );
                        for line in rep.source.lines() {
                            println!("  | {line}");
                        }
                        (rep.stmts as i64, rep.source.clone())
                    }
                    None => (-1, String::new()),
                };
                self.findings.push(Finding {
                    seed: r.seed,
                    kind: format!("{kind}"),
                    detail: detail.clone(),
                    stmts,
                    source,
                });
            }
        }
    }
}

impl Aggregate for Agg {
    fn save(&self) -> Vec<(&'static str, String)> {
        let mut members = vec![
            ("agree", self.agree.to_string()),
            ("skipped", self.skipped.to_string()),
            ("queries_run", self.queries_run.to_string()),
            ("queries_skipped", self.queries_skipped.to_string()),
            ("findings", ckpt::findings_json(&self.findings)),
        ];
        members.extend(self.obs.save());
        members
    }

    fn load(doc: &Json) -> Result<Agg, String> {
        let count = |key: &str| ckpt::u64_field(doc, key).map(|n| n as usize);
        Ok(Agg {
            agree: count("agree")?,
            skipped: count("skipped")?,
            queries_run: count("queries_run")?,
            queries_skipped: count("queries_skipped")?,
            obs: ObsFold::load(doc)?,
            findings: ckpt::findings(doc)?,
        })
    }
}

/// The fingerprint of every flag that affects report bytes (`--jobs`,
/// `--block` and the checkpoint plumbing deliberately excluded: the report
/// is invariant under them).
fn fingerprint(cli: &Cli, cfg: &DifftestCfg) -> String {
    format!(
        "difftest seed_base={} seeds={} quick={} fuel={} queries={} reduce={} \
         escape_seeds={} per_class={}",
        cli.sb.seed_base,
        cli.sb.seeds,
        cli.sb.quick,
        cfg.fuel,
        cfg.queries,
        cfg.reduce,
        cli.escape_seeds,
        cli.per_class
    )
}

/// The effective difftest configuration of this invocation (`--quick`
/// presets, then the explicit overrides).
fn build_cfg(cli: &Cli) -> DifftestCfg {
    let mut cfg = if cli.sb.quick {
        DifftestCfg::quick()
    } else {
        DifftestCfg::default()
    };
    if let Some(fuel) = cli.sb.fuel {
        cfg.fuel = fuel;
    }
    if let Some(q) = cli.queries {
        cfg.queries = q;
    }
    cfg.reduce = !cli.no_reduce;
    cfg
}

fn run(cli: &Cli) -> Result<(), Fail> {
    let sb = &cli.sb;
    let cfg = build_cfg(cli);
    let baseline = sb.baseline(
        BIN,
        "compcerto-difftest/1",
        cfg.fuel,
        &[("queries_per_seed", cfg.queries.to_string())],
    )?;
    println!(
        "difftest_campaign: seeds {}..{} quick={} fuel={} queries={}",
        sb.seed_base,
        sb.seed_base + sb.seeds,
        sb.quick,
        cfg.fuel,
        cfg.queries
    );

    // Phase 1 — the oracle sweep, block by block with checkpoints. The
    // pool returns a block's reports in seed order, so the fold is the
    // serial fold.
    let resume = sb.resume(BIN, fingerprint(cli, &cfg));
    let Some(agg) = resume.run(sb.seeds, sb.block, "seeds", Agg::default(), |agg, units| {
        for (r, o) in &par_map(sb.jobs, &sb.seeds_of(units), |_, &s| run_seed_obs(s, &cfg)) {
            agg.fold(r, o);
        }
    })?
    else {
        return Ok(());
    };
    println!(
        "oracle: {} agree, {} skipped, {} findings \
         ({} queries compared, {} budget-skipped)",
        agg.agree,
        agg.skipped,
        agg.findings.len(),
        agg.queries_run,
        agg.queries_skipped
    );

    // Phase 2 — fault-injection escape rates under generated programs.
    // Pure in (seed, cfg) and cheap next to phase 1, so it simply re-runs
    // after a resume — the report stays byte-identical either way.
    let esc_seeds = sb.seeds_of(0..sb.seeds.min(cli.escape_seeds));
    let esc_results = par_map(sb.jobs, &esc_seeds, |_, &s| {
        (s, faultinj_escape_rates(s, &cfg, cli.per_class))
    });
    let mut esc_probed = 0usize;
    let mut esc_skipped = 0usize;
    // class name -> (generated, detected), in MUTATION_CLASSES order.
    let mut matrix: BTreeMap<usize, (&'static str, usize, usize)> = BTreeMap::new();
    for (s, res) in &esc_results {
        match res {
            Ok(rows) => {
                esc_probed += 1;
                for (i, row) in rows.iter().enumerate() {
                    let e = matrix.entry(i).or_insert((row.class.name(), 0, 0));
                    e.1 += row.generated;
                    e.2 += row.detected;
                }
            }
            Err(e) => {
                esc_skipped += 1;
                println!("escape matrix: seed {s} skipped ({e})");
            }
        }
    }
    if esc_probed > 0 {
        println!("escape rates over {esc_probed} generated programs ({} mutants/class/program):", cli.per_class);
        println!("{:<26}{:>10}{:>10}{:>9}", "class", "mutants", "detected", "escaped");
        for (_, (name, generated, detected)) in &matrix {
            println!(
                "{name:<26}{generated:>10}{detected:>10}{:>9}",
                generated - detected
            );
        }
    }

    // The JSON summary: deterministic for the seed block, jobs-independent.
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"compcerto-difftest/1\",\n");
    j.push_str(&format!("  \"quick\": {},\n", sb.quick));
    j.push_str(&format!("  \"seed_base\": {},\n", sb.seed_base));
    j.push_str(&format!("  \"seeds\": {},\n", sb.seeds));
    j.push_str(&format!("  \"fuel\": {},\n", cfg.fuel));
    j.push_str(&format!("  \"queries_per_seed\": {},\n", cfg.queries));
    j.push_str(&format!("  \"agree\": {},\n", agg.agree));
    j.push_str(&format!("  \"skipped\": {},\n", agg.skipped));
    j.push_str(&format!("  \"queries_compared\": {},\n", agg.queries_run));
    j.push_str(&format!(
        "  \"queries_budget_skipped\": {},\n",
        agg.queries_skipped
    ));
    j.push_str(&format!("  \"findings\": {},\n", agg.findings.len()));
    j.push_str("  \"finding_rows\": [\n");
    for (i, f) in agg.findings.iter().enumerate() {
        let source = if f.source.is_empty() {
            String::new()
        } else {
            json_str(&f.source)
        };
        j.push_str(&format!(
            "    {{\"seed\": {}, \"kind\": \"{}\", \"detail\": \"{}\", \
             \"reduced_stmts\": {}, \"reproducer\": \"{source}\"}}{}\n",
            f.seed,
            json_str(&f.kind),
            json_str(&f.detail),
            f.stmts,
            if i + 1 < agg.findings.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");

    j.push_str("  \"obs\": {\n");
    j.push_str(&agg.obs.report_members());
    j.push_str("  },\n");
    j.push_str("  \"escape_matrix\": {\n");
    j.push_str(&format!("    \"seeds_probed\": {esc_probed},\n"));
    j.push_str(&format!("    \"seeds_skipped\": {esc_skipped},\n"));
    j.push_str(&format!("    \"per_class\": {},\n", cli.per_class));
    j.push_str("    \"rows\": [\n");
    let nrows = matrix.len();
    for (i, (_, (name, generated, detected))) in matrix.iter().enumerate() {
        j.push_str(&format!(
            "      {{\"class\": \"{name}\", \"generated\": {generated}, \
             \"detected\": {detected}, \"escaped\": {}}}{}\n",
            generated - detected,
            if i + 1 < nrows { "," } else { "" }
        ));
    }
    j.push_str("    ]\n");
    j.push_str("  }\n");
    j.push_str("}\n");
    sb.finish(&j, baseline.as_ref(), agg.findings.len())
}

fn main() -> ExitCode {
    campaign::main(
        "difftest_campaign [--seeds N] [--seed-base N] [--jobs N|auto] [--quick] [--fuel N] \
         [--queries N] [--no-reduce] [--escape-seeds N] [--per-class N] [--out PATH] \
         [--block N] [--ckpt PATH] [--resume] [--max-blocks N] [--check PATH]",
        parse_args,
        run,
    )
}
