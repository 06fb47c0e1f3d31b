//! Fault-injection campaign (EXPERIMENTS.md row B5): generate seeded
//! mutants per convention-violation class, run each through the Theorem 3.8
//! checker under an explicit budget, and print the sensitivity matrix.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --bin faultinj_campaign -- \
//!     [--seed N] [--per-class N] [--fuel N] [--jobs N|auto] \
//!     [--ckpt PATH] [--resume] [--max-classes N]
//! ```
//!
//! Output is byte-deterministic for a given seed *and any `--jobs` value*:
//! mutation sites and payloads come from SplitMix64 (generated serially
//! before the probe fan-out), budgets are fuel-based (no wall-clock), and
//! tallies use ordered maps over index-ordered probe results.
//!
//! # Checkpoint/resume (resilience layer, DESIGN.md §11)
//!
//! The campaign's resumable unit is one mutation class
//! ([`compiler::run_campaign_class`] is a pure function of `(cfg, class)` —
//! each class owns its own split of the master RNG). After every completed
//! class a `compcerto-ckpt/1` checkpoint is written atomically; `--resume`
//! reloads the finished rows and continues with the next class, printing a
//! final matrix **byte-identical** to the uninterrupted run (resume
//! progress notes go to stderr so stdout stays comparable). `--max-classes
//! N` stops after N classes this invocation, leaving the checkpoint behind
//! — the hook the CI kill-and-resume smoke uses.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bench::campaign::{self, Aggregate, Args, Fail, Resume};
use bench::ckpt;
use bench::json::Json;
use compiler::{
    intern_counter_key, intern_error_class, run_campaign_class, CampaignBase, CampaignCfg,
    CampaignReport, ClassStats, Counters, MUTATION_CLASSES,
};

struct Cli {
    cfg: CampaignCfg,
    ckpt: String,
    resume: bool,
    max_classes: Option<u64>,
}

fn parse_args(args: &mut Args) -> Result<Cli, String> {
    let mut cli = Cli {
        cfg: CampaignCfg::default(),
        ckpt: "FAULTINJ.ckpt".to_string(),
        resume: false,
        max_classes: None,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => cli.cfg.seed = args.value(&flag)?,
            "--per-class" => cli.cfg.per_class = args.value(&flag)?,
            "--fuel" => cli.cfg.fuel = args.value(&flag)?,
            "--max-classes" => cli.max_classes = Some(args.value(&flag)?),
            "--resume" => cli.resume = true,
            "--jobs" => cli.cfg.jobs = args.jobs(&flag)?,
            "--ckpt" => cli.ckpt = args.value(&flag)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cli)
}

/// Fingerprint of every result-affecting knob (`--jobs` excluded: the
/// matrix is jobs-invariant by construction).
fn fingerprint(cfg: &CampaignCfg) -> String {
    format!(
        "faultinj seed={} per_class={} fuel={} probes={:?}",
        cfg.seed, cfg.per_class, cfg.fuel, cfg.probe_args
    )
}

/// The finished classes, in [`MUTATION_CLASSES`] order, and their summed
/// counters.
#[derive(Default)]
struct Classes {
    stats: Vec<ClassStats>,
    counters: Counters,
}

impl Aggregate for Classes {
    fn save(&self) -> Vec<(&'static str, String)> {
        let rows: Vec<String> = self
            .stats
            .iter()
            .map(|s| {
                let errors = s
                    .errors
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), *v as u64))
                    .collect();
                format!(
                    "\n    {{\"class\": \"{}\", \"generated\": {}, \"detected\": {}, \
                     \"static_caught\": {}, \"caught_both\": {}, \"expected_class\": {}, \
                     \"errors\": {}}}",
                    s.class.name(),
                    s.generated,
                    s.detected,
                    s.static_caught,
                    s.caught_both,
                    s.expected_class,
                    ckpt::u64_map_json(&errors)
                )
            })
            .collect();
        vec![
            ("counters", ckpt::counters_json(&self.counters)),
            ("classes", format!("[{}\n  ]", rows.join(","))),
        ]
    }

    /// Rebuild the finished rows, interning error class names back to
    /// their `&'static str` keys.
    fn load(doc: &Json) -> Result<Classes, String> {
        let rows = doc
            .get("classes")
            .and_then(Json::as_arr)
            .ok_or("missing `classes`")?;
        if rows.len() as u64 != ckpt::u64_field(doc, "completed")? {
            return Err(format!("{} class rows for `completed`", rows.len()));
        }
        let mut stats = Vec::with_capacity(rows.len());
        for (row, class) in rows.iter().zip(MUTATION_CLASSES) {
            let name = row.get("class").and_then(Json::as_str).unwrap_or("");
            if class.name() != name {
                return Err(format!("class row `{name}`, expected `{}`", class.name()));
            }
            let u = |key: &str| ckpt::u64_field(row, key).map(|v| v as usize);
            let mut errors: BTreeMap<&'static str, usize> = BTreeMap::new();
            for (k, v) in ckpt::u64_map(row, "errors")? {
                let interned =
                    intern_error_class(&k).ok_or_else(|| format!("unknown error class `{k}`"))?;
                errors.insert(interned, v as usize);
            }
            stats.push(ClassStats {
                class,
                generated: u("generated")?,
                detected: u("detected")?,
                static_caught: u("static_caught")?,
                caught_both: u("caught_both")?,
                expected_class: u("expected_class")?,
                errors,
            });
        }
        Ok(Classes {
            stats,
            counters: ckpt::counters(doc, "counters", intern_counter_key)?,
        })
    }
}

/// One class per checkpointed block. Resume and pause notes go to stderr
/// (from the harness), so stdout stays comparable across a resume.
fn run(cli: &Cli) -> Result<(), Fail> {
    let resume = Resume {
        bin: "faultinj_campaign",
        path: cli.ckpt.clone(),
        fingerprint: fingerprint(&cli.cfg),
        resume: cli.resume,
        max_blocks: cli.max_classes,
    };
    let base = CampaignBase::prepare(&cli.cfg).map_err(Fail::Usage)?;
    let total = MUTATION_CLASSES.len() as u64;
    let Some(done) = resume.run(total, 1, "classes", Classes::default(), |agg, units| {
        let (st, c) = run_campaign_class(&cli.cfg, &base, units.start as usize);
        agg.stats.push(st);
        agg.counters.add(&c);
    })?
    else {
        return Ok(());
    };
    let report = CampaignReport {
        cfg: cli.cfg.clone(),
        stats: done.stats,
        counters: done.counters,
    };
    println!("{report}");
    match report.total_escapes() {
        0 => Ok(()),
        n => Err(Fail::Finding(format!("{n} mutant(s) escaped detection"))),
    }
}

fn main() -> ExitCode {
    campaign::main(
        "faultinj_campaign [--seed N] [--per-class N] [--fuel N] [--jobs N|auto] \
         [--ckpt PATH] [--resume] [--max-classes N]",
        parse_args,
        run,
    )
}
