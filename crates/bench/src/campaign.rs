//! The one harness of the campaign binaries.
//!
//! With no Coq proofs in this reproduction, the seeded campaigns are the
//! evidence for the paper's simulation theorems, and their checking code is
//! as trusted as what it checks. Every campaign bin therefore keeps only
//! its own work and its own report format. This module owns the plumbing
//! they share:
//!
//! * [`Args`]: flag-value parsing;
//! * [`main`]: the exit contract (0 clean, 1 findings or drift, 2 usage,
//!   never 101);
//! * [`Resume`]: the checkpointed work loop behind `--ckpt`, `--resume`
//!   and `--max-blocks` (DESIGN.md §11);
//! * [`Baseline`]: the `--check` preflight (schema, configuration header,
//!   regeneration command) and the final comparison;
//! * [`SeedBlock`]: the flags and the flow that the seed-block campaigns
//!   (`difftest_campaign`, `sched_campaign`) have in common;
//! * [`ObsFold`]: the observability section of the difftest-based reports
//!   (`difftest_campaign`, `obs_campaign`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::ops::Range;
use std::process::ExitCode;
use std::str::FromStr;

use compcerto_gen::{Coverage, EXPR_CONSTRUCTORS, STMT_CONSTRUCTORS};
use compiler::json::{self, Json};
use compiler::{intern_counter_key, Counters, Jobs, SeedObs, STAGES};

use crate::ckpt::{self, json_str};

/// Why a campaign failed; selects its exit code.
#[derive(Debug)]
pub enum Fail {
    /// Findings, drift from a baseline, or a report that could not be
    /// written: exit 1.
    Finding(String),
    /// A malformed invocation, baseline or checkpoint: exit 2.
    Usage(String),
}

/// Run a campaign under the exit contract: `parse` reads the flags (an
/// error prints `usage` and exits 2), then `run` does the work. `Ok` exits
/// 0, [`Fail::Finding`] 1 and [`Fail::Usage`] 2. A panic that escapes
/// `run` is a finding, so no campaign exits 101.
pub fn main<C>(
    usage: &str,
    parse: impl FnOnce(&mut Args) -> Result<C, String>,
    run: impl FnOnce(&C) -> Result<(), Fail>,
) -> ExitCode {
    let cli = match parse(&mut Args::from_env()) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: {usage}");
            return ExitCode::from(2);
        }
    };
    let (code, msg) = match compiler::contain(|| run(&cli)) {
        Ok(Ok(())) => return ExitCode::SUCCESS,
        Ok(Err(Fail::Finding(msg))) => (1, msg),
        Ok(Err(Fail::Usage(msg))) => (2, msg),
        Err(panic) => (1, format!("campaign panicked: {panic}")),
    };
    eprintln!("error: {msg}");
    ExitCode::from(code)
}

/// The command-line flags after the program name.
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The flags of this process.
    #[must_use]
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1).collect())
    }

    /// Flags from a list (for tests).
    #[must_use]
    pub fn new(args: Vec<String>) -> Args {
        Args(args.into_iter())
    }

    /// The value following `flag`, parsed as a `T`.
    ///
    /// # Errors
    /// A missing or unparsable value, naming `flag`.
    pub fn value<T>(&mut self, flag: &str) -> Result<T, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        self.0
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }

    /// The `--jobs` value following `flag` (`auto` or a worker count).
    ///
    /// # Errors
    /// A missing value, or one that is neither `auto` nor a number.
    pub fn jobs(&mut self, flag: &str) -> Result<Jobs, String> {
        Jobs::parse(&self.value::<String>(flag)?)
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// A campaign aggregate that the checkpointed loop folds work into and
/// saves after every block.
pub trait Aggregate: Sized {
    /// The checkpoint members, as `(key, JSON value)` pairs.
    fn save(&self) -> Vec<(&'static str, String)>;

    /// Rebuild the aggregate from a checkpoint written from [`save`].
    ///
    /// # Errors
    /// A missing or malformed member.
    ///
    /// [`save`]: Aggregate::save
    fn load(doc: &Json) -> Result<Self, String>;
}

/// The checkpointed work loop (DESIGN.md §11). Work comes in numbered
/// units (seeds, mutation classes) folded a block at a time. After every
/// block the aggregate is checkpointed atomically, so a killed campaign
/// restarted with `resume` continues from the last completed block. The
/// checkpoint records the configuration `fingerprint`; resuming under
/// another one is a usage error, never a mixed report.
pub struct Resume<'a> {
    /// The campaign binary, stamped into the checkpoint.
    pub bin: &'a str,
    /// Where the checkpoint lives.
    pub path: String,
    /// Every flag that affects the report, rendered.
    pub fingerprint: String,
    /// Continue from the checkpoint at `path`.
    pub resume: bool,
    /// Stop, leaving the checkpoint, after this many blocks.
    pub max_blocks: Option<u64>,
}

impl Resume<'_> {
    /// Fold units `0..total` into `fresh`, `block` units per call of
    /// `step`, which receives the unit range to fold. Returns the final
    /// aggregate and removes the checkpoint, or `None` when paused at
    /// `max_blocks` with units left.
    ///
    /// # Errors
    /// Usage errors: a missing, foreign or mismatched checkpoint, or one
    /// that cannot be written.
    pub fn run<A: Aggregate>(
        &self,
        total: u64,
        block: u64,
        unit: &str,
        fresh: A,
        mut step: impl FnMut(&mut A, Range<u64>),
    ) -> Result<Option<A>, Fail> {
        let (mut agg, mut done) = if self.resume {
            let doc = ckpt::load(&self.path, self.bin, &self.fingerprint).map_err(Fail::Usage)?;
            let done = doc.get("completed").and_then(Json::as_u64).ok_or_else(|| {
                Fail::Usage(format!("checkpoint `{}`: no `completed`", self.path))
            })?;
            let agg = A::load(&doc).map_err(|e| Fail::Usage(format!("checkpoint: {e}")))?;
            eprintln!(
                "resumed from {}: {done}/{total} {unit} already folded",
                self.path
            );
            (agg, done)
        } else {
            (fresh, 0)
        };
        if done > total {
            return Err(Fail::Usage(format!(
                "checkpoint has {done} completed {unit} but the campaign has {total}"
            )));
        }
        let mut blocks = 0u64;
        while done < total {
            if self.max_blocks.is_some_and(|max| blocks >= max) {
                eprintln!(
                    "pausing after {blocks} blocks ({done} of {total} {unit} folded; \
                     checkpoint at {})",
                    self.path
                );
                return Ok(None);
            }
            let n = block.max(1).min(total - done);
            step(&mut agg, done..done + n);
            done += n;
            blocks += 1;
            ckpt::write_atomic(&self.path, &self.render(done, &agg)).map_err(Fail::Usage)?;
        }
        ckpt::remove(&self.path);
        Ok(Some(agg))
    }

    fn render<A: Aggregate>(&self, done: u64, agg: &A) -> String {
        let mut j = format!(
            "{{\n  \"schema\": \"{}\",\n  \"bin\": \"{}\",\n  \"cfg\": \"{}\",\n  \
             \"completed\": {done}",
            ckpt::CKPT_SCHEMA,
            self.bin,
            json_str(&self.fingerprint)
        );
        for (key, value) in agg.save() {
            j.push_str(&format!(",\n  \"{key}\": {value}"));
        }
        j.push_str("\n}\n");
        j
    }
}

/// A committed report that a `--check` run is compared against.
pub struct Baseline {
    /// Where it was read from.
    pub path: String,
    /// Its bytes.
    pub raw: String,
    /// Its parsed form.
    pub doc: Json,
}

impl Baseline {
    /// Read the baseline at `path` and check that it carries `schema`.
    /// Runs before any work, so a wrong path costs nothing.
    ///
    /// # Errors
    /// Usage errors: an unreadable or unparsable file, or another schema.
    pub fn load(path: &str, schema: &str) -> Result<Baseline, Fail> {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| Fail::Usage(format!("--check: cannot read baseline `{path}`: {e}")))?;
        let doc = json::parse(&raw)
            .map_err(|e| Fail::Usage(format!("--check: baseline `{path}`: {e}")))?;
        let got = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if got != schema {
            return Err(Fail::Usage(format!(
                "--check: baseline `{path}` has schema `{got}`, not `{schema}`"
            )));
        }
        Ok(Baseline {
            path: path.to_string(),
            raw,
            doc,
        })
    }

    /// The baseline's top-level member `key` as JSON text (`none` when
    /// absent).
    #[must_use]
    pub fn header(&self, key: &str) -> String {
        match self.doc.get(key) {
            Some(Json::Num(raw)) => raw.clone(),
            Some(Json::Bool(b)) => b.to_string(),
            Some(Json::Str(s)) => s.clone(),
            _ => "none".to_string(),
        }
    }

    /// Compare the baseline's configuration header with this invocation:
    /// each field is `(label, key, requested value)`. A mismatch is a
    /// usage error that quotes the command regenerating this baseline,
    /// `bin` run with `regen_args`.
    ///
    /// # Errors
    /// The first mismatching field.
    pub fn match_header(
        &self,
        bin: &str,
        regen_args: &str,
        fields: &[(&str, &str, String)],
    ) -> Result<(), Fail> {
        for (label, key, want) in fields {
            let got = self.header(key);
            if &got != want {
                return Err(Fail::Usage(format!(
                    "--check: baseline `{path}` was generated with {label} {got}, but this \
                     invocation requests {want};\n  \
                     comparing them would be meaningless — align the flags, or regenerate \
                     the baseline with:\n  \
                     cargo run --release -p bench --bin {bin} -- {regen_args} --out {path}",
                    path = self.path
                )));
            }
        }
        Ok(())
    }

    /// Compare a regenerated report with the baseline after mapping both
    /// through `view`, which strips what the comparison must ignore.
    ///
    /// # Errors
    /// A usage error when `view` rejects the baseline, a finding when the
    /// views differ.
    pub fn compare_by(
        &self,
        report: &str,
        view: impl Fn(&str) -> Result<String, String>,
    ) -> Result<(), Fail> {
        let want = view(&self.raw)
            .map_err(|e| Fail::Usage(format!("--check: baseline `{}`: {e}", self.path)))?;
        let got = view(report).map_err(Fail::Finding)?;
        if want == got {
            println!("check: report matches {}", self.path);
            return Ok(());
        }
        let mut msg = format!(
            "regenerated report differs from baseline `{}` ({} vs {} bytes)",
            self.path,
            got.len(),
            want.len()
        );
        let differing = want.lines().zip(got.lines()).filter(|(w, g)| w != g);
        for (w, g) in differing.take(8) {
            msg.push_str(&format!("\n  baseline: {w}\n  current:  {g}"));
        }
        Err(Fail::Finding(msg))
    }
}

/// Hand over a finished report: compare it with the `--check` baseline
/// when there is one, otherwise write it to `out`.
///
/// # Errors
/// Drift from the baseline, or a failed write: findings.
pub fn deliver(report: &str, baseline: Option<&Baseline>, out: &str) -> Result<(), Fail> {
    if let Some(base) = baseline {
        return base.compare_by(report, |s| Ok(s.to_string()));
    }
    std::fs::write(out, report).map_err(|e| Fail::Finding(format!("cannot write `{out}`: {e}")))?;
    println!("wrote {out}");
    Ok(())
}

/// The flags shared by the seed-block campaigns, which fold a range of
/// generator seeds block by block into one report.
pub struct SeedBlock {
    /// How many seeds.
    pub seeds: u64,
    /// The first seed.
    pub seed_base: u64,
    /// Pool width for a block; the report is invariant under it.
    pub jobs: Jobs,
    /// The quick profile.
    pub quick: bool,
    /// Fuel override per stage execution.
    pub fuel: Option<u64>,
    /// Where the report goes.
    pub out: String,
    /// Seeds per checkpointed block.
    pub block: u64,
    /// Checkpoint path override.
    pub ckpt: Option<String>,
    /// Continue from the checkpoint.
    pub resume: bool,
    /// Pause after this many blocks.
    pub max_blocks: Option<u64>,
    /// Baseline to compare with instead of writing `out`.
    pub check: Option<String>,
}

impl SeedBlock {
    /// Defaults: `seeds` seeds from 0, reported to `out`, blocks of 16.
    #[must_use]
    pub fn new(seeds: u64, out: &str) -> SeedBlock {
        SeedBlock {
            seeds,
            seed_base: 0,
            jobs: Jobs::Auto,
            quick: false,
            fuel: None,
            out: out.to_string(),
            block: 16,
            ckpt: None,
            resume: false,
            max_blocks: None,
            check: None,
        }
    }

    /// Consume `flag` (and its value) if it is one of the shared flags.
    ///
    /// # Errors
    /// A missing or malformed value.
    pub fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--seeds" => self.seeds = args.value(flag)?,
            "--seed-base" => self.seed_base = args.value(flag)?,
            "--jobs" => self.jobs = args.jobs(flag)?,
            "--quick" => self.quick = true,
            "--fuel" => self.fuel = Some(args.value(flag)?),
            "--out" => self.out = args.value(flag)?,
            "--block" => self.block = args.value::<u64>(flag)?.max(1),
            "--ckpt" => self.ckpt = Some(args.value(flag)?),
            "--resume" => self.resume = true,
            "--max-blocks" => self.max_blocks = Some(args.value(flag)?),
            "--check" => self.check = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The `--check` preflight: load the baseline and compare its header
    /// (seed count, first seed, `fuel`, the `extra` fields, quick profile)
    /// with this invocation before any seed runs.
    ///
    /// # Errors
    /// Usage errors, each quoting the regeneration command.
    pub fn baseline(
        &self,
        bin: &str,
        schema: &str,
        fuel: u64,
        extra: &[(&str, String)],
    ) -> Result<Option<Baseline>, Fail> {
        let Some(path) = &self.check else {
            return Ok(None);
        };
        let base = Baseline::load(path, schema)?;
        let regen = format!(
            "{}--seeds {} --jobs auto",
            if base.header("quick") == "true" {
                "--quick "
            } else {
                ""
            },
            base.header("seeds")
        );
        let mut fields = vec![
            ("seed count", "seeds", self.seeds.to_string()),
            ("seed_base", "seed_base", self.seed_base.to_string()),
            ("fuel", "fuel", fuel.to_string()),
        ];
        fields.extend(extra.iter().map(|(key, want)| (*key, *key, want.clone())));
        fields.push(("quick", "quick", self.quick.to_string()));
        base.match_header(bin, &regen, &fields)?;
        Ok(Some(base))
    }

    /// The checkpointed loop over this block of seeds. The default
    /// checkpoint sits next to the report, or next to the baseline in
    /// `--check` mode, so a check never clobbers a regeneration's.
    #[must_use]
    pub fn resume<'a>(&self, bin: &'a str, fingerprint: String) -> Resume<'a> {
        let path = self.ckpt.clone().unwrap_or_else(|| match &self.check {
            Some(base) => format!("{base}.check.ckpt"),
            None => format!("{}.ckpt", self.out),
        });
        Resume {
            bin,
            path,
            fingerprint,
            resume: self.resume,
            max_blocks: self.max_blocks,
        }
    }

    /// The absolute seeds of a unit range of the checkpointed loop.
    #[must_use]
    pub fn seeds_of(&self, units: Range<u64>) -> Vec<u64> {
        (self.seed_base + units.start..self.seed_base + units.end).collect()
    }

    /// Deliver the report, then fail if the campaign had findings.
    ///
    /// # Errors
    /// Drift, a failed write, or `findings > 0`.
    pub fn finish(
        &self,
        report: &str,
        baseline: Option<&Baseline>,
        findings: usize,
    ) -> Result<(), Fail> {
        deliver(report, baseline, &self.out)?;
        if findings > 0 {
            return Err(Fail::Finding(format!("{findings} finding(s)")));
        }
        Ok(())
    }
}

/// The observability fold of a difftest seed block (DESIGN.md §10):
/// deterministic counters, generator grammar coverage and the compared
/// stage pairs. Sums and unions, so the fold is the same in any seed
/// order and under any `--jobs`.
#[derive(Default)]
pub struct ObsFold {
    /// Counter deltas summed over the seeds.
    pub counters: Counters,
    /// Grammar-constructor coverage of the generated programs.
    pub coverage: Coverage,
    /// Stages compared against the Clight baseline on some query.
    pub stages: BTreeSet<&'static str>,
}

impl ObsFold {
    /// Fold in one seed.
    pub fn add(&mut self, o: &SeedObs) {
        self.counters.add(&o.counters);
        self.coverage.merge(&o.coverage);
        self.stages.extend(o.stages_compared.iter().copied());
    }

    /// The report members, `"counters"` through `"stage_pairs"`, indented
    /// for an object nested one level deep. No timings: wall-clock never
    /// enters a committed report.
    #[must_use]
    pub fn report_members(&self) -> String {
        let quoted = |names: Vec<String>| {
            let q: Vec<String> = names
                .iter()
                .map(|n| format!("\"{}\"", json_str(n)))
                .collect();
            q.join(", ")
        };
        let entries: Vec<String> = self
            .coverage
            .counter_entries()
            .iter()
            .map(|(k, v)| format!("        \"{k}\": {v}"))
            .collect();
        let missing = self.coverage.missing();
        format!(
            "    \"counters\": {},\n    \"gen_coverage\": {{\n      \"complete\": {},\n      \
             \"missing\": [{}],\n      \"counters\": {{\n{}\n      }}\n    }},\n    \
             \"stages_compared\": [{}],\n    \"stage_pairs\": \"{}/{}\"\n",
            self.counters.to_json_object(4),
            missing.is_empty(),
            quoted(missing),
            entries.join(",\n"),
            quoted(self.stages.iter().map(|s| (*s).to_string()).collect()),
            self.stages.len(),
            STAGES.len() - 1
        )
    }

    /// The checkpoint members.
    #[must_use]
    pub fn save(&self) -> Vec<(&'static str, String)> {
        let owned = |m: &BTreeMap<&str, u64>| {
            ckpt::u64_map_json(&m.iter().map(|(k, v)| ((*k).to_string(), *v)).collect())
        };
        let stages: Vec<String> = self.stages.iter().map(|s| format!("\"{s}\"")).collect();
        vec![
            ("counters", ckpt::counters_json(&self.counters)),
            ("cov_stmts", owned(&self.coverage.stmts)),
            ("cov_exprs", owned(&self.coverage.exprs)),
            ("stages", format!("[{}]", stages.join(", "))),
        ]
    }

    /// Rebuild from checkpoint members written by [`ObsFold::save`].
    ///
    /// # Errors
    /// A missing member or a name this build does not know.
    pub fn load(doc: &Json) -> Result<ObsFold, String> {
        let among = |names: &[&'static str], k: &str| names.iter().copied().find(|n| *n == k);
        let mut stages = BTreeSet::new();
        for s in doc
            .get("stages")
            .and_then(Json::as_arr)
            .ok_or("missing `stages`")?
        {
            let name = s.as_str().and_then(|s| among(&STAGES, s));
            stages.insert(name.ok_or_else(|| format!("unknown stage {s:?}"))?);
        }
        Ok(ObsFold {
            counters: ckpt::counters(doc, "counters", intern_counter_key)?,
            coverage: Coverage {
                stmts: ckpt::interned(doc, "cov_stmts", |k| among(&STMT_CONSTRUCTORS, k))?,
                exprs: ckpt::interned(doc, "cov_exprs", |k| among(&EXPR_CONSTRUCTORS, k))?,
            },
            stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::new(v.iter().map(|s| (*s).to_string()).collect())
    }

    #[test]
    fn shared_flags_parse_and_others_pass_through() {
        let mut sb = SeedBlock::new(50, "R.json");
        let mut a = args(&["--seeds", "7", "--jobs", "auto", "--block", "0", "--own"]);
        while let Some(flag) = a.next() {
            let taken = sb.take(&flag, &mut a).expect("parses");
            assert_eq!(taken, flag != "--own", "{flag}");
        }
        assert_eq!((sb.seeds, sb.jobs, sb.block), (7, Jobs::Auto, 1));
        assert_eq!(sb.resume("t", String::new()).path, "R.json.ckpt");
        assert_eq!(sb.seeds_of(2..4), vec![2, 3]);
    }

    #[test]
    fn flag_values_name_the_flag_on_error() {
        assert_eq!(
            args(&[]).value::<u64>("--seeds"),
            Err("--seeds needs a value".into())
        );
        let e = args(&["x"]).value::<u64>("--seeds").unwrap_err();
        assert!(e.starts_with("--seeds: "), "{e}");
        assert!(args(&["three"]).jobs("--jobs").is_err());
    }

    /// A sum over unit indices: the smallest aggregate the loop can fold.
    struct Sum(u64);

    impl Aggregate for Sum {
        fn save(&self) -> Vec<(&'static str, String)> {
            vec![("sum", self.0.to_string())]
        }
        fn load(doc: &Json) -> Result<Sum, String> {
            doc.get("sum")
                .and_then(Json::as_u64)
                .map(Sum)
                .ok_or("no sum".into())
        }
    }

    #[test]
    fn paused_and_resumed_loop_folds_every_unit_once() {
        let path = std::env::temp_dir()
            .join(format!("campaign-loop-{}.ckpt", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let mut r = Resume {
            bin: "t",
            path: path.clone(),
            fingerprint: "n=10".into(),
            resume: false,
            max_blocks: Some(2),
        };
        let fold = |s: &mut Sum, units: Range<u64>| s.0 += units.sum::<u64>();
        assert!(r.run(10, 3, "units", Sum(0), fold).expect("runs").is_none());
        r.resume = true;
        r.max_blocks = None;
        let done = r.run(10, 3, "units", Sum(0), fold).expect("resumes");
        assert_eq!(done.map(|s| s.0), Some(45));
        assert!(!std::path::Path::new(&path).exists(), "checkpoint removed");
        // Nothing left to resume from: a usage error.
        assert!(matches!(
            r.run(10, 3, "units", Sum(0), fold),
            Err(Fail::Usage(_))
        ));
    }
}
