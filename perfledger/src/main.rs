//! `perfledger` — the end-to-end and per-layer benchmark of CompCertO-rs.
//!
//! ```text
//! perfledger --workload difftest|sched|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a closed loop with one client in this process: it draws
//! a fixed pool of inputs from `--seed`, runs whole passes over it for
//! `--seconds`, and checks every op's output. With `--trace 0` it prints
//! the end-to-end metrics; with `--trace 1` it runs one untraced reference
//! pass and one traced pass and prints the per-layer metrics. The last line
//! of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//!
//! Exit codes: 0 measured (even with failed ops, reported as `correct:
//! false`), 1 the workload could not be set up, 2 usage. See `README.md`
//! beside this package for what each metric means and why it was chosen.

mod difftest;
mod harness;
mod host;
mod rawjson;
mod sched;
mod serve;
mod stats;
#[cfg(test)]
mod tests;
mod trace;

use std::process::ExitCode;

use harness::{run_loop, run_traced, set_up, Tally, Workload};

const USAGE: &str =
    "usage: perfledger --workload difftest|sched|serve --seed N --seconds S --trace 0|1";

/// Set-up repetitions of an untraced run (the median is reported).
const SETUP_REPS_OP: usize = 7;
/// Set-up repetitions for `serve`, whose set-up is a cold cache fill of
/// ≈0.8 s.
const SETUP_REPS_SERVE: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["difftest", "sched", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "difftest" => measure(&args, SETUP_REPS_OP, || {
            Ok(difftest::Difftest::new(args.seed))
        }),
        "sched" => measure(&args, SETUP_REPS_OP, || Ok(sched::Sched::new(args.seed))),
        _ => {
            let mut rep = 0;
            measure(&args, SETUP_REPS_SERVE, || {
                rep += 1;
                serve::Serve::new(args.seed, &rep.to_string())
            })
        }
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfledger: {e}");
            ExitCode::from(1)
        }
    }
}

/// Set up, measure, and render the result line.
fn measure<W: Workload>(
    args: &Args,
    reps: usize,
    mut build: impl FnMut() -> Result<W, String>,
) -> Result<String, String> {
    let calibration_ms = host::calibration_ms();
    let steal = host::StealMeter::start();
    if args.trace {
        let (mut w, _) = set_up(&mut build)?;
        let (mut tr, tally) = run_traced(&mut w);
        tr.set("host.calibration_ms", calibration_ms);
        tr.set("host.steal_pct", steal.steal_pct());
        println!(
            "perfledger: workload={} seed={} traced_ops={} verdict_fnv={}",
            args.workload,
            args.seed,
            w.pass_len(),
            tally.checksum()
        );
        let metrics = tr
            .per_op(w.pass_len())
            .into_iter()
            .map(|(m, v)| (m.name, v, m.unit))
            .collect();
        return Ok(result_line(&tally, metrics));
    }
    let e = run_loop(reps, build, args.seconds)?;
    println!(
        "perfledger: workload={} seed={} passes={} ops={} verdict_fnv={} \
         host.calibration_ms={calibration_ms:.3} host.steal_pct={:.2}",
        args.workload,
        args.seed,
        e.passes,
        e.tally.attempted,
        e.tally.checksum(),
        steal.steal_pct()
    );
    let metrics = vec![
        ("setup_s".to_string(), e.setup_s, "s"),
        ("ops_per_s".to_string(), e.ops_per_s, "1/s"),
        ("cpu_ms_per_op".to_string(), e.cpu_ms_per_op, "ms"),
        ("op_ms_p50".to_string(), e.op_ms_p50, "ms"),
        ("op_ms_p90".to_string(), e.op_ms_p90, "ms"),
        ("rss_peak_mb".to_string(), e.rss_peak_mb, "MiB"),
    ];
    Ok(result_line(&e.tally, metrics))
}

/// The final JSON line. A value that is not a finite number is a bug in
/// the measurement; it is printed as 0 and the run is marked incorrect.
fn result_line(tally: &Tally, metrics: Vec<(String, f64, &str)>) -> String {
    let mut correct = tally.failed == 0 && tally.attempted > 0;
    let members: Vec<String> = metrics
        .into_iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() {
                v
            } else {
                eprintln!("perfledger: metric {name} is not finite ({v})");
                correct = false;
                0.0
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        members.join(", ")
    )
}
