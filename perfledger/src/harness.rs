//! The closed loop shared by every workload: set-up, whole passes over the
//! input pool, per-op timing and output checks, and the traced pass.

use std::time::Instant;

use compcerto_core::rng::SplitMix64;
use compiler::pool_stats;
use compiler::serve::fnv_hex;

use crate::host::{process_cpu_s, rss_peak_mb};
use crate::stats::{median, quantile};
use crate::trace::Trace;

/// One workload: a fixed pool of inputs drawn from the workload seed, and
/// the op a single client runs on each of them.
pub trait Workload {
    /// A prepared request (built before the op's clock starts).
    type Req;
    /// What the op returns.
    type Resp;

    /// Ops in one pass over the pool.
    fn pass_len(&self) -> usize;
    /// Build op `i` of a pass. Not timed.
    fn prepare(&mut self, i: usize) -> Self::Req;
    /// The untimed, checked warm-up ops that end set-up.
    fn warm_up_reqs(&mut self) -> Vec<Self::Req>;
    /// The op, as a user runs it. Timed.
    fn run(&mut self, req: &Self::Req) -> Self::Resp;
    /// The op split into timed calls of each layer, doing the same work.
    fn run_traced(&mut self, req: &Self::Req, tr: &mut Trace) -> Self::Resp;
    /// Extra per-layer probes of the op just traced; outside its CPU window.
    fn probe(&mut self, _tr: &mut Trace) {}
    /// Check the output. `Ok` carries the op's verdict line, which must be
    /// the same on every pass; `Err` says why the op failed.
    fn check(&mut self, req: &Self::Req, resp: Self::Resp) -> Result<String, String>;
    /// Whole-run layer metrics read after the traced pass.
    fn finish_trace(&mut self, _tr: &mut Trace) {}
}

/// The generator seeds of the `difftest` and `sched` warm-up ops: the same
/// block for every workload seed, so set-up time does not depend on the
/// order the seed gave the pool. A block rather than one program, so that
/// set-up is long enough (a few hundred milliseconds) for a short burst of
/// host interference not to move it.
pub fn warm_up_seeds(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

/// The generator seeds `0..n` in an order drawn from the workload seed.
///
/// The pool is a fixed block of programs and the workload seed only orders
/// it: per-program cost is heavy-tailed, so a pool drawn at random would
/// move every mean-based metric with the seed (see `README.md`).
pub fn shuffled_block(n: usize, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n as u64).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Failures of one run, counted against attempts.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// Verdict line of each op of the first pass.
    first_pass: Vec<String>,
}

impl Tally {
    /// Count one checked op at position `i` of pass `pass`. A later pass
    /// must repeat the first pass's verdict line exactly.
    fn record(&mut self, pass: usize, i: usize, verdict: Result<String, String>) {
        self.attempted += 1;
        match verdict {
            Ok(line) if pass == 0 => self.first_pass.push(line),
            Ok(line) if self.first_pass.get(i) == Some(&line) => {}
            Ok(line) => {
                self.failed += 1;
                eprintln!("op {i} of pass {pass}: verdict `{line}` differs from pass 0");
            }
            Err(e) => {
                self.failed += 1;
                if pass == 0 {
                    // Keep the first pass aligned for later comparisons.
                    self.first_pass.push(format!("failed: {e}"));
                }
                eprintln!("op {i} of pass {pass} failed: {e}");
            }
        }
    }

    /// FNV-1a over the first pass's verdict lines in sorted order, so it
    /// does not depend on the order the workload seed gave the pool.
    pub fn checksum(&self) -> String {
        let mut lines: Vec<&str> = self.first_pass.iter().map(String::as_str).collect();
        lines.sort_unstable();
        fnv_hex(lines.join("\n").as_bytes())
    }
}

/// End-to-end figures of one untraced run.
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub cpu_ms_per_op: f64,
    pub op_ms_p50: f64,
    pub op_ms_p90: f64,
    pub rss_peak_mb: f64,
    pub passes: usize,
    pub tally: Tally,
}

/// Build the workload and run its untimed, checked warm-up ops. Returns it
/// with the wall time this took.
pub fn set_up<W: Workload>(
    build: &mut impl FnMut() -> Result<W, String>,
) -> Result<(W, f64), String> {
    let t = Instant::now();
    let mut w = build()?;
    for req in w.warm_up_reqs() {
        let resp = w.run(&req);
        w.check(&req, resp)?;
    }
    Ok((w, t.elapsed().as_secs_f64()))
}

/// Fewest timed ops in a run, so that the 90th percentile has at least ten
/// samples beyond it.
const MIN_OPS: usize = 100;

/// The untraced closed loop: set-up, then whole passes over the pool, as
/// many as fit in `seconds` (at least one, and at least [`MIN_OPS`] ops), so
/// every run measures the same mix of inputs however fast the host ran.
/// Throughput and CPU cost are medians over the passes, so a burst of host
/// interference during one pass does not move them.
///
/// Set-up is timed `setup_reps` times: once before the first pass, then
/// between passes, each repetition building a fresh instance that is
/// dropped again. The repetitions are spread over the run because set-up
/// lasts well under a second: repeated back to back, a stretch of host
/// interference of a few seconds moved all of them together.
pub fn run_loop<W: Workload>(
    setup_reps: usize,
    mut build: impl FnMut() -> Result<W, String>,
    seconds: f64,
) -> Result<EndToEnd, String> {
    let (mut w, t) = set_up(&mut build)?;
    let mut setup_times = vec![t];
    let mut lat_ms = Vec::new();
    let mut pass_ops_per_s = Vec::new();
    let mut pass_cpu_ms_per_op = Vec::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut passes = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let next_pass_fits = passes > 0 && elapsed * (passes + 1) as f64 / passes as f64 <= seconds;
        if passes > 0 && lat_ms.len() >= MIN_OPS && !next_pass_fits {
            break;
        }
        let (mut busy_s, mut cpu_s) = (0.0, 0.0);
        for i in 0..w.pass_len() {
            let req = w.prepare(i);
            let c0 = process_cpu_s();
            let t0 = Instant::now();
            let resp = w.run(&req);
            let dt = t0.elapsed().as_secs_f64();
            cpu_s += process_cpu_s() - c0;
            busy_s += dt;
            lat_ms.push(dt * 1e3);
            let verdict = w.check(&req, resp);
            tally.record(passes, i, verdict);
        }
        pass_ops_per_s.push(w.pass_len() as f64 / busy_s);
        pass_cpu_ms_per_op.push(cpu_s * 1e3 / w.pass_len() as f64);
        passes += 1;
        let due = seconds * setup_times.len() as f64 / setup_reps as f64;
        if setup_times.len() < setup_reps && start.elapsed().as_secs_f64() >= due {
            setup_times.push(set_up(&mut build)?.1);
        }
    }
    Ok(EndToEnd {
        setup_s: median(&mut setup_times),
        ops_per_s: median(&mut pass_ops_per_s),
        cpu_ms_per_op: median(&mut pass_cpu_ms_per_op),
        op_ms_p50: quantile(&mut lat_ms, 0.5),
        op_ms_p90: quantile(&mut lat_ms, 0.9),
        rss_peak_mb: rss_peak_mb(),
        passes,
        tally,
    })
}

/// The traced run: one untraced reference pass, then one traced pass over
/// the whole pool. Returns the layer sums and the tally of the traced pass.
pub fn run_traced<W: Workload>(w: &mut W) -> (Trace, Tally) {
    let started = Instant::now();
    let mut tr = Trace::default();

    // Reference pass: the untraced op, for the trace overhead and the
    // thread-pool figures of the op as users run it.
    let pools0 = pool_stats();
    let mut ref_cpu = 0.0;
    let mut reference = Tally::default();
    for i in 0..w.pass_len() {
        let req = w.prepare(i);
        let c0 = process_cpu_s();
        let resp = w.run(&req);
        ref_cpu += process_cpu_s() - c0;
        let verdict = w.check(&req, resp);
        reference.record(0, i, verdict);
    }
    let pools1 = pool_stats();
    let ref_s = started.elapsed().as_secs_f64();
    tr.set("par.pools", (pools1.pools - pools0.pools) as f64);
    tr.set("par.items", (pools1.items - pools0.items) as f64);
    tr.set("par.workers_max", pools1.workers_max as f64);

    // Traced pass over the same pool: the traced op must reach the same
    // verdicts as the reference pass.
    let mut tally = Tally::default();
    let mut traced_cpu = 0.0;
    for i in 0..w.pass_len() {
        let req = w.prepare(i);
        let c0 = process_cpu_s();
        let resp = w.run_traced(&req, &mut tr);
        traced_cpu += process_cpu_s() - c0;
        w.probe(&mut tr);
        let verdict = w.check(&req, resp);
        tally.record(0, i, verdict);
    }
    if reference.checksum() != tally.checksum() {
        eprintln!(
            "traced pass verdicts {} differ from the untraced pass {}",
            tally.checksum(),
            reference.checksum()
        );
        tally.failed = tally.failed.max(1);
    }
    eprintln!(
        "perfledger: reference pass {ref_s:.2} s, traced pass with probes {:.2} s",
        started.elapsed().as_secs_f64() - ref_s
    );
    w.finish_trace(&mut tr);
    tr.set("trace.overhead_pct", 100.0 * (traced_cpu / ref_cpu - 1.0));
    (tr, tally)
}
