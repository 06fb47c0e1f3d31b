//! Host readings: process CPU time, peak resident set, CPU steal and a
//! fixed calibration loop. None of them depends on the program under test;
//! they let a reader tell host drift from a change in the code.

use std::hint::black_box;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread of
/// the process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time in seconds (utime + stime over all threads, exited
/// pool workers included). Time stolen by the hypervisor is not in it.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // of 64-bit Linux (two 64-bit fields); `clock_gettime` writes only into
    // it and keeps no pointer after returning.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate CPU tick counters of the host from the `cpu` line of
/// `/proc/stat`: `(steal, total)`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so only the first 8 add up.
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Steal time of the host over an interval, from `/proc/stat`.
pub struct StealMeter {
    start: (u64, u64),
}

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter { start: cpu_ticks() }
    }

    /// Share of all CPU ticks since [`StealMeter::start`] that the
    /// hypervisor gave to other guests, in percent.
    pub fn steal_pct(&self) -> f64 {
        let (steal, total) = cpu_ticks();
        let dt = total.saturating_sub(self.start.1);
        if dt == 0 {
            return 0.0;
        }
        100.0 * steal.saturating_sub(self.start.0) as f64 / dt as f64
    }
}

/// Wall time of a fixed integer loop (median of five), in milliseconds. The
/// loop is the same on every commit, so a shift in it is a shift of the
/// host.
pub fn calibration_ms() -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x: u64 = black_box(0x9e37_79b9_7f4a_7c15);
            for i in 0..20_000_000u64 {
                x = x.rotate_left(5) ^ i.wrapping_mul(0xff51_afd7_ed55_8ccd);
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&mut runs)
}
