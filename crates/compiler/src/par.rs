//! A deterministic scoped-thread worker pool (the throughput layer's
//! execution engine).
//!
//! The CompCertO pipeline makes translation *units* independent once the
//! shared symbol table is built (paper §3.4, App. A.3): every per-unit pass
//! chain, every fault-injection probe and every validation compile is a pure
//! function of its inputs. That independence is what legitimizes fanning the
//! work out over threads **without touching the semantics** — and what makes
//! it easy to keep the output *byte-identical* to the serial run:
//!
//! * work items are distributed by an atomic index counter (no work list
//!   locking, no per-item channel traffic);
//! * each worker tags every result with the item's original index;
//! * the pool reassembles results **in index order** before returning.
//!
//! The only nondeterminism in a parallel run is *which worker* computed a
//! result, and that never escapes this module. `jobs = 1` (or a single-item
//! input) bypasses the pool entirely and runs the exact serial loop.
//!
//! # Self-healing (resilience layer, DESIGN.md §11)
//!
//! The pool contains worker panics instead of letting them unwind out of
//! the dispatch loop. Every item runs under
//! [`crate::resilience::contain_unwind`]; an item whose closure panics is
//! retried **exactly once**, immediately, on the same (surviving) worker.
//! A transient panic — an injected environment fault, a poisoned cache line
//! of infrastructure state — therefore heals invisibly: the output is
//! byte-identical to the panic-free run. An item that panics twice is
//! treated as deterministically poisoned; the pool finishes every other
//! item, then re-raises the panic of the *lowest-indexed* twice-panicking
//! item (exactly the one the serial loop would have died on). Containment
//! also means a panic can never strand the atomic dispatch index mid-batch:
//! workers always run their loop to completion, so every `join` returns and
//! the pool cannot hang (regression-tested below).
//!
//! # Nested pools run inline
//!
//! A pool started from inside a pool item (a `compile_all` inside a
//! campaign seed, say) runs its items on the item's own thread, as if its
//! `jobs` were 1. This is a policy, not an option. The outer pool already
//! occupies the cores, so nested fan-out would only oversubscribe them
//! (`jobs × cores` threads). It would also move the inner work onto helper
//! threads whose thread-local state the item never sees: the deterministic
//! counters of [`crate::obs`] and the fault arming of [`crate::envfault`].
//! Run inline, an item's counters are a fact about its work, the same on
//! one core as on sixteen. Top-level calls keep their full fan-out.
//!
//! Everything here is `std`-only (`std::thread::scope`); the workspace stays
//! offline and dependency-free.

use std::any::Any;
use std::cell::Cell;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::resilience::contain_unwind;

// ---------------------------------------------------------------------------
// Pool occupancy stats (observability layer, DESIGN.md §10)
// ---------------------------------------------------------------------------

static POOL_POOLS: AtomicU64 = AtomicU64::new(0);
static POOL_ITEMS: AtomicU64 = AtomicU64::new(0);
static POOL_WORKERS_MAX: AtomicU64 = AtomicU64::new(0);
static POOL_BUSIEST: AtomicU64 = AtomicU64::new(0);

/// Cumulative process-wide pool statistics.
///
/// These are *scheduling* observations — `busiest_worker_items` depends on
/// which worker won the atomic-index race — so the metrics reports place
/// them in the volatile `pool` section that
/// [`crate::obs::normalize_metrics_json`] strips before any byte
/// comparison. They are reported for humans, never gated.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Pooled map invocations ([`par_map`] + [`try_par_map`]).
    pub pools: u64,
    /// Total items dispatched across all pools.
    pub items: u64,
    /// Largest worker count any pool resolved to.
    pub workers_max: u64,
    /// Most items any single worker processed in one pool (occupancy
    /// skew; equals the pool's item count in a serial run).
    pub busiest_worker_items: u64,
}

/// Read the cumulative process-wide [`PoolStats`].
#[must_use]
pub fn pool_stats() -> PoolStats {
    PoolStats {
        pools: POOL_POOLS.load(Ordering::Relaxed),
        items: POOL_ITEMS.load(Ordering::Relaxed),
        workers_max: POOL_WORKERS_MAX.load(Ordering::Relaxed),
        busiest_worker_items: POOL_BUSIEST.load(Ordering::Relaxed),
    }
}

fn note_pool(workers: usize, items: usize) {
    POOL_POOLS.fetch_add(1, Ordering::Relaxed);
    POOL_ITEMS.fetch_add(items as u64, Ordering::Relaxed);
    POOL_WORKERS_MAX.fetch_max(workers as u64, Ordering::Relaxed);
}

fn note_worker_items(n: usize) {
    POOL_BUSIEST.fetch_max(n as u64, Ordering::Relaxed);
}

/// Degree of parallelism for a pooled operation.
///
/// `Auto` resolves to [`available_parallelism`] at the call site; `N(1)`
/// preserves today's exact serial behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Jobs {
    /// Use every hardware thread the host reports.
    Auto,
    /// Use exactly this many workers (`0` is treated as `Auto`).
    N(usize),
}

impl Default for Jobs {
    fn default() -> Self {
        Jobs::Auto
    }
}

impl Jobs {
    /// Resolve to a concrete worker count (≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Jobs::Auto | Jobs::N(0) => available_parallelism(),
            Jobs::N(n) => n,
        }
    }

    /// Parse a `--jobs` command-line value (`0` or `auto` = [`Jobs::Auto`]).
    ///
    /// # Errors
    /// Reports a value that is neither `auto` nor a natural number.
    pub fn parse(s: &str) -> Result<Jobs, String> {
        if s == "auto" {
            return Ok(Jobs::Auto);
        }
        s.parse::<usize>()
            .map(|n| if n == 0 { Jobs::Auto } else { Jobs::N(n) })
            .map_err(|e| format!("--jobs: {e}"))
    }
}

/// The number of hardware threads available to this process (≥ 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A contained panic: the payload (for faithful re-raising) plus its
/// rendered message (for diagnostics).
type PanicRecord = (Box<dyn Any + Send>, String);

thread_local! {
    /// Set while this thread runs a pool item; a pool started meanwhile
    /// runs inline (see the module docs).
    static IN_ITEM: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running a pool item until dropped, then
/// restores the previous mark (so an unwinding item cannot leave it set).
struct ItemGuard(bool);

impl ItemGuard {
    fn enter() -> ItemGuard {
        ItemGuard(IN_ITEM.with(|c| c.replace(true)))
    }
}

impl Drop for ItemGuard {
    fn drop(&mut self) {
        IN_ITEM.with(|c| c.set(self.0));
    }
}

/// Run item `i` through the worker-panic injection point and `run`,
/// containing any panic and retrying **exactly once** on the same
/// (surviving) worker. `Err` carries the second, deterministic panic.
fn run_healed<R>(i: usize, run: impl Fn() -> R) -> Result<R, PanicRecord> {
    let _item = ItemGuard::enter();
    match contain_unwind(|| {
        crate::envfault::maybe_worker_panic(i);
        run()
    }) {
        Ok(r) => Ok(r),
        // First panic: contained; the item is requeued once, immediately.
        // (The injection point is one-shot, so an injected fault cannot
        // re-fire here; a genuine deterministic panic will.)
        Err(_first) => contain_unwind(run),
    }
}

/// Re-raise the lowest-indexed twice-panicking item — the panic the serial
/// loop would have surfaced — after printing the contained message (the
/// quiet panic hook suppressed it when it first fired).
fn reraise(i: usize, record: PanicRecord) -> ! {
    let (payload, msg) = record;
    eprintln!("par: item {i} panicked twice (not healable): {msg}");
    std::panic::resume_unwind(payload)
}

/// Map `f` over `items` on a pool of `jobs` workers, returning the results
/// **in input order** (byte-identical to the serial map; see the module
/// docs for the determinism argument).
///
/// `f` receives the item's index alongside the item, so callers can key
/// per-item context (seeds, labels) off the input position rather than off
/// scheduling order.
pub fn par_map<T, R, F>(jobs: Jobs, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_par_map(jobs, items, |i, t| Ok::<R, Infallible>(f(i, t))) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// [`par_map`] for fallible item functions, with serial error semantics:
/// the returned error is the one the *serial* loop would have hit first
/// (the failing item with the smallest index), regardless of which worker
/// saw its error first or how items were batched across workers.
///
/// Two failures in the same dispatch batch therefore race only on *who
/// records first*, never on *which error is returned*: every worker
/// publishes the lowest failing index it has seen, items above the current
/// lowest failure are skipped (the serial loop would never have reached
/// them), and the final selection takes the minimum index across all
/// workers. This also means a panic in an item *after* the first failing
/// index cannot mask the error the serial loop would have reported —
/// previously the whole input was mapped eagerly and such a panic won.
///
/// # Errors
/// The error of the lowest-indexed failing item.
pub fn try_par_map<T, R, E, F>(jobs: Jobs, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let workers = if IN_ITEM.with(Cell::get) {
        1
    } else {
        jobs.resolve().min(items.len().max(1))
    };
    note_pool(workers, items.len());
    if workers <= 1 || items.len() <= 1 {
        // Exact serial behavior: stop at the first error — with the same
        // single-retry healing as the pooled path.
        note_worker_items(items.len());
        let mut out = Vec::with_capacity(items.len());
        for (i, t) in items.iter().enumerate() {
            match run_healed(i, || f(i, t)) {
                Ok(r) => out.push(r?),
                Err(record) => reraise(i, record),
            }
        }
        return Ok(out);
    }
    let next = AtomicUsize::new(0);
    // Lowest failing index seen so far, across all workers.
    let first_err = AtomicUsize::new(usize::MAX);
    let poisoned: Mutex<Vec<(usize, PanicRecord)>> = Mutex::new(Vec::new());
    let mut oks: Vec<(usize, R)> = Vec::with_capacity(items.len());
    let mut errs: Vec<(usize, E)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let first_err = &first_err;
            let poisoned = &poisoned;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut ok: Vec<(usize, R)> = Vec::new();
                let mut err: Vec<(usize, E)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    // Items past the lowest known failure cannot change the
                    // result (the serial loop would already have returned);
                    // skip them. Items *below* it must still run — one of
                    // them may fail with an even lower index.
                    if i > first_err.load(Ordering::Relaxed) {
                        continue;
                    }
                    match run_healed(i, || f(i, &items[i])) {
                        Ok(Ok(r)) => ok.push((i, r)),
                        Ok(Err(e)) => {
                            first_err.fetch_min(i, Ordering::Relaxed);
                            err.push((i, e));
                        }
                        // A twice-panicking item is recorded, never
                        // unwound: the dispatch loop always completes, so
                        // no join can hang on a stranded index. (A healed
                        // single panic records nothing — and does not touch
                        // `first_err`, since the item succeeded.)
                        Err(record) => {
                            if let Ok(mut p) = poisoned.lock() {
                                p.push((i, record));
                            }
                        }
                    }
                }
                note_worker_items(ok.len() + err.len());
                (ok, err)
            }));
        }
        for h in handles {
            // Workers contain every item panic, so `join` cannot fail.
            if let Ok((ok, err)) = h.join() {
                oks.extend(ok);
                errs.extend(err);
            }
        }
    });
    let poisoned = poisoned
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Selection is by index, not by arrival, for errors *and* panics: the
    // serial loop surfaces whichever failing index is lowest, so the pool
    // must too — a panic after the first failing error index never wins,
    // and vice versa.
    let min_panic = poisoned.into_iter().min_by_key(|(i, _)| *i);
    let min_err = errs.into_iter().min_by_key(|(i, _)| *i);
    match (min_panic, min_err) {
        (Some((pi, record)), Some((ei, _))) if pi < ei => reraise(pi, record),
        (Some((pi, record)), None) => reraise(pi, record),
        (_, Some((_, e))) => Err(e),
        (None, None) => {
            debug_assert_eq!(oks.len(), items.len(), "no error implies full coverage");
            oks.sort_by_key(|(i, _)| *i);
            Ok(oks.into_iter().map(|(_, r)| r).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for jobs in [Jobs::N(1), Jobs::N(2), Jobs::N(7), Jobs::Auto] {
            let out = par_map(jobs, &items, |i, x| {
                assert_eq!(i as u64, *x);
                x * 3 + 1
            });
            let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            assert_eq!(out, serial, "jobs={jobs:?}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = vec![];
        assert!(par_map(Jobs::Auto, &none, |_, x| *x).is_empty());
        assert_eq!(par_map(Jobs::N(8), &[5u32], |_, x| x + 1), vec![6]);
    }

    #[test]
    fn error_is_first_by_index_not_by_schedule() {
        let items: Vec<u32> = (0..100).collect();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            let r: Result<Vec<u32>, u32> = try_par_map(jobs, &items, |_, x| {
                if *x % 7 == 3 {
                    Err(*x)
                } else {
                    Ok(*x)
                }
            });
            // Serial loop hits item 3 first (3 % 7 == 3).
            assert_eq!(r.unwrap_err(), 3, "jobs={jobs:?}");
        }
    }

    /// Two failures in the *same dispatch batch*: with `jobs = 4` the first
    /// four items are claimed simultaneously, and whichever worker errors
    /// first must not decide the result. Run many rounds to give the race
    /// every chance to pick the wrong one, across jobs 1/4/16.
    #[test]
    fn adjacent_failures_in_one_batch_pick_lowest_index() {
        let items: Vec<u32> = (0..32).collect();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            for round in 0..50 {
                let r: Result<Vec<u32>, u32> = try_par_map(jobs, &items, |i, x| {
                    // Items 1 and 2 both fail; item 2 does so *instantly*
                    // while item 1 spins first, so arrival order is
                    // routinely 2-before-1 on a real scheduler.
                    match i {
                        1 => {
                            for _ in 0..(round * 200) {
                                std::hint::black_box(());
                            }
                            Err(*x)
                        }
                        2 => Err(*x),
                        _ => Ok(*x),
                    }
                });
                assert_eq!(r.unwrap_err(), 1, "jobs={jobs:?} round={round}");
            }
        }
    }

    /// The all-`Ok` path returns the full result vector in input order for
    /// every worker count (same contract as `par_map`).
    #[test]
    fn try_par_map_ok_path_matches_serial() {
        let items: Vec<u64> = (0..101).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 2 + 1).collect();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            let r: Result<Vec<u64>, ()> = try_par_map(jobs, &items, |_, x| Ok(x * 2 + 1));
            assert_eq!(r.unwrap(), serial, "jobs={jobs:?}");
        }
    }

    /// Once a low-index failure is known, items past it are skipped — the
    /// serial loop would never have run them, and their errors must never
    /// win. Item 0 fails immediately; a high item records whether it ran
    /// after the failure was published.
    #[test]
    fn errors_after_the_first_failing_index_never_win() {
        let items: Vec<u32> = (0..64).collect();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            let r: Result<Vec<u32>, u32> = try_par_map(jobs, &items, |i, x| {
                if i == 0 || i >= 32 {
                    Err(*x)
                } else {
                    Ok(*x)
                }
            });
            assert_eq!(r.unwrap_err(), 0, "jobs={jobs:?}");
        }
    }

    /// A transient panic (fires exactly once, then the retry succeeds)
    /// must heal invisibly: the output is byte-identical to the panic-free
    /// run, across jobs 1/4/16.
    #[test]
    fn transient_panic_heals_with_identical_output() {
        use std::sync::atomic::AtomicBool;
        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 5 + 2).collect();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            let fired = AtomicBool::new(false);
            let out = par_map(jobs, &items, |i, x| {
                if i == 13 && !fired.swap(true, Ordering::SeqCst) {
                    panic!("transient infrastructure fault");
                }
                x * 5 + 2
            });
            assert_eq!(out, serial, "jobs={jobs:?}");
            assert!(fired.load(Ordering::SeqCst));
        }
    }

    /// A deterministic (twice-panicking) item re-raises its panic after the
    /// rest of the batch completes — and the *lowest* poisoned index wins,
    /// whatever the schedule.
    #[test]
    fn deterministic_panic_propagates_lowest_index() {
        let items: Vec<u64> = (0..48).collect();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            let r = crate::resilience::contain(|| {
                par_map(jobs, &items, |i, x| {
                    if i == 7 || i == 29 {
                        panic!("poisoned item {i}");
                    }
                    x + 1
                })
            });
            assert_eq!(r, Err("poisoned item 7".to_string()), "jobs={jobs:?}");
        }
    }

    /// try_par_map: a deterministic panic below the first failing error
    /// index wins; a panic above it loses to the error — serial semantics
    /// either way, across jobs 1/4/16.
    #[test]
    fn try_par_map_ranks_panics_and_errors_by_index() {
        let items: Vec<u32> = (0..32).collect();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            // Panic at 2, error at 5: the panic is first in serial order.
            let r = crate::resilience::contain(|| {
                try_par_map(jobs, &items, |i, x| match i {
                    2 => panic!("poisoned item 2"),
                    5 => Err(*x),
                    _ => Ok(*x),
                })
            });
            assert_eq!(r, Err("poisoned item 2".to_string()), "jobs={jobs:?}");
            // Error at 3, panic at 20: the error is first in serial order.
            let r = crate::resilience::contain(|| {
                try_par_map(jobs, &items, |i, x| match i {
                    3 => Err(*x),
                    20 => panic!("poisoned item 20"),
                    _ => Ok(*x),
                })
            });
            assert_eq!(r, Ok(Err(3)), "jobs={jobs:?}");
        }
    }

    /// Regression (ISSUE 6 satellite): a panicking worker must not strand
    /// the dispatch index or hang the remaining joins. Many items, several
    /// deterministic panics, a full worker complement — the call must
    /// return (with the lowest panic) rather than deadlock.
    #[test]
    fn panicking_workers_cannot_hang_the_pool() {
        let items: Vec<u32> = (0..256).collect();
        let r = crate::resilience::contain(|| {
            try_par_map(Jobs::N(16), &items, |i, x| {
                if i % 61 == 17 {
                    panic!("poisoned item {i}");
                }
                Ok::<u32, u32>(*x)
            })
        });
        assert_eq!(r, Err("poisoned item 17".to_string()));
    }

    /// A transient panic in try_par_map heals and the error semantics are
    /// untouched: the healed item contributes its value, the batch agrees
    /// with the serial result.
    #[test]
    fn try_par_map_transient_panic_heals() {
        use std::sync::atomic::AtomicBool;
        let items: Vec<u64> = (0..40).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            let fired = AtomicBool::new(false);
            let r: Result<Vec<u64>, ()> = try_par_map(jobs, &items, |i, x| {
                if i == 9 && !fired.swap(true, Ordering::SeqCst) {
                    panic!("transient fault");
                }
                Ok(x * 3)
            });
            assert_eq!(r, Ok(serial.clone()), "jobs={jobs:?}");
        }
    }

    /// The envfault worker-panic injection is contained, the item requeued
    /// once, and the output identical to the unfaulted run.
    #[test]
    fn injected_worker_panic_is_healed() {
        let items: Vec<u64> = (0..32).collect();
        let expected: Vec<u64> = items.iter().map(|x| x ^ 0xAB).collect();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            crate::envfault::arm_worker_panic(11);
            let out = par_map(jobs, &items, |_, x| x ^ 0xAB);
            assert_eq!(out, expected, "jobs={jobs:?}");
            assert!(
                !crate::envfault::worker_panic_pending(),
                "the armed fault must have fired (jobs={jobs:?})"
            );
        }
    }

    /// A pool started inside a pool item runs every inner item on the
    /// outer item's thread, whatever the inner `jobs`, under a serial and
    /// a threaded outer pool.
    #[test]
    fn nested_pool_runs_on_the_items_own_thread() {
        let outer: Vec<u32> = (0..8).collect();
        let inner: Vec<u32> = (0..16).collect();
        for jobs in [Jobs::N(1), Jobs::N(4)] {
            let inline = par_map(jobs, &outer, |_, _| {
                let me = std::thread::current().id();
                par_map(Jobs::N(4), &inner, |_, _| std::thread::current().id() == me)
                    .into_iter()
                    .all(|same| same)
            });
            assert!(inline.into_iter().all(|same| same), "jobs={jobs:?}");
            assert!(!IN_ITEM.with(Cell::get), "jobs={jobs:?}");
        }
    }

    /// A deterministic panic in an inner item unwinds through both pools
    /// and leaves the nesting mark as it found it: still set inside the
    /// outer item, clear outside every pool.
    #[test]
    fn panicking_inner_item_restores_the_nesting_mark() {
        let inner: Vec<u32> = (0..4).collect();
        for jobs in [Jobs::N(1), Jobs::N(4)] {
            let marks = par_map(jobs, &[0u32, 1], |_, _| {
                let r = crate::resilience::contain(|| {
                    par_map(Jobs::N(4), &inner, |i, x| {
                        if i == 2 {
                            panic!("poisoned inner item");
                        }
                        *x
                    })
                });
                (r.is_err(), IN_ITEM.with(Cell::get))
            });
            assert_eq!(marks, vec![(true, true); 2], "jobs={jobs:?}");
            let r = crate::resilience::contain(|| {
                par_map(jobs, &inner, |_, _| -> u32 {
                    panic!("poisoned outer item")
                })
            });
            assert!(r.is_err());
            assert!(!IN_ITEM.with(Cell::get), "jobs={jobs:?}");
        }
    }

    #[test]
    fn jobs_parse_and_resolve() {
        assert_eq!(Jobs::parse("auto"), Ok(Jobs::Auto));
        assert_eq!(Jobs::parse("0"), Ok(Jobs::Auto));
        assert_eq!(Jobs::parse("3"), Ok(Jobs::N(3)));
        assert!(Jobs::parse("three").is_err());
        assert!(Jobs::Auto.resolve() >= 1);
        assert_eq!(Jobs::N(5).resolve(), 5);
    }
}
