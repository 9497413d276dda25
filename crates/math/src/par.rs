//! Deterministic parallel execution for Monte-Carlo sweeps.
//!
//! Every heavy loop in this workspace is embarrassingly parallel: PER
//! sweeps over independent frame trials, mesh coverage over independent
//! sample points, MAC ensembles over independent seeds. This module is the
//! one scheduling substrate they all share, built so that **parallelism can
//! never change a result**:
//!
//! - Work items are indexed, and every item derives whatever randomness it
//!   needs from a stream forked off the master seed with a *stable* stream
//!   id (see [`crate::rng::WlanRng::fork`]) — never from "whichever
//!   generator state the previous item left behind".
//! - [`parallel_map`] returns results **in item order** regardless of which
//!   worker computed what, so reductions run in a fixed order and floating
//!   point sums cannot be reassociated by scheduling.
//! - The worker count (the `WLAN_THREADS` knob) therefore only affects
//!   wall-clock time: `WLAN_THREADS=1` runs the exact serial loop in item
//!   order, and any other count produces bit-identical output.
//!
//! The pool is scoped [`std::thread`] — no registry dependencies, no global
//! state, threads live only for the duration of one call. Work is handed
//! out item-by-item from an atomic cursor, which load-balances well when
//! items have uneven cost (e.g. LDPC trials next to DSSS trials).
//!
//! # The `WLAN_THREADS` knob
//!
//! | value | meaning |
//! |---|---|
//! | unset | use [`std::thread::available_parallelism`] |
//! | `1` | exact serial path: no threads spawned |
//! | `N > 1` | at most `N` workers |
//! | `0` / unparsable | warn once on stderr, fall back to the default |
//!
//! # Examples
//!
//! ```
//! use wlan_math::par;
//! use wlan_math::rng::{Rng, WlanRng};
//!
//! let master = WlanRng::seed_from_u64(42);
//! let items: Vec<u64> = (0..64).collect();
//! let sums = par::parallel_map(&items, |i, _| {
//!     let mut rng = master.fork(i as u64); // stable per-item stream
//!     (0..100).map(|_| rng.gen::<f64>()).sum::<f64>()
//! });
//! // Bit-identical at any thread count:
//! let serial = par::parallel_map_with_threads(1, &items, |i, _| {
//!     let mut rng = master.fork(i as u64);
//!     (0..100).map(|_| rng.gen::<f64>()).sum::<f64>()
//! });
//! assert_eq!(sums, serial);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Once, OnceLock};

/// Environment variable selecting the worker count.
pub const THREADS_ENV: &str = "WLAN_THREADS";

/// Pool-level observability counters (`par.calls` fan-out invocations,
/// `par.items` work items scheduled). Resolved once per process; a
/// disabled recorder makes each update a single relaxed load. Recording
/// is write-only — it can never influence scheduling or results (see
/// the `wlan_obs` determinism guarantee).
fn obs_counters() -> &'static (wlan_obs::Counter, wlan_obs::Counter) {
    static COUNTERS: OnceLock<(wlan_obs::Counter, wlan_obs::Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let obs = wlan_obs::global();
        (obs.counter("par.calls"), obs.counter("par.items"))
    })
}

/// The worker count the harness will use: `WLAN_THREADS` if set and sane,
/// otherwise the machine's available parallelism.
///
/// A value of `0` or an unparsable string warns once on stderr and falls
/// back to the default rather than silently doing something surprising.
pub fn num_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                static WARN: Once = Once::new();
                WARN.call_once(|| {
                    eprintln!(
                        "warning: ignoring {THREADS_ENV}={raw:?} (want an integer >= 1); \
                         using available parallelism"
                    );
                });
                available_parallelism()
            }
        },
        Err(_) => available_parallelism(),
    }
}

/// The machine's available parallelism (1 when it cannot be determined).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `f` over `items` on the [`num_threads`] worker pool, returning
/// results in item order.
///
/// `f` receives `(index, &item)` and **must be a pure function of those**
/// (derive per-item RNG streams from the index, never from shared mutable
/// state); under that contract the output is bit-identical at any thread
/// count. Results are collected and reordered by index before returning,
/// so callers can fold them in a fixed order.
///
/// If `f` panics on any item, the panic is propagated to the caller after
/// the pool drains (first panicking worker wins).
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    parallel_map_with_threads(num_threads(), items, f)
}

/// [`parallel_map`] with an explicit worker count, bypassing the
/// `WLAN_THREADS` environment knob (used by the determinism tests to pin
/// thread counts without process-global environment races).
pub fn parallel_map_with_threads<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let (calls, scheduled) = obs_counters();
    calls.inc();
    scheduled.add(n as u64);
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        // The exact serial path: same calls, same order, no threads.
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, U)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => indexed.extend(part),
                // A worker panicked: surface the original payload to the
                // caller exactly as the serial loop would have.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

/// Splits `0..len` into contiguous batches of at most `batch` elements.
///
/// Batch boundaries are a pure function of `(len, batch)` — independent of
/// the worker count — so a caller that reduces per-batch partials in batch
/// order gets bit-identical floating-point sums at any thread count.
///
/// Returns an empty vector when `len == 0`; a `batch` of `0` is treated
/// as `1`.
pub fn batches(len: usize, batch: usize) -> Vec<std::ops::Range<usize>> {
    let batch = batch.max(1);
    (0..len)
        .step_by(batch)
        .map(|start| start..(start + batch).min(len))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, WlanRng};

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 8] {
            let out = parallel_map_with_threads(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn thread_count_cannot_change_results() {
        let master = WlanRng::seed_from_u64(7);
        let items: Vec<u64> = (0..40).collect();
        let run = |threads| {
            parallel_map_with_threads(threads, &items, |i, _| {
                let mut rng = master.fork(i as u64);
                (0..50).map(|_| rng.gen::<f64>()).sum::<f64>()
            })
        };
        let serial = run(1);
        for threads in [2, 3, 4, 16] {
            assert_eq!(run(threads), serial, "{threads} threads diverged");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map_with_threads(4, &none, |_, &x| x).is_empty());
        assert_eq!(parallel_map_with_threads(4, &[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..8).collect();
        let out = std::panic::catch_unwind(|| {
            parallel_map_with_threads(2, &items, |i, _| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(out.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn batches_cover_exactly_once() {
        for (len, batch) in [(0usize, 8usize), (1, 8), (7, 8), (8, 8), (9, 8), (40, 8), (5, 0)] {
            let bs = batches(len, batch);
            let mut covered = Vec::new();
            for b in &bs {
                covered.extend(b.clone());
            }
            assert_eq!(covered, (0..len).collect::<Vec<_>>(), "len {len} batch {batch}");
        }
    }

    #[test]
    fn batches_are_thread_count_independent_by_construction() {
        // The partition depends only on (len, batch): identical inputs give
        // identical boundaries, which is what lets float reductions over
        // per-batch partials stay bit-identical at any worker count.
        assert_eq!(batches(20, 8), batches(20, 8));
        assert_eq!(batches(20, 8), vec![0..8, 8..16, 16..20]);
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map_with_threads(0, &items, |_, &x| x), vec![1, 2, 3]);
    }
}
