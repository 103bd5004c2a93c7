//! Per-thread scratch buffers for the fused HMVP kernels.
//!
//! The dot phase runs one [`cham_math::rns::FusedAccumulator`] pair per row;
//! backing those with freshly allocated `u128` vectors would put two heap
//! allocations back on every row — exactly the churn the fused kernel
//! removes. Instead, each thread keeps a small stack of released buffers
//! in a thread-local, so the steady state recycles one scratch pair per
//! thread with no lock at all. `cham-pool` workers are long-lived
//! threads, so their stacks persist across dot phases.
//!
//! Ownership rules:
//! * a scratch is owned exclusively for the duration of one
//!   [`with_dot_scratch`] call and returned to the calling thread's stack
//!   afterwards,
//! * buffers are size-matched, never resized — a request for an unseen
//!   `(degree, limbs)` shape allocates (a *miss*) and the buffer joins the
//!   stack on release,
//! * stack depth is bounded ([`MAX_PER_SLOT`]); releasing into a full
//!   stack drops the least recently used buffer, so the shape in current
//!   use always stays pooled.
//!
//! Hit/miss counts are always-on: process-wide atomics (like the pool
//! stats from `cham-pool`) that run records report without the
//! `telemetry` feature, plus per-thread counts that let this module's
//! tests measure their own thread's reuse while sibling tests run. With
//! the feature the totals are mirrored to the
//! `cham_he.hmvp.scratch.{hit,miss}` counters.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on buffers parked per thread.
const MAX_PER_SLOT: usize = 4;

/// A reusable pair of deferred-reduction accumulators (`b` and `a`
/// components of a ciphertext row), each `limbs × degree` lanes.
pub(crate) struct DotScratch {
    pub(crate) b_acc: Vec<u128>,
    pub(crate) a_acc: Vec<u128>,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Released buffers, least recently used first.
    static STACK: RefCell<Vec<DotScratch>> = const { RefCell::new(Vec::new()) };
    static THREAD_STATS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Scratch hit and miss totals `(hits, misses)` across every thread since
/// process start. A flat miss count across repeated dot phases is the
/// zero-allocation steady-state witness reported in run records.
#[must_use]
pub fn scratch_stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Scratch hit and miss totals `(hits, misses)` of the calling thread
/// alone — unaffected by whatever other threads check out meanwhile.
#[cfg(test)]
fn thread_scratch_stats() -> (u64, u64) {
    THREAD_STATS.with(Cell::get)
}

/// Runs `f` with a checked-out scratch of exactly `len` lanes per
/// accumulator, returning the buffer to the calling thread's stack
/// afterwards.
pub(crate) fn with_dot_scratch<T>(len: usize, f: impl FnOnce(&mut DotScratch) -> T) -> T {
    let pooled = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let pos = stack.iter().position(|s| s.b_acc.len() == len)?;
        Some(stack.remove(pos))
    });
    let (hits, misses) = THREAD_STATS.with(Cell::get);
    let mut scratch = match pooled {
        Some(scratch) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            THREAD_STATS.with(|s| s.set((hits + 1, misses)));
            cham_telemetry::counter_add!("cham_he.hmvp.scratch.hit", 1);
            scratch
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            THREAD_STATS.with(|s| s.set((hits, misses + 1)));
            cham_telemetry::counter_add!("cham_he.hmvp.scratch.miss", 1);
            DotScratch {
                b_acc: vec![0u128; len],
                a_acc: vec![0u128; len],
            }
        }
    };
    // The stack is not borrowed while `f` runs, so a nested checkout
    // (e.g. a pool task executed inline on this thread) is fine.
    let out = f(&mut scratch);
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if stack.len() == MAX_PER_SLOT {
            stack.remove(0);
        }
        stack.push(scratch);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_is_a_hit_and_misses_stay_flat() {
        let len = 48;
        // Measured on this thread's own counters: sibling tests checking
        // out other shapes on other threads cannot move them.
        let (h0, m0) = thread_scratch_stats();
        with_dot_scratch(len, |s| {
            assert_eq!(s.b_acc.len(), len);
            assert_eq!(s.a_acc.len(), len);
        });
        let (h1, m1) = thread_scratch_stats();
        assert_eq!((h1, m1), (h0, m0 + 1), "first call was a miss");
        // Every subsequent same-shape call on this thread reuses the buffer.
        for _ in 0..10 {
            with_dot_scratch(len, |_| {});
        }
        let (h2, m2) = thread_scratch_stats();
        assert_eq!(m2, m1, "steady state must not allocate");
        assert_eq!(h2, h1 + 10);
        // The process-wide totals include this thread's activity.
        let (hits, misses) = scratch_stats();
        assert!(hits >= h2 && misses >= m2);
    }

    #[test]
    fn distinct_shapes_do_not_alias() {
        with_dot_scratch(16, |s| s.b_acc.fill(7));
        with_dot_scratch(32, |s| {
            assert_eq!(s.b_acc.len(), 32);
        });
        // The 16-lane buffer is still pooled and comes back dirty — callers
        // (FusedAccumulator::new) zero it.
        with_dot_scratch(16, |s| {
            assert_eq!(s.b_acc.len(), 16);
        });
    }

    #[test]
    fn full_stack_keeps_the_shape_in_use() {
        // Fill the stack with other shapes, then settle on a new one: the
        // least recently used buffer makes room, so only the first call
        // of the new shape misses.
        for len in 1..=MAX_PER_SLOT {
            with_dot_scratch(len, |_| {});
        }
        let (_, m0) = thread_scratch_stats();
        for _ in 0..5 {
            with_dot_scratch(100, |_| {});
        }
        let (_, m1) = thread_scratch_stats();
        assert_eq!(m1, m0 + 1);
        STACK.with(|s| assert_eq!(s.borrow().len(), MAX_PER_SLOT));
    }

    #[test]
    fn nested_checkouts_get_distinct_buffers() {
        with_dot_scratch(8, |outer| {
            outer.b_acc.fill(1);
            with_dot_scratch(8, |inner| inner.b_acc.fill(2));
            assert!(outer.b_acc.iter().all(|&v| v == 1));
        });
    }
}
