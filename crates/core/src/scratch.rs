//! Per-worker scratch arenas for the allocation-free recommend hot path.
//!
//! Every strategy needs the same handful of working buffers per request: a
//! dense per-action scoreboard (Algorithm 2), the per-implementation
//! overlaps `|A_p ∩ H|` with `IS(H)` and `GS(H)` (`overlap.rs`, filled by
//! every strategy), Focus's lazily ranked implementations, Best Match's
//! per-action sums (`profile.rs`), and a bounded top-k accumulator.
//! Allocating them per call makes the hot path allocator-bound; a
//! [`Scratch`] owns all of them and is reused across requests, so
//! steady-state
//! [`crate::strategies::Strategy::rank_into`] calls touch the heap zero
//! times (verified by the counting-allocator test in
//! `tests/alloc_counting.rs`).
//!
//! ## Scoreboard epochs
//!
//! The dense scoreboard is `Vec<(u64 /*score*/, u32 /*epoch*/)>`, one slot
//! per action. A slot is live only when its stamp equals the arena's current
//! epoch, so `Scratch::begin` invalidates the whole board by bumping one
//! integer instead of re-zeroing `O(|𝒜|)` memory. On the (once per 2³²
//! requests) wraparound every stamp is reset explicitly, so a stale stamp
//! can never alias a live epoch.
//!
//! ## Ownership model
//!
//! One `Scratch` per worker thread: each `goalrec-serve` worker owns one
//! across its connections, each rayon batch worker reuses one via the
//! thread-local fallback, and `GoalRecommender`'s
//! [`Recommender::recommend`](crate::Recommender::recommend) uses
//! [`with_thread_scratch`]. A `Scratch` is plain mutable state — it is
//! never shared between threads.

use crate::overlap::OverlapBoard;
use crate::profile::TermBoard;
use crate::topk::{LazyRanking, Scored, TopK};
use std::cell::RefCell;
use std::time::Instant;

/// Phase-boundary marks for the per-request `span.rank` trace span.
///
/// Every built-in strategy has the same two-phase shape — generate the
/// candidate set, then select the top k — and the tracing layer wants
/// those phases as separate child spans. Strategies cannot talk to a
/// `TraceContext` directly (the trait must stay obs-agnostic), so they
/// mark the boundary here and `ObservedStrategy::rank_into_traced`
/// converts the mark into `span.rank.candidates`/`span.rank.topk`.
/// Disabled (the default, and whenever tracing is off) the mark is a
/// single branch; enabled it adds one monotonic clock read per request —
/// never an allocation.
#[derive(Default)]
pub(crate) struct PhaseMarks {
    started: Option<Instant>,
    candidates_ns: u64,
}

impl PhaseMarks {
    /// Arms (or disarms) the marks for a new request.
    #[inline]
    pub(crate) fn begin(&mut self, enabled: bool) {
        self.started = if enabled { Some(Instant::now()) } else { None };
        self.candidates_ns = 0;
    }

    /// Marks the candidate-generation → top-k-selection boundary. Only
    /// the first mark of a request sticks.
    #[inline]
    pub(crate) fn mark(&mut self) {
        if let Some(t0) = self.started {
            if self.candidates_ns == 0 {
                self.candidates_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
        }
    }

    /// Nanoseconds from `begin` to the first `mark`; 0 when disarmed or
    /// never marked.
    #[inline]
    pub(crate) fn candidates_ns(&self) -> u64 {
        self.candidates_ns
    }
}

/// Reusable per-thread working memory for one recommend request.
///
/// See the module docs for the lifecycle. All buffers grow to the
/// high-water mark of the requests they serve and then stay allocated.
#[derive(Default)]
pub struct Scratch {
    /// Current scoreboard epoch; slots are live iff their stamp matches.
    pub(crate) epoch: u32,
    /// Dense integer scoreboard: `(score, epoch stamp)` per action id.
    pub(crate) board: Vec<(u64, u32)>,
    /// Action ids written to the scoreboard this epoch, in first-touch
    /// order.
    pub(crate) touched: Vec<u32>,
    /// Running "already recommended or performed" set (Algorithm 1's `R`).
    pub(crate) seen: Vec<u32>,
    /// Per-implementation remaining-action buffer.
    pub(crate) remaining: Vec<u32>,
    /// `|A_p ∩ H|` per implementation, `IS(H)` and `GS(H)`: the counting
    /// pass every strategy starts with.
    pub(crate) overlap: OverlapBoard,
    /// Best Match's goal-major sums (Eq. 8–10), per action, read off
    /// `overlap`.
    pub(crate) terms: TermBoard,
    /// Focus's scored candidate implementations, ranked on demand.
    pub(crate) scored_impls: LazyRanking,
    /// Bounded top-k accumulator.
    pub(crate) topk: TopK,
    /// The ranked result of the last `rank_into` call.
    pub(crate) out: Vec<Scored>,
    /// Phase-boundary marks for the tracing layer (see [`PhaseMarks`]).
    pub(crate) phase: PhaseMarks,
}

impl Scratch {
    /// A fresh arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new request epoch: sizes the scoreboard for `num_actions`
    /// and invalidates every slot by bumping the epoch counter.
    pub(crate) fn begin(&mut self, num_actions: usize) {
        if self.board.len() < num_actions {
            self.board.resize(num_actions, (0, 0));
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: stamps from 2³² epochs ago could alias. Reset.
            for slot in &mut self.board {
                slot.1 = 0;
            }
            self.epoch = 1;
        }
        self.touched.clear();
    }

    /// Adds `delta` to action `a`'s integer score, registering the first
    /// touch of this epoch.
    #[inline]
    pub(crate) fn board_add(&mut self, a: u32, delta: u64) {
        let slot = &mut self.board[a as usize];
        if slot.1 == self.epoch {
            slot.0 += delta;
        } else {
            *slot = (delta, self.epoch);
            self.touched.push(a);
        }
    }

    /// Action `a`'s integer score this epoch (0 if untouched).
    #[inline]
    pub(crate) fn board_get(&self, a: u32) -> u64 {
        let slot = self.board[a as usize];
        if slot.1 == self.epoch {
            slot.0
        } else {
            0
        }
    }

    /// The ranked list produced by the last
    /// [`crate::strategies::Strategy::rank_into`] call on this arena.
    pub fn out(&self) -> &[Scored] {
        &self.out
    }
}

thread_local! {
    static TLS_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Runs `f` with this thread's shared [`Scratch`].
///
/// The arena persists for the thread's lifetime, so repeated calls (e.g.
/// each request a rayon batch worker processes) reuse the same buffers. If
/// the thread-local is already borrowed — only possible if `f` re-enters —
/// a temporary arena is used instead of panicking.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    TLS_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_scores_reset_per_epoch_without_rezeroing() {
        let mut s = Scratch::new();
        s.begin(8);
        s.board_add(3, 2);
        s.board_add(3, 1);
        s.board_add(5, 7);
        assert_eq!(s.board_get(3), 3);
        assert_eq!(s.board_get(5), 7);
        assert_eq!(s.board_get(0), 0);
        assert_eq!(s.touched, vec![3, 5]);
        // New epoch: everything stale, no explicit clearing happened.
        s.begin(8);
        assert_eq!(s.board_get(3), 0);
        assert_eq!(s.board_get(5), 0);
        assert!(s.touched.is_empty());
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let mut s = Scratch::new();
        s.begin(2);
        s.board_add(0, 9);
        // Force the wrap: next begin() overflows to 0 and must rewrite
        // stamps rather than let epoch-0 slots look live.
        s.epoch = u32::MAX;
        s.begin(2);
        assert_eq!(s.epoch, 1);
        assert_eq!(s.board_get(0), 0);
        s.board_add(0, 4);
        assert_eq!(s.board_get(0), 4);
    }

    #[test]
    fn boards_grow_to_fit() {
        let mut s = Scratch::new();
        s.begin(2);
        s.board_add(1, 1);
        s.begin(100);
        s.board_add(99, 1);
        assert_eq!(s.board_get(99), 1);
        assert_eq!(s.board_get(1), 0);
    }

    #[test]
    fn thread_scratch_persists_across_calls() {
        let first_capacity = with_thread_scratch(|s| {
            s.begin(64);
            s.board.capacity()
        });
        let second_capacity = with_thread_scratch(|s| s.board.capacity());
        assert_eq!(first_capacity, second_capacity);
        assert!(second_capacity >= 64);
    }
}
