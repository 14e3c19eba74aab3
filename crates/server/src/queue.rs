//! The bounded MPMC admission queue between the accept loop and the
//! worker pool.
//!
//! Capacity is the server's admission-control knob: when the queue is
//! full, [`Bounded::try_push`] hands the item straight back and the accept
//! loop answers `503 Service Unavailable` instead of letting latency grow
//! without bound. Closing the queue is the graceful-shutdown edge:
//! producers are turned away immediately, while consumers keep draining
//! whatever was already admitted — [`Bounded::pop`] only reports
//! [`Pop::Closed`] once the queue is both closed *and* empty, which is
//! what guarantees no admitted request is dropped on shutdown.
//!
//! Poisoned mutexes are recovered with [`PoisonError::into_inner`]: the
//! state is a plain `VecDeque` plus a flag, so a consumer panicking while
//! holding the lock cannot leave it inconsistent, and the queue must keep
//! serving the remaining workers.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Outcome of a non-blocking push.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum TryPush<T> {
    /// The item was admitted.
    Admitted,
    /// The queue is at capacity; the item comes back to the caller.
    Full(T),
    /// The queue was closed; the item comes back to the caller.
    Closed(T),
}

/// Outcome of a blocking pop with timeout.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue open but empty.
    Empty,
    /// The queue is closed and fully drained.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub(crate) struct Bounded<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// Creates a queue admitting at most `capacity` items at once.
    /// A zero capacity is promoted to one — a queue that can never admit
    /// anything would deadlock the accept loop.
    pub(crate) fn new(capacity: usize) -> Self {
        Bounded {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits an item without blocking.
    pub(crate) fn try_push(&self, item: T) -> TryPush<T> {
        let mut st = self.lock();
        if st.closed {
            return TryPush::Closed(item);
        }
        if st.items.len() >= self.capacity {
            return TryPush::Full(item);
        }
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        TryPush::Admitted
    }

    /// Dequeues an item, waiting up to `timeout` for one to arrive.
    pub(crate) fn pop(&self, timeout: Duration) -> Pop<T> {
        let mut st = self.lock();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(item) = st.items.pop_front() {
                return Pop::Item(item);
            }
            if st.closed {
                return Pop::Closed;
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Pop::Empty;
            }
            let (guard, wait) = self
                .not_empty
                .wait_timeout(st, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            if wait.timed_out() && st.items.is_empty() {
                return if st.closed { Pop::Closed } else { Pop::Empty };
            }
        }
    }

    /// Closes the queue: producers are refused from now on, consumers
    /// drain the remainder and then observe [`Pop::Closed`].
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity_rejection() {
        let q = Bounded::new(2);
        assert_eq!(q.try_push(1), TryPush::Admitted);
        assert_eq!(q.try_push(2), TryPush::Admitted);
        assert_eq!(q.try_push(3), TryPush::Full(3));
        assert_eq!(q.lock().items.len(), 2);
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Item(1));
        assert_eq!(q.try_push(3), TryPush::Admitted);
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Item(2));
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Item(3));
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Empty);
    }

    #[test]
    fn zero_capacity_is_promoted_to_one() {
        let q = Bounded::new(0);
        assert_eq!(q.capacity, 1);
        assert_eq!(q.try_push(9), TryPush::Admitted);
        assert_eq!(q.try_push(10), TryPush::Full(10));
    }

    #[test]
    fn close_drains_before_reporting_closed() {
        let q = Bounded::new(4);
        assert_eq!(q.try_push('a'), TryPush::Admitted);
        assert_eq!(q.try_push('b'), TryPush::Admitted);
        q.close();
        assert_eq!(q.try_push('c'), TryPush::Closed('c'));
        // Consumers still see the admitted items, in order.
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Item('a'));
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Item('b'));
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Closed);
    }

    #[test]
    fn pop_wakes_on_push_across_threads() {
        let q = Arc::new(Bounded::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop(Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.try_push(42), TryPush::Admitted);
        assert_eq!(consumer.join().unwrap(), Pop::Item(42));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: Arc<Bounded<u8>> = Arc::new(Bounded::new(8));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop(Duration::from_secs(5)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        for c in consumers {
            assert_eq!(c.join().unwrap(), Pop::Closed);
        }
    }

    #[test]
    fn mpmc_loses_nothing_under_contention() {
        let q = Arc::new(Bounded::new(1024));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        let mut item = p * 1000 + i;
                        loop {
                            match q.try_push(item) {
                                TryPush::Admitted => break,
                                TryPush::Full(back) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                                TryPush::Closed(_) => unreachable!("queue never closed here"),
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Pop::Item(v) = q.pop(Duration::from_millis(200)) {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        let expected: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..250u64).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(all, expected);
    }
}
