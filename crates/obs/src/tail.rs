//! Tail sampling: bounded retention of the traces worth looking at.
//!
//! Keeping every trace would cost unbounded memory; keeping none makes
//! tail latencies unexplainable. The [`TailSampler`] splits the
//! difference with two bounded retention policies, both served from
//! preallocated slots:
//!
//! * **Slow sets** — per `(route, strategy)` key, the `slow_per_key`
//!   slowest completed traces seen so far (min-replacement, so a burst of
//!   fast requests can never evict the interesting outliers). Keying by
//!   the pair rather than the route alone guarantees each strategy keeps
//!   its own slow traces even when one strategy dominates the tail.
//! * **Uniform ring** — every `sample_every`-th trace lands in a ring
//!   buffer regardless of speed, giving `/debug/traces` a baseline of
//!   ordinary requests to compare the outliers against.
//!
//! State is striped across a fixed set of mutexes by key hash, so
//! concurrent workers completing requests on different routes rarely
//! contend. [`TailSampler::offer`] is called once per completed request:
//! after a key's first sighting (which allocates its slow set once) the
//! steady state is a hash, one short critical section, and at most one
//! `CompletedTrace` memcpy into a preallocated slot.

use crate::registry::Counter;
use crate::trace::CompletedTrace;
use crate::{names, TraceId};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of independently locked stripes.
const STRIPES: usize = 8;

/// Retention tunables of a [`TailSampler`].
#[derive(Debug, Clone)]
pub struct TailConfig {
    /// Slowest traces kept per `(route, strategy)` key.
    pub slow_per_key: usize,
    /// Uniform sampling period: every `sample_every`-th offered trace
    /// enters the ring. `0` disables uniform sampling.
    pub sample_every: u64,
    /// Uniform-ring capacity per stripe.
    pub ring_capacity: usize,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            slow_per_key: 8,
            sample_every: 64,
            ring_capacity: 8,
        }
    }
}

struct KeyTail {
    route: &'static str,
    strategy: &'static str,
    slow: Vec<CompletedTrace>,
}

struct Stripe {
    keys: Vec<KeyTail>,
    ring: Vec<CompletedTrace>,
    ring_pos: usize,
    ring_used: usize,
}

/// Lock-striped retention of completed traces. See the module docs.
pub struct TailSampler {
    config: TailConfig,
    offered: AtomicU64,
    sampled: Arc<Counter>,
    stripes: [Mutex<Stripe>; STRIPES],
}

fn stripe_index(route: &str, strategy: &str) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    route.hash(&mut h);
    strategy.hash(&mut h);
    (h.finish() % STRIPES as u64) as usize
}

impl TailSampler {
    /// A sampler with preallocated ring slots.
    pub fn new(config: TailConfig) -> Self {
        let ring_capacity = config.ring_capacity;
        TailSampler {
            config,
            offered: AtomicU64::new(0),
            sampled: crate::counter(names::SERVER_TRACE_SAMPLED),
            stripes: std::array::from_fn(|_| {
                Mutex::new(Stripe {
                    keys: Vec::new(),
                    ring: vec![CompletedTrace::default(); ring_capacity],
                    ring_pos: 0,
                    ring_used: 0,
                })
            }),
        }
    }

    /// Offers one completed trace for retention. Call once per request.
    pub fn offer(&self, t: &CompletedTrace) {
        self.sampled.inc();
        // ordering: Relaxed — the counter only drives uniform sampling
        // cadence and the offered() statistic; the stripe mutex below
        // synchronizes the retained traces themselves.
        let n = self.offered.fetch_add(1, Ordering::Relaxed);
        let uniform = self.config.sample_every > 0 && n.is_multiple_of(self.config.sample_every);
        let mut stripe = self.stripes[stripe_index(t.route, t.strategy)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if uniform && self.config.ring_capacity > 0 {
            let pos = stripe.ring_pos;
            stripe.ring[pos] = *t;
            stripe.ring_pos = (pos + 1) % self.config.ring_capacity;
            stripe.ring_used = stripe.ring_used.max(pos + 1);
        }
        if self.config.slow_per_key == 0 {
            return;
        }
        match stripe
            .keys
            .iter_mut()
            .find(|k| k.route == t.route && k.strategy == t.strategy)
        {
            Some(key) => {
                if key.slow.len() < self.config.slow_per_key {
                    key.slow.push(*t);
                } else if let Some(min) = key
                    .slow
                    .iter_mut()
                    .min_by_key(|s| s.total_ns)
                    .filter(|s| s.total_ns < t.total_ns)
                {
                    *min = *t;
                }
            }
            None => {
                // First sighting of this key: the one allocation.
                let mut slow = Vec::with_capacity(self.config.slow_per_key);
                slow.push(*t);
                stripe.keys.push(KeyTail {
                    route: t.route,
                    strategy: t.strategy,
                    slow,
                });
            }
        }
    }

    /// Retained traces matching the filters, slowest first, deduplicated
    /// by trace id (a trace can sit in both a slow set and the ring).
    pub fn snapshot(
        &self,
        route: Option<&str>,
        strategy: Option<&str>,
        min_total_ns: u64,
    ) -> Vec<CompletedTrace> {
        let matches = |t: &CompletedTrace| {
            t.total_ns >= min_total_ns
                && route.is_none_or(|r| t.route == r)
                && strategy.is_none_or(|s| t.strategy == s)
        };
        let mut out: Vec<CompletedTrace> = Vec::new();
        let mut seen: std::collections::HashSet<TraceId> = std::collections::HashSet::new();
        for stripe in &self.stripes {
            let stripe = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            for key in &stripe.keys {
                for t in &key.slow {
                    if matches(t) && seen.insert(t.id) {
                        out.push(*t);
                    }
                }
            }
            for t in &stripe.ring[..stripe.ring_used] {
                if t.unix_ms > 0 && matches(t) && seen.insert(t.id) {
                    out.push(*t);
                }
            }
        }
        out.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
        out
    }

    /// Traces currently retained (slow sets plus uniform ring).
    pub fn occupancy(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                let s = s.lock().unwrap_or_else(PoisonError::into_inner);
                s.keys.iter().map(|k| k.slow.len()).sum::<usize>() + s.ring_used
            })
            .sum()
    }

    /// Total traces ever offered.
    pub fn offered(&self) -> u64 {
        // ordering: Relaxed — scrape-side read of a pure statistic.
        self.offered.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(
        id: u64,
        route: &'static str,
        strategy: &'static str,
        total_ns: u64,
    ) -> CompletedTrace {
        CompletedTrace {
            id: TraceId(id),
            route,
            strategy,
            status: 200,
            total_ns,
            unix_ms: 1,
            ..CompletedTrace::default()
        }
    }

    #[test]
    fn slow_sets_keep_the_slowest_per_key() {
        let tail = TailSampler::new(TailConfig {
            slow_per_key: 2,
            sample_every: 0,
            ring_capacity: 0,
        });
        for (id, ns) in [(1, 10), (2, 500), (3, 300), (4, 40), (5, 900)] {
            tail.offer(&trace(id, "recommend", "Breadth", ns));
        }
        let got = tail.snapshot(None, None, 0);
        let ids: Vec<u64> = got.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![5, 2], "slowest first, fast ones evicted");
        assert_eq!(tail.occupancy(), 2);
        assert_eq!(tail.offered(), 5);
    }

    #[test]
    fn keys_are_route_strategy_pairs() {
        let tail = TailSampler::new(TailConfig {
            slow_per_key: 1,
            sample_every: 0,
            ring_capacity: 0,
        });
        tail.offer(&trace(1, "recommend", "Breadth", 1_000_000));
        // A much slower BestMatch trace must not evict Breadth's.
        tail.offer(&trace(2, "recommend", "BestMatch", 9_000_000));
        tail.offer(&trace(3, "healthz", "", 50));
        assert_eq!(tail.snapshot(None, None, 0).len(), 3);
        let breadth = tail.snapshot(Some("recommend"), Some("Breadth"), 0);
        assert_eq!(breadth.len(), 1);
        assert_eq!(breadth[0].id.0, 1);
    }

    #[test]
    fn filters_apply() {
        let tail = TailSampler::new(TailConfig::default());
        tail.offer(&trace(1, "recommend", "Breadth", 100));
        tail.offer(&trace(2, "recommend", "Breadth", 9_000));
        tail.offer(&trace(3, "healthz", "", 20));
        assert_eq!(tail.snapshot(Some("healthz"), None, 0).len(), 1);
        assert_eq!(tail.snapshot(None, None, 1_000).len(), 1);
        assert_eq!(tail.snapshot(Some("missing"), None, 0).len(), 0);
    }

    #[test]
    fn uniform_ring_samples_every_mth_and_dedups_against_slow() {
        let tail = TailSampler::new(TailConfig {
            slow_per_key: 1,
            sample_every: 2,
            ring_capacity: 4,
        });
        for id in 1..=6u64 {
            // Constant duration: the slow set keeps only the first.
            tail.offer(&trace(id, "recommend", "Breadth", 100));
        }
        // Offers 0,2,4 (ids 1,3,5) entered the ring; id 1 also sits in
        // the slow set and must appear once.
        let got = tail.snapshot(None, None, 0);
        let mut ids: Vec<u64> = got.iter().map(|t| t.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn concurrent_offers_do_not_lose_the_max() {
        let tail = Arc::new(TailSampler::new(TailConfig::default()));
        let handles: Vec<_> = (0..4u64)
            .map(|w| {
                let tail = Arc::clone(&tail);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        tail.offer(&trace(w * 1000 + i, "recommend", "Breadth", w * 1000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("offer thread panicked");
        }
        let got = tail.snapshot(Some("recommend"), Some("Breadth"), 0);
        assert_eq!(got[0].total_ns, 3099, "global max must be retained");
        assert_eq!(tail.offered(), 400);
    }
}
