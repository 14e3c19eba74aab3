//! # goalrec-shard
//!
//! Sharded scatter-gather serving for the association-based goal model: a
//! [`GoalLibrary`](goalrec_core::GoalLibrary) is split into `N` goal-
//! partitioned sub-models ([`ShardedModel`]), every recommend request fans
//! out to each shard's independent index ([`ShardStrategy::scatter`]), and
//! the per-shard results are merged into the global top-k
//! ([`ShardStrategy::gather`]) **exactly** — bit-for-bit identical ids,
//! scores and tie-break order to ranking the unsharded model.
//!
//! ## Why goal-partitioned
//!
//! Every strategy in the paper scores through goal implementations, and an
//! implementation belongs to exactly one goal. Assigning each *goal* (with
//! all of its implementations) to one shard therefore partitions the
//! implementation set, which is what makes the merge exact:
//!
//! * the per-activity implementation spaces `IS_s(H)` are disjoint across
//!   shards and union to the global `IS(H)`;
//! * the per-shard goal spaces `GS_s(H)` are disjoint and union to `GS(H)`;
//! * Breadth's per-action scores are integer-valued sums over `IS(H)`, so
//!   summing per-shard partial sums in `u64` is order-independent;
//! * Focus's candidate implementations split disjointly, so a k-way merge
//!   of the per-shard `(score, global impl id)` rankings replays the
//!   unsharded fill loop verbatim;
//! * Best Match's distance inputs are integer sums over the goals of
//!   `GS(H)` (`Σ p_g`, `Σ p_g²` and, per action, `Σ p_g·c_g`, `Σ c_g²`,
//!   `Σ |p_g − c_g| − p_g`), so each shard runs the unsharded goal-major
//!   pass over its own goals and the merge adds the sums in `u64`.
//!
//! Shards keep the **full global id spaces** for actions and goals — only
//! the implementation rows are local — so per-shard results speak global
//! ids with a single monotone `local impl → global impl` map per shard.
//!
//! ## Module map
//!
//! | Concern | Module |
//! |---|---|
//! | Goal → shard assignment (hash / size-balanced) | [`partition`] |
//! | Per-shard compiled sub-models | [`model`] |
//! | Per-worker scatter + merge arenas | [`scratch`] |
//! | The scatter/gather ranking itself | [`gather`] |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gather;
pub mod model;
pub mod partition;
pub mod scratch;

pub use gather::ShardStrategy;
pub use model::{ShardModel, ShardView, ShardedModel};
pub use partition::PartitionMode;
pub use scratch::ShardScratch;
