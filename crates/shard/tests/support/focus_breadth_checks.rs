//! Holds sharded Focus_cmp, Focus_cl and Breadth to the §5.1/§5.2 oracle
//! (`core/tests/support/focus_breadth_oracle.rs`). The including test file
//! also includes that oracle and `best_match_oracle`, whose
//! `assert_matches` compares ids, order, score bits and candidate counts.

use goalrec_core::{Activity, FocusVariant, GoalLibrary};
use goalrec_shard::{ShardScratch, ShardStrategy, ShardView};

/// Ranks `h` through `shards` with both Focus variants and Breadth, at
/// `k` and at a `k` past every candidate action of `library`, and asserts
/// each ranking equals the oracle's over `library`, the library the
/// shards serve.
pub fn assert_focus_and_breadth_match<V: ShardView>(
    shards: &[V],
    library: &GoalLibrary,
    h: &Activity,
    k: usize,
    sc: &mut ShardScratch,
    ctx: &str,
) {
    let past_every_candidate = library.num_actions() + 1;
    for k in [k, past_every_candidate] {
        for variant in [FocusVariant::Completeness, FocusVariant::Closeness] {
            let expect = crate::focus_breadth_oracle::focus(library, h.raw(), variant, k);
            let cand = ShardStrategy::Focus(variant).rank_into(shards, h, k, sc);
            crate::best_match_oracle::assert_matches(
                sc.out(),
                cand,
                &expect,
                &format!("{variant:?} {ctx} H={h:?} k={k}"),
            );
        }
        let expect = crate::focus_breadth_oracle::breadth(library, h.raw(), k);
        let cand = ShardStrategy::Breadth.rank_into(shards, h, k, sc);
        crate::best_match_oracle::assert_matches(
            sc.out(),
            cand,
            &expect,
            &format!("Breadth {ctx} H={h:?} k={k}"),
        );
    }
}
