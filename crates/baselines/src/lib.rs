//! # goalrec-baselines
//!
//! The state-of-the-art recommenders the paper compares against (§6),
//! implemented from scratch, plus a reference point:
//!
//! * [`CfKnn`] — user-based nearest-neighbour CF with Tanimoto
//!   neighbourhoods (the paper's "CF KNN" \[20\]);
//! * [`AlsWr`] — ALS-WR matrix factorisation with implicit-feedback
//!   confidence weighting (the paper's "CF MF" \[8\]; the authors used
//!   Mahout, we implement the algorithm directly);
//! * [`ContentBased`] — content-based filtering over domain features (the
//!   paper's "Content" \[3\]);
//! * [`Apriori`] — association-rule mining, the §2 comparator;
//! * [`Popularity`] — most-popular reference for the Table 3 correlation
//!   study.
//!
//! All recommenders implement [`goalrec_core::Recommender`], so the
//! evaluation layer treats them interchangeably with the goal-based
//! strategies.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::dbg_macro,
        clippy::undocumented_unsafe_blocks,
        clippy::missing_safety_doc
    )
)]

pub(crate) mod als;
pub(crate) mod apriori;
pub(crate) mod cf_knn;
pub(crate) mod content;
pub(crate) mod linalg;
pub(crate) mod popularity;
pub(crate) mod similarity;
pub(crate) mod training;

pub use als::{AlsConfig, AlsWr};
pub use apriori::{Apriori, AprioriConfig, Rule};
pub use cf_knn::CfKnn;
pub use content::{ContentBased, ItemFeatures};
pub use popularity::Popularity;
pub use training::TrainingSet;
