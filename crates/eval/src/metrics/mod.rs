//! Evaluation metrics used by the §6 experiments.

pub mod completeness;
pub(crate) mod correlation;
pub(crate) mod frequency;
pub(crate) mod novelty;
pub(crate) mod overlap;
pub(crate) mod pairwise;
pub mod ranking;
pub mod tpr;
