//! # goalrec-core
//!
//! Goal- and action-association based recommendation, reproducing
//! *"Modeling and Exploiting Goal and Action Associations for
//! Recommendations"* (Papadimitriou, Velegrakis, Koutrika — EDBT 2018).
//!
//! The central idea: users act to fulfil **goals**, and a **goal
//! implementation library** `L` — pairs `(g, A)` of a goal and the action
//! set that fulfils it — lets a recommender suggest the actions that move a
//! user toward the goals their past activity gives evidence for, rather
//! than actions merely similar to that past.
//!
//! ## Quick start
//!
//! ```
//! use goalrec_core::{Activity, GoalModel, GoalRecommender, LibraryBuilder,
//!                    Recommender, strategies::Breadth};
//!
//! // Build a library: an olivier salad and two other recipes.
//! let mut builder = LibraryBuilder::new();
//! builder.add_impl("olivier salad", ["potatoes", "carrots", "pickles"]).unwrap();
//! builder.add_impl("mashed potatoes", ["potatoes", "nutmeg", "butter"]).unwrap();
//! builder.add_impl("pan-fried carrots", ["carrots", "nutmeg"]).unwrap();
//! let library = builder.build().unwrap();
//!
//! // The customer's cart: potatoes and carrots.
//! let cart = Activity::from_actions([
//!     library.action_id("potatoes").unwrap(),
//!     library.action_id("carrots").unwrap(),
//! ]);
//!
//! // Breadth recommends pickles/nutmeg-style completions, never the past.
//! let rec = GoalRecommender::from_library(&library, Box::new(Breadth)).unwrap();
//! let top = rec.recommend_actions(&cart, 2);
//! let names: Vec<_> = top.iter().map(|&a| library.action_name(a)).collect();
//! assert_eq!(names, vec!["pickles", "nutmeg"]);
//! ```
//!
//! ## Module map
//!
//! | Paper concept | Module |
//! |---|---|
//! | Actions, goals, implementations (§3) | [`ids`], [`library`] |
//! | Index structures & spaces (§4) | [`model`], [`setops`] |
//! | Focus / Breadth / Best Match (§5) | [`strategies`] (Best Match's sums: `profile`), `distance` |
//! | Ranking & facade | [`topk`], [`recommend`], [`batch`] |

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

pub mod activity;
pub mod batch;
pub(crate) mod csr;
pub(crate) mod distance;
pub(crate) mod error;
pub(crate) mod explain;
pub mod ids;
pub mod library;
pub(crate) mod live;
pub mod model;
pub(crate) mod overlap;
pub(crate) mod profile;
pub mod recommend;
pub(crate) mod rerank;
pub(crate) mod scratch;
pub mod setops;
pub mod strategies;
pub mod topk;

pub use activity::Activity;
pub use csr::CsrBacking;
pub use distance::DistanceMetric;
pub use error::{Error, Result};
pub use explain::{explain, Explanation, Justification};
pub use ids::{ActionId, GoalId, ImplId, Interner};
pub use library::{GoalLibrary, Implementation, LibraryBuilder, LibraryStats, StatsReport};
pub use live::{AssocView, DeltaSegment, LiveRef};
pub use model::GoalModel;
pub use recommend::{GoalRecommender, ObservedStrategy, Recommender};
pub use rerank::mmr_rerank;
pub use scratch::Scratch;
pub use strategies::{BestMatch, Breadth, Focus, FocusVariant, Strategy};
pub use topk::Scored;
