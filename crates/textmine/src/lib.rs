//! # goalrec-textmine
//!
//! Extraction of goal implementations from free-text success stories — the
//! pipeline §3 of the paper describes for turning 43Things-style
//! user-generated descriptions into a structured implementation library.
//!
//! The pipeline: `tokenize` splits a story into sentence / list-item
//! segments; `extract` anchors each segment on a lexicon verb
//! (`lexicon`) and normalises the phrase with a from-scratch Porter
//! stemmer (`stem`); `corpus` assembles the extracted action sets into
//! a [`goalrec_core::GoalLibrary`].
//!
//! ```
//! use goalrec_textmine::{build_library, ActionExtractor, Story};
//!
//! let stories = vec![
//!     Story::new("lose weight", "1. join a gym\n2. stop eating at restaurants"),
//!     Story::new("lose weight", "I quit soda. I started jogging."),
//! ];
//! let build = build_library(&stories, &ActionExtractor::default()).unwrap();
//! assert_eq!(build.library.len(), 2);
//! assert!(build.library.action_id("join gym").is_some());
//! ```

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

pub(crate) mod corpus;
pub(crate) mod extract;
pub(crate) mod lexicon;
pub(crate) mod stem;
pub(crate) mod synth;
pub(crate) mod tokenize;

pub use corpus::{build_library, CorpusBuild, Story};
pub use extract::ActionExtractor;
pub use synth::{generate as generate_stories, SynthConfig, SynthCorpus};
