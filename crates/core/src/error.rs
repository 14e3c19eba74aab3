//! Error types for model construction and recommendation.

use std::fmt;

/// Errors raised while building or querying a goal model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An implementation was declared with an empty action set. The model
    /// defines an implementation as `(g, A)` with `A` a non-empty activity;
    /// an empty one can never be matched, ranked or completed.
    EmptyImplementation {
        /// Name or rendered id of the offending goal.
        goal: String,
    },
    /// An action id referenced by a query is outside the model's action set.
    UnknownAction(u32),
    /// A goal id referenced by a query is outside the model's goal set.
    UnknownGoal(u32),
    /// The library contains no implementations, so no model can be built.
    EmptyLibrary,
    /// The compiled index structures disagree about the library contents.
    /// Raised by `GoalModel::validate`, the cross-consistency check over
    /// the five indexes; seeing this means a construction bug.
    CorruptModel {
        /// Human-readable description of the first inconsistency found.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyImplementation { goal } => {
                write!(f, "implementation for goal {goal} has an empty action set")
            }
            Error::UnknownAction(a) => write!(f, "unknown action id a{a}"),
            Error::UnknownGoal(g) => write!(f, "unknown goal id g{g}"),
            Error::EmptyLibrary => write!(f, "goal implementation library is empty"),
            Error::CorruptModel { detail } => {
                write!(f, "goal model indexes are inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            Error::EmptyImplementation { goal: "g1".into() }.to_string(),
            "implementation for goal g1 has an empty action set"
        );
        assert_eq!(Error::UnknownAction(3).to_string(), "unknown action id a3");
        assert_eq!(Error::UnknownGoal(4).to_string(), "unknown goal id g4");
        assert_eq!(
            Error::EmptyLibrary.to_string(),
            "goal implementation library is empty"
        );
        assert_eq!(
            Error::CorruptModel {
                detail: "boom".into()
            }
            .to_string(),
            "goal model indexes are inconsistent: boom"
        );
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<Error>();
    }
}
