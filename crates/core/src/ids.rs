//! Identifier newtypes and string interning.
//!
//! The paper's model (§4) identifies actions, goals and goal implementations
//! by unique identifiers and keeps two dictionaries, `A-idx` and `G-idx`,
//! mapping external names to those identifiers. [`ActionId`], [`GoalId`] and
//! [`ImplId`] are the identifiers; [`Interner`] is the dictionary.
//!
//! All three identifiers are `u32` newtypes: the paper's datasets are in the
//! tens of thousands of entities and the scalability study (Fig. 7) goes to
//! millions, which comfortably fits `u32` while halving index memory compared
//! to `usize` posting lists.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        #[repr(transparent)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an identifier from a raw index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw index.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the raw index widened for slice indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifier of an action (`a ∈ 𝒜`): a recordable task such as the
    /// purchase of a product or a step towards a life goal.
    ActionId,
    "a"
);
id_type!(
    /// Identifier of a goal (`g ∈ 𝒢`): the purpose a set of actions serves,
    /// e.g. a recipe's dish or a life goal.
    GoalId,
    "g"
);
id_type!(
    /// Identifier of a goal implementation (`p = (g, A) ∈ L`).
    ImplId,
    "p"
);

/// A bidirectional mapping between external names and dense `u32` identifiers.
///
/// This is the paper's `A-idx` / `G-idx` dictionary structure. Identifiers
/// are handed out densely in insertion order, so they double as indices into
/// the posting-list tables of [`crate::GoalModel`].
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<String>,
    lookup: HashMap<String, u32>,
}

impl Interner {
    /// Creates an empty interner with room for `capacity` names.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            names: Vec::with_capacity(capacity),
            lookup: HashMap::with_capacity(capacity),
        }
    }

    /// Interns `name`, returning its identifier. Repeated calls with the
    /// same name return the same identifier.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.lookup.get(name) {
            return id;
        }
        #[expect(
            clippy::expect_used,
            reason = "the id space is u32 by design (see module docs); interning more than 4B names is out of scope for the paper's datasets"
        )]
        let id = u32::try_from(self.names.len()).expect("more than u32::MAX interned names");
        self.names.push(name.to_owned());
        self.lookup.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned name.
    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        self.lookup.get(name).copied()
    }

    /// Resolves an identifier back to its name.
    pub(crate) fn resolve(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned names.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// Iterates over `(id, name)` pairs in identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let a = ActionId::new(7);
        assert_eq!(a.raw(), 7);
        assert_eq!(a.index(), 7);
        assert_eq!(u32::from(a), 7);
        assert_eq!(ActionId::from(7u32), a);
    }

    #[test]
    fn id_display_prefixes() {
        assert_eq!(ActionId::new(3).to_string(), "a3");
        assert_eq!(GoalId::new(4).to_string(), "g4");
        assert_eq!(ImplId::new(5).to_string(), "p5");
    }

    #[test]
    fn id_ordering_follows_raw() {
        assert!(GoalId::new(1) < GoalId::new(2));
        assert_eq!(ImplId::new(9), ImplId::new(9));
    }

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::default();
        let pickles = i.intern("pickles");
        let nutmeg = i.intern("nutmeg");
        assert_ne!(pickles, nutmeg);
        assert_eq!(i.intern("pickles"), pickles);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn intern_resolve_roundtrip() {
        let mut i = Interner::default();
        let id = i.intern("olivier salad");
        assert_eq!(i.resolve(id), Some("olivier salad"));
        assert_eq!(i.get("olivier salad"), Some(id));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.resolve(99), None);
    }

    #[test]
    fn intern_ids_are_dense() {
        let mut i = Interner::default();
        for n in 0..100u32 {
            assert_eq!(i.intern(&format!("name-{n}")), n);
        }
        let collected: Vec<_> = i.iter().map(|(id, _)| id).collect();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_interner() {
        let i = Interner::default();
        assert_eq!(i.len(), 0);
    }
}
