//! RDF-style facts.

use crate::interner::{Interner, Symbol};
use std::fmt;

/// A single `(subject, predicate, object)` triple with interned terms.
///
/// Facts are `Copy` (12 bytes) and order lexicographically by
/// `(subject, predicate, object)` symbol index, which is the order a
/// [`crate::KnowledgeBase`] iterates them in.
/// `repr(C)` pins the field order so snapshot columns can reinterpret
/// `[Fact]` from raw bytes (12 bytes, align 4, no padding — see the
/// `fact_is_small_and_copy` test and `crate::column`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(C)]
pub struct Fact {
    /// The entity the fact is about (e.g. `Project Mercury`).
    pub subject: Symbol,
    /// The property name (e.g. `sponsor`).
    pub predicate: Symbol,
    /// The property value (e.g. `NASA`).
    pub object: Symbol,
}

impl Fact {
    /// Builds a fact from three interned terms.
    #[inline]
    pub fn new(subject: Symbol, predicate: Symbol, object: Symbol) -> Self {
        Fact {
            subject,
            predicate,
            object,
        }
    }

    /// Interns the three string terms of a fact in one call.
    pub fn intern(terms: &mut Interner, s: &str, p: &str, o: &str) -> Self {
        Fact::new(terms.intern(s), terms.intern(p), terms.intern(o))
    }

    /// The `(predicate, object)` pair — a *property* in MIDAS terminology
    /// (Definition 4 of the paper).
    #[inline]
    pub fn property(&self) -> (Symbol, Symbol) {
        (self.predicate, self.object)
    }

    /// Renders the fact with resolved terms, for reports and debugging.
    pub fn display<'a>(&'a self, terms: &'a Interner) -> FactDisplay<'a> {
        FactDisplay { fact: self, terms }
    }
}

/// Borrowing display adapter returned by [`Fact::display`].
pub struct FactDisplay<'a> {
    fact: &'a Fact,
    terms: &'a Interner,
}

impl fmt::Display for FactDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, {})",
            self.terms.resolve(self.fact.subject),
            self.terms.resolve(self.fact.predicate),
            self.terms.resolve(self.fact.object)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_builds_consistent_fact() {
        let mut t = Interner::new();
        let f = Fact::intern(&mut t, "Atlas", "category", "rocket_family");
        assert_eq!(t.resolve(f.subject), "Atlas");
        assert_eq!(t.resolve(f.predicate), "category");
        assert_eq!(t.resolve(f.object), "rocket_family");
    }

    #[test]
    fn property_is_predicate_object_pair() {
        let mut t = Interner::new();
        let f = Fact::intern(&mut t, "Atlas", "sponsor", "NASA");
        assert_eq!(f.property(), (f.predicate, f.object));
    }

    #[test]
    fn facts_order_by_spo() {
        let mut t = Interner::new();
        let a = Fact::intern(&mut t, "a", "p", "x");
        let b = Fact::intern(&mut t, "b", "p", "x");
        let a2 = Fact::intern(&mut t, "a", "q", "x");
        assert!(a < b);
        assert!(a < a2);
    }

    #[test]
    fn display_resolves_terms() {
        let mut t = Interner::new();
        let f = Fact::intern(&mut t, "Castor-4", "started", "1971");
        assert_eq!(f.display(&t).to_string(), "(Castor-4, started, 1971)");
    }

    #[test]
    fn fact_is_small_and_copy() {
        assert_eq!(std::mem::size_of::<Fact>(), 12);
        let mut t = Interner::new();
        let f = Fact::intern(&mut t, "s", "p", "o");
        let g = f; // Copy
        assert_eq!(f, g);
    }
}
