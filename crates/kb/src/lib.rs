//! # midas-kb — a dictionary-encoded triple store
//!
//! This crate is the knowledge-base substrate used by the MIDAS
//! reproduction (Wang, Dong, Li, Meliou — ICDE 2019). The paper augments an
//! existing knowledge base (Freebase in the original evaluation) with facts
//! extracted from the Web; all MIDAS needs from that knowledge base is:
//!
//! * fast membership tests (`is this (s, p, o) fact already known?`),
//! * bulk loading of facts,
//! * enumeration of subjects / predicates / objects, and
//! * dataset-level statistics (Figure 7 of the paper).
//!
//! Facts are RDF-style triples `(subject, predicate, object)`. All terms are
//! interned into compact [`Symbol`]s so that triples are `Copy` and hash/
//! compare in a few cycles; the store keeps three permutation indexes
//! (SPO / POS / OSP) so that every single-term or two-term lookup is a
//! `BTreeSet` range scan.
//!
//! ```
//! use midas_kb::{Interner, Fact, KnowledgeBase};
//!
//! let mut terms = Interner::new();
//! let f = Fact::new(
//!     terms.intern("Project Mercury"),
//!     terms.intern("sponsor"),
//!     terms.intern("NASA"),
//! );
//! let mut kb = KnowledgeBase::new();
//! kb.insert(f);
//! assert!(kb.contains(&f));
//! assert_eq!(kb.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod column;
pub mod crashpoint;
pub mod error;
pub mod fact;
pub mod fnv;
pub mod index;
pub mod interner;
pub mod io;
pub mod mmap;
pub mod ontology;
pub mod query;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod tokenize;

pub use column::{Column, Pod};
pub use error::KbError;
pub use fact::Fact;
pub use index::TripleIndex;
pub use interner::{Interner, SharedInterner, Symbol};
pub use mmap::Mmap;
pub use ontology::{CategoryId, Ontology, PredicateId};
pub use query::{Condition, ConjunctiveQuery};
pub use snapshot::{
    write_bytes_atomic, SectionReader, SectionWriter, Snapshot, SnapshotBuilder, SnapshotError,
    SNAPSHOT_VERSION, WRITE_CRASH_STAGES,
};
pub use stats::DatasetStats;
pub use store::KnowledgeBase;
