//! # midas-kb — a dictionary-encoded fact store
//!
//! This crate is the knowledge-base substrate used by the MIDAS
//! reproduction (Wang, Dong, Li, Meliou — ICDE 2019). The paper augments an
//! existing knowledge base (Freebase in the original evaluation) with facts
//! extracted from the Web; all MIDAS needs from that knowledge base is:
//!
//! * fast membership tests (`is this (s, p, o) fact already known?`) and
//! * bulk loading of facts.
//!
//! Facts are RDF-style triples `(subject, predicate, object)`. All terms are
//! interned into compact [`Symbol`]s so that triples are `Copy` and hash/
//! compare in a few cycles; the store is one SPO-ordered fact set, and
//! [`io`] reads and writes it as TSV.
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
pub mod interner;
pub mod io;
pub mod mmap;
pub mod ontology;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod tokenize;

pub use column::{Column, Pod};
pub use error::KbError;
pub use fact::Fact;
pub use interner::{Interner, SharedInterner, Symbol};
pub use mmap::Mmap;
pub use ontology::{CategoryId, Ontology, PredicateId};
pub use snapshot::{
    write_bytes_atomic, SectionReader, SectionWriter, Snapshot, SnapshotBuilder, SnapshotError,
    SNAPSHOT_VERSION, WRITE_CRASH_STAGES,
};
pub use stats::DatasetStats;
pub use store::KnowledgeBase;
