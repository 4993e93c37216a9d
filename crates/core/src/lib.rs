//! # midas-core — web source slices, the profit model, MIDASalg, and the
//! multi-source framework
//!
//! This crate implements the primary contribution of *"MIDAS: Finding the
//! Right Web Sources to Fill Knowledge Gaps"* (Wang, Dong, Li, Meliou —
//! ICDE 2019):
//!
//! * **Web source slices** (Definitions 3–7): a [`FactTable`] organises the
//!   facts extracted from one web source by entity; a slice is a conjunction
//!   of `(predicate, value)` *properties* together with the entities that
//!   satisfy all of them and all facts of those entities. *Canonical* slices
//!   carry the maximal property set describing their extent.
//! * **The profit function** (Definition 9): [`CostModel`] and
//!   [`ProfitCtx`] quantify the value of a set of slices as
//!   `gain − (crawl + de-dup + validation)` cost.
//! * **MIDASalg** (§III-A): [`MidasAlg`] builds the slice hierarchy from
//!   the canonical slices only (those Proposition 12 keeps) with low-profit
//!   pruning (the `f_LB` subtree lower bound), then traverses it top-down
//!   (Algorithm 1) to select the reported slices.
//! * **The MIDAS framework** (§III-B): [`framework::Framework`] runs
//!   shard → detect → consolidate rounds over the URL hierarchy, reusing
//!   children's slices as the parent's initial hierarchy, with optional
//!   thread parallelism.
//!
//! The running example of the paper (Figures 2, 4 and 5) is reproduced in
//! this crate's tests and in the `space_programs` example of the workspace
//! root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod config;
pub mod detector;
pub mod enrich;
pub mod explain;
pub mod extent;
pub mod fact_table;
pub mod faultinject;
pub mod fixtures;
pub mod framework;
pub mod hierarchy;
pub mod incremental;
pub mod parallel;
pub mod profit;
pub mod quarantine;
pub mod scratch;
pub mod single_source;
pub mod slice;
pub mod snapshot;
pub mod source;
pub mod telemetry;
pub mod traversal;

pub use budget::{BreachKind, BudgetBreach, BudgetScope, SourceBudget};
pub use config::{CostModel, MidasConfig};
pub use detector::{DetectInput, LeafOutcome, LeafState, SliceDetector};
pub use enrich::RangeEnrichment;
pub use explain::ProfitBreakdown;
pub use extent::ExtentSet;
pub use fact_table::{EntityId, FactTable, PropertyCatalog, PropertyId};
pub use faultinject::FaultPlan;
pub use framework::{ExportPolicy, Framework, FrameworkReport, KbDelta, RoundCache, SubjectIndex};
pub use hierarchy::SliceHierarchy;
pub use incremental::{AugmentationStep, Augmenter};
pub use midas_kb::crashpoint;
pub use profit::ProfitCtx;
pub use quarantine::{FaultCause, Quarantine, SourceFault, Stage};
pub use single_source::MidasAlg;
pub use slice::{DiscoveredSlice, SliceSetStats};
pub use snapshot::{load_corpus, load_slices, save_corpus, save_slices, Corpus};
pub use source::SourceFacts;
