//! # MIDAS — finding the right web sources to fill knowledge gaps
//!
//! A from-scratch Rust reproduction of *"MIDAS: Finding the Right Web
//! Sources to Fill Knowledge Gaps"* (Wang, Dong, Li, Meliou — ICDE 2019).
//!
//! MIDAS consumes the (noisy, low-recall) output of automated knowledge
//! extraction pipelines and identifies **web source slices** — conjunctive
//! property queries like *"rocket families sponsored by NASA at
//! `http://space.skyrocket.de/doc_lau_fam`"* — that are the most profitable
//! targets for augmenting an existing knowledge base.
//!
//! ## Crate map
//!
//! * [`kb`] — dictionary-encoded fact store (the knowledge base
//!   substrate): interning, one SPO-ordered fact set, TSV IO.
//! * [`weburl`] — URL normalisation and the multi-granularity source
//!   hierarchy.
//! * [`core`] — the paper's contribution: fact tables, slices, the profit
//!   function, MIDASalg, and the shard/detect/consolidate framework.
//! * [`baselines`] — NAIVE, GREEDY, and AGGCLUSTER.
//! * [`extract`] — the extraction-pipeline simulator and every corpus
//!   generator used by the evaluation (ReVerb / NELL / slim / §IV-D
//!   synthetic / KnowledgeVault-like).
//! * [`eval`] — precision/recall metrics, the silver standard, the
//!   simulated annotator, and timed runners.
//!
//! ## Quickstart
//!
//! ```
//! use midas::prelude::*;
//!
//! // Facts extracted from a page of one web site (with interned terms).
//! let mut terms = Interner::new();
//! let page = SourceUrl::parse("http://cocktails.example.org/margarita").unwrap();
//! let facts = vec![
//!     Fact::intern(&mut terms, "margarita", "type", "cocktail"),
//!     Fact::intern(&mut terms, "margarita", "ingredient", "tequila"),
//!     Fact::intern(&mut terms, "mojito", "type", "cocktail"),
//!     Fact::intern(&mut terms, "mojito", "ingredient", "rum"),
//! ];
//! let source = SourceFacts::new(page, facts);
//!
//! // An existing knowledge base that knows none of this.
//! let kb = KnowledgeBase::new();
//!
//! // Run MIDASalg with the paper's running-example cost model.
//! let alg = MidasAlg::new(MidasConfig::running_example());
//! let slices = alg.run(&source, &kb);
//! assert_eq!(slices.len(), 1);
//! assert!(slices[0].describe(&terms).contains("type = cocktail"));
//! ```

pub use midas_baselines as baselines;
pub use midas_core as core;
pub use midas_eval as eval;
pub use midas_extract as extract;
pub use midas_kb as kb;
pub use midas_weburl as weburl;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use midas_baselines::{AggCluster, Greedy, Naive};
    pub use midas_core::{
        AugmentationStep, Augmenter, BreachKind, BudgetBreach, BudgetScope, CostModel, DetectInput,
        DiscoveredSlice, ExportPolicy, ExtentSet, FactTable, FaultCause, FaultPlan, Framework,
        KbDelta, MidasAlg, MidasConfig, ProfitCtx, Quarantine, RoundCache, SliceDetector,
        SliceHierarchy, SourceBudget, SourceFacts, SourceFault, Stage, SubjectIndex,
    };
    pub use midas_eval::{
        coverage_adjusted, match_to_gold, merge_by_domain, quarantine_table,
        run_detector_per_source, run_detector_per_source_budgeted, run_midas_framework,
        SimulatedAnnotator, Table,
    };
    pub use midas_extract::{Dataset, GoldSlice, GroundTruth};
    pub use midas_kb::{Fact, Interner, KnowledgeBase, SharedInterner, Symbol};
    pub use midas_weburl::{SourceTrie, SourceUrl};
}
