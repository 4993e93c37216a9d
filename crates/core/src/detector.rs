//! The pluggable slice-detection interface of the framework.
//!
//! §III-B: *"For the 'Detecting Slices' module, MIDAS can employ MIDASalg or
//! other slice detection algorithms."* The baselines crate implements this
//! trait for GREEDY and AGGCLUSTER so that all algorithms can be
//! parallelised by the same framework.
//!
//! A detector answers two calls: [`SliceDetector::detect`] from raw facts
//! and [`SliceDetector::detect_on_table`] over a prebuilt fact table. The
//! framework drives every round-0 leaf through one more,
//! [`SliceDetector::detect_leaf`], which carries the per-leaf state a
//! detector may reuse across augmentation rounds (a cached table, last
//! round's hierarchy) in a [`LeafState`]. Its default ignores that state
//! beyond the table, so a detector that implements only the first two
//! calls behaves identically on every framework path.

use midas_kb::{KnowledgeBase, Symbol};

use crate::fact_table::{EntityId, FactTable};
use crate::hierarchy::SliceHierarchy;
use crate::single_source::MidasAlg;
use crate::slice::DiscoveredSlice;
use crate::source::SourceFacts;

/// Input to one detection call: a web source (at any granularity), the
/// knowledge base to augment, and — from round two on — the slices exported
/// by the source's children, as property sets.
#[derive(Debug)]
pub struct DetectInput<'a> {
    /// The source to detect slices in.
    pub source: &'a SourceFacts,
    /// The knowledge base being augmented.
    pub kb: &'a KnowledgeBase,
    /// Children-exported property sets (empty in the first round).
    pub seeds: &'a [Vec<(Symbol, Symbol)>],
}

/// What the caller of [`SliceDetector::detect_leaf`] already holds for the
/// source, and what it wants back.
#[derive(Debug, Default)]
pub struct LeafState<'a> {
    /// A fact table prebuilt from exactly this source (a snapshot's, or the
    /// incremental cache's with [`FactTable::refresh_new_counts`] applied).
    /// `None`: the detector builds its own.
    pub table: Option<&'a FactTable>,
    /// Last round's hierarchy for this source, with the entity ids whose
    /// `new`-fact counts moved since it was built (the bound of
    /// [`SliceHierarchy::warm_patch`]). Ownership passes to the detector.
    pub warm: Option<(SliceHierarchy, Vec<EntityId>)>,
    /// Whether the caller keeps the table and hierarchy the detector
    /// builds; when `false` the detector recycles them itself.
    pub retain: bool,
}

/// The result of [`SliceDetector::detect_leaf`].
#[derive(Debug, Default)]
pub struct LeafOutcome {
    /// The detected slices.
    pub slices: Vec<DiscoveredSlice>,
    /// The table the detector built (only with `retain` and no given table).
    pub table: Option<FactTable>,
    /// The hierarchy the detector built or patched (only with `retain`).
    pub hierarchy: Option<SliceHierarchy>,
    /// Whether the warm hierarchy was patched in place rather than rebuilt.
    pub warmed: bool,
}

/// A slice-detection algorithm usable inside the framework.
pub trait SliceDetector: Sync {
    /// Short algorithm name for reports ("midas", "greedy", …).
    fn name(&self) -> &'static str;

    /// Detects slices in one source.
    ///
    /// When `input.seeds` is non-empty the detector should use them as the
    /// initial hierarchy (detectors that cannot exploit seeds may ignore
    /// them and detect from scratch).
    fn detect(&self, input: DetectInput<'_>) -> Vec<DiscoveredSlice>;

    /// Detects slices over a pre-built fact table for `input.source`. The
    /// default ignores the table and detects from scratch, which is always
    /// correct.
    fn detect_on_table(&self, table: &FactTable, input: DetectInput<'_>) -> Vec<DiscoveredSlice> {
        let _ = table;
        self.detect(input)
    }

    /// Detects slices in one round-0 leaf given the caller's [`LeafState`].
    /// The slices must equal [`SliceDetector::detect`]'s whatever the state.
    /// The default recycles any warm hierarchy, detects over the given
    /// table (or from scratch), and retains nothing.
    fn detect_leaf(&self, input: DetectInput<'_>, state: LeafState<'_>) -> LeafOutcome {
        if let Some((h, _)) = state.warm {
            h.recycle();
        }
        let slices = match state.table {
            Some(table) => self.detect_on_table(table, input),
            None => self.detect(input),
        };
        LeafOutcome {
            slices,
            ..LeafOutcome::default()
        }
    }
}

impl SliceDetector for MidasAlg {
    fn name(&self) -> &'static str {
        "midas"
    }

    fn detect(&self, input: DetectInput<'_>) -> Vec<DiscoveredSlice> {
        self.detect_leaf(input, LeafState::default()).slices
    }

    fn detect_on_table(&self, table: &FactTable, input: DetectInput<'_>) -> Vec<DiscoveredSlice> {
        let state = LeafState {
            table: Some(table),
            ..LeafState::default()
        };
        self.detect_leaf(input, state).slices
    }

    fn detect_leaf(&self, input: DetectInput<'_>, state: LeafState<'_>) -> LeafOutcome {
        // The framework's seed convention: no seeds means entity-derived
        // initial slices, not an empty initial hierarchy.
        let seeds = (!input.seeds.is_empty()).then_some(input.seeds);
        self.detect_source(input.source, input.kb, seeds, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MidasConfig;
    use crate::fixtures::skyrocket;
    use midas_kb::Interner;

    #[test]
    fn midas_alg_implements_detector() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        let out = alg.detect(DetectInput {
            source: &src,
            kb: &kb,
            seeds: &[],
        });
        assert_eq!(out.len(), 1);
        assert_eq!(alg.name(), "midas");
    }
}
