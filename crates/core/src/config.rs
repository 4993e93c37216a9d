//! Cost model and algorithm configuration.

use crate::budget::SourceBudget;

/// The cost coefficients of the profit function (Definition 9).
///
/// The profit of a set of slices `S` drawn from web sources `W` against a
/// knowledge base `E` is
///
/// ```text
/// f(S) = G(S) − C(S)
/// G(S) = |∪S \ E|                                    (unique new facts)
/// C(S) = C_crawl + C_dedup + C_validate
/// C_crawl    = |S|·f_p + Σ_{W∈W} f_c·|T_W|           (training + crawling)
/// C_dedup    = f_d·|∪S|                              (all facts in slices)
/// C_validate = f_v·|∪S \ E|                          (new facts only)
/// ```
///
/// Paper defaults: `f_p = 10, f_c = 0.001, f_d = 0.01, f_v = 0.1`; the
/// running example (Figures 4–5, Examples 10–14) uses `f_p = 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-slice unit cost for training an extractor (`f_p`).
    pub fp: f64,
    /// Per-fact crawling cost over the whole source (`f_c`).
    pub fc: f64,
    /// Per-fact de-duplication cost over the slice facts (`f_d`).
    pub fd: f64,
    /// Per-new-fact validation cost (`f_v`).
    pub fv: f64,
}

impl Default for CostModel {
    /// The paper's experimental defaults.
    fn default() -> Self {
        CostModel {
            fp: 10.0,
            fc: 0.001,
            fd: 0.01,
            fv: 0.1,
        }
    }
}

impl CostModel {
    /// The cost model of the paper's running example (`f_p = 1`).
    pub fn running_example() -> Self {
        CostModel {
            fp: 1.0,
            ..CostModel::default()
        }
    }
}

/// Tuning knobs for MIDASalg and the framework.
#[derive(Debug, Clone, PartialEq)]
pub struct MidasConfig {
    /// Cost coefficients of the profit function.
    pub cost: CostModel,
    /// Cap on the number of initial slices generated per entity when a
    /// predicate is multi-valued (the paper takes the full cross-product of
    /// per-predicate values but does not discuss the blow-up; we bound it).
    pub max_initial_combinations_per_entity: usize,
    /// Cap on the number of properties considered per entity. Entities with
    /// more distinct properties keep the most *selective* ones (smallest
    /// extents), bounding the O(2^k) property lattice.
    pub max_properties_per_entity: usize,
    /// Global safety valve on hierarchy size; construction stops expanding
    /// once this many nodes exist (results remain valid slices, possibly
    /// missing some coarse ancestors).
    pub max_hierarchy_nodes: usize,
    /// Disables low-profit pruning — for the ablation benchmarks only.
    pub disable_profit_pruning: bool,
    /// When the traversal selects nothing (every slice is unprofitable on
    /// its own), report the single best canonical slice anyway, with its
    /// (negative) profit. Combined with [`crate::ExportPolicy::ExportAll`]
    /// this lets the framework aggregate many individually-unprofitable
    /// pages into a profitable coarser slice. Because that fallback may
    /// report a low-profit-invalidated node, this also keeps invalidated
    /// nodes' extents alive instead of releasing them at the level boundary.
    pub always_report_best: bool,
    /// Worker threads for level-wise hierarchy construction (parent
    /// generation and profit evaluation). `1` = fully sequential. Any value
    /// produces node-for-node identical hierarchies: parallel phases only
    /// compute, and all structural mutation happens in a deterministic
    /// sequential merge. A build issued from a pool worker (every
    /// framework source task) runs sequentially whatever this says; see
    /// [`crate::parallel::effective_threads`].
    pub threads: usize,
    /// Per-source execution budget enforced by the framework rounds. Three
    /// knobs, all unlimited by default:
    ///
    /// * `max_facts` — sources with more facts are quarantined up front
    ///   (CLI: `--max-source-facts`);
    /// * `max_nodes` — hierarchy construction beyond this many nodes
    ///   quarantines the source at the next level boundary
    ///   (CLI: `--max-source-nodes`);
    /// * `deadline` — wall-clock allowance per source, enforced across
    ///   workers (CLI: `--source-deadline-ms`).
    ///
    /// A source that breaches any knob is dropped with its partial state
    /// discarded and recorded in the run's [`crate::Quarantine`]; the run
    /// itself always completes.
    pub budget: SourceBudget,
    /// Bound on the number of shards a framework round admits to its pool at
    /// once (CLI: `--stream-window`). `None` = unbounded (the whole round in
    /// flight). Smaller windows cap peak resident memory; reports are
    /// bit-identical at every window.
    pub stream_window: Option<usize>,
}

impl Default for MidasConfig {
    fn default() -> Self {
        MidasConfig {
            cost: CostModel::default(),
            max_initial_combinations_per_entity: 64,
            max_properties_per_entity: 12,
            max_hierarchy_nodes: 4_000_000,
            disable_profit_pruning: false,
            always_report_best: false,
            threads: 1,
            budget: SourceBudget::unlimited(),
            stream_window: None,
        }
    }
}

impl MidasConfig {
    /// Config with the running-example cost model.
    pub fn running_example() -> Self {
        MidasConfig {
            cost: CostModel::running_example(),
            ..MidasConfig::default()
        }
    }

    /// Replaces the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the construction thread count (`1` = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Replaces the per-source execution budget.
    pub fn with_budget(mut self, budget: SourceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the framework's streaming admission window (`None` = unbounded).
    pub fn with_stream_window(mut self, window: Option<usize>) -> Self {
        self.stream_window = window.map(|w| w.max(1));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CostModel::default();
        assert_eq!(c.fp, 10.0);
        assert_eq!(c.fc, 0.001);
        assert_eq!(c.fd, 0.01);
        assert_eq!(c.fv, 0.1);
    }

    #[test]
    fn running_example_only_changes_fp() {
        let c = CostModel::running_example();
        assert_eq!(c.fp, 1.0);
        assert_eq!(c.fc, 0.001);
    }

    #[test]
    fn config_builder_replaces_cost() {
        let cfg = MidasConfig::default().with_cost(CostModel::running_example());
        assert_eq!(cfg.cost.fp, 1.0);
        assert!(!cfg.disable_profit_pruning);
    }
}
