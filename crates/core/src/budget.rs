//! Per-source execution budgets.
//!
//! MIDAS consumes the output of a *low-precision* extraction pipeline
//! (§II, Def. 1–2): pathological sources — a single page carrying millions
//! of facts, an adversarial property lattice, a shard that never converges —
//! are expected input. A [`SourceBudget`] bounds what one source may consume
//! before the framework gives up on it:
//!
//! * **fact-count cap** (`max_facts`): checked up front, before any work;
//! * **hierarchy-node cap** (`max_nodes`): checked cooperatively as the
//!   slice-hierarchy construction finds each canonical slice;
//! * **wall-clock deadline** (`deadline`): checked cooperatively at the
//!   same points and at every level boundary of the profit evaluation,
//!   *and* enforced across worker threads by the
//!   `recv_timeout`-based collection loop of [`crate::parallel::par_map`].
//!
//! A source that blows its budget is abandoned by unwinding with a
//! [`BudgetBreach`] payload. The panic-safe worker pool
//! ([`crate::parallel::par_map_isolated`]) catches the unwind, discards the
//! source's partial state, and surfaces the breach as a structured fault —
//! the run continues over the remaining sources.
//!
//! The budget travels through a thread-local [`BudgetScope`] so that deep
//! callees (hierarchy construction, profit evaluation) need no signature
//! changes: the framework enters a scope around each per-source task, and
//! [`checkpoint`] consults whatever scope is active. Scopes do not nest —
//! the outermost scope wins, so a framework-level deadline is not extended
//! by an inner component re-entering.

use std::cell::RefCell;
use std::fmt;
use std::panic::panic_any;
use std::time::{Duration, Instant};

/// Execution limits for processing one web source. All limits default to
/// `None` (unlimited), which preserves the pre-budget behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SourceBudget {
    /// Cap on `|T_W|`, the source's fact count. Sources above the cap are
    /// quarantined before any detection work starts. Deterministic.
    pub max_facts: Option<usize>,
    /// Cap on the canonical slices (closed property sets) of one hierarchy
    /// built while detecting in this source. Checked as each one is found,
    /// so enforcement is exact and deterministic. Contrast with
    /// `MidasConfig::max_hierarchy_nodes`, which keeps the initial slices
    /// and goes on; breaching this budget *discards* the source.
    pub max_nodes: Option<usize>,
    /// Wall-clock allowance for the source's detection work. Inherently
    /// non-deterministic; intended as a production back-stop, not for
    /// reproducible experiments.
    pub deadline: Option<Duration>,
}

impl SourceBudget {
    /// The permissive default: no limits.
    pub const fn unlimited() -> Self {
        SourceBudget {
            max_facts: None,
            max_nodes: None,
            deadline: None,
        }
    }

    /// Whether every limit is disabled.
    pub fn is_unlimited(&self) -> bool {
        self.max_facts.is_none() && self.max_nodes.is_none() && self.deadline.is_none()
    }

    /// Sets the fact-count cap.
    pub fn with_max_facts(mut self, cap: usize) -> Self {
        self.max_facts = Some(cap);
        self
    }

    /// Sets the hierarchy-node cap.
    pub fn with_max_nodes(mut self, cap: usize) -> Self {
        self.max_nodes = Some(cap);
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Which budget dimension was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreachKind {
    /// The source's fact count exceeded `max_facts`.
    Facts,
    /// Hierarchy construction created more than `max_nodes` nodes.
    HierarchyNodes,
    /// The wall-clock deadline elapsed.
    Deadline,
    /// A breach injected by the deterministic fault harness
    /// ([`crate::faultinject`]); never produced by a real budget.
    Injected,
}

impl fmt::Display for BreachKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreachKind::Facts => write!(f, "fact-count cap"),
            BreachKind::HierarchyNodes => write!(f, "hierarchy-node cap"),
            BreachKind::Deadline => write!(f, "wall-clock deadline"),
            BreachKind::Injected => write!(f, "injected budget exhaustion"),
        }
    }
}

/// A structured record of one budget violation. Used as the panic payload
/// when a budgeted computation is abandoned, and preserved verbatim in the
/// resulting quarantine record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetBreach {
    /// The exhausted dimension.
    pub kind: BreachKind,
    /// The configured limit (milliseconds for [`BreachKind::Deadline`]).
    pub limit: u64,
    /// The observed value at the moment of the breach (same unit).
    pub observed: u64,
}

impl fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            BreachKind::Deadline => write!(
                f,
                "{} exceeded: {} ms elapsed of {} ms allowed",
                self.kind, self.observed, self.limit
            ),
            BreachKind::Injected => write!(f, "{}", self.kind),
            _ => write!(
                f,
                "{} exceeded: {} observed, {} allowed",
                self.kind, self.observed, self.limit
            ),
        }
    }
}

/// Abandons the current source by unwinding with `breach` as the payload.
/// Callers above (the isolated worker pool, [`crate::detector`]'s guarded
/// path) catch the unwind and turn it into a quarantine record.
pub fn breach(breach: BudgetBreach) -> ! {
    panic_any(breach)
}

/// The resolved, absolute-time form of a budget, installed thread-locally.
#[derive(Debug, Clone, Copy)]
struct ActiveBudget {
    entered: Instant,
    deadline: Option<Instant>,
    deadline_ms: u64,
    max_nodes: Option<usize>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveBudget>> = const { RefCell::new(None) };
}

/// RAII guard installing a [`SourceBudget`] as the thread's active budget.
///
/// While the guard lives, [`checkpoint`] and the deadline-aware collection
/// loop of [`crate::parallel::par_map`] enforce the budget on this thread.
/// Entering a scope while one is already active yields a pass-through guard
/// (the outer scope keeps governing).
#[derive(Debug)]
pub struct BudgetScope {
    installed: bool,
}

impl BudgetScope {
    /// Resolves `budget` against the current instant and installs it, unless
    /// a scope is already active on this thread.
    pub fn enter(budget: &SourceBudget) -> BudgetScope {
        if budget.is_unlimited() {
            return BudgetScope { installed: false };
        }
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            if a.is_some() {
                return BudgetScope { installed: false };
            }
            let now = Instant::now();
            *a = Some(ActiveBudget {
                entered: now,
                deadline: budget.deadline.map(|d| now + d),
                deadline_ms: budget.deadline.map_or(0, |d| d.as_millis() as u64),
                max_nodes: budget.max_nodes,
            });
            BudgetScope { installed: true }
        })
    }
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        if self.installed {
            ACTIVE.with(|a| *a.borrow_mut() = None);
        }
    }
}

/// The active scope's absolute deadline, if any. Read by the worker pool to
/// decide between blocking and `recv_timeout`-bounded result collection.
pub fn active_deadline() -> Option<Instant> {
    ACTIVE.with(|a| a.borrow().and_then(|b| b.deadline))
}

/// Unwinds with a [`BreachKind::Deadline`] breach describing the active
/// scope (or a generic one when called without a scope).
pub fn breach_deadline() -> ! {
    let (limit, observed) = ACTIVE.with(|a| {
        a.borrow().map_or((0, 0), |b| {
            (b.deadline_ms, b.entered.elapsed().as_millis() as u64)
        })
    });
    breach(BudgetBreach {
        kind: BreachKind::Deadline,
        limit,
        observed,
    })
}

/// Cooperative budget check, called as hierarchy construction finds each
/// canonical slice and at every level boundary of its profit evaluation.
///
/// `nodes` is the node count of the hierarchy under construction so far.
/// No-op without an active scope; unwinds with a [`BudgetBreach`] when the
/// node cap or the deadline is exceeded.
pub fn checkpoint(nodes: usize) {
    let Some(active) = ACTIVE.with(|a| *a.borrow()) else {
        return;
    };
    if let Some(cap) = active.max_nodes {
        if nodes > cap {
            breach(BudgetBreach {
                kind: BreachKind::HierarchyNodes,
                limit: cap as u64,
                observed: nodes as u64,
            });
        }
    }
    if let Some(deadline) = active.deadline {
        if Instant::now() >= deadline {
            breach_deadline();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn unlimited_budget_never_checkpoints() {
        let _scope = BudgetScope::enter(&SourceBudget::unlimited());
        assert!(active_deadline().is_none());
        checkpoint(usize::MAX); // must not panic
    }

    #[test]
    fn node_cap_breaches_with_payload() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _scope = BudgetScope::enter(&SourceBudget::unlimited().with_max_nodes(10));
            checkpoint(11);
        }))
        .unwrap_err();
        let b = err.downcast::<BudgetBreach>().expect("typed payload");
        assert_eq!(b.kind, BreachKind::HierarchyNodes);
        assert_eq!(b.limit, 10);
        assert_eq!(b.observed, 11);
        // The scope was torn down during the unwind.
        checkpoint(usize::MAX);
    }

    #[test]
    fn deadline_breaches_once_elapsed() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _scope =
                BudgetScope::enter(&SourceBudget::unlimited().with_deadline(Duration::ZERO));
            std::thread::sleep(Duration::from_millis(2));
            checkpoint(0);
        }))
        .unwrap_err();
        let b = err.downcast::<BudgetBreach>().expect("typed payload");
        assert_eq!(b.kind, BreachKind::Deadline);
    }

    #[test]
    fn inner_scope_is_pass_through() {
        let _outer = BudgetScope::enter(&SourceBudget::unlimited().with_max_nodes(5));
        {
            // The inner, laxer scope must not displace the outer one.
            let _inner = BudgetScope::enter(&SourceBudget::unlimited().with_max_nodes(500));
            let err = catch_unwind(AssertUnwindSafe(|| checkpoint(6))).unwrap_err();
            assert!(err.downcast_ref::<BudgetBreach>().is_some());
        }
        // Dropping the inner guard must not clear the outer scope.
        assert!(catch_unwind(AssertUnwindSafe(|| checkpoint(6))).is_err());
    }

    #[test]
    fn breach_renders_human_readable() {
        let b = BudgetBreach {
            kind: BreachKind::Facts,
            limit: 100,
            observed: 250,
        };
        let s = b.to_string();
        assert!(s.contains("fact-count cap"));
        assert!(s.contains("250"));
    }
}
