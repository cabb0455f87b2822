//! The evaluator interface and the objective-point currency.
//!
//! The environment asks an [`Evaluator`] for the `(area, delay)` of a
//! prefix graph. Concrete oracles live in [`crate::task`]: a
//! [`crate::task::CircuitTask`] bound to an
//! [`crate::task::ObjectiveBackend`] through
//! [`crate::task::TaskEvaluator`] (DESIGN.md §12). This module keeps:
//!
//! - [`ObjectivePoint`] — the minimized `(area, delay)` pair with the one
//!   tested strict/weak dominance definition every Pareto structure uses;
//! - [`Evaluator`] — the engine-facing oracle trait consumed by the cache
//!   and the environment (and implemented by test fakes), including the
//!   [`Evaluator::cache_discriminant`] that keeps distinct `(task,
//!   backend)` pairs from aliasing cached points.

use prefix_graph::PrefixGraph;
use serde::{Deserialize, Serialize};

/// A point in the (area, delay) objective space; both minimized.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ObjectivePoint {
    /// Circuit area (µm² for synthesis, node count for analytical).
    pub area: f64,
    /// Circuit delay (ns for synthesis, model units for analytical).
    pub delay: f64,
}

impl ObjectivePoint {
    /// Strict Pareto dominance for minimization: better-or-equal on both
    /// objectives and strictly better on at least one. A point never
    /// strictly dominates itself.
    pub fn dominates(&self, other: &ObjectivePoint) -> bool {
        self.weakly_dominates(other) && (self.area < other.area || self.delay < other.delay)
    }

    /// Weak Pareto dominance for minimization: better-or-equal on both
    /// objectives (equality included, so every point weakly dominates
    /// itself). This is the single definition all frontier structures
    /// filter with.
    pub fn weakly_dominates(&self, other: &ObjectivePoint) -> bool {
        self.area <= other.area && self.delay <= other.delay
    }
}

/// An (area, delay) oracle over prefix graphs.
///
/// Implementations must be deterministic: the synthesis cache assumes a
/// graph always evaluates to the same point.
pub trait Evaluator: Send + Sync {
    /// Evaluates the graph's objectives.
    fn evaluate(&self, graph: &PrefixGraph) -> ObjectivePoint;

    /// A short name for reports.
    fn name(&self) -> &str;

    /// A stable word mixed into every cache key built over this
    /// evaluator's results, so caches never serve one oracle's point for
    /// another's request. [`crate::task::TaskEvaluator`] derives it from
    /// `(task_id, backend_id)`; oracle wrappers must forward it.
    fn cache_discriminant(&self) -> u64 {
        0
    }

    /// The task id this oracle is bound to, when it is task-bound.
    /// [`crate::env::PrefixEnv::with_task`] cross-checks it against the
    /// environment's task, so a checkpoint can never be stamped with one
    /// task while rewards silently score another. `None` (the default)
    /// means task-agnostic — no check. Wrappers must forward it.
    fn bound_task_id(&self) -> Option<&str> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Adder, TaskEvaluator};
    use netlist::Library;
    use prefix_graph::structures;
    use synth::sweep::SweepConfig;

    #[test]
    fn dominance_relation() {
        let a = ObjectivePoint {
            area: 1.0,
            delay: 1.0,
        };
        let b = ObjectivePoint {
            area: 2.0,
            delay: 1.0,
        };
        let c = ObjectivePoint {
            area: 0.5,
            delay: 2.0,
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c) && !c.dominates(&a), "incomparable");
        assert!(!a.dominates(&a), "strictness");
    }

    #[test]
    fn weak_dominance_includes_equality() {
        let a = ObjectivePoint {
            area: 1.0,
            delay: 1.0,
        };
        let b = ObjectivePoint {
            area: 2.0,
            delay: 1.0,
        };
        assert!(a.weakly_dominates(&a), "weak dominance is reflexive");
        assert!(a.weakly_dominates(&b));
        assert!(!b.weakly_dominates(&a));
        // Strict implies weak, never the converse on equal points.
        assert!(a.dominates(&b) && a.weakly_dominates(&b));
        assert!(a.weakly_dominates(&a) && !a.dominates(&a));
    }

    #[test]
    fn analytical_matches_model() {
        let g = structures::sklansky(16);
        let p = TaskEvaluator::analytical(Adder).evaluate(&g);
        assert_eq!(p.area, g.size() as f64);
        assert!(p.delay > 0.0);
    }

    #[test]
    fn synthesis_weight_moves_along_curve() {
        let lib = Library::nangate45();
        let g = structures::sklansky(16);
        let fast = TaskEvaluator::synthesis(Adder, lib.clone(), SweepConfig::fast(), 0.05);
        let small = TaskEvaluator::synthesis(Adder, lib, SweepConfig::fast(), 0.95);
        let pf = fast.evaluate(&g);
        let ps = small.evaluate(&g);
        assert!(pf.delay <= ps.delay, "delay-heavy picks faster point");
        assert!(pf.area >= ps.area, "area-heavy picks smaller point");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let lib = Library::nangate45();
        let ev = TaskEvaluator::synthesis(Adder, lib, SweepConfig::fast(), 0.5);
        let g = structures::brent_kung(8);
        assert_eq!(ev.evaluate(&g), ev.evaluate(&g));
    }
}
