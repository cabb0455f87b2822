//! The scoring object and the objective-point currency.
//!
//! The environment asks an [`Evaluator`] for the `(area, delay)` of a
//! prefix graph. An evaluator is one [`CircuitTask`] scored by one
//! [`ObjectiveBackend`] (DESIGN.md §12), memoized through an [`EvalCache`]
//! store: its own, or one that several evaluators share (paper Section
//! IV-D). This module keeps:
//!
//! - [`ObjectivePoint`] — the minimized `(area, delay)` pair with the one
//!   tested strict/weak dominance definition every Pareto structure uses;
//! - [`Evaluator`] — the task, the backend and the store, keyed by the
//!   [`crate::task::discriminant_of`] word of the pair so evaluators that
//!   share a store never alias each other's points.

use crate::cache::EvalCache;
use crate::task::{self, AnalyticalBackend, CircuitTask, ObjectiveBackend, SynthesisBackend};
use netlist::Library;
use prefix_graph::PrefixGraph;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use synth::sweep::SweepConfig;

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

/// A circuit task scored by an objective backend, memoized through an
/// [`EvalCache`] store.
///
/// Backends must be deterministic per `(task, graph)`: the store assumes a
/// state always scores to the same point.
pub struct Evaluator {
    task: Arc<dyn CircuitTask>,
    backend: Arc<dyn ObjectiveBackend>,
    store: Arc<EvalCache>,
    name: String,
    discriminant: u64,
}

impl Evaluator {
    /// `task` scored by `backend` through a store of its own.
    pub fn new(task: Arc<dyn CircuitTask>, backend: Arc<dyn ObjectiveBackend>) -> Self {
        Self::with_store(task, backend, Arc::default())
    }

    /// `task` scored by `backend` through `store`, which other evaluators
    /// may share: the `(task, backend)` discriminant keeps their entries
    /// apart.
    pub fn with_store(
        task: Arc<dyn CircuitTask>,
        backend: Arc<dyn ObjectiveBackend>,
        store: Arc<EvalCache>,
    ) -> Self {
        let name = format!("{}/{}", task.task_id(), backend.backend_id());
        let discriminant = task::discriminant_of(task.task_id(), backend.backend_id());
        Evaluator {
            task,
            backend,
            store,
            name,
            discriminant,
        }
    }

    /// Shorthand: `task` scored by the [`AnalyticalBackend`].
    pub fn analytical(task: impl CircuitTask + 'static) -> Self {
        Self::new(Arc::new(task), Arc::new(AnalyticalBackend))
    }

    /// Shorthand: `task` scored by a [`SynthesisBackend`] at weight
    /// `w_area`.
    pub fn synthesis(
        task: impl CircuitTask + 'static,
        lib: Library,
        sweep: SweepConfig,
        w_area: f64,
    ) -> Self {
        Self::new(
            Arc::new(task),
            Arc::new(SynthesisBackend::new(lib, sweep, w_area)),
        )
    }

    /// The graph's objectives: the stored point, or the backend's score
    /// on a miss. Concurrent misses on one state score it once.
    pub fn evaluate(&self, graph: &PrefixGraph) -> ObjectivePoint {
        self.store.memoize(self.discriminant, graph, || {
            self.backend.score(self.task.as_ref(), graph)
        })
    }

    /// The circuit task.
    pub fn task(&self) -> &Arc<dyn CircuitTask> {
        &self.task
    }

    /// The objective backend.
    pub fn backend(&self) -> &Arc<dyn ObjectiveBackend> {
        &self.backend
    }

    /// The memo store: its statistics are the aggregate over every
    /// evaluator sharing it.
    pub fn store(&self) -> &Arc<EvalCache> {
        &self.store
    }

    /// `"task/backend"`, for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The backend's off-reward-path annotation for `graph`, if any
    /// (never memoized).
    pub fn annotate(&self, graph: &PrefixGraph) -> Option<f64> {
        self.backend.annotate(self.task.as_ref(), graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Adder;
    use prefix_graph::structures;

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
        let p = Evaluator::analytical(Adder).evaluate(&g);
        assert_eq!(p.area, g.size() as f64);
        assert!(p.delay > 0.0);
    }

    #[test]
    fn synthesis_weight_moves_along_curve() {
        let lib = Library::nangate45();
        let g = structures::sklansky(16);
        let fast = Evaluator::synthesis(Adder, lib.clone(), SweepConfig::fast(), 0.05);
        let small = Evaluator::synthesis(Adder, lib, SweepConfig::fast(), 0.95);
        let pf = fast.evaluate(&g);
        let ps = small.evaluate(&g);
        assert!(pf.delay <= ps.delay, "delay-heavy picks faster point");
        assert!(pf.area >= ps.area, "area-heavy picks smaller point");
    }

    #[test]
    fn evaluation_is_deterministic() {
        // Two evaluators, so both points are scored, not one replayed.
        let ev = || Evaluator::synthesis(Adder, Library::nangate45(), SweepConfig::fast(), 0.5);
        let g = structures::brent_kung(8);
        assert_eq!(ev().evaluate(&g), ev().evaluate(&g));
    }
}
