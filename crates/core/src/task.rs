//! Circuit tasks and objective backends: the pluggable workload layer.
//!
//! The paper's concluding observation — and the related cross-layer /
//! pruned-search literature — is that the PrefixRL MDP is not about adders:
//! *any* parallel prefix computation over an associative operator shares the
//! same state space, action space, and legalization rules, and only the
//! mapping from prefix graph to gates (and the oracle scoring those gates)
//! differs. This module makes that split first-class with two traits:
//!
//! - [`CircuitTask`] — what is being computed: netlist emission from a
//!   [`PrefixGraph`], a bit-level functional reference for
//!   simulation-checking the emitted gates, the analytical objective, the
//!   episode start-state set, and a stable [`CircuitTask::task_id`] used by
//!   cache keys, checkpoints, and reports. Three tasks ship built-in:
//!   [`Adder`] (the paper's workload), [`PrefixOr`] (priority-encoder /
//!   leading-zero spines), and [`Incrementer`] (AND-prefix carry chains).
//! - [`ObjectiveBackend`] — how a task's circuit is scored: the
//!   [`AnalyticalBackend`] (graph-level model of ref. \[14\]) or the
//!   [`SynthesisBackend`] (emit the task netlist, run the Fig. 3
//!   timing-driven sweep, return the `w`-optimal point), optionally with a
//!   static switching-power annotation off the reward path.
//!
//! An [`crate::evaluator::Evaluator`] scores one task with one backend.
//! It is the only oracle an [`crate::experiment::Experiment`] holds: the
//! builder constructs it from its own `.task(..)`/`.backend(..)`, so the
//! pair that scores a run is always the pair its report names. Its cache
//! keys start with [`discriminant_of`] the pair, so evaluation caches
//! never alias points across tasks or backends even when shared.

use crate::evaluator::ObjectivePoint;
use netlist::{Library, Netlist};
use prefix_graph::{analytical, structures, PrefixGraph};
use std::sync::Arc;
use synth::sweep::{sweep_netlist, SweepConfig};

// ------------------------------------------------------------------ tasks

/// A parallel prefix computation the PrefixRL environment can optimize.
///
/// Implementations must be stateless and deterministic: the same graph must
/// always emit the same netlist, and `task_id` must be stable across
/// processes (it is recorded in checkpoints and cache keys).
pub trait CircuitTask: Send + Sync {
    /// Stable identifier (e.g. `"adder"`), recorded in checkpoints,
    /// reports, and cache-key discriminants. Lowercase kebab-case.
    fn task_id(&self) -> &'static str;

    /// Emits the gate-level netlist computing this task over `graph`.
    fn emit_netlist(&self, graph: &PrefixGraph) -> Netlist;

    /// Number of primary input bits of the emitted netlist at width `n`.
    fn input_bits(&self, n: u16) -> usize;

    /// Number of primary output bits of the emitted netlist at width `n`.
    fn output_bits(&self, n: u16) -> usize;

    /// The golden functional model: expected primary outputs for a primary
    /// input assignment (both in netlist declaration order). Used by the
    /// equivalence tests to check emitted gates against task semantics.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `inputs.len() != self.input_bits(n)`.
    fn reference(&self, n: u16, inputs: &[bool]) -> Vec<bool>;

    /// The analytical objective of ref. \[14\] (area = node count, node
    /// delay `1 + 0.5·fanout`). The model is graph-level, so the default
    /// is shared by every task.
    fn analytical(&self, graph: &PrefixGraph) -> ObjectivePoint {
        let m = analytical::evaluate(graph);
        ObjectivePoint {
            area: m.area,
            delay: m.delay,
        }
    }

    /// The episode start-state set, in priority order. The default is the
    /// paper's pair: ripple-carry (minimum nodes) then Sklansky (minimum
    /// levels). [`crate::env::StartState`] indexes into this set.
    fn start_states(&self, n: u16) -> Vec<PrefixGraph> {
        vec![PrefixGraph::ripple(n), structures::sklansky(n)]
    }
}

/// The paper's workload: a parallel prefix adder (`s = a + b`, carry out).
#[derive(Clone, Copy, Debug, Default)]
pub struct Adder;

impl CircuitTask for Adder {
    fn task_id(&self) -> &'static str {
        "adder"
    }

    fn emit_netlist(&self, graph: &PrefixGraph) -> Netlist {
        netlist::adder::generate(graph)
    }

    fn input_bits(&self, n: u16) -> usize {
        2 * n as usize
    }

    fn output_bits(&self, n: u16) -> usize {
        n as usize + 1
    }

    fn reference(&self, n: u16, inputs: &[bool]) -> Vec<bool> {
        let n = n as usize;
        assert_eq!(inputs.len(), 2 * n, "adder expects 2N input bits");
        let (a, b) = inputs.split_at(n);
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = false;
        for i in 0..n {
            let half = a[i] ^ b[i];
            out.push(half ^ carry);
            carry = (a[i] & b[i]) | (half & carry);
        }
        out.push(carry);
        out
    }
}

/// OR-prefix: `y_i = x_i | x_{i-1} | … | x_0` — the spine of priority
/// encoders and leading-zero detectors.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrefixOr;

impl CircuitTask for PrefixOr {
    fn task_id(&self) -> &'static str {
        "prefix-or"
    }

    fn emit_netlist(&self, graph: &PrefixGraph) -> Netlist {
        netlist::prefix_or::generate(graph)
    }

    fn input_bits(&self, n: u16) -> usize {
        n as usize
    }

    fn output_bits(&self, n: u16) -> usize {
        n as usize
    }

    fn reference(&self, n: u16, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), n as usize, "prefix-or expects N input bits");
        let mut acc = false;
        inputs
            .iter()
            .map(|&x| {
                acc |= x;
                acc
            })
            .collect()
    }
}

/// AND-prefix incrementer: `s = a + 1` via the carry chain
/// `c_i = a_i & a_{i-1} & … & a_0`, plus the carry out.
#[derive(Clone, Copy, Debug, Default)]
pub struct Incrementer;

impl CircuitTask for Incrementer {
    fn task_id(&self) -> &'static str {
        "incrementer"
    }

    fn emit_netlist(&self, graph: &PrefixGraph) -> Netlist {
        netlist::incrementer::generate(graph)
    }

    fn input_bits(&self, n: u16) -> usize {
        n as usize
    }

    fn output_bits(&self, n: u16) -> usize {
        n as usize + 1
    }

    fn reference(&self, n: u16, inputs: &[bool]) -> Vec<bool> {
        let n = n as usize;
        assert_eq!(inputs.len(), n, "incrementer expects N input bits");
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = true; // the +1
        for &a in inputs {
            out.push(a ^ carry);
            carry &= a;
        }
        out.push(carry);
        out
    }
}

/// The task ids every built-in task registers under, in CLI listing order.
pub const TASK_NAMES: &[&str] = &["adder", "prefix-or", "incrementer"];

/// Resolves a built-in task by its [`CircuitTask::task_id`]. Custom tasks
/// are handed to the stack directly as `Arc<dyn CircuitTask>` instead.
pub fn by_name(name: &str) -> Option<Arc<dyn CircuitTask>> {
    match name {
        "adder" => Some(Arc::new(Adder)),
        "prefix-or" => Some(Arc::new(PrefixOr)),
        "incrementer" => Some(Arc::new(Incrementer)),
        _ => None,
    }
}

// --------------------------------------------------------------- backends

/// An oracle scoring a task's circuit for a prefix-graph state.
///
/// Implementations must be deterministic per `(task, graph)`: the shared
/// evaluation cache assumes a state always scores to the same point.
pub trait ObjectiveBackend: Send + Sync {
    /// Stable identifier (e.g. `"analytical"`, `"synthesis"`), combined
    /// with the task id into the cache-key discriminant.
    fn backend_id(&self) -> &'static str;

    /// Scores `graph` under `task`, both objectives minimized.
    fn score(&self, task: &dyn CircuitTask, graph: &PrefixGraph) -> ObjectivePoint;

    /// Optional per-design annotation **off the reward path**: estimated
    /// dynamic switching power in µW, when the backend can produce one.
    /// Reported alongside frontier points, never folded into rewards.
    fn annotate(&self, _task: &dyn CircuitTask, _graph: &PrefixGraph) -> Option<f64> {
        None
    }
}

/// The analytical model of ref. \[14\] (microseconds per state): delegates
/// to [`CircuitTask::analytical`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalyticalBackend;

impl ObjectiveBackend for AnalyticalBackend {
    fn backend_id(&self) -> &'static str {
        "analytical"
    }

    fn score(&self, task: &dyn CircuitTask, graph: &PrefixGraph) -> ObjectivePoint {
        task.analytical(graph)
    }
}

/// Synthesis in the loop (the paper's Fig. 3 pipeline), generalized over
/// the task's netlist emitter: generate the task netlist, run the
/// timing-driven sweep at a handful of delay targets, PCHIP-interpolate
/// the area-delay curve, and return the `w`-optimal point.
///
/// With [`SynthesisBackend::with_power_annotation`], each design is also
/// annotated with the static switching-power estimate of [`synth::power`]
/// — annotation only, never part of the reward.
#[derive(Clone, Debug)]
pub struct SynthesisBackend {
    lib: Library,
    sweep: SweepConfig,
    w_area: f64,
    w_delay: f64,
    power_annotation: bool,
}

/// The paper's unit-scaling constants of the synthesis scalarization.
const C_AREA: f64 = 0.001;
const C_DELAY: f64 = 10.0;

impl SynthesisBackend {
    /// Creates a backend for scalarization weight `w_area`
    /// (`w_delay = 1 - w_area`) over the given library, using the paper's
    /// unit-scaling constants (`c_area = 0.001`, `c_delay = 10`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ w_area ≤ 1`.
    pub fn new(lib: Library, sweep: SweepConfig, w_area: f64) -> Self {
        assert!((0.0..=1.0).contains(&w_area), "w_area must be in [0,1]");
        SynthesisBackend {
            lib,
            sweep,
            w_area,
            w_delay: 1.0 - w_area,
            power_annotation: false,
        }
    }

    /// Enables the switching-power annotation (backend id becomes
    /// `"synthesis-power"`). The estimate stays off the reward path.
    pub fn with_power_annotation(mut self) -> Self {
        self.power_annotation = true;
        self
    }

    /// The cell library this backend synthesizes with.
    pub fn library(&self) -> &Library {
        &self.lib
    }
}

impl ObjectiveBackend for SynthesisBackend {
    fn backend_id(&self) -> &'static str {
        if self.power_annotation {
            "synthesis-power"
        } else {
            "synthesis"
        }
    }

    fn score(&self, task: &dyn CircuitTask, graph: &PrefixGraph) -> ObjectivePoint {
        let curve = sweep_netlist(task.emit_netlist(graph), &self.lib, &self.sweep);
        let (area, delay) = curve.scalarized_optimum(self.w_area, self.w_delay, C_AREA, C_DELAY);
        ObjectivePoint { area, delay }
    }

    fn annotate(&self, task: &dyn CircuitTask, graph: &PrefixGraph) -> Option<f64> {
        self.power_annotation
            .then(|| synth::power::estimate(&task.emit_netlist(graph), &self.lib))
    }
}

/// The backend names the CLI and the serve daemon accept, in listing
/// order.
pub const BACKEND_NAMES: &[&str] = &["analytical", "synthesis", "synthesis-power"];

/// Resolves a built-in backend by name. Synthesis backends use `lib`, the
/// fast sweep and the curve point at weight `w_area`. The flag says whether
/// the backend scores in synthesis units, which take the
/// [`crate::env::EnvConfig::synthesis`] reward scaling.
///
/// # Errors
///
/// Fails on a name outside [`BACKEND_NAMES`], listing them.
pub fn backend_by_name(
    name: &str,
    lib: Library,
    w_area: f64,
) -> Result<(Arc<dyn ObjectiveBackend>, bool), String> {
    let synthesis = || SynthesisBackend::new(lib, SweepConfig::fast(), w_area);
    Ok(match name {
        "analytical" => (Arc::new(AnalyticalBackend), false),
        "synthesis" => (Arc::new(synthesis()), true),
        "synthesis-power" => (Arc::new(synthesis().with_power_annotation()), true),
        other => {
            return Err(format!(
                "unknown backend `{other}` (expected one of: {})",
                BACKEND_NAMES.join("|")
            ))
        }
    })
}

// ------------------------------------------------------------ cache keys

/// FNV-1a over the `task_id/backend_id` pair: the cache-key discriminant
/// that keeps two `(task, backend)` combinations from ever aliasing a
/// cached point.
pub fn discriminant_of(task_id: &str, backend_id: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in task_id
        .as_bytes()
        .iter()
        .chain(b"/")
        .chain(backend_id.as_bytes())
    {
        h ^= *byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_tasks() -> Vec<Arc<dyn CircuitTask>> {
        TASK_NAMES
            .iter()
            .map(|n| by_name(n).expect("registered"))
            .collect()
    }

    #[test]
    fn registry_round_trips_ids() {
        for name in TASK_NAMES {
            let task = by_name(name).expect("registered task");
            assert_eq!(task.task_id(), *name);
        }
        assert!(by_name("multiplier").is_none());
    }

    #[test]
    fn emitted_netlists_have_declared_shapes() {
        for task in all_tasks() {
            for n in [4u16, 8, 16] {
                let nl = task.emit_netlist(&structures::sklansky(n));
                assert_eq!(nl.inputs().len(), task.input_bits(n), "{}", task.task_id());
                assert_eq!(
                    nl.outputs().len(),
                    task.output_bits(n),
                    "{}",
                    task.task_id()
                );
            }
        }
    }

    #[test]
    fn references_match_word_arithmetic() {
        let n = 8u16;
        let bits = |x: u64, k: usize| (0..k).map(|i| (x >> i) & 1 == 1).collect::<Vec<bool>>();
        let word = |v: &[bool]| {
            v.iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
        };
        for a in [0u64, 1, 41, 170, 255] {
            for b in [0u64, 1, 85, 254, 255] {
                let mut inputs = bits(a, 8);
                inputs.extend(bits(b, 8));
                assert_eq!(word(&Adder.reference(n, &inputs)), a + b);
            }
            assert_eq!(word(&Incrementer.reference(n, &bits(a, 8))), a + 1);
            assert_eq!(
                word(&PrefixOr.reference(n, &bits(a, 8))),
                netlist::prefix_or::reference(a, 8)
            );
        }
    }

    #[test]
    fn start_states_are_legal_and_paper_shaped() {
        for task in all_tasks() {
            let pool = task.start_states(8);
            assert_eq!(pool.len(), 2, "{}", task.task_id());
            for g in &pool {
                g.verify_legal().unwrap();
                assert_eq!(g.n(), 8);
            }
            assert_eq!(pool[0].size(), 7, "ripple first");
            assert_eq!(pool[1].size(), 12, "sklansky second");
        }
    }

    #[test]
    fn analytical_backend_is_graph_level() {
        let g = structures::brent_kung(16);
        let m = analytical::evaluate(&g);
        for task in all_tasks() {
            let p = AnalyticalBackend.score(task.as_ref(), &g);
            assert_eq!(p.area, m.area, "{}", task.task_id());
            assert_eq!(p.delay, m.delay, "{}", task.task_id());
        }
    }

    #[test]
    fn synthesis_backend_separates_tasks() {
        // The same graph synthesizes to very different circuits per task:
        // one gate per node for OR-prefix vs G/P pairs for the adder.
        let g = structures::sklansky(8);
        let lib = Library::nangate45();
        let backend = SynthesisBackend::new(lib, SweepConfig::fast(), 0.5);
        let adder = backend.score(&Adder, &g);
        let or = backend.score(&PrefixOr, &g);
        let inc = backend.score(&Incrementer, &g);
        assert!(or.area < adder.area, "or {or:?} vs adder {adder:?}");
        assert!(inc.area < adder.area, "inc {inc:?} vs adder {adder:?}");
    }

    #[test]
    fn power_annotation_is_opt_in() {
        let g = structures::sklansky(8);
        let lib = Library::nangate45();
        let plain = SynthesisBackend::new(lib.clone(), SweepConfig::fast(), 0.5);
        assert_eq!(plain.backend_id(), "synthesis");
        assert!(plain.annotate(&Adder, &g).is_none());
        assert!(AnalyticalBackend.annotate(&Adder, &g).is_none());
        let power = plain.with_power_annotation();
        assert_eq!(power.backend_id(), "synthesis-power");
        let p = power.annotate(&Adder, &g).expect("annotated");
        assert!(p > 0.0);
        // Annotation does not perturb the reward point.
        let with = power.score(&Adder, &g);
        let without =
            SynthesisBackend::new(Library::nangate45(), SweepConfig::fast(), 0.5).score(&Adder, &g);
        assert_eq!(with, without);
    }

    #[test]
    fn discriminants_are_pairwise_distinct() {
        let mut seen = std::collections::HashSet::new();
        for task in TASK_NAMES {
            for backend in ["analytical", "synthesis", "synthesis-power"] {
                assert!(
                    seen.insert(discriminant_of(task, backend)),
                    "collision at ({task}, {backend})"
                );
            }
        }
    }

    #[test]
    fn task_evaluator_names_and_discriminants() {
        let ev = crate::evaluator::Evaluator::analytical(PrefixOr);
        assert_eq!(ev.name(), "prefix-or/analytical");
        assert_eq!(ev.task().task_id(), "prefix-or");
        assert_eq!(ev.backend().backend_id(), "analytical");
        assert_ne!(
            discriminant_of("prefix-or", "analytical"),
            discriminant_of("adder", "analytical")
        );
    }

    #[test]
    fn backend_registry_resolves_every_name() {
        for name in BACKEND_NAMES {
            let (backend, synthesis_units) =
                backend_by_name(name, Library::nangate45(), 0.5).expect("registered");
            assert_eq!(backend.backend_id(), *name);
            assert_eq!(synthesis_units, *name != "analytical", "{name}");
        }
        let err = backend_by_name("spice", Library::nangate45(), 0.5)
            .err()
            .expect("unknown backend");
        assert_eq!(
            err,
            "unknown backend `spice` (expected one of: analytical|synthesis|synthesis-power)"
        );
    }
}
