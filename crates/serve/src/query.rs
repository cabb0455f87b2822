//! The frontier query tier: lock-free snapshot reads over the store
//! (DESIGN.md §15).
//!
//! The product a million users actually hit is not training jobs — it is
//! *querying* the accumulated Pareto fronts ("best 64b adder at delay
//! ≤ X", "best trade at w = 0.7"). Routing those reads through
//! [`crate::FrontierStore`]'s write mutex would stall every reader behind
//! a concurrent merge's WAL fsync, so this module keeps an immutable
//! [`FrontierSnapshot`] to the side:
//!
//! - every merge publishes a fresh snapshot into a [`SnapshotCell`] via an
//!   `Arc` swap stamped with a monotone **epoch**; the swap is a pointer
//!   store, so a reader never waits on serialization or disk;
//! - readers call [`SnapshotCell::load`] (an `Arc` clone — no store
//!   mutex, no allocation) and answer any number of queries against one
//!   internally consistent epoch;
//! - per-key [`FrontView`]s are pre-sorted by delay with precomputed
//!   size/depth and normalized scalarization coordinates, so
//!   [`FrontView::best_at_delay`] is a clone-free binary search and
//!   [`FrontView::best_at_weight`] a scan over two precomputed arrays;
//! - a view holds its designs as the store does, as shared
//!   [`StoredDesign`] records, so a publish clones `Arc`s, never graphs.
//!
//! Query semantics generalize `baselines::choose_at_target_with` (the
//! commercial-tool rule extracted to
//! [`prefixrl_core::pareto::better_at_target`]): `best_at_delay(≤X)`
//! returns the minimum-area point meeting the target, falling back to the
//! fastest point (`met: false`) when nothing meets it — exactly how a
//! commercial tool degrades. `best_at_weight(w)` is the scalarized argmin
//! over the front (objectives normalized to `[0, 1]` over the front's own
//! span, ties broken toward lower delay), and `range(lo..=hi)` slices the
//! delay-sorted front inclusively.
//!
//! The wire verbs `query` / `query_batch` (see [`crate::protocol`]) are
//! answered by [`answer_query`] — a pure function over one snapshot, so
//! the server's read handlers never touch the write path, and a batch is
//! resolved against a single epoch.

use prefix_graph::{GraphSpec, PrefixGraph};
use prefixrl_core::pareto::ParetoFront;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Delay comparisons tolerate this absolute slack, matching
/// [`ParetoFront::area_at_delay`] — a query at a point's exact printed
/// delay must hit it.
pub const DELAY_EPS: f64 = 1e-12;

/// Most queries one `query_batch` request may carry (a loud refusal, not
/// a silent truncation).
pub const MAX_BATCH: usize = 4096;

/// One accepted design as the store and every snapshot hold it: the
/// graph's [`GraphSpec`] (`{n, min_nodes}`, the form the WAL, the
/// compacted file, replication and `include_graph` replies write) plus
/// the size and depth [`QueryPoint`] reports. It is a few hundred bytes
/// where the [`PrefixGraph`] it came from is five `N×N` arrays, and every
/// record comes from a legal graph: [`StoredDesign::of`] takes one, and
/// deserializing legalizes the spec first, so a stored minlist is always
/// canonical. Serializes as its spec alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredDesign {
    spec: GraphSpec,
    size: u64,
    depth: u64,
}

impl StoredDesign {
    /// The record of a legal graph.
    pub fn of(graph: &PrefixGraph) -> StoredDesign {
        StoredDesign {
            spec: graph.spec(),
            size: graph.size() as u64,
            depth: u64::from(graph.depth()),
        }
    }

    /// Rebuilds the legal graph this record was taken from.
    pub fn to_graph(&self) -> PrefixGraph {
        PrefixGraph::try_from(&self.spec).expect("a stored spec comes from a legal graph")
    }
}

impl Serialize for StoredDesign {
    fn to_value(&self) -> Value {
        self.spec.to_value()
    }
}

impl Deserialize for StoredDesign {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        PrefixGraph::from_value(v).map(|graph| StoredDesign::of(&graph))
    }
}

/// A stored front: each design held once, shared by the store and every
/// snapshot that publishes it.
pub type StoredFront = ParetoFront<Arc<StoredDesign>>;

/// One front member as the query tier serves it: the objective point plus
/// the graph statistics precomputed at publish time (a point lookup never
/// walks the graph).
#[derive(Clone, Copy, Debug)]
pub struct QueryPoint {
    /// Circuit area (µm² for synthesis backends, node count analytical).
    pub area: f64,
    /// Circuit delay (ns for synthesis backends, model units analytical).
    pub delay: f64,
    /// Prefix-graph node count.
    pub size: u64,
    /// Prefix-graph logic depth.
    pub depth: u64,
    /// Area normalized to `[0, 1]` over this front's span (0 = best).
    pub scal_area: f64,
    /// Delay normalized to `[0, 1]` over this front's span (0 = best).
    pub scal_delay: f64,
}

/// The outcome of a [`FrontView::best_at_delay`] lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelayChoice {
    /// Index of the chosen point in the delay-sorted front.
    pub index: usize,
    /// Whether the chosen point meets the delay target. `false` means the
    /// target is tighter than the whole front and the fastest point was
    /// returned instead (the `choose_at_target` degradation rule).
    pub met: bool,
}

/// One key's immutable, read-optimized front: points pre-sorted by
/// strictly increasing delay (strictly decreasing area — a Pareto front
/// admits no ties on either axis), with the stored designs kept alongside
/// for `include_graph` responses.
#[derive(Debug)]
pub struct FrontView {
    key: String,
    points: Vec<QueryPoint>,
    designs: Vec<Arc<StoredDesign>>,
}

impl FrontView {
    /// Builds the view of one stored front (publish-time cost: a copy of
    /// the front's points, an `Arc` clone per design, and the
    /// normalization pass).
    pub fn build(key: &str, front: &StoredFront) -> FrontView {
        let mut points = Vec::with_capacity(front.len());
        let mut designs = Vec::with_capacity(front.len());
        for (p, d) in front.iter() {
            points.push(QueryPoint {
                area: p.area,
                delay: p.delay,
                size: d.size,
                depth: d.depth,
                scal_area: 0.0,
                scal_delay: 0.0,
            });
            designs.push(Arc::clone(d));
        }
        // Normalize both objectives over the front's own span so one
        // scalarization weight means the same thing on analytical node
        // counts and synthesis µm². Sorted by delay, a Pareto front has
        // its area maximum first and minimum last.
        if let (Some(first), Some(last)) = (points.first().copied(), points.last().copied()) {
            let (a_min, a_span) = (last.area, first.area - last.area);
            let (d_min, d_span) = (first.delay, last.delay - first.delay);
            for p in &mut points {
                p.scal_area = if a_span > 0.0 {
                    (p.area - a_min) / a_span
                } else {
                    0.0
                };
                p.scal_delay = if d_span > 0.0 {
                    (p.delay - d_min) / d_span
                } else {
                    0.0
                };
            }
        }
        FrontView {
            key: key.to_string(),
            points,
            designs,
        }
    }

    /// The composite `task/backend/n` key this view serves.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Number of points on the front.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the front is empty (a key can exist with an empty front —
    /// e.g. every offered design was non-finite — which is distinct from
    /// the key never having been merged).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All points in increasing-delay order.
    pub fn points(&self) -> &[QueryPoint] {
        &self.points
    }

    /// The stored design of point `index` (the record the store holds,
    /// shared, not a copy).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn graph(&self, index: usize) -> &Arc<StoredDesign> {
        &self.designs[index]
    }

    /// The best design at delay ≤ `max_delay`: the minimum-area point
    /// meeting the target (on a delay-sorted Pareto front that is the
    /// *last* point with `delay ≤ max_delay`, since area strictly
    /// decreases with delay). When no point meets the target the fastest
    /// point is returned with `met: false` — the same degradation as
    /// `baselines::choose_at_target_with`. `None` only on an empty front.
    pub fn best_at_delay(&self, max_delay: f64) -> Option<DelayChoice> {
        if self.points.is_empty() {
            return None;
        }
        let meeting = self
            .points
            .partition_point(|p| p.delay <= max_delay + DELAY_EPS);
        Some(match meeting {
            0 => DelayChoice {
                index: 0,
                met: false,
            },
            k => DelayChoice {
                index: k - 1,
                met: true,
            },
        })
    }

    /// The scalarized argmin at area-weight `w ∈ [0, 1]`: minimizes
    /// `w·scal_area + (1-w)·scal_delay` over the precomputed normalized
    /// coordinates. Ties break toward lower delay (the earlier index), so
    /// `w = 0` returns the fastest point and `w = 1` the smallest.
    /// `None` only on an empty front.
    pub fn best_at_weight(&self, w: f64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in self.points.iter().enumerate() {
            let value = w * p.scal_area + (1.0 - w) * p.scal_delay;
            if best.is_none_or(|(_, v)| value < v) {
                best = Some((i, value));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Every point with `delay_lo ≤ delay ≤ delay_hi` (inclusive both
    /// ends, with [`DELAY_EPS`] slack), as an index range into
    /// [`FrontView::points`]. An inverted or non-overlapping window is an
    /// empty range, not an error.
    pub fn range(&self, delay_lo: f64, delay_hi: f64) -> std::ops::Range<usize> {
        let start = self
            .points
            .partition_point(|p| p.delay < delay_lo - DELAY_EPS);
        let end = self
            .points
            .partition_point(|p| p.delay <= delay_hi + DELAY_EPS);
        start..end.max(start)
    }
}

/// An immutable view of every stored front at one epoch. Readers obtain
/// one via [`SnapshotCell::load`] (or `FrontierStore::snapshot`) and can
/// answer any number of queries against it without ever observing a
/// half-merged front.
#[derive(Debug)]
pub struct FrontierSnapshot {
    epoch: u64,
    fronts: BTreeMap<String, Arc<FrontView>>,
}

impl FrontierSnapshot {
    /// The empty epoch-0 snapshot of a fresh store.
    pub fn empty() -> FrontierSnapshot {
        FrontierSnapshot {
            epoch: 0,
            fronts: BTreeMap::new(),
        }
    }

    pub(crate) fn with_fronts(
        epoch: u64,
        fronts: BTreeMap<String, Arc<FrontView>>,
    ) -> FrontierSnapshot {
        FrontierSnapshot { epoch, fronts }
    }

    /// The publish counter this snapshot was stamped with. Epochs are
    /// process-local: they restart at 0 when a store is reopened.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Every key with a published front, in sorted order.
    pub fn keys(&self) -> Vec<String> {
        self.fronts.keys().cloned().collect()
    }

    /// The view under a composite key, or `None` if the key was never
    /// merged.
    pub fn front_by_key(&self, key: &str) -> Option<&Arc<FrontView>> {
        self.fronts.get(key)
    }

    /// The view of `(task, backend, n)`, or `None` if never merged.
    pub fn front(&self, task: &str, backend: &str, n: u16) -> Option<&Arc<FrontView>> {
        self.front_by_key(&crate::store::key_of(task, backend, n))
    }

    /// Derives the successor snapshot: same fronts, one key's view
    /// replaced (unchanged keys share their `Arc`s), epoch bumped.
    pub(crate) fn successor(&self, key: &str, view: Arc<FrontView>) -> FrontierSnapshot {
        let mut fronts = self.fronts.clone();
        fronts.insert(key.to_string(), view);
        FrontierSnapshot {
            epoch: self.epoch + 1,
            fronts,
        }
    }
}

/// The publication point between the store's write path and its readers:
/// holds the current [`FrontierSnapshot`] behind an `Arc` that writers
/// swap wholesale. [`SnapshotCell::load`] never takes the store mutex and
/// never blocks on a merge's WAL fsync — the only shared writes on the
/// read path are the lock word and an `Arc` refcount, and the publish
/// critical section is a pointer store. [`SnapshotCell::epoch`] is a
/// plain atomic load for staleness probes.
pub struct SnapshotCell {
    epoch: AtomicU64,
    current: RwLock<Arc<FrontierSnapshot>>,
}

impl SnapshotCell {
    /// A cell holding `initial`.
    pub fn new(initial: FrontierSnapshot) -> SnapshotCell {
        SnapshotCell {
            epoch: AtomicU64::new(initial.epoch),
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot (an `Arc` clone; the snapshot stays valid —
    /// and internally consistent — for as long as the caller holds it,
    /// regardless of concurrent merges).
    pub fn load(&self) -> Arc<FrontierSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The epoch of the currently published snapshot (lock-free).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Swaps in a fully built snapshot. Callers (the store's merge path)
    /// serialize publishes under their own write lock; the cell itself
    /// only guarantees the swap is atomic and the epoch probe monotone.
    pub(crate) fn publish(&self, next: FrontierSnapshot) {
        let epoch = next.epoch;
        let next = Arc::new(next);
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = next;
        self.epoch.store(epoch, Ordering::Release);
    }
}

impl Default for SnapshotCell {
    fn default() -> Self {
        SnapshotCell::new(FrontierSnapshot::empty())
    }
}

/// One read-tier lookup: the `mode` of a `query` request and its
/// parameters. [`query_fields`] puts it on the wire and [`answer_query`]
/// reads it back.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Query {
    /// `best_at_delay`: the minimum-area design with delay ≤ `delay`, or
    /// the fastest design, flagged `met: false`, when nothing is that
    /// fast.
    BestAtDelay {
        /// The delay target.
        delay: f64,
    },
    /// `best_at_weight`: the scalarized argmin at area-weight `w ∈ [0, 1]`
    /// (`w = 0` fastest, `w = 1` smallest).
    BestAtWeight {
        /// The area weight.
        w: f64,
    },
    /// `range`: every design with `delay_lo ≤ delay ≤ delay_hi`.
    Range {
        /// Inclusive lower delay bound.
        delay_lo: f64,
        /// Inclusive upper delay bound.
        delay_hi: f64,
    },
}

impl Query {
    /// The wire name of this mode.
    pub fn mode(&self) -> &'static str {
        match self {
            Query::BestAtDelay { .. } => "best_at_delay",
            Query::BestAtWeight { .. } => "best_at_weight",
            Query::Range { .. } => "range",
        }
    }

    /// The `mode` field followed by this mode's parameters.
    fn fields(&self) -> Vec<(String, Value)> {
        let mode = ("mode".to_string(), self.mode().to_value());
        match *self {
            Query::BestAtDelay { delay } => vec![mode, ("delay".to_string(), delay.to_value())],
            Query::BestAtWeight { w } => vec![mode, ("w".to_string(), w.to_value())],
            Query::Range { delay_lo, delay_hi } => vec![
                mode,
                ("delay_lo".to_string(), delay_lo.to_value()),
                ("delay_hi".to_string(), delay_hi.to_value()),
            ],
        }
    }

    /// Reads the `mode` field and its parameters from a request.
    ///
    /// # Errors
    ///
    /// Fails on a missing or unknown `mode`, a missing or non-finite
    /// parameter, or a weight outside `[0, 1]`.
    pub(crate) fn parse(request: &Value) -> Result<Query, String> {
        use crate::protocol::{req_f64, req_str};
        match req_str(request, "mode")? {
            "best_at_delay" => {
                let delay = req_f64(request, "delay")?;
                if !delay.is_finite() {
                    return Err("field `delay`: expected a finite number".to_string());
                }
                Ok(Query::BestAtDelay { delay })
            }
            "best_at_weight" => {
                let w = req_f64(request, "w")?;
                if !(0.0..=1.0).contains(&w) {
                    return Err(format!("field `w`: weight must lie in [0, 1], got {w}"));
                }
                Ok(Query::BestAtWeight { w })
            }
            "range" => {
                let delay_lo = req_f64(request, "delay_lo")?;
                let delay_hi = req_f64(request, "delay_hi")?;
                if !delay_lo.is_finite() || !delay_hi.is_finite() {
                    return Err("fields `delay_lo`/`delay_hi`: expected finite numbers".to_string());
                }
                Ok(Query::Range { delay_lo, delay_hi })
            }
            other => Err(format!(
                "unknown query mode `{other}` (expected best_at_delay|best_at_weight|range)"
            )),
        }
    }
}

/// The fields of one `query` payload — key, mode and parameters, and
/// `include_graph: true` when asked for: what `query` sends after its
/// envelope and what each `query_batch` entry holds.
pub fn query_fields(
    task: &str,
    backend: &str,
    n: u16,
    query: Query,
    include_graph: bool,
) -> Vec<(String, Value)> {
    let mut fields = crate::protocol::key_fields(task, backend, n);
    fields.extend(query.fields());
    if include_graph {
        fields.push(("include_graph".to_string(), Value::Bool(true)));
    }
    fields
}

/// One stored point's wire fields: `area`, `delay`, `size`, `depth`, and
/// the stored `graph` with `include_graph`.
pub(crate) fn point_fields(
    view: &FrontView,
    index: usize,
    include_graph: bool,
) -> Vec<(String, Value)> {
    let p = &view.points()[index];
    let mut fields = vec![
        ("area".to_string(), p.area.to_value()),
        ("delay".to_string(), p.delay.to_value()),
        ("size".to_string(), p.size.to_value()),
        ("depth".to_string(), p.depth.to_value()),
    ];
    if include_graph {
        fields.push(("graph".to_string(), view.graph(index).to_value()));
    }
    fields
}

/// One point as a query answer carries it: `index` into the delay-sorted
/// front, then [`point_fields`].
fn indexed_point(view: &FrontView, index: usize, include_graph: bool) -> Value {
    let mut fields = vec![("index".to_string(), index.to_value())];
    fields.extend(point_fields(view, index, include_graph));
    Value::Object(fields)
}

/// Answers one `query` request payload against one snapshot — the pure
/// read handler behind the `query` and `query_batch` verbs. The response
/// always carries `key`, `known` (was the key ever merged — distinct
/// from an empty front) and `found` (did a point match); `best_at_delay`
/// adds `met`, `range` adds `points`/`count`.
///
/// # Errors
///
/// Fails on a missing/malformed field, an out-of-range width, a
/// task/backend name containing `/` (which would alias composite keys),
/// an unknown `mode`, a non-finite parameter, or a weight outside
/// `[0, 1]`.
pub fn answer_query(snapshot: &FrontierSnapshot, request: &Value) -> Result<Value, String> {
    let (task, backend, n) = crate::protocol::req_key(request)?;
    crate::store::validate_names(task, backend)?;
    let query = Query::parse(request)?;
    let include_graph = crate::protocol::opt_bool(request, "include_graph", false)?;

    let key = crate::store::key_of(task, backend, n);
    let view = snapshot.front_by_key(&key);
    let mut fields = vec![
        ("key".to_string(), Value::String(key)),
        ("mode".to_string(), Value::String(query.mode().to_string())),
        ("known".to_string(), Value::Bool(view.is_some())),
    ];
    match query {
        Query::BestAtDelay { delay } => {
            let choice = view.and_then(|v| Some((v, v.best_at_delay(delay)?)));
            fields.push(("found".to_string(), Value::Bool(choice.is_some())));
            fields.push((
                "met".to_string(),
                Value::Bool(choice.is_some_and(|(_, c)| c.met)),
            ));
            fields.push((
                "point".to_string(),
                choice.map_or(Value::Null, |(v, c)| {
                    indexed_point(v, c.index, include_graph)
                }),
            ));
        }
        Query::BestAtWeight { w } => {
            let choice = view.and_then(|v| Some((v, v.best_at_weight(w)?)));
            fields.push(("found".to_string(), Value::Bool(choice.is_some())));
            fields.push((
                "point".to_string(),
                choice.map_or(Value::Null, |(v, i)| indexed_point(v, i, include_graph)),
            ));
        }
        Query::Range { delay_lo, delay_hi } => {
            let points: Vec<Value> = view
                .map(|v| {
                    v.range(delay_lo, delay_hi)
                        .map(|i| indexed_point(v, i, include_graph))
                        .collect()
                })
                .unwrap_or_default();
            fields.push(("found".to_string(), Value::Bool(!points.is_empty())));
            fields.push(("count".to_string(), points.len().to_value()));
            fields.push(("points".to_string(), Value::Array(points)));
        }
    }
    Ok(Value::Object(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefixrl_core::evaluator::ObjectivePoint;

    fn front_of(points: &[(f64, f64)]) -> StoredFront {
        let mut front = ParetoFront::new();
        for &(area, delay) in points {
            let design = Arc::new(StoredDesign::of(&PrefixGraph::ripple(4)));
            assert!(
                front.insert(ObjectivePoint { area, delay }, design),
                "test points must be mutually non-dominated"
            );
        }
        front
    }

    #[test]
    fn view_is_sorted_and_normalized() {
        let view = FrontView::build("k", &front_of(&[(100.0, 1.0), (50.0, 2.0), (25.0, 4.0)]));
        let delays: Vec<f64> = view.points().iter().map(|p| p.delay).collect();
        assert_eq!(delays, vec![1.0, 2.0, 4.0]);
        assert_eq!(view.points()[0].scal_area, 1.0);
        assert_eq!(view.points()[0].scal_delay, 0.0);
        assert_eq!(view.points()[2].scal_area, 0.0);
        assert_eq!(view.points()[2].scal_delay, 1.0);
    }

    #[test]
    fn single_point_front_normalizes_to_zero() {
        let view = FrontView::build("k", &front_of(&[(10.0, 1.0)]));
        assert_eq!(view.points()[0].scal_area, 0.0);
        assert_eq!(view.points()[0].scal_delay, 0.0);
        assert_eq!(view.best_at_weight(0.3), Some(0));
    }

    #[test]
    fn snapshot_successor_bumps_epoch_and_shares_views() {
        let base = FrontierSnapshot::empty();
        let view = Arc::new(FrontView::build("a", &front_of(&[(1.0, 1.0)])));
        let next = base.successor("a", Arc::clone(&view));
        assert_eq!(next.epoch(), 1);
        let third = next.successor("b", Arc::new(FrontView::build("b", &front_of(&[]))));
        assert_eq!(third.epoch(), 2);
        assert!(Arc::ptr_eq(third.front_by_key("a").unwrap(), &view));
    }
}
