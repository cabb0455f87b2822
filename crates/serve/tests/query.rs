//! Query-tier contracts (DESIGN.md §15): `best_at_delay` boundary hits,
//! `best_at_weight` ties, `range` windows, missing-key vs empty-front
//! distinction, name-aliasing rejection, and a concurrent reader/writer
//! stress test asserting readers always observe a complete epoch — never
//! a torn front.

use prefix_graph::PrefixGraph;
use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_serve::FrontierStore;
use serde_json::Value;

/// Merges a synthetic strictly-tradeoff front: point `i` of `count` has
/// `delay = i + 1`, `area = count - i` (all mutually non-dominated).
fn merge_tradeoff(store: &FrontierStore, n: u16, count: usize) {
    let designs: Vec<(PrefixGraph, ObjectivePoint)> = (0..count)
        .map(|i| {
            (
                PrefixGraph::ripple(n),
                ObjectivePoint {
                    area: (count - i) as f64,
                    delay: (i + 1) as f64,
                },
            )
        })
        .collect();
    store.merge("adder", "analytical", n, &designs).unwrap();
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Number(n) => n.as_f64(),
        other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn best_at_delay_boundaries() {
    let store = FrontierStore::in_memory();
    merge_tradeoff(&store, 8, 3); // (area, delay): (3,1) (2,2) (1,3)
    let snapshot = store.snapshot();
    let view = snapshot.front("adder", "analytical", 8).unwrap();

    // Exact delay of a stored point: that point, met.
    let exact = view.best_at_delay(2.0).unwrap();
    assert!(exact.met);
    assert_eq!(view.points()[exact.index].delay, 2.0);
    assert_eq!(view.points()[exact.index].area, 2.0);

    // Between points: the slower-of-the-meeting (minimum area), met.
    let between = view.best_at_delay(2.5).unwrap();
    assert!(between.met);
    assert_eq!(view.points()[between.index].delay, 2.0);

    // Above the maximum: the global minimum-area point, met.
    let above = view.best_at_delay(100.0).unwrap();
    assert!(above.met);
    assert_eq!(view.points()[above.index].area, 1.0);

    // Below the minimum: nothing meets — fastest point, met = false.
    let below = view.best_at_delay(0.5).unwrap();
    assert!(!below.met);
    assert_eq!(view.points()[below.index].delay, 1.0);
}

#[test]
fn best_at_weight_extremes_and_ties() {
    let store = FrontierStore::in_memory();
    merge_tradeoff(&store, 8, 3);
    let snapshot = store.snapshot();
    let view = snapshot.front("adder", "analytical", 8).unwrap();

    // w = 1: pure area minimization → the slowest/smallest point.
    let smallest = view.best_at_weight(1.0).unwrap();
    assert_eq!(view.points()[smallest].area, 1.0);
    // w = 0: pure delay minimization → the fastest point.
    let fastest = view.best_at_weight(0.0).unwrap();
    assert_eq!(view.points()[fastest].delay, 1.0);
    // This front is symmetric after normalization, so at w = 0.5 every
    // point scores identically — the tie must break toward lower delay.
    let tied = view.best_at_weight(0.5).unwrap();
    assert_eq!(view.points()[tied].delay, 1.0, "ties break to lower delay");
}

#[test]
fn range_windows() {
    let store = FrontierStore::in_memory();
    merge_tradeoff(&store, 8, 4); // delays 1, 2, 3, 4
    let snapshot = store.snapshot();
    let view = snapshot.front("adder", "analytical", 8).unwrap();

    assert_eq!(view.range(2.0, 3.0), 1..3, "inclusive both ends");
    assert_eq!(view.range(0.0, 100.0), 0..4, "window covering everything");
    assert_eq!(view.range(2.5, 2.75).len(), 0, "gap between points");
    assert_eq!(view.range(3.0, 2.0).len(), 0, "inverted window is empty");
    assert_eq!(view.range(100.0, 200.0).len(), 0, "past the maximum");
}

#[test]
fn wire_query_distinguishes_missing_key_from_empty_front() {
    let store = FrontierStore::in_memory();
    merge_tradeoff(&store, 8, 3);
    let snapshot = store.snapshot();

    // Known key, in-range query.
    let hit = prefixrl_serve::query::answer_query(
        &snapshot,
        &serde_json::json!({
            "task": "adder", "backend": "analytical", "n": 8,
            "mode": "best_at_delay", "delay": 2.0,
        }),
    )
    .unwrap();
    assert_eq!(hit.get("known"), Some(&Value::Bool(true)));
    assert_eq!(hit.get("found"), Some(&Value::Bool(true)));
    assert_eq!(hit.get("met"), Some(&Value::Bool(true)));
    assert_eq!(num(hit.get("point").unwrap().get("area").unwrap()), 2.0);

    // Unknown key: known = false, found = false, point = null.
    let miss = prefixrl_serve::query::answer_query(
        &snapshot,
        &serde_json::json!({
            "task": "adder", "backend": "analytical", "n": 64,
            "mode": "best_at_delay", "delay": 2.0,
        }),
    )
    .unwrap();
    assert_eq!(miss.get("known"), Some(&Value::Bool(false)));
    assert_eq!(miss.get("found"), Some(&Value::Bool(false)));
    assert_eq!(miss.get("point"), Some(&Value::Null));

    // Range on an unknown key: empty, not an error.
    let range_miss = prefixrl_serve::query::answer_query(
        &snapshot,
        &serde_json::json!({
            "task": "adder", "backend": "analytical", "n": 64,
            "mode": "range", "delay_lo": 0.0, "delay_hi": 9.0,
        }),
    )
    .unwrap();
    assert_eq!(range_miss.get("known"), Some(&Value::Bool(false)));
    assert_eq!(num(range_miss.get("count").unwrap()), 0.0);
}

#[test]
fn wire_query_validates_inputs() {
    let snapshot = FrontierStore::in_memory().snapshot();
    let query = |fields: Value| prefixrl_serve::query::answer_query(&snapshot, &fields);

    // Aliasing names are rejected at query time too.
    let err = query(serde_json::json!({
        "task": "a/b", "backend": "c", "n": 8,
        "mode": "best_at_delay", "delay": 1.0,
    }))
    .unwrap_err();
    assert!(err.contains("alias"), "{err}");

    // Weight outside [0, 1].
    let err = query(serde_json::json!({
        "task": "adder", "backend": "analytical", "n": 8,
        "mode": "best_at_weight", "w": 1.5,
    }))
    .unwrap_err();
    assert!(err.contains("[0, 1]"), "{err}");

    // Unknown mode.
    let err = query(serde_json::json!({
        "task": "adder", "backend": "analytical", "n": 8,
        "mode": "nearest",
    }))
    .unwrap_err();
    assert!(err.contains("unknown query mode"), "{err}");

    // Out-of-range width.
    let err = query(serde_json::json!({
        "task": "adder", "backend": "analytical", "n": 70000,
        "mode": "best_at_delay", "delay": 1.0,
    }))
    .unwrap_err();
    assert!(err.contains("u16"), "{err}");
}

/// The epoch-completeness stress test: one writer publishes fronts whose
/// contents are a pure function of how many merges happened; concurrent
/// readers grab snapshots and assert every observed front exactly matches
/// the front its epoch implies — a torn front (some points of merge k,
/// some of merge k+1) can never satisfy that.
#[test]
fn readers_always_see_a_complete_epoch() {
    let store = std::sync::Arc::new(FrontierStore::in_memory());
    const MERGES: u64 = 200;

    // Merge m inserts the single point (area = MERGES - m, delay = m + 1):
    // all points are mutually non-dominated, so after merge m the front is
    // exactly merges 0..=m — and epoch m+1 implies exactly m+1 points
    // whose delays are 1..=m+1 and whose areas pair up as MERGES - i.
    let writer = {
        let store = std::sync::Arc::clone(&store);
        std::thread::spawn(move || {
            for m in 0..MERGES {
                store
                    .merge(
                        "adder",
                        "analytical",
                        8,
                        &[(
                            PrefixGraph::ripple(8),
                            ObjectivePoint {
                                area: (MERGES - m) as f64,
                                delay: (m + 1) as f64,
                            },
                        )],
                    )
                    .unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut observed = 0u64;
                while observed < MERGES {
                    let snapshot = store.snapshot();
                    let epoch = snapshot.epoch();
                    assert!(epoch >= last_epoch, "epochs must be monotone");
                    last_epoch = epoch;
                    observed = observed.max(epoch);
                    let Some(view) = snapshot.front("adder", "analytical", 8) else {
                        assert_eq!(epoch, 0, "a published merge implies the key");
                        continue;
                    };
                    // Epoch k ⇒ exactly the first k merges, in delay order.
                    assert_eq!(view.len() as u64, epoch, "torn front at epoch {epoch}");
                    for (i, p) in view.points().iter().enumerate() {
                        assert_eq!(p.delay, (i + 1) as f64);
                        assert_eq!(p.area, (MERGES - i as u64) as f64);
                    }
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(store.epoch(), MERGES);
}

#[test]
fn publishing_a_merge_copies_no_design() {
    let store = FrontierStore::in_memory();
    let design =
        |graph: PrefixGraph, area: f64, delay: f64| (graph, ObjectivePoint { area, delay });
    let designs = vec![
        design(prefix_graph::structures::kogge_stone(8), 3.0, 1.0),
        design(prefix_graph::structures::sklansky(8), 2.0, 2.0),
        design(PrefixGraph::ripple(8), 1.0, 3.0),
    ];
    store.merge("adder", "analytical", 8, &designs).unwrap();
    store.merge("prefix-or", "analytical", 8, &designs).unwrap();
    let before = store.snapshot();
    // (1.5, 1.9) evicts (2, 2) and joins; (3, 1) and (1, 3) survive.
    let evicting = design(prefix_graph::structures::brent_kung(8), 1.5, 1.9);
    assert_eq!(
        store.merge("adder", "analytical", 8, &[evicting]).unwrap(),
        1
    );
    let after = store.snapshot();

    assert!(
        std::sync::Arc::ptr_eq(
            before.front_by_key("prefix-or/analytical/8").unwrap(),
            after.front_by_key("prefix-or/analytical/8").unwrap(),
        ),
        "an untouched key keeps its view"
    );
    let (old, new) = (
        before.front("adder", "analytical", 8).unwrap(),
        after.front("adder", "analytical", 8).unwrap(),
    );
    let delays = |view: &prefixrl_serve::FrontView| -> Vec<f64> {
        view.points().iter().map(|p| p.delay).collect()
    };
    assert_eq!(delays(old), vec![1.0, 2.0, 3.0]);
    assert_eq!(delays(new), vec![1.0, 1.9, 3.0]);
    // Each surviving record is the one the old view held, not a copy.
    for (i, j) in [(0, 0), (2, 2)] {
        assert!(
            std::sync::Arc::ptr_eq(old.graph(i), new.graph(j)),
            "point at delay {} was copied on publish",
            old.points()[i].delay
        );
    }
    assert_eq!(
        new.graph(1).to_graph(),
        prefix_graph::structures::brent_kung(8),
        "the joining design is the merged graph"
    );
}
