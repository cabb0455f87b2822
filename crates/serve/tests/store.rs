//! Frontier-store contracts: restart survival (bit-identical reload
//! through WAL replay), cross-job merge dominance (a stored front never
//! regresses), key isolation (no task's results leak into another's
//! query), and the write-ahead-log lifecycle (torn tails, compaction,
//! idempotent replay after an interrupted compaction).

use prefix_graph::{structures, PrefixGraph};
use prefixrl_core::evaluator::{Evaluator, ObjectivePoint};
use prefixrl_core::pareto::ParetoFront;
use prefixrl_core::task::{Adder, CircuitTask, PrefixOr};
use prefixrl_serve::FrontierStore;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "prefixrl-store-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Complete lines of a write-ahead log, with the preallocated zero tail
/// (which never contains a newline) stripped.
fn wal_lines(wal: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(wal).unwrap();
    let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
    complete.lines().map(str::to_string).collect()
}

/// A small design pool scored by the task's analytical oracle.
fn pool(task: impl CircuitTask + 'static, n: u16) -> Vec<(PrefixGraph, ObjectivePoint)> {
    let evaluator = Evaluator::analytical(task);
    [
        PrefixGraph::ripple(n),
        structures::sklansky(n),
        structures::brent_kung(n),
        structures::kogge_stone(n),
        structures::han_carlson(n),
    ]
    .into_iter()
    .map(|g| {
        let p = evaluator.evaluate(&g);
        (g, p)
    })
    .collect()
}

/// The stored front of a key as the read snapshot serves it — `None` if
/// nothing was ever merged under it.
fn stored_front(
    store: &FrontierStore,
    task: &str,
    backend: &str,
    n: u16,
) -> Option<ParetoFront<()>> {
    let snapshot = store.snapshot();
    let view = snapshot.front(task, backend, n)?;
    let mut front = ParetoFront::new();
    for p in view.points() {
        let point = ObjectivePoint {
            area: p.area,
            delay: p.delay,
        };
        front.insert(point, ());
    }
    Some(front)
}

#[test]
fn restart_returns_bit_identical_front() {
    let dir = temp_dir("restart");
    let path = dir.join("frontier.json");
    let before = {
        let store = FrontierStore::open(&path).unwrap();
        store
            .merge("adder", "analytical", 16, &pool(Adder, 16))
            .unwrap();
        store
            .merge("adder", "analytical", 8, &pool(Adder, 8))
            .unwrap();
        serde_json::to_string(&store.front_json("adder", "analytical", 16, true)).unwrap()
    };
    // "Kill" the server (drop the store) and reload from disk — with the
    // default threshold nothing compacted, so this reload is pure WAL
    // replay. The returned front must be bit-identical, graphs included.
    assert!(
        path.with_extension("wal").exists(),
        "merges must leave a write-ahead log"
    );
    let store = FrontierStore::open(&path).unwrap();
    let after = serde_json::to_string(&store.front_json("adder", "analytical", 16, true)).unwrap();
    assert_eq!(before, after, "reload must be bit-identical");
    assert_eq!(
        store.keys(),
        vec!["adder/analytical/16", "adder/analytical/8"]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cross_job_merges_never_regress_the_stored_front() {
    let store = FrontierStore::in_memory();
    store
        .merge("adder", "analytical", 16, &pool(Adder, 16))
        .unwrap();
    let stored = stored_front(&store, "adder", "analytical", 16)
        .unwrap()
        .points();

    // A second job's pool: one point dominating a stored one, one
    // dominated point, one duplicate.
    let better = ObjectivePoint {
        area: stored[0].area - 1.0,
        delay: stored[0].delay - 0.01,
    };
    let worse = ObjectivePoint {
        area: stored[0].area + 100.0,
        delay: stored[0].delay + 100.0,
    };
    let graph = PrefixGraph::ripple(16);
    let inserted = store
        .merge(
            "adder",
            "analytical",
            16,
            &[
                (graph.clone(), better),
                (graph.clone(), worse),
                (graph.clone(), stored[0]),
            ],
        )
        .unwrap();
    assert_eq!(inserted, 1, "only the dominating point may join");

    // Monotonicity: at every previously covered delay, the achievable
    // area must be no worse than before.
    let merged = stored_front(&store, "adder", "analytical", 16).unwrap();
    for p in &stored {
        let now = merged.area_at_delay(p.delay).expect("coverage kept");
        assert!(
            now <= p.area + 1e-12,
            "front regressed at delay {}: {} > {}",
            p.delay,
            now,
            p.area
        );
    }
    assert!(!merged.dominates_point(&better), "new optimum must be kept");
    assert!(merged.dominates_point(&worse), "dominated point rejected");
}

#[test]
fn keys_isolate_tasks_backends_and_widths() {
    let store = FrontierStore::in_memory();
    store
        .merge("adder", "analytical", 8, &pool(Adder, 8))
        .unwrap();
    // Same graphs, different task: must land under its own key only.
    store
        .merge("prefix-or", "analytical", 8, &pool(PrefixOr, 8))
        .unwrap();

    let known = |t: &str, b: &str, n: u16| stored_front(&store, t, b, n).is_some();
    assert!(known("adder", "analytical", 8));
    assert!(known("prefix-or", "analytical", 8));
    // No leakage into other keys along any axis.
    assert!(!known("adder", "synthesis", 8), "backend axis");
    assert!(!known("adder", "analytical", 16), "width axis");
    assert!(!known("incrementer", "analytical", 8), "task axis");
    // And an adder query never reflects the prefix-or merge: both merged
    // the same graphs, so equality of fronts would be possible only via
    // sharing — check the counts are independent per key.
    let adder_len = stored_front(&store, "adder", "analytical", 8)
        .unwrap()
        .len();
    let or_len = stored_front(&store, "prefix-or", "analytical", 8)
        .unwrap()
        .len();
    assert!(adder_len > 0 && or_len > 0);
}

#[test]
fn concurrent_merges_on_one_key_are_safe() {
    let dir = temp_dir("concurrent");
    let path = dir.join("frontier.json");
    let store = FrontierStore::open(&path).unwrap();
    let designs = pool(Adder, 12);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..10 {
                    store.merge("adder", "analytical", 12, &designs).unwrap();
                }
            });
        }
    });
    // Identical pools merged repeatedly: the front equals one merge's.
    let reference = FrontierStore::in_memory();
    reference
        .merge("adder", "analytical", 12, &designs)
        .unwrap();
    let expected = stored_front(&reference, "adder", "analytical", 12)
        .unwrap()
        .points();
    let actual = stored_front(&store, "adder", "analytical", 12)
        .unwrap()
        .points();
    assert_eq!(actual, expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_key_is_distinguishable_from_empty_front() {
    let store = FrontierStore::in_memory();
    // Never merged: `null` on the wire.
    assert!(matches!(
        store.front_json("adder", "analytical", 8, false),
        serde_json::Value::Null
    ));
    // Merged but nothing joined (non-finite points are rejected): the key
    // exists with an empty front — `[]`, not `null`.
    let inserted = store
        .merge(
            "adder",
            "analytical",
            8,
            &[(
                PrefixGraph::ripple(8),
                ObjectivePoint {
                    area: f64::NAN,
                    delay: 1.0,
                },
            )],
        )
        .unwrap();
    assert_eq!(inserted, 0);
    match store.front_json("adder", "analytical", 8, false) {
        serde_json::Value::Array(points) => assert!(points.is_empty()),
        other => panic!("expected [], got {other:?}"),
    }
}

#[test]
fn aliasing_names_are_rejected() {
    let store = FrontierStore::in_memory();
    let designs = pool(Adder, 8);
    // `task="a/b", backend="c"` and `task="a", backend="b/c"` would both
    // produce the composite key `a/b/c/8`; the store must refuse both.
    for (task, backend) in [
        ("a/b", "c"),
        ("a", "b/c"),
        ("", "analytical"),
        ("adder", ""),
    ] {
        let err = store.merge(task, backend, 8, &designs).unwrap_err();
        assert!(
            err.contains("alias") || err.contains("empty"),
            "({task:?}, {backend:?}): unexpected error {err:?}"
        );
    }
    assert!(store.keys().is_empty(), "nothing may be merged");
}

#[test]
fn torn_wal_tail_is_discarded_on_open() {
    let dir = temp_dir("torn");
    let path = dir.join("frontier.json");
    let expected = {
        let store = FrontierStore::open(&path).unwrap();
        store
            .merge("adder", "analytical", 8, &pool(Adder, 8))
            .unwrap();
        serde_json::to_string(&store.front_json("adder", "analytical", 8, true)).unwrap()
    };
    // Simulate a crash mid-append: garbage without a trailing newline.
    let wal = path.with_extension("wal");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(br#"{"key":"adder/analytical/8","desig"#)
            .unwrap();
    }
    let store = FrontierStore::open(&path).unwrap();
    let after = serde_json::to_string(&store.front_json("adder", "analytical", 8, true)).unwrap();
    assert_eq!(expected, after, "torn tail must not corrupt the store");
    let bytes = std::fs::read(&wal).unwrap();
    let end = bytes.iter().rposition(|&b| b == b'\n').unwrap() + 1;
    assert!(
        bytes[end..].iter().all(|&b| b == 0),
        "the torn tail must be cut, leaving only zero headroom"
    );
    // The repaired log stays appendable: further merges and reloads work.
    store
        .merge("adder", "analytical", 4, &pool(Adder, 4))
        .unwrap();
    let reloaded = FrontierStore::open(&path).unwrap();
    assert_eq!(
        reloaded.keys(),
        vec!["adder/analytical/4", "adder/analytical/8"]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The store's two files, `None` where absent.
fn store_files(path: &std::path::Path) -> [Option<Vec<u8>>; 2] {
    [path.to_path_buf(), path.with_extension("wal")].map(|p| std::fs::read(p).ok())
}

#[test]
fn clean_reopen_writes_nothing() {
    let dir = temp_dir("clean-reopen");
    let path = dir.join("frontier.json");
    // Two records in the log, then a compaction on open and one more
    // record: each reopen must leave both files byte-identical, length
    // (zero headroom) included.
    {
        let store = FrontierStore::open_with(&path, 4).unwrap();
        for n in [4u16, 6] {
            store
                .merge("adder", "analytical", n, &pool(Adder, n))
                .unwrap();
        }
    }
    let reopen_is_clean = |compact_every| {
        let files = store_files(&path);
        drop(FrontierStore::open_with(&path, compact_every).unwrap());
        assert_eq!(
            store_files(&path),
            files,
            "a clean reopen rewrote the store"
        );
    };
    reopen_is_clean(4);
    drop(FrontierStore::open_with(&path, 1).unwrap());
    reopen_is_clean(4);
    assert!(path.exists(), "the threshold-1 open compacted");
    {
        let store = FrontierStore::open_with(&path, 4).unwrap();
        store
            .merge("adder", "analytical", 8, &pool(Adder, 8))
            .unwrap();
    }
    reopen_is_clean(4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_logged_graph_is_an_error_not_a_panic() {
    let dir = temp_dir("malformed-graph");
    let path = dir.join("frontier.json");
    for graph in [
        r#"{"n":1,"min_nodes":[]}"#,
        r#"{"n":6,"min_nodes":[[2,4]]}"#,
        r#"{"n":6,"min_nodes":[[6,2]]}"#,
    ] {
        let record = format!(
            r#"{{"key":"adder/analytical/6","designs":[[{graph},{{"area":1,"delay":1}}]]}}"#
        );
        std::fs::write(
            path.with_extension("wal"),
            format!("{{\"schema\":\"prefixrl.frontier-wal.v1\"}}\n{record}\n"),
        )
        .unwrap();
        let err = FrontierStore::open(&path).err().expect("open must fail");
        assert!(err.contains("line 2"), "{graph}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_truncates_the_log_and_preserves_answers() {
    let dir = temp_dir("compact");
    let path = dir.join("frontier.json");
    let wal = path.with_extension("wal");
    let store = FrontierStore::open_with(&path, 3).unwrap();
    let designs = pool(Adder, 8);
    // Three record-producing merges trip the threshold. Each pool is a
    // fresh key so every merge appends a record.
    for n in [4u16, 6, 8] {
        store
            .merge("adder", "analytical", n, &pool(Adder, n))
            .unwrap();
    }
    let stats = store.stats_json();
    assert_eq!(
        stats.get("compactions").and_then(|v| match v {
            serde_json::Value::Number(n) => n.as_u64(),
            _ => None,
        }),
        Some(1),
        "threshold of 3 must have compacted once: {stats:?}"
    );
    assert_eq!(
        wal_lines(&wal).len(),
        1,
        "compaction must truncate the log to its header"
    );
    assert!(
        std::fs::read_to_string(&path)
            .unwrap()
            .contains("adder/analytical/8"),
        "compacted snapshot must hold the merged fronts"
    );
    // A post-compaction merge appends to the truncated log.
    store
        .merge("adder", "analytical", 10, &designs[..1])
        .unwrap();
    assert_eq!(wal_lines(&wal).len(), 2);
    // Reload answers identically.
    let before = serde_json::to_string(&store.front_json("adder", "analytical", 8, true)).unwrap();
    drop(store);
    let reloaded = FrontierStore::open_with(&path, 3).unwrap();
    let after =
        serde_json::to_string(&reloaded.front_json("adder", "analytical", 8, true)).unwrap();
    assert_eq!(before, after);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_compaction_replays_idempotently() {
    let dir = temp_dir("idempotent");
    let path = dir.join("frontier.json");
    let wal = path.with_extension("wal");
    let before = {
        let store = FrontierStore::open(&path).unwrap();
        store
            .merge("adder", "analytical", 8, &pool(Adder, 8))
            .unwrap();
        serde_json::to_string(&store.front_json("adder", "analytical", 8, true)).unwrap()
    };
    // Simulate a crash *between* compaction's snapshot write and its log
    // truncation: save the pre-compaction log, let an open with
    // threshold 1 compact (snapshot written, log truncated), then put the
    // old log back — snapshot AND log now both carry the same merge.
    let pre_compaction_log = std::fs::read(&wal).unwrap();
    {
        let _store = FrontierStore::open_with(&path, 1).unwrap();
        assert!(
            std::fs::read_to_string(&path)
                .unwrap()
                .contains("adder/analytical/8"),
            "threshold-1 open must compact the replayed record"
        );
    }
    std::fs::write(&wal, &pre_compaction_log).unwrap();
    // Replaying snapshot + already-absorbed records must converge to the
    // same front, bit for bit.
    let reloaded = FrontierStore::open(&path).unwrap();
    let after =
        serde_json::to_string(&reloaded.front_json("adder", "analytical", 8, true)).unwrap();
    assert_eq!(before, after, "idempotent replay must not duplicate points");
    std::fs::remove_dir_all(&dir).ok();
}

/// Model-based persistence check: random sequences of merges (compacting
/// every [`MODEL_COMPACT_EVERY`] records), crashes that cut the WAL at a
/// random byte, and clean reopens, against an in-memory model of the
/// compacted snapshot plus the log records since.
mod model_based {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const MODEL_COMPACT_EVERY: u64 = 3;

    type Designs = Vec<(PrefixGraph, ObjectivePoint)>;
    type Fronts = BTreeMap<String, ParetoFront<PrefixGraph>>;

    /// What the store's files hold: the fronts of the last compaction and
    /// the records logged since, as `(key, accepted designs)`.
    #[derive(Default)]
    struct Model {
        compacted: Fronts,
        log: Vec<(String, Designs)>,
    }

    impl Model {
        /// The fronts a reopen must rebuild: the compacted snapshot with
        /// every surviving record replayed over it.
        fn fronts(&self) -> Fronts {
            let mut fronts = self.compacted.clone();
            for (key, designs) in &self.log {
                let front = fronts.entry(key.clone()).or_default();
                for (graph, point) in designs {
                    front.insert(*point, graph.clone());
                }
            }
            fronts
        }

        /// Mirrors one merge: logs the accepted designs (or the bare
        /// creation of a key) and compacts at the threshold. Returns how
        /// many designs joined the front.
        fn merge(&mut self, key: &str, designs: &Designs) -> usize {
            let mut fronts = self.fronts();
            let created = !fronts.contains_key(key);
            let front = fronts.entry(key.to_string()).or_default();
            let accepted: Designs = designs
                .iter()
                .filter(|(graph, point)| front.insert(*point, graph.clone()))
                .cloned()
                .collect();
            if !accepted.is_empty() || created {
                self.log.push((key.to_string(), accepted.clone()));
            }
            self.compact_if_due();
            accepted.len()
        }

        fn compact_if_due(&mut self) {
            if self.log.len() as u64 >= MODEL_COMPACT_EVERY {
                self.compacted = self.fronts();
                self.log.clear();
            }
        }
    }

    /// `(area bits, delay bits, graph)` of every point, in delay order.
    fn points_of(front: &ParetoFront<PrefixGraph>) -> Vec<(u64, u64, PrefixGraph)> {
        front
            .iter()
            .map(|(p, g)| (p.area.to_bits(), p.delay.to_bits(), g.clone()))
            .collect()
    }

    /// Checks the store's published fronts against the model's, and that
    /// no stored point is dominated.
    fn check(store: &FrontierStore, model: &Model) -> Result<(), String> {
        let want = model.fronts();
        let snapshot = store.snapshot();
        let keys: Vec<String> = want.keys().cloned().collect();
        prop_assert_eq!(snapshot.keys(), keys);
        for (key, front) in &want {
            let view = snapshot.front_by_key(key).expect("key listed");
            let got: Vec<(u64, u64, PrefixGraph)> = (0..view.len())
                .map(|i| {
                    let p = view.points()[i];
                    (
                        p.area.to_bits(),
                        p.delay.to_bits(),
                        view.graph(i).to_graph(),
                    )
                })
                .collect();
            prop_assert_eq!(
                got,
                points_of(front),
                "front `{key}` differs from the model"
            );
            for a in view.points() {
                for b in view.points() {
                    let dominates = a.area <= b.area
                        && a.delay <= b.delay
                        && (a.area < b.area || a.delay < b.delay);
                    prop_assert!(!dominates, "`{key}` stores a dominated point");
                }
            }
        }
        Ok(())
    }

    /// Cuts the WAL at byte `cut` modulo its logical length (every byte
    /// up to and including the last newline, so the preallocated zero
    /// tail does not swallow the cut), returning how many records it held
    /// and how many survive whole.
    fn cut_wal(wal: &std::path::Path, cut: u64) -> (usize, usize) {
        let bytes = std::fs::read(wal).unwrap();
        let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let records = bytes[..end].iter().filter(|&&b| b == b'\n').count() - 1;
        let cut = (cut % (end as u64 + 1)) as usize;
        let lines = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        std::fs::OpenOptions::new()
            .write(true)
            .open(wal)
            .unwrap()
            .set_len(cut as u64)
            .unwrap();
        // The first line is the schema header.
        (records, lines.saturating_sub(1))
    }

    fn designs(raw: &[(usize, u64, u64)]) -> Designs {
        let graphs = [
            PrefixGraph::ripple(4),
            structures::sklansky(4),
            structures::brent_kung(4),
            structures::kogge_stone(4),
        ];
        raw.iter()
            .map(|&(g, area, delay)| {
                let point = ObjectivePoint {
                    area: area as f64 / 10.0,
                    delay: delay as f64 / 10.0,
                };
                (graphs[g].clone(), point)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Ops: 0/1 merge into one of two keys, 2 crash with the WAL cut
        /// at a random byte, 3 reopen cleanly.
        #[test]
        fn reopened_store_matches_model(
            ops in proptest::collection::vec(
                (
                    0u8..4,
                    0u64..1 << 20,
                    proptest::collection::vec((0usize..4, 1u64..40, 1u64..40), 0..4),
                ),
                1..40,
            ),
            case: u64,
        ) {
            let dir = temp_dir(&format!("model-{case}"));
            let path = dir.join("frontier.json");
            let wal = dir.join("frontier.wal");
            let keys = [("adder", 4u16), ("prefix-or", 4)];
            let mut model = Model::default();
            let mut store = FrontierStore::open_with(&path, MODEL_COMPACT_EVERY).unwrap();
            for (kind, arg, raw) in &ops {
                match kind {
                    0 | 1 => {
                        let (task, n) = keys[(arg % 2) as usize];
                        let key = prefixrl_serve::store::key_of(task, "analytical", n);
                        let batch = designs(raw);
                        let inserted = store.merge(task, "analytical", n, &batch).unwrap();
                        prop_assert_eq!(inserted, model.merge(&key, &batch));
                    }
                    2 => {
                        drop(store);
                        let (records, surviving) = cut_wal(&wal, *arg);
                        prop_assert_eq!(records, model.log.len());
                        model.log.truncate(surviving);
                        model.compact_if_due();
                        store = FrontierStore::open_with(&path, MODEL_COMPACT_EVERY).unwrap();
                    }
                    _ => {
                        drop(store);
                        store = FrontierStore::open_with(&path, MODEL_COMPACT_EVERY).unwrap();
                    }
                }
                check(&store, &model)?;
            }
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
