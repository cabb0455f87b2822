//! Byte pins of everything the frontier store writes: the compacted
//! `frontier.json`, a write-ahead-log record, and the replication snapshot
//! a fresh follower receives, for one fixed store with keys from 6b to
//! 64b. A change to how the store holds its designs must leave every byte
//! here unchanged. A hand-written store file and log with non-canonical
//! minlists pin that loading legalizes each design.

use prefix_graph::{structures, PrefixGraph};
use prefixrl_core::evaluator::{Evaluator, ObjectivePoint};
use prefixrl_core::task::{Adder, CircuitTask, PrefixOr};
use prefixrl_serve::{FrontierStore, Topology};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "prefixrl-store-bytes-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Complete lines of a write-ahead log, with the preallocated zero tail
/// stripped.
fn wal_lines(wal: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(wal).unwrap();
    let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
    complete.lines().map(str::to_string).collect()
}

/// Fails naming the first line where `actual` leaves the pinned text.
fn assert_pinned(what: &str, pinned: &str, actual: &str) {
    if pinned == actual {
        return;
    }
    let line = pinned
        .lines()
        .zip(actual.lines())
        .position(|(p, a)| p != a)
        .unwrap_or_else(|| pinned.lines().count().min(actual.lines().count()));
    panic!(
        "{what} differs from its pin at line {} (pinned {} bytes, got {}):\n  pinned: {:?}\n  actual: {:?}",
        line + 1,
        pinned.len(),
        actual.len(),
        pinned.lines().nth(line),
        actual.lines().nth(line),
    );
}

/// `graphs` scored by the task's analytical oracle.
fn scored(
    task: impl CircuitTask + 'static,
    graphs: Vec<PrefixGraph>,
) -> Vec<(PrefixGraph, ObjectivePoint)> {
    let evaluator = Evaluator::analytical(task);
    graphs
        .into_iter()
        .map(|g| {
            let p = evaluator.evaluate(&g);
            (g, p)
        })
        .collect()
}

/// One merge of the fixed store: `(task, n, designs)` under the
/// analytical backend.
type Merge = (&'static str, u16, Vec<(PrefixGraph, ObjectivePoint)>);

/// The fixed store's merges, in order.
fn fixed_merges() -> Vec<Merge> {
    let all = |n| {
        vec![
            PrefixGraph::ripple(n),
            structures::sklansky(n),
            structures::brent_kung(n),
            structures::kogge_stone(n),
            structures::han_carlson(n),
        ]
    };
    vec![
        ("adder", 6, scored(Adder, all(6))),
        ("prefix-or", 8, scored(PrefixOr, all(8))),
        (
            "adder",
            16,
            scored(
                Adder,
                vec![structures::sklansky(16), structures::brent_kung(16)],
            ),
        ),
        (
            "prefix-or",
            32,
            scored(
                PrefixOr,
                vec![PrefixGraph::ripple(32), structures::brent_kung(32)],
            ),
        ),
        ("adder", 64, scored(Adder, vec![structures::sklansky(64)])),
        // A second merge into an existing key: Ladner-Fischer joins or is
        // rejected, and whatever it dominates is evicted.
        (
            "adder",
            16,
            scored(Adder, vec![structures::ladner_fischer(16)]),
        ),
    ]
}

#[test]
fn fixed_store_writes_pinned_bytes() {
    let dir = temp_dir("fixed");
    let path = dir.join("frontier.json");
    {
        let store = FrontierStore::open_with(&path, 1000).unwrap();
        for (task, n, designs) in fixed_merges() {
            store.merge(task, "analytical", n, &designs).unwrap();
        }
        let lines = wal_lines(&path.with_extension("wal"));
        assert_eq!(lines.len(), 1 + fixed_merges().len());
        assert_pinned(
            "WAL record of the adder/analytical/6 merge",
            include_str!("pins/wal_record.json").trim_end(),
            &lines[1],
        );
        // One shard owns every key, so a fresh follower's snapshot holds
        // the whole store.
        store.enable_replication(Topology::new(0, vec!["127.0.0.1:1".to_string()], 0).unwrap());
        let handshake = store.subscribe_replication(0, 0).unwrap();
        let snapshot = handshake
            .snapshot
            .expect("a fresh subscriber gets a snapshot");
        assert_pinned(
            "replication snapshot",
            include_str!("pins/replication_snapshot.json").trim_end(),
            &serde_json::to_string(&snapshot).unwrap(),
        );
    }
    // A threshold-1 open compacts the logged merges into `frontier.json`.
    drop(FrontierStore::open_with(&path, 1).unwrap());
    assert_pinned(
        "compacted frontier.json",
        include_str!("pins/frontier.json"),
        &std::fs::read_to_string(&path).unwrap(),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A store file whose `adder/analytical/6` minlist lists `(3,2)`, a lower
/// parent the closure of `(4,2)` adds anyway, and `(4,2)` twice; and a log
/// whose `prefix-or/analytical/6` record lists `(5,3)` twice and out of
/// order, with `(5,1)` needing `(2,1)` and `(4,3)` added.
const NONCANONICAL_STORE: &str = r#"{"schema":"prefixrl.frontier-store.v1","fronts":{"adder/analytical/6":{"entries":[[{"area":9.0,"delay":4.0},{"n":6,"min_nodes":[[4,2],[3,2],[4,2]]}]]}}}"#;
const NONCANONICAL_WAL: &str = concat!(
    r#"{"schema":"prefixrl.frontier-wal.v1"}"#,
    "\n",
    r#"{"key":"prefix-or/analytical/6","designs":[[{"n":6,"min_nodes":[[5,3],[5,1],[5,3]]},{"area":8.0,"delay":3.0}]]}"#,
    "\n",
);

#[test]
fn noncanonical_minlists_are_legalized_on_load() {
    let dir = temp_dir("noncanonical");
    let path = dir.join("frontier.json");
    std::fs::write(&path, NONCANONICAL_STORE).unwrap();
    std::fs::write(path.with_extension("wal"), NONCANONICAL_WAL).unwrap();
    {
        let store = FrontierStore::open(&path).unwrap();
        let answer =
            |task| serde_json::to_string(&store.front_json(task, "analytical", 6, true)).unwrap();
        assert_eq!(
            answer("adder"),
            r#"[{"area":9,"delay":4,"size":7,"depth":4,"graph":{"n":6,"min_nodes":[[4,2]]}}]"#
        );
        assert_eq!(
            answer("prefix-or"),
            r#"[{"area":8,"delay":3,"size":9,"depth":4,"graph":{"n":6,"min_nodes":[[5,1],[5,3]]}}]"#
        );
    }
    // A threshold-1 open compacts the replayed record: the rewritten file
    // holds both designs with their canonical minlists.
    drop(FrontierStore::open_with(&path, 1).unwrap());
    assert_pinned(
        "compacted noncanonical store",
        include_str!("pins/noncanonical_compacted.json"),
        &std::fs::read_to_string(&path).unwrap(),
    );
    std::fs::remove_dir_all(&dir).ok();
}
