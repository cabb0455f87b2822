//! The persistent cross-run frontier store (DESIGN.md §13, §15).
//!
//! The paper's headline artifact is the *combined* area–delay Pareto front
//! assembled from many scalarized agents (Fig. 4). A one-shot CLI run
//! rebuilds that front from scratch every time; a resident server instead
//! folds every finished job's design pool into one continuously-merged
//! front per `(task, backend, width)` key and keeps it on disk, so learned
//! effort accumulates across jobs and survives restarts.
//!
//! Merging goes through [`prefixrl_core::pareto::ParetoFront::insert`],
//! whose dominance filtering guarantees the monotonicity contract: a merge
//! can only tighten a stored front, never regress it — a new job's
//! dominated points are rejected, its dominating points evict what they
//! beat. Keys isolate fully (an adder result can never surface in a
//! prefix-OR query).
//!
//! Persistence is a write-ahead merge log plus periodic compaction
//! (DESIGN.md §15). Each merge appends **one** WAL record — only the
//! designs the front actually accepted — and fsyncs just that delta,
//! instead of rewriting the whole store; every [`COMPACT_EVERY_DEFAULT`]
//! records (configurable via [`FrontierStore::open_with`]) the store is
//! compacted: the full map is written through the checkpoint machinery's
//! unique-temp-name [`prefixrl_core::checkpoint::write_atomic`] in the
//! same `prefixrl.frontier-store.v1` format as before, fsynced, and the
//! log truncated back to its header. Opening replays the log over the
//! compacted snapshot; because
//! [`prefixrl_core::pareto::ParetoFront::insert`] is deterministic and
//! idempotent (re-offering a present point is a no-op), replay after
//! any crash point — torn final record, compaction interrupted between
//! snapshot write and log truncation — reproduces a front bit-identical
//! to the pre-crash one (floats round-trip via shortest-representation
//! formatting).
//!
//! Reads never touch the write path: every merge publishes an immutable
//! [`FrontierSnapshot`] into a [`SnapshotCell`] (an `Arc` swap stamped
//! with a monotone epoch), and all query traffic — the `frontier`,
//! `query` and `query_batch` verbs, `keys`, `front_json` — resolves
//! against the snapshot without taking the store mutex.

use crate::cluster::{ReplHandshake, ReplicationHub, Topology};
use crate::lock;
use crate::query::{
    point_fields, FrontView, FrontierSnapshot, SnapshotCell, StoredDesign, StoredFront,
};
use prefix_graph::PrefixGraph;
use prefixrl_core::checkpoint::write_atomic;
use prefixrl_core::evaluator::ObjectivePoint;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The on-disk schema identifier of the compacted store file.
pub const STORE_SCHEMA: &str = "prefixrl.frontier-store.v1";

/// The schema identifier on the write-ahead log's header line.
pub const WAL_SCHEMA: &str = "prefixrl.frontier-wal.v1";

/// How many WAL records accumulate before the store compacts, unless
/// overridden via [`FrontierStore::open_with`].
pub const COMPACT_EVERY_DEFAULT: u64 = 64;

/// The store key of a `(task, backend, width)` combination.
pub fn key_of(task: &str, backend: &str, n: u16) -> String {
    format!("{task}/{backend}/{n}")
}

/// Splits a composite store key back into `(task, backend, n)` — the
/// inverse of [`key_of`], unambiguous because [`validate_names`] bans `/`
/// inside names.
///
/// # Errors
///
/// Fails on a key that is not exactly `task/backend/width`.
pub fn parse_key(key: &str) -> Result<(String, String, u16), String> {
    let parts: Vec<&str> = key.split('/').collect();
    let [task, backend, n] = parts.as_slice() else {
        return Err(format!("malformed store key `{key}` (want task/backend/n)"));
    };
    validate_names(task, backend).map_err(|e| format!("store key `{key}`: {e}"))?;
    let n: u16 = n
        .parse()
        .map_err(|_| format!("store key `{key}`: width `{n}` is not a u16"))?;
    Ok(((*task).to_string(), (*backend).to_string(), n))
}

/// Rejects task/backend names that would alias composite keys: `/` is the
/// key separator, so `task="a/b", backend="c"` and `task="a",
/// backend="b/c"` would otherwise collide on `a/b/c/<n>`. Empty names are
/// rejected for the same reason (`"a/"` + `"b"` vs `"a"` + `"/b"`).
///
/// # Errors
///
/// Fails with a message naming the offending field.
pub fn validate_names(task: &str, backend: &str) -> Result<(), String> {
    for (field, name) in [("task", task), ("backend", backend)] {
        if name.is_empty() {
            return Err(format!("field `{field}`: name must not be empty"));
        }
        if name.contains('/') {
            return Err(format!(
                "field `{field}`: name `{name}` contains `/`, which is the store's \
                 key separator and would alias another (task, backend, n) key"
            ));
        }
    }
    Ok(())
}

/// Zeroed headroom kept preallocated (and pre-written, so its extents
/// are past the unwritten→written metadata transition) beyond the log's
/// logical end. Record appends then overwrite allocated blocks in place,
/// and their `fdatasync` has no file-size or extent change to journal —
/// on ext4 a metadata-carrying fsync is a journal commit, and journal
/// commits serialize **across files**, which would defeat the point of
/// sharded per-store WALs syncing concurrently (BENCH_cluster.json).
const WAL_PREALLOC_CHUNK: u64 = 256 * 1024;

/// The open write-ahead log of a persisted store.
struct Wal {
    file: std::fs::File,
    path: PathBuf,
    /// Records currently in the log (not counting the header line).
    records: u64,
    /// Logical end of the log: every byte below is header or record
    /// bytes; `len..allocated` is preallocated zeros. The write cursor
    /// sits at `len` between operations.
    len: u64,
    /// Physical zero-filled extent of the file.
    allocated: u64,
}

/// Accepted designs as one merge record carries them.
type Designs = Vec<(Arc<StoredDesign>, ObjectivePoint)>;

/// The mutable half of the store, under one mutex: the authoritative
/// fronts plus the persistence state. Readers never take this mutex —
/// they go through [`FrontierStore::snapshot`]. Each design is held once,
/// as a [`StoredDesign`] shared with every snapshot that publishes it.
struct Inner {
    fronts: BTreeMap<String, StoredFront>,
    wal: Option<Wal>,
    compactions: u64,
    repl: Option<ReplState>,
}

/// Replication state of a cluster-mode store: the fan-out hub plus the
/// topology deciding which keys this node ships (only the ones it owns —
/// replicated keys are never re-shipped, so records can't cascade around
/// the follower ring).
struct ReplState {
    hub: Arc<ReplicationHub>,
    topology: Topology,
}

/// A disk-backed map from `(task, backend, width)` to the combined Pareto
/// front of every design pool ever merged under that key, with a
/// lock-free snapshot tier for readers.
pub struct FrontierStore {
    path: Option<PathBuf>,
    compact_every: u64,
    inner: Mutex<Inner>,
    cell: SnapshotCell,
}

impl FrontierStore {
    /// An unpersisted store (tests, ephemeral servers).
    pub fn in_memory() -> Self {
        FrontierStore {
            path: None,
            compact_every: COMPACT_EVERY_DEFAULT,
            inner: Mutex::new(Inner {
                fronts: BTreeMap::new(),
                wal: None,
                compactions: 0,
                repl: None,
            }),
            cell: SnapshotCell::default(),
        }
    }

    /// Opens (or creates) a store persisted at `path` with the default
    /// compaction threshold. See [`FrontierStore::open_with`].
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a malformed/mismatched store or log file.
    pub fn open(path: &Path) -> Result<Self, String> {
        Self::open_with(path, COMPACT_EVERY_DEFAULT)
    }

    /// Opens (or creates) a store persisted at `path`, compacting after
    /// every `compact_every` WAL records. An existing store is loaded
    /// from the compacted snapshot and the log replayed over it: the
    /// fronts it serves afterwards are bit-identical to the ones last
    /// merged. A torn final log line (crash mid-append) is discarded; a
    /// log that ends cleanly is neither written nor synced; a log already
    /// over the threshold is compacted on open.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a malformed/mismatched store or log file
    /// (anything other than a torn final line).
    pub fn open_with(path: &Path, compact_every: u64) -> Result<Self, String> {
        let compact_every = compact_every.max(1);
        let mut fronts = load_compacted(path)?;
        let wal_path = wal_path_of(path);
        let wal = open_wal(&wal_path, &mut fronts)?;
        let records = wal.records;
        let store = FrontierStore {
            path: Some(path.to_path_buf()),
            compact_every,
            inner: Mutex::new(Inner {
                fronts,
                wal: Some(wal),
                compactions: 0,
                repl: None,
            }),
            cell: SnapshotCell::default(),
        };
        {
            let mut inner = lock(&store.inner);
            // A log already over the threshold (e.g. the previous process
            // died right before compacting) is absorbed on open.
            if records >= compact_every {
                store.compact_locked(&mut inner)?;
            }
            store.cell.publish(initial_snapshot(&inner.fronts));
        }
        Ok(store)
    }

    /// Merges a design pool into the front stored under
    /// `(task, backend, n)`, creating it if absent; appends the accepted
    /// delta to the write-ahead log (fsyncing only that record) and
    /// publishes a fresh read snapshot. Returns how many points joined
    /// the front; the stored front never regresses (dominated candidates
    /// are rejected).
    ///
    /// # Errors
    ///
    /// Fails on a task/backend name containing `/` (which would alias
    /// another key — nothing is merged), or on persistence I/O errors
    /// (the in-memory merge is kept and published even if the write
    /// fails).
    pub fn merge(
        &self,
        task: &str,
        backend: &str,
        n: u16,
        designs: &[(PrefixGraph, ObjectivePoint)],
    ) -> Result<usize, String> {
        let designs = designs
            .iter()
            .map(|(graph, point)| (Arc::new(StoredDesign::of(graph)), *point))
            .collect();
        self.merge_designs(task, backend, n, designs)
    }

    /// [`FrontierStore::merge`] over designs already held as records.
    fn merge_designs(
        &self,
        task: &str,
        backend: &str,
        n: u16,
        designs: Designs,
    ) -> Result<usize, String> {
        validate_names(task, backend)?;
        let key = key_of(task, backend, n);
        let mut inner = lock(&self.inner);
        let newly_created = !inner.fronts.contains_key(&key);
        let front = inner.fronts.entry(key.clone()).or_default();
        let mut accepted: Designs = Vec::new();
        for (design, point) in designs {
            if front.insert(point, Arc::clone(&design)) {
                accepted.push((design, point));
            }
        }
        let inserted = accepted.len();
        // Publish before touching the disk: readers see the merged front
        // immediately and never wait on the WAL fsync. The snapshot swap
        // happens under the store mutex, so publishes are serialized and
        // epochs stay in merge order.
        let view = Arc::new(FrontView::build(&key, front));
        self.cell.publish(self.cell.load().successor(&key, view));
        // Log only when replay needs the record: an accepted delta, or
        // the bare creation of a new (possibly empty-front) key.
        if inserted > 0 || newly_created {
            let designs = Serialize::to_value(&accepted);
            self.append_record_locked(&mut inner, &key, designs.clone())?;
            // Ship only after the fsync above returned, and only keys this
            // node owns: a primary's durable state is always a superset of
            // what its followers have seen, and replica-applied keys are
            // never re-shipped (no cascades around the follower ring).
            if let Some(repl) = &inner.repl {
                if repl.topology.owns(&key) {
                    repl.hub.publish(&key, designs);
                }
            }
        }
        Ok(inserted)
    }

    /// Switches the store into cluster mode: merges of keys this topology
    /// owns are published to the replication hub after their WAL fsync.
    /// Call once, before serving.
    pub fn enable_replication(&self, topology: Topology) {
        let mut inner = lock(&self.inner);
        inner.repl = Some(ReplState {
            hub: Arc::new(ReplicationHub::new()),
            topology,
        });
    }

    /// The replication epoch of this store open (`None` when not in
    /// cluster mode).
    pub fn replication_epoch(&self) -> Option<u64> {
        lock(&self.inner).repl.as_ref().map(|r| r.hub.epoch())
    }

    /// `(next_seq, live_subscribers)` of the replication hub, for the
    /// `cluster` diagnostics verb.
    pub fn replication_stats(&self) -> Option<(u64, usize)> {
        lock(&self.inner).repl.as_ref().map(|r| r.hub.stats())
    }

    /// Applies one replicated record (or one snapshot entry) from a
    /// primary: deserializes the shipped designs (legalizing each graph)
    /// and merges them under `key` through the same idempotent path local
    /// merges take. The record lands in this node's own WAL for
    /// durability, but is never re-published (this node does not own the
    /// key).
    ///
    /// # Errors
    ///
    /// Fails on a malformed key or designs payload, or on local
    /// persistence errors.
    pub fn apply_replica(&self, key: &str, designs: &Value) -> Result<usize, String> {
        let (task, backend, n) = parse_key(key)?;
        let designs = Designs::from_value(designs)
            .map_err(|e| format!("replicated designs for `{key}`: {e}"))?;
        self.merge_designs(&task, &backend, n, designs)
    }

    /// Resolves a `repl_subscribe` handshake atomically against the merge
    /// path: registers the subscriber and cuts either an offset resume
    /// (epoch match, backlog still covers `from_seq`) or a full
    /// owned-keys snapshot, all under the store mutex so no record can
    /// fall between the cut and the live stream.
    ///
    /// # Errors
    ///
    /// Fails when the store is not in cluster mode.
    pub fn subscribe_replication(
        &self,
        from_epoch: u64,
        from_seq: u64,
    ) -> Result<ReplHandshake, String> {
        let inner = lock(&self.inner);
        let Some(repl) = &inner.repl else {
            return Err(
                "replication is not enabled on this server (start it with --peers)".to_string(),
            );
        };
        let (needs_snapshot, resume_seq, replay, rx) = repl.hub.subscribe(from_epoch, from_seq);
        let snapshot = if needs_snapshot {
            Some(Value::Object(
                inner
                    .fronts
                    .iter()
                    .filter(|(key, _)| repl.topology.owns(key))
                    .map(|(key, front)| (key.clone(), designs_json(front)))
                    .collect(),
            ))
        } else {
            None
        };
        Ok(ReplHandshake {
            epoch: repl.hub.epoch(),
            resume_seq,
            snapshot,
            replay,
            rx,
        })
    }

    /// The current immutable read snapshot (an `Arc` clone — never takes
    /// the store mutex, never blocks on a concurrent merge's fsync).
    pub fn snapshot(&self) -> Arc<FrontierSnapshot> {
        self.cell.load()
    }

    /// The epoch of the current snapshot (lock-free; bumps on every
    /// merge, resets to 0 when a store is reopened).
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Every key with a stored front, in sorted order (snapshot read).
    pub fn keys(&self) -> Vec<String> {
        self.snapshot().keys()
    }

    /// Serializes one stored front for the wire: an array of
    /// `{area, delay, size, depth}` points in increasing-delay order
    /// (graphs included with `include_graphs`), or [`Value::Null`] if the
    /// key was never merged — distinguishable from a merged-but-empty
    /// front, which is `[]`. Resolves against the current snapshot.
    pub fn front_json(&self, task: &str, backend: &str, n: u16, include_graphs: bool) -> Value {
        let snapshot = self.snapshot();
        let Some(view) = snapshot.front(task, backend, n) else {
            return Value::Null;
        };
        Value::Array(
            (0..view.len())
                .map(|i| Value::Object(point_fields(view, i, include_graphs)))
                .collect(),
        )
    }

    /// Persistence counters for the `ping` diagnostics payload:
    /// `{epoch, keys, wal_records, compactions}`.
    pub fn stats_json(&self) -> Value {
        let snapshot = self.snapshot();
        let inner = lock(&self.inner);
        serde_json::json!({
            "epoch": snapshot.epoch(),
            "keys": snapshot.keys().len() as u64,
            "wal_records": inner.wal.as_ref().map_or(0, |w| w.records),
            "compactions": inner.compactions,
        })
    }

    /// Appends one merge record to the WAL, fsyncs it, and compacts when
    /// the record count reaches the threshold.
    fn append_record_locked(
        &self,
        inner: &mut Inner,
        key: &str,
        designs: Value,
    ) -> Result<(), String> {
        if inner.wal.is_none() {
            return Ok(());
        }
        let record = Value::Object(vec![
            ("key".to_string(), Value::String(key.to_string())),
            ("designs".to_string(), designs),
        ]);
        let mut line = serde_json::to_string(&record).expect("infallible");
        line.push('\n');
        {
            let wal = inner.wal.as_mut().expect("checked above");
            let bytes = line.as_bytes();
            if wal.len + bytes.len() as u64 > wal.allocated {
                preallocate(wal, bytes.len() as u64)?;
            }
            // In-place write within the preallocated extent — the cursor
            // sits at `wal.len`, inside already-written blocks.
            wal.file
                .write_all(bytes)
                .map_err(|e| format!("append {}: {e}", wal.path.display()))?;
            // Fsync only the delta — this is the whole point of the WAL:
            // merge durability no longer costs a full-store rewrite. With
            // the extent preallocated there is no metadata to journal, so
            // this is pure data writeback (see [`WAL_PREALLOC_CHUNK`]).
            wal.file
                .sync_data()
                .map_err(|e| format!("sync {}: {e}", wal.path.display()))?;
            wal.len += bytes.len() as u64;
            wal.records += 1;
            if wal.records < self.compact_every {
                return Ok(());
            }
        }
        self.compact_locked(inner)
    }

    /// Writes the full compacted snapshot (fsynced), then truncates the
    /// WAL back to its header. A crash between the two leaves both the
    /// snapshot *and* the log containing the same merges — harmless,
    /// because replay through [`prefixrl_core::pareto::ParetoFront::insert`]
    /// is idempotent.
    fn compact_locked(&self, inner: &mut Inner) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        // `write_atomic` returns once the snapshot and its rename are
        // durable, so the records truncated below can never be lost
        // while the snapshot that absorbed them is.
        write_atomic(path, &compacted_text(&inner.fronts))?;
        if let Some(wal) = inner.wal.as_mut() {
            truncate_to_header(wal)?;
            wal.records = 0;
        }
        inner.compactions += 1;
        Ok(())
    }
}

/// One front as the `[(graph, point), …]` designs array replication
/// ships — the same shape merge records carry, so followers apply
/// snapshot entries and records through one code path.
fn designs_json(front: &StoredFront) -> Value {
    Value::Array(
        front
            .iter()
            .map(|(point, design)| {
                Value::Array(vec![
                    Serialize::to_value(design),
                    Serialize::to_value(point),
                ])
            })
            .collect(),
    )
}

/// The compacted full-store file contents — the pre-WAL
/// `prefixrl.frontier-store.v1` format, unchanged.
fn compacted_text(fronts: &BTreeMap<String, StoredFront>) -> String {
    let entries: Vec<(String, Value)> = fronts
        .iter()
        .map(|(k, front)| (k.clone(), Serialize::to_value(front)))
        .collect();
    let value = Value::Object(vec![
        (
            "schema".to_string(),
            Value::String(STORE_SCHEMA.to_string()),
        ),
        ("fronts".to_string(), Value::Object(entries)),
    ]);
    serde_json::to_string_pretty(&value).expect("infallible")
}

/// Loads the compacted snapshot file, or an empty map when absent. Each
/// design is legalized into a [`PrefixGraph`] before its record is kept.
fn load_compacted(path: &Path) -> Result<BTreeMap<String, StoredFront>, String> {
    let mut fronts = BTreeMap::new();
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let value: Value = serde_json::from_str(&text)
                .map_err(|e| format!("parse {}: {e}", path.display()))?;
            match value.get("schema").and_then(as_str) {
                Some(STORE_SCHEMA) => {}
                other => {
                    return Err(format!(
                        "{}: expected schema `{STORE_SCHEMA}`, found {other:?}",
                        path.display()
                    ))
                }
            }
            let entries = value
                .get("fronts")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("{}: missing `fronts` object", path.display()))?;
            for (key, front) in entries {
                let front = StoredFront::from_value(front)
                    .map_err(|e| format!("{}: front `{key}`: {e}", path.display()))?;
                fronts.insert(key.clone(), front);
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    }
    Ok(fronts)
}

/// The log path next to a store path: `frontier.json` → `frontier.wal`.
fn wal_path_of(store_path: &Path) -> PathBuf {
    store_path.with_extension("wal")
}

/// The log's first line: `{"schema": "prefixrl.frontier-wal.v1"}\n`.
fn wal_header() -> String {
    let value = serde_json::json!({ "schema": WAL_SCHEMA });
    let mut line = serde_json::to_string(&value).expect("infallible");
    line.push('\n');
    line
}

/// Opens the log at `wal_path` (creating it if absent), replays its
/// records over `fronts`, and leaves the write cursor at its logical end.
///
/// A complete line — header or record — always ends in `\n` before its
/// fsync returns, so the bytes after the last `\n` are either the
/// preallocated zero headroom every closed log carries (see
/// [`WAL_PREALLOC_CHUNK`]) or a torn append. A zero tail is kept as
/// headroom: a clean reopen writes and syncs nothing. Only a tail holding
/// a non-NUL byte (NUL never occurs inside a record) takes the repair
/// path: truncate, sync, re-preallocate. A torn line anywhere else is
/// corruption and fails loudly. A new, empty or headerless log gets its
/// schema header.
fn open_wal(wal_path: &Path, fronts: &mut BTreeMap<String, StoredFront>) -> Result<Wal, String> {
    // Not `append` mode: appends always land at the physical end of the
    // file, which preallocation pushes past the logical end. The cursor
    // is positioned explicitly instead, and the existing contents (the
    // surviving log) must not be truncated.
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(false)
        .open(wal_path)
        .map_err(|e| format!("open {}: {e}", wal_path.display()))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| format!("read {}: {e}", wal_path.display()))?;
    let len = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let complete =
        std::str::from_utf8(&bytes[..len]).map_err(|e| format!("{}: {e}", wal_path.display()))?;
    let records = replay_records(wal_path, complete, fronts)?;
    let mut wal = Wal {
        file,
        path: wal_path.to_path_buf(),
        records,
        len: len as u64,
        allocated: bytes.len() as u64,
    };
    if len > 0 && bytes[len..].iter().all(|&b| b == 0) {
        seek_to_end(&mut wal)?;
        return Ok(wal);
    }
    if wal.allocated > wal.len {
        cut(&mut wal, len as u64)?;
    }
    if wal.len == 0 {
        let header = wal_header();
        seek_to_end(&mut wal)?;
        wal.file
            .write_all(header.as_bytes())
            .map_err(|e| format!("write {}: {e}", wal.path.display()))?;
        wal.file
            .sync_data()
            .map_err(|e| format!("sync {}: {e}", wal.path.display()))?;
        wal.len = header.len() as u64;
        wal.allocated = wal.len;
    }
    preallocate(&mut wal, 0)?;
    Ok(wal)
}

/// Replays the complete lines of a log over `fronts`, returning how many
/// records they hold. Each design is legalized into a [`PrefixGraph`]
/// before its record is kept.
fn replay_records(
    wal_path: &Path,
    complete: &str,
    fronts: &mut BTreeMap<String, StoredFront>,
) -> Result<u64, String> {
    let mut records = 0u64;
    for (i, line) in complete.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line)
            .map_err(|e| format!("{} line {}: {e}", wal_path.display(), i + 1))?;
        if i == 0 {
            match value.get("schema").and_then(as_str) {
                Some(WAL_SCHEMA) => continue,
                other => {
                    return Err(format!(
                        "{}: expected schema `{WAL_SCHEMA}`, found {other:?}",
                        wal_path.display()
                    ))
                }
            }
        }
        let key = value
            .get("key")
            .and_then(as_str)
            .ok_or_else(|| format!("{} line {}: missing `key`", wal_path.display(), i + 1))?;
        let designs = value
            .get("designs")
            .ok_or_else(|| format!("{} line {}: missing `designs`", wal_path.display(), i + 1))?;
        let designs = Designs::from_value(designs)
            .map_err(|e| format!("{} line {}: {e}", wal_path.display(), i + 1))?;
        let front = fronts.entry(key.to_string()).or_default();
        for (design, point) in designs {
            // Idempotent: a record already absorbed by the compacted
            // snapshot (crash between snapshot write and log truncation)
            // re-offers points the front holds, which `insert` rejects.
            front.insert(point, design);
        }
        records += 1;
    }
    Ok(records)
}

/// Extends the log's zero-filled headroom to at least `needed` bytes past
/// the logical end (one [`WAL_PREALLOC_CHUNK`] minimum) and re-positions
/// the cursor at the logical end. The zeros are written and `sync_all`ed
/// once here, so the extent allocation's metadata journaling is paid up
/// front instead of on every record's fsync. A crash leaves a zero tail
/// after the last record's newline, which the next open keeps as
/// headroom.
fn preallocate(wal: &mut Wal, needed: u64) -> Result<(), String> {
    let target = wal.len + needed.max(WAL_PREALLOC_CHUNK);
    if wal.allocated < target {
        wal.file
            .seek(std::io::SeekFrom::Start(wal.allocated))
            .map_err(|e| format!("seek {}: {e}", wal.path.display()))?;
        let zeros = vec![0u8; (target - wal.allocated) as usize];
        wal.file
            .write_all(&zeros)
            .map_err(|e| format!("preallocate {}: {e}", wal.path.display()))?;
        wal.file
            .sync_all()
            .map_err(|e| format!("sync {}: {e}", wal.path.display()))?;
        wal.allocated = target;
    }
    seek_to_end(wal)
}

/// Puts the write cursor at the log's logical end.
fn seek_to_end(wal: &mut Wal) -> Result<(), String> {
    wal.file
        .seek(std::io::SeekFrom::Start(wal.len))
        .map(|_| ())
        .map_err(|e| format!("seek {}: {e}", wal.path.display()))
}

/// Truncates the log's file to `len` bytes, headroom included, and syncs.
fn cut(wal: &mut Wal, len: u64) -> Result<(), String> {
    wal.file
        .set_len(len)
        .map_err(|e| format!("truncate {}: {e}", wal.path.display()))?;
    wal.file
        .sync_data()
        .map_err(|e| format!("sync {}: {e}", wal.path.display()))?;
    wal.len = len;
    wal.allocated = len;
    Ok(())
}

/// Truncates an open log back to its header line and re-preallocates its
/// headroom.
fn truncate_to_header(wal: &mut Wal) -> Result<(), String> {
    cut(wal, wal_header().len() as u64)?;
    preallocate(wal, 0)
}

/// Builds the epoch-0 snapshot of a freshly opened store.
fn initial_snapshot(fronts: &BTreeMap<String, StoredFront>) -> FrontierSnapshot {
    let views = fronts
        .iter()
        .map(|(k, f)| (k.clone(), Arc::new(FrontView::build(k, f))))
        .collect();
    FrontierSnapshot::with_fronts(0, views)
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}
