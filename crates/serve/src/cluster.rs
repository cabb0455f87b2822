//! The multi-node serve cluster (DESIGN.md §16): partitioned frontier
//! keys, WAL-shipping replication, and a fan-out query router.
//!
//! PR 7 made single-node reads lock-free; this module removes the other
//! two single-node limits — merge throughput and durability — without a
//! consensus protocol, by leaning on two properties the store already
//! has:
//!
//! - **Partitioning**: every frontier key `(task, backend, width)` hashes
//!   to exactly one *primary* shard ([`shard_of`], stable FNV-1a over the
//!   composite key). Writes for a key go only to its primary, so N nodes
//!   split the merge load with no cross-node coordination on the write
//!   path.
//! - **WAL-shipping replication**: a primary streams every fsynced merge
//!   record to its R followers over the existing newline-JSON protocol
//!   (`repl_subscribe` → a stream of `repl_record` lines, with
//!   epoch/offset resume and a full-snapshot fallback). Followers replay
//!   records through the same idempotent
//!   [`prefixrl_core::pareto::ParetoFront::insert`] the WAL replay uses,
//!   so duplicated delivery is harmless and follower state can only
//!   converge toward the primary's.
//! - **Fan-out routing**: [`Router`] sends single queries to the owning
//!   shard, scatters `query_batch` by key with a gather that preserves
//!   input order, and fails *reads* over to followers (bounded retry +
//!   backoff) when a primary is unreachable. Writes never fail over —
//!   a dead primary's keys are read-only until it restarts, which is what
//!   makes replica catch-up bit-identical (no diverging writer).
//!
//! Consistency: followers are eventually consistent, bounded by the
//! in-flight tail of the primary's WAL — a record is shipped only after
//! its fsync returns, so a follower can trail but never lead the
//! primary's durable state.

use crate::client::{Client, ClientError};
use crate::jobs::JobManager;
use crate::lock;
use crate::protocol;
use crate::query::{query_fields, Query};
use crate::store::key_of;
use prefixrl_core::checkpoint::write_atomic;
use serde::Serialize as _;
use serde_json::Value;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Replication records a primary retains in memory for offset resume;
/// a follower further behind than this gets a full-snapshot resync.
pub const REPL_BACKLOG_CAP: usize = 1024;

/// Per-subscriber channel depth between the merge path and the streaming
/// connection thread. A follower too slow to drain this is dropped (it
/// reconnects and resumes from its cursor) instead of backpressuring
/// merges.
const REPL_CHANNEL_CAP: usize = 256;

/// Schema stamp of the persisted per-source replication cursor.
pub const REPL_CURSOR_SCHEMA: &str = "prefixrl.repl-cursor.v1";

/// How many failover rounds the router makes over a key's candidate
/// shards before giving up.
pub const ROUTER_RETRY_ROUNDS: usize = 3;

/// Base backoff between router failover rounds (doubles per round).
pub const ROUTER_RETRY_BACKOFF: Duration = Duration::from_millis(50);

/// The stable partition function: FNV-1a over the composite key string,
/// reduced modulo the shard count. Every node and every client computes
/// the same map, so there is no partition-metadata service to keep
/// consistent.
pub fn shard_of(key: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// The static cluster membership every node and router is configured
/// with: an ordered peer list (shard i listens at `peers[i]`), this
/// node's own index, and the replication factor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    /// This node's index into `peers`.
    pub shard_id: usize,
    /// Listen addresses of every shard, in shard-id order.
    pub peers: Vec<String>,
    /// Followers per primary: shard p replicates to the next `replicas`
    /// shards ring-wise (`p+1 … p+replicas` mod N).
    pub replicas: usize,
}

impl Topology {
    /// A validated topology.
    ///
    /// # Errors
    ///
    /// Fails on an empty peer list, a `shard_id` outside it, or a
    /// replication factor that does not leave the primary distinct from
    /// its followers (`replicas >= peers.len()`).
    pub fn new(shard_id: usize, peers: Vec<String>, replicas: usize) -> Result<Topology, String> {
        let t = Topology {
            shard_id,
            peers,
            replicas,
        };
        t.validate()?;
        Ok(t)
    }

    /// Re-checks the invariants of a hand-assembled topology.
    ///
    /// # Errors
    ///
    /// See [`Topology::new`].
    pub fn validate(&self) -> Result<(), String> {
        if self.peers.is_empty() {
            return Err("cluster topology needs at least one peer address".to_string());
        }
        if self.shard_id >= self.peers.len() {
            return Err(format!(
                "shard id {} outside the peer list (0..{})",
                self.shard_id,
                self.peers.len()
            ));
        }
        if self.replicas >= self.peers.len() {
            return Err(format!(
                "replication factor {} needs at least {} peers, have {}",
                self.replicas,
                self.replicas + 1,
                self.peers.len()
            ));
        }
        Ok(())
    }

    /// Number of shards in the cluster.
    pub fn num_shards(&self) -> usize {
        self.peers.len()
    }

    /// The primary shard owning `key`.
    pub fn primary_of(&self, key: &str) -> usize {
        shard_of(key, self.num_shards())
    }

    /// Whether this node is the primary for `key`.
    pub fn owns(&self, key: &str) -> bool {
        self.primary_of(key) == self.shard_id
    }

    /// The follower shards of `primary`, in failover-preference order.
    pub fn followers_of(&self, primary: usize) -> Vec<usize> {
        let n = self.num_shards();
        (1..=self.replicas).map(|i| (primary + i) % n).collect()
    }

    /// The primaries this node follows (subscribes to): exactly those
    /// whose follower set contains `shard_id`.
    pub fn replica_sources(&self) -> Vec<usize> {
        (0..self.num_shards())
            .filter(|&p| p != self.shard_id && self.followers_of(p).contains(&self.shard_id))
            .collect()
    }

    /// The shards to try for a *read* of `key`: the primary first, then
    /// its followers.
    pub fn read_candidates(&self, key: &str) -> Vec<usize> {
        let primary = self.primary_of(key);
        let mut out = vec![primary];
        out.extend(self.followers_of(primary));
        out
    }

    /// The topology as a JSON object (the `cluster` verb payload).
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "shard_id": self.shard_id as u64,
            "peers": Value::Array(self.peers.iter().cloned().map(Value::String).collect()),
            "replicas": self.replicas as u64,
        })
    }
}

/// One fsynced merge, as shipped to followers: a monotone per-epoch
/// sequence number plus the exact accepted-designs payload the WAL
/// recorded.
pub struct ReplRecord {
    /// Position in the primary's publish order (restarts at 0 per epoch).
    pub seq: u64,
    /// The frontier key the designs merged into.
    pub key: String,
    /// The accepted `[(graph, point), …]` list, pre-serialized.
    pub designs: Value,
}

impl ReplRecord {
    /// The `repl_record` stream line for this record.
    pub fn to_line(&self, epoch: u64) -> Value {
        serde_json::json!({
            "type": "repl_record",
            "epoch": epoch,
            "seq": self.seq,
            "key": self.key.clone(),
            "designs": self.designs.clone(),
        })
    }
}

struct HubState {
    next_seq: u64,
    backlog: VecDeque<Arc<ReplRecord>>,
    subscribers: Vec<SyncSender<Arc<ReplRecord>>>,
}

/// The primary-side fan-out point: every fsynced merge of an *owned* key
/// is published here and relayed to each live subscriber. Restart-safe
/// resume is epoch/offset based: the epoch is unique per store open, the
/// sequence restarts at 0 with it, and [`REPL_BACKLOG_CAP`] records are
/// retained for offset resume — anything older falls back to a full
/// owned-keys snapshot.
pub struct ReplicationHub {
    epoch: u64,
    state: Mutex<HubState>,
}

/// What a `repl_subscribe` handshake resolved to (built under the store
/// mutex, so it is atomic with respect to concurrent merges).
pub struct ReplHandshake {
    /// The primary's current replication epoch.
    pub epoch: u64,
    /// The stream continues from this sequence number; the snapshot (when
    /// present) covers everything before it.
    pub resume_seq: u64,
    /// Full owned-keys state (`{key: [(graph, point), …]}`), present when
    /// the follower's cursor could not be resumed from the backlog.
    pub snapshot: Option<Value>,
    /// Backlog records to replay before going live (offset resume).
    pub replay: Vec<Arc<ReplRecord>>,
    /// The live stream of records published after the handshake.
    pub rx: Receiver<Arc<ReplRecord>>,
}

impl ReplicationHub {
    /// A hub with a fresh process-unique, nonzero epoch.
    pub fn new() -> ReplicationHub {
        ReplicationHub {
            epoch: unique_epoch(),
            state: Mutex::new(HubState {
                next_seq: 0,
                backlog: VecDeque::new(),
                subscribers: Vec::new(),
            }),
        }
    }

    /// The epoch followers must echo to resume by offset.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `(next_seq, live_subscribers)` for diagnostics.
    pub fn stats(&self) -> (u64, usize) {
        let s = lock(&self.state);
        (s.next_seq, s.subscribers.len())
    }

    /// Publishes one fsynced merge to the backlog and every live
    /// subscriber. A subscriber whose channel is full or gone is dropped —
    /// it reconnects and resumes from its persisted cursor rather than
    /// backpressuring the merge path.
    pub(crate) fn publish(&self, key: &str, designs: Value) {
        let mut s = lock(&self.state);
        let record = Arc::new(ReplRecord {
            seq: s.next_seq,
            key: key.to_string(),
            designs,
        });
        s.next_seq += 1;
        s.backlog.push_back(Arc::clone(&record));
        if s.backlog.len() > REPL_BACKLOG_CAP {
            s.backlog.pop_front();
        }
        s.subscribers
            .retain(|tx| tx.try_send(Arc::clone(&record)).is_ok());
    }

    /// Registers a subscriber resuming from `(from_epoch, from_seq)`.
    /// Resume-by-offset succeeds when the epoch matches and the backlog
    /// still covers `from_seq`; otherwise the caller must ship a full
    /// snapshot first. Must be called with the store mutex held so the
    /// snapshot/backlog cut is atomic against merges.
    pub(crate) fn subscribe(
        &self,
        from_epoch: u64,
        from_seq: u64,
    ) -> (bool, u64, Vec<Arc<ReplRecord>>, Receiver<Arc<ReplRecord>>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(REPL_CHANNEL_CAP);
        let mut s = lock(&self.state);
        let next = s.next_seq;
        let oldest = next - s.backlog.len() as u64;
        let resumable = from_epoch == self.epoch && (oldest..=next).contains(&from_seq);
        let replay = if resumable {
            s.backlog
                .iter()
                .filter(|r| r.seq >= from_seq)
                .map(Arc::clone)
                .collect()
        } else {
            Vec::new()
        };
        s.subscribers.push(tx);
        (!resumable, next, replay, rx)
    }
}

impl Default for ReplicationHub {
    fn default() -> Self {
        ReplicationHub::new()
    }
}

/// A nonzero epoch unique across store opens on this host: wall-clock
/// nanoseconds folded with a process-local counter (two opens in the same
/// nanosecond still differ). Followers start from epoch 0, which never
/// matches, forcing the initial full-snapshot sync.
fn unique_epoch() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let mixed = nanos ^ (COUNTER.fetch_add(1, Ordering::Relaxed) << 48);
    mixed.max(1)
}

/// Connection/progress state of one follower→primary subscription, for
/// the `cluster` verb.
#[derive(Clone, Debug, Default)]
pub struct ReplPeerStatus {
    /// Whether the subscription stream is currently live.
    pub connected: bool,
    /// The primary epoch last synced from.
    pub epoch: u64,
    /// Next sequence number expected from that epoch.
    pub seq: u64,
    /// Records applied over the lifetime of this server.
    pub records_applied: u64,
    /// Full-snapshot resyncs performed.
    pub snapshots: u64,
}

impl ReplPeerStatus {
    /// This status as a JSON object.
    pub fn to_json(&self, source: usize) -> Value {
        serde_json::json!({
            "source": source as u64,
            "connected": self.connected,
            "epoch": self.epoch,
            "seq": self.seq,
            "records_applied": self.records_applied,
            "snapshots": self.snapshots,
        })
    }
}

/// The persisted cursor path for one replication source.
fn cursor_path(dir: &Path, source: usize) -> PathBuf {
    dir.join(format!("repl_cursor_{source}.json"))
}

/// Loads a persisted `(epoch, seq)` cursor; `(0, 0)` — which forces a
/// snapshot resync — when absent or unreadable (the cursor is an
/// optimization, never a correctness input).
fn load_cursor(path: &Path) -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return (0, 0);
    };
    let Ok(value) = serde_json::from_str::<Value>(&text) else {
        return (0, 0);
    };
    let num = |k: &str| match value.get(k) {
        Some(Value::Number(n)) => n.as_u64().unwrap_or(0),
        _ => 0,
    };
    match value.get("schema") {
        Some(Value::String(s)) if s == REPL_CURSOR_SCHEMA => (num("epoch"), num("seq")),
        _ => (0, 0),
    }
}

/// Best-effort atomic cursor persist (losing it only costs a resync).
fn save_cursor(path: &Path, epoch: u64, seq: u64) {
    let value = serde_json::json!({
        "schema": REPL_CURSOR_SCHEMA,
        "epoch": epoch,
        "seq": seq,
    });
    if let Err(e) = write_atomic(path, &serde_json::to_string(&value).expect("infallible")) {
        eprintln!("warning: replication cursor persist failed: {e}");
    }
}

/// Spawns one follower thread per primary this node replicates (an empty
/// vec when the server is not clustered or has no sources). Threads poll
/// `stop` and exit within ~500 ms of shutdown.
pub(crate) fn spawn_replicators(
    jobs: &Arc<JobManager>,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    let Some(topology) = jobs.config().cluster.clone() else {
        return Vec::new();
    };
    topology
        .replica_sources()
        .into_iter()
        .map(|source| {
            let topology = topology.clone();
            let jobs = Arc::clone(jobs);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || replicate_from(source, &topology, &jobs, &stop))
        })
        .collect()
}

/// The follower loop for one source primary: connect (with backoff),
/// subscribe from the persisted cursor, apply the snapshot/replay/live
/// stream through the idempotent merge path, persist the cursor as it
/// advances, and reconnect on any error.
fn replicate_from(source: usize, topology: &Topology, jobs: &Arc<JobManager>, stop: &AtomicBool) {
    let addr = topology.peers[source].clone();
    let cursor_file = jobs
        .config()
        .state_dir
        .as_ref()
        .map(|d| cursor_path(d, source));
    let (mut epoch, mut seq) = cursor_file.as_deref().map_or((0, 0), load_cursor);
    jobs.set_repl_status(source, |s| {
        s.epoch = epoch;
        s.seq = seq;
    });
    let mut backoff = Duration::from_millis(50);
    while !stop.load(Ordering::SeqCst) {
        let stream = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(_) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(2));
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        // A short read timeout keeps the loop responsive to `stop`; idle
        // timeouts are expected between records and simply re-poll.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        let Ok(mut writer) = stream.try_clone() else {
            continue;
        };
        let subscribe = protocol::request(
            "repl_subscribe",
            vec![
                ("epoch".to_string(), epoch.to_value()),
                ("from_seq".to_string(), seq.to_value()),
                ("follower".to_string(), topology.shard_id.to_value()),
            ],
        );
        let mut line = serde_json::to_string(&subscribe).expect("infallible");
        line.push('\n');
        if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
            continue;
        }
        let mut reader = BufReader::new(stream);
        let Some(header) = read_stream_line(&mut reader, stop) else {
            continue;
        };
        if header.get("ok") != Some(&Value::Bool(true)) {
            // The primary exists but refused (e.g. still booting without
            // cluster config) — loud, then retry with backoff.
            eprintln!(
                "warning: shard {}: repl_subscribe to shard {source} ({addr}) refused: {:?}",
                topology.shard_id,
                header.get("error")
            );
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_secs(2));
            continue;
        }
        backoff = Duration::from_millis(50);
        jobs.set_repl_status(source, |s| s.connected = true);
        while !stop.load(Ordering::SeqCst) {
            let Some(event) = read_stream_line(&mut reader, stop) else {
                break;
            };
            match apply_stream_event(&event, jobs) {
                Ok(Some((new_epoch, new_seq, was_snapshot))) => {
                    epoch = new_epoch;
                    seq = new_seq;
                    if let Some(path) = &cursor_file {
                        save_cursor(path, epoch, seq);
                    }
                    jobs.set_repl_status(source, |s| {
                        s.epoch = epoch;
                        s.seq = seq;
                        if was_snapshot {
                            s.snapshots += 1;
                        } else {
                            s.records_applied += 1;
                        }
                    });
                }
                Ok(None) => {}
                Err(e) => {
                    eprintln!(
                        "warning: shard {}: replication stream from shard {source} ({addr}): {e}",
                        topology.shard_id
                    );
                    break;
                }
            }
        }
        jobs.set_repl_status(source, |s| s.connected = false);
    }
}

/// Applies one stream line; returns the follower's new
/// `(epoch, next_seq, was_snapshot)` cursor, or `None` for ignorable
/// lines.
///
/// # Errors
///
/// Fails on an unparseable line or a merge rejection — the caller drops
/// the connection and resyncs.
fn apply_stream_event(
    event: &Value,
    jobs: &Arc<JobManager>,
) -> Result<Option<(u64, u64, bool)>, String> {
    let kind = match event.get("type") {
        Some(Value::String(s)) => s.as_str(),
        _ => return Err(format!("stream line without `type`: {event:?}")),
    };
    let num = |k: &str| -> Result<u64, String> {
        match event.get(k) {
            Some(Value::Number(n)) => n
                .as_u64()
                .ok_or_else(|| format!("stream field `{k}`: expected a non-negative integer")),
            other => Err(format!(
                "stream field `{k}`: expected a number, got {other:?}"
            )),
        }
    };
    match kind {
        "repl_snapshot" => {
            let epoch = num("epoch")?;
            let seq = num("seq")?;
            let fronts = event
                .get("fronts")
                .and_then(Value::as_object)
                .ok_or_else(|| "repl_snapshot without `fronts`".to_string())?;
            for (key, designs) in fronts {
                jobs.store().apply_replica(key, designs)?;
            }
            Ok(Some((epoch, seq, true)))
        }
        "repl_record" => {
            let epoch = num("epoch")?;
            let seq = num("seq")?;
            let key = match event.get("key") {
                Some(Value::String(k)) => k,
                _ => return Err("repl_record without `key`".to_string()),
            };
            let designs = event
                .get("designs")
                .ok_or_else(|| "repl_record without `designs`".to_string())?;
            jobs.store().apply_replica(key, designs)?;
            Ok(Some((epoch, seq + 1, false)))
        }
        _ => Ok(None),
    }
}

/// Reads one newline-terminated JSON value from a stream whose read
/// timeout is short (so `stop` stays responsive); `None` on EOF, a real
/// I/O error, or shutdown. Partial reads across timeouts are preserved.
fn read_stream_line(reader: &mut BufReader<TcpStream>, stop: &AtomicBool) -> Option<Value> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return None,
            Ok(_) => {
                if buf.ends_with(b"\n") {
                    let text = String::from_utf8(buf).ok()?;
                    if text.trim().is_empty() {
                        buf = Vec::new();
                        continue;
                    }
                    return serde_json::from_str(text.trim()).ok();
                }
                // Timed out mid-line with partial data appended: retry.
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return None,
        }
    }
}

/// The client-side fan-out layer: routes every request to the shard(s)
/// that own the touched keys, with bounded-retry read failover to
/// followers. One persistent [`Client`] per peer.
pub struct Router {
    topology: Topology,
    clients: Vec<Client>,
    rounds: usize,
    backoff: Duration,
}

impl Router {
    /// A router over a validated topology. `topology.shard_id` is unused
    /// for routing (a router is not a shard) — pass 0.
    ///
    /// # Errors
    ///
    /// Fails on an invalid topology.
    pub fn new(topology: Topology) -> Result<Router, String> {
        topology.validate()?;
        let clients = topology.peers.iter().map(Client::new).collect();
        Ok(Router {
            topology,
            clients,
            rounds: ROUTER_RETRY_ROUNDS,
            backoff: ROUTER_RETRY_BACKOFF,
        })
    }

    /// Overrides the failover retry schedule (mostly for tests/benches).
    #[must_use]
    pub fn with_retry(mut self, rounds: usize, backoff: Duration) -> Router {
        self.rounds = rounds.max(1);
        self.backoff = backoff;
        self
    }

    /// The topology this router fans out over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The persistent client for one shard.
    pub fn client(&self, shard: usize) -> &Client {
        &self.clients[shard]
    }

    /// Routes one read across `candidates` (first = preferred): transport
    /// failures try the next candidate with per-round backoff; a reply
    /// from any shard — success *or* rejection — ends the search.
    fn routed(&self, candidates: &[usize], request: &Value) -> Result<Value, String> {
        let mut last = String::new();
        for round in 0..self.rounds {
            if round > 0 {
                std::thread::sleep(self.backoff * (1 << (round - 1)));
            }
            for &shard in candidates {
                match self.clients[shard].try_request(request) {
                    Ok(v) => return Ok(v),
                    Err(ClientError::Rejected(e)) => return Err(e),
                    Err(ClientError::Transport(e)) => {
                        last = format!("shard {shard} ({}): {e}", self.topology.peers[shard]);
                    }
                }
            }
        }
        Err(format!(
            "no shard answered for candidates {candidates:?} after {} rounds (last: {last})",
            self.rounds
        ))
    }

    /// One read-tier query, routed to the owning shard with follower
    /// failover. Mirrors [`Client::query`].
    ///
    /// # Errors
    ///
    /// Fails when every candidate shard is unreachable, or with the
    /// server's rejection.
    pub fn query(
        &self,
        task: &str,
        backend: &str,
        n: u16,
        query: Query,
        include_graph: bool,
    ) -> Result<Value, String> {
        self.routed(
            &self.topology.read_candidates(&key_of(task, backend, n)),
            &protocol::request(
                "query",
                query_fields(task, backend, n, query, include_graph),
            ),
        )
    }

    /// A stored front, routed like [`Router::query`].
    ///
    /// # Errors
    ///
    /// See [`Router::query`].
    pub fn frontier(&self, task: &str, backend: &str, n: u16) -> Result<Value, String> {
        self.routed(
            &self.topology.read_candidates(&key_of(task, backend, n)),
            &protocol::request("frontier", protocol::key_fields(task, backend, n)),
        )
    }

    /// Submits a job to the primary owning its key. Writes never fail
    /// over — a dead primary refuses writes for its keys until restart —
    /// but transport errors are retried against the same primary with
    /// backoff.
    ///
    /// # Errors
    ///
    /// Fails when the primary stays unreachable or rejects the spec.
    pub fn submit(&self, spec: &crate::jobs::JobSpec) -> Result<(u64, usize), String> {
        let key = key_of(&spec.task, &spec.backend, spec.n);
        let primary = self.topology.primary_of(&key);
        let response = self.routed(&[primary], &protocol::submit_request(spec))?;
        protocol::submitted_id(&response).map(|id| (id, primary))
    }

    /// Scatters a batch of query payloads by owning shard, gathers the
    /// per-shard answers, and reassembles them in input order. Each
    /// sub-batch is answered against one per-shard snapshot; the response
    /// carries `epochs` (shard → snapshot epoch) instead of a single
    /// `epoch`, because cross-shard consistency is per-shard only.
    ///
    /// # Errors
    ///
    /// Fails on an over-cap batch or when any touched shard (and its
    /// followers) is unreachable; per-query failures come back inline.
    pub fn query_batch(&self, queries: Vec<Value>) -> Result<Value, String> {
        if queries.len() > crate::query::MAX_BATCH {
            return Err(format!(
                "batch of {} exceeds the {} cap",
                queries.len(),
                crate::query::MAX_BATCH
            ));
        }
        // Group query indices by owning primary; queries too malformed to
        // route are answered inline without touching any shard.
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut results: Vec<Value> = vec![Value::Null; queries.len()];
        for (i, q) in queries.iter().enumerate() {
            match protocol::req_key(q) {
                Ok((task, backend, n)) => groups
                    .entry(self.topology.primary_of(&key_of(task, backend, n)))
                    .or_default()
                    .push(i),
                Err(e) => results[i] = protocol::batch_error(e),
            }
        }
        let mut epochs: Vec<(String, Value)> = Vec::new();
        // Scatter: pipeline every sub-batch's request onto its primary's
        // persistent connection *before* reading any response — the
        // shards work on their sub-batches concurrently, and the scatter
        // costs no per-call thread spawns (it used to burn a spawn plus
        // two context switches per shard per batch).
        let requests: BTreeMap<usize, Value> = groups
            .iter()
            .map(|(&primary, indices)| {
                let sub: Vec<Value> = indices.iter().map(|&i| queries[i].clone()).collect();
                let request = protocol::request(
                    "query_batch",
                    vec![("queries".to_string(), Value::Array(sub))],
                );
                (primary, request)
            })
            .collect();
        let sent: Vec<(usize, Result<crate::client::Pending<'_>, ClientError>)> = requests
            .iter()
            .map(|(&primary, request)| (primary, self.clients[primary].send_request(request)))
            .collect();
        // Gather in shard order. Transport failures queue for the routed
        // fallback (primary + followers, with backoff), which must only
        // run after every pipelined response is drained: the fallback may
        // contact other shards, whose connections are locked until their
        // `Pending` resolves. Re-sending a read sub-batch is safe —
        // queries are idempotent.
        let mut fallback: Vec<usize> = Vec::new();
        let mut shard_results: Vec<(usize, Result<Value, String>)> = Vec::new();
        for (primary, outcome) in sent {
            match outcome.and_then(|pending| pending.recv()) {
                Ok(response) => shard_results.push((primary, Ok(response))),
                Err(ClientError::Rejected(e)) => shard_results.push((primary, Err(e))),
                Err(ClientError::Transport(_)) => fallback.push(primary),
            }
        }
        for primary in fallback {
            let candidates: Vec<usize> = {
                let mut c = vec![primary];
                c.extend(self.topology.followers_of(primary));
                c
            };
            shard_results.push((primary, self.routed(&candidates, &requests[&primary])));
        }
        for (primary, outcome) in shard_results {
            let response = outcome.map_err(|e| format!("shard {primary} sub-batch failed: {e}"))?;
            let answers = response
                .get("results")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("shard {primary} sub-batch response lacks `results`"))?;
            let indices = &groups[&primary];
            if answers.len() != indices.len() {
                return Err(format!(
                    "shard {primary} answered {} of {} sub-batch queries",
                    answers.len(),
                    indices.len()
                ));
            }
            for (&i, answer) in indices.iter().zip(answers) {
                results[i] = answer.clone();
            }
            epochs.push((
                primary.to_string(),
                response.get("epoch").cloned().unwrap_or(Value::Null),
            ));
        }
        Ok(Value::Object(vec![
            ("ok".to_string(), Value::Bool(true)),
            ("results".to_string(), Value::Array(results)),
            ("epochs".to_string(), Value::Object(epochs)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_spreads() {
        // Pinned values: the partition map is part of the wire contract —
        // clients and servers must agree across versions.
        let k1 = key_of("adder", "analytical", 8);
        assert_eq!(shard_of(&k1, 3), shard_of(&k1, 3));
        let mut counts = [0usize; 3];
        for n in 2..64u16 {
            for task in ["adder", "prefix-or", "incrementer"] {
                counts[shard_of(&key_of(task, "analytical", n), 3)] += 1;
            }
        }
        // 186 keys over 3 shards: every shard owns a healthy share.
        assert!(
            counts.iter().all(|&c| c > 30),
            "skewed partition: {counts:?}"
        );
    }

    #[test]
    fn topology_followers_and_sources_are_ring_consistent() {
        let t = Topology::new(1, vec!["a".into(), "b".into(), "c".into()], 1).unwrap();
        assert_eq!(t.followers_of(0), vec![1]);
        assert_eq!(t.followers_of(2), vec![0]);
        // Shard 1 follows exactly the primaries whose follower set
        // contains it.
        assert_eq!(t.replica_sources(), vec![0]);
        let t2 = Topology::new(0, vec!["a".into(), "b".into(), "c".into()], 2).unwrap();
        assert_eq!(t2.replica_sources(), vec![1, 2]);
    }

    #[test]
    fn topology_validation_is_loud() {
        assert!(Topology::new(0, vec![], 0).is_err());
        assert!(Topology::new(3, vec!["a".into()], 0).is_err());
        assert!(Topology::new(0, vec!["a".into(), "b".into()], 2).is_err());
        assert!(Topology::new(0, vec!["a".into(), "b".into()], 1).is_ok());
    }

    #[test]
    fn hub_resumes_by_offset_and_falls_back_to_snapshot() {
        let hub = ReplicationHub::new();
        hub.publish("k", Value::Array(vec![]));
        hub.publish("k", Value::Array(vec![]));
        // Matching epoch + covered offset: replay, no snapshot.
        let (snap, next, replay, _rx) = hub.subscribe(hub.epoch(), 1);
        assert!(!snap);
        assert_eq!(next, 2);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].seq, 1);
        // Epoch mismatch: snapshot.
        let (snap, _, replay, _rx2) = hub.subscribe(0, 1);
        assert!(snap);
        assert!(replay.is_empty());
    }

    #[test]
    fn hub_drops_slow_subscribers_instead_of_blocking() {
        let hub = ReplicationHub::new();
        let (_, _, _, rx) = hub.subscribe(hub.epoch(), 0);
        for _ in 0..(REPL_CHANNEL_CAP + 8) {
            hub.publish("k", Value::Array(vec![]));
        }
        let (_, subscribers) = hub.stats();
        assert_eq!(subscribers, 0, "full channel must drop the subscriber");
        // The receiver still drains what was delivered before the drop.
        assert_eq!(rx.try_iter().count(), REPL_CHANNEL_CAP);
    }
}
