//! The TCP front of the serve daemon: an accept loop handing each
//! connection to a line-oriented handler thread that dispatches
//! `prefixrl.serve.v1` requests to the [`JobManager`] and
//! [`crate::FrontierStore`] — plus, in cluster mode, the streaming
//! `repl_subscribe` half of WAL-shipping replication and the follower
//! threads subscribing to this node's sources.

use crate::cluster::{self, ReplHandshake};
use crate::jobs::{JobManager, JobSpec, ServeConfig};
use crate::protocol::{
    batch_error, check_proto, error_response, ok_response, opt_u64, req_key, req_str, req_u64,
    MAX_REQUEST_LINE, PROTOCOL,
};
use serde::Deserialize;
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-connection write timeout: one stuck reader (a client that stops
/// draining its socket) fails its own connection instead of pinning a
/// handler thread forever.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// A bound, not-yet-serving server instance.
pub struct Server {
    listener: TcpListener,
    jobs: Arc<JobManager>,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
    replicators: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listen socket, loads/creates the persistent state,
    /// spawns the job workers and — in cluster mode — the replication
    /// follower threads. Serving starts with [`Server::run`].
    ///
    /// The listener is bound with `SO_REUSEADDR` (on Linux): a restarted
    /// shard must be able to rebind its well-known cluster port
    /// immediately, not after the previous instance's connections leave
    /// `TIME_WAIT`.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound, the state files are
    /// unreadable/corrupt, or the cluster topology is invalid.
    pub fn bind(cfg: ServeConfig) -> Result<Server, String> {
        let listener = bind_listener(&cfg.addr)?;
        let jobs = JobManager::new(cfg)?;
        let stop = Arc::new(AtomicBool::new(false));
        let replicators = cluster::spawn_replicators(&jobs, &stop);
        let workers = jobs.spawn_workers();
        Ok(Server {
            listener,
            jobs,
            stop,
            workers,
            replicators,
        })
    }

    /// The actually bound address (resolves `:0` ephemeral ports).
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address (never after `bind`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// The job manager behind this server (for in-process embedding).
    pub fn jobs(&self) -> &Arc<JobManager> {
        &self.jobs
    }

    /// Serves until a `shutdown` request arrives, then gracefully stops
    /// the workers (running jobs are cancelled and re-queued in the
    /// persisted state for the next instance) and the replication
    /// followers.
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` reserves room for fatal listener
    /// errors.
    pub fn run(self) -> Result<(), String> {
        let addr = self.local_addr();
        for conn in self.listener.incoming() {
            match conn {
                Ok(stream) => {
                    let jobs = Arc::clone(&self.jobs);
                    let stop = Arc::clone(&self.stop);
                    std::thread::spawn(move || handle_connection(stream, &jobs, &stop, addr));
                }
                // Per-connection accept failures are transient — e.g.
                // ECONNABORTED when a queued client (including the
                // shutdown wake connection) resets before accept — and
                // must never kill a resident server.
                Err(e) => eprintln!("warning: accept on {addr}: {e}"),
            }
            // Check the stop flag *after* handing the accepted connection
            // off: if an innocent client raced the shutdown's throwaway
            // wake connection into `accept`, it still gets served instead
            // of hanging until its read timeout.
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        self.jobs.shutdown();
        for worker in self.workers {
            let _ = worker.join();
        }
        // Follower threads poll the stop flag on a 500 ms cadence.
        for replicator in self.replicators {
            let _ = replicator.join();
        }
        Ok(())
    }

    /// Binds and serves on a background thread — the in-process embedding
    /// used by tests, benches, and the quickstart example.
    ///
    /// # Errors
    ///
    /// See [`Server::bind`].
    pub fn spawn(cfg: ServeConfig) -> Result<ServerHandle, String> {
        let server = Server::bind(cfg)?;
        let addr = server.local_addr();
        let jobs = Arc::clone(&server.jobs);
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle { addr, jobs, thread })
    }
}

/// A handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    jobs: Arc<JobManager>,
    thread: std::thread::JoinHandle<Result<(), String>>,
}

impl ServerHandle {
    /// The served address, e.g. for [`crate::Client::new`].
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The job manager (and through it the frontier store) behind the
    /// running server — for tests and benches that drive merges directly.
    pub fn jobs(&self) -> &Arc<JobManager> {
        &self.jobs
    }

    /// Requests a graceful shutdown and waits for the server to stop.
    ///
    /// # Errors
    ///
    /// Fails when the shutdown request cannot be delivered or the server
    /// thread ended with an error.
    pub fn shutdown(self) -> Result<(), String> {
        crate::Client::new(self.addr.to_string()).shutdown()?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

/// Binds the listen socket, preferring a Linux `SO_REUSEADDR` bind for
/// IPv4 addresses (std's `TcpListener::bind` cannot set it, and a
/// restarted shard would otherwise hit `EADDRINUSE` for 60 s of
/// `TIME_WAIT` after a `kill -9`).
fn bind_listener(addr: &str) -> Result<TcpListener, String> {
    use std::net::ToSocketAddrs;
    #[cfg(target_os = "linux")]
    {
        if let Ok(resolved) = addr.to_socket_addrs() {
            for candidate in resolved {
                if let SocketAddr::V4(v4) = candidate {
                    if let Some(listener) = reuseaddr::bind_v4(v4) {
                        return Ok(listener);
                    }
                }
            }
        }
    }
    TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))
}

/// Minimal FFI for an `SO_REUSEADDR` IPv4 listener. std links glibc
/// already; declaring the four libc calls avoids a dependency the
/// offline container cannot fetch. Any failure falls back to the std
/// bind path (returning `None`).
#[cfg(target_os = "linux")]
mod reuseaddr {
    use std::net::{SocketAddrV4, TcpListener};
    use std::os::fd::FromRawFd;

    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    pub fn bind_v4(addr: SocketAddrV4) -> Option<TcpListener> {
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM, 0);
            if fd < 0 {
                return None;
            }
            let one: i32 = 1;
            let sa = SockaddrIn {
                sin_family: AF_INET as u16,
                sin_port: addr.port().to_be(),
                // `octets()` is already network byte order in memory.
                sin_addr: u32::from_ne_bytes(addr.ip().octets()),
                sin_zero: [0; 8],
            };
            let size = std::mem::size_of::<SockaddrIn>() as u32;
            if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) != 0
                || bind(fd, &sa, size) != 0
                || listen(fd, 128) != 0
            {
                close(fd);
                return None;
            }
            Some(TcpListener::from_raw_fd(fd))
        }
    }
}

/// What one dispatched request asks the connection handler to do.
enum Outcome {
    /// Write the response, keep serving this connection.
    Reply(Value),
    /// Write the response, then stop the whole server.
    Shutdown(Value),
    /// Write the response, then switch this connection into a one-way
    /// replication stream (it never reads another request).
    Stream(Value, ReplHandshake),
}

fn write_line(writer: &mut TcpStream, value: &Value) -> std::io::Result<()> {
    let mut text = serde_json::to_string(value).expect("infallible");
    text.push('\n');
    writer.write_all(text.as_bytes())?;
    writer.flush()
}

fn handle_connection(
    stream: TcpStream,
    jobs: &Arc<JobManager>,
    stop: &Arc<AtomicBool>,
    addr: SocketAddr,
) {
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |p| p.to_string());
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream).take(MAX_REQUEST_LINE);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        reader.set_limit(MAX_REQUEST_LINE);
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return, // clean EOF between requests
            Ok(_) => {}
            Err(e) => {
                if !buf.is_empty() {
                    eprintln!("warning: connection {peer}: read failed mid-request: {e}");
                }
                return;
            }
        }
        if !buf.ends_with(b"\n") {
            if buf.len() as u64 >= MAX_REQUEST_LINE {
                // The line limit hit before a newline: framing is lost,
                // so answer loudly and drop the connection (the accept
                // loop is untouched).
                eprintln!(
                    "warning: connection {peer}: request line exceeds {MAX_REQUEST_LINE} bytes; \
                     closing"
                );
                let _ = write_line(
                    &mut writer,
                    &error_response(&format!(
                        "request line exceeds the {MAX_REQUEST_LINE}-byte cap"
                    )),
                );
            } else {
                // EOF mid-line: the peer died with a truncated request.
                eprintln!(
                    "warning: connection {peer}: truncated request ({} bytes)",
                    buf.len()
                );
            }
            return;
        }
        let text = String::from_utf8_lossy(&buf);
        let line = text.trim();
        if line.is_empty() {
            continue;
        }
        let outcome = match serde_json::from_str::<Value>(line) {
            Ok(request) => dispatch(&request, jobs),
            Err(e) => {
                eprintln!("warning: connection {peer}: malformed request: {e}");
                Outcome::Reply(error_response(&format!("malformed request: {e}")))
            }
        };
        match outcome {
            Outcome::Reply(response) => {
                if write_line(&mut writer, &response).is_err() {
                    return;
                }
            }
            Outcome::Shutdown(response) => {
                let _ = write_line(&mut writer, &response);
                stop.store(true, Ordering::SeqCst);
                // The accept loop is blocked in `accept`; a throwaway local
                // connection wakes it so it can observe the stop flag.
                let _ = TcpStream::connect(addr);
                return;
            }
            Outcome::Stream(response, handshake) => {
                stream_replication(&mut writer, response, handshake, stop, &peer);
                return;
            }
        }
    }
}

/// Drives one follower subscription: header, optional snapshot, backlog
/// replay, then live records until the follower hangs up, falls too far
/// behind (the hub drops its channel), or the server stops.
fn stream_replication(
    writer: &mut TcpStream,
    header: Value,
    handshake: ReplHandshake,
    stop: &AtomicBool,
    peer: &str,
) {
    if write_line(writer, &header).is_err() {
        return;
    }
    if let Some(fronts) = &handshake.snapshot {
        let line = serde_json::json!({
            "type": "repl_snapshot",
            "epoch": handshake.epoch,
            "seq": handshake.resume_seq,
            "fronts": fronts.clone(),
        });
        if write_line(writer, &line).is_err() {
            return;
        }
    }
    for record in &handshake.replay {
        if write_line(writer, &record.to_line(handshake.epoch)).is_err() {
            return;
        }
    }
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match handshake.rx.recv_timeout(Duration::from_millis(500)) {
            Ok(record) => {
                if write_line(writer, &record.to_line(handshake.epoch)).is_err() {
                    eprintln!("warning: replication subscriber {peer} hung up");
                    return;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            // The hub dropped this subscriber (its channel filled): the
            // follower reconnects and resumes from its cursor.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Dispatches one request into the action the handler should take.
fn dispatch(request: &Value, jobs: &Arc<JobManager>) -> Outcome {
    let result = (|| -> Result<Outcome, String> {
        check_proto(request)?;
        let cmd = req_str(request, "cmd")?;
        Ok(match cmd {
            "ping" => Outcome::Reply(ok_response(vec![
                ("server".to_string(), Value::String("prefixrl-serve".into())),
                (
                    "jobs".to_string(),
                    Value::Number(serde::Number::UInt(
                        jobs.list().as_array().map_or(0, <[Value]>::len) as u64,
                    )),
                ),
                ("cache".to_string(), jobs.cache_json()),
                ("frontier".to_string(), jobs.store().stats_json()),
            ])),
            "submit" => {
                let spec_value = request
                    .get("job")
                    .ok_or_else(|| "missing field `job`".to_string())?;
                let spec =
                    JobSpec::from_value(spec_value).map_err(|e| format!("field `job`: {e}"))?;
                let id = jobs.submit(spec)?;
                Outcome::Reply(ok_response(vec![(
                    "id".to_string(),
                    Value::Number(serde::Number::UInt(id)),
                )]))
            }
            "status" => {
                let id = req_u64(request, "id")?;
                let tail = opt_u64(request, "tail", 16)? as usize;
                Outcome::Reply(ok_response(vec![(
                    "job".to_string(),
                    jobs.status(id, tail)?,
                )]))
            }
            "list" => Outcome::Reply(ok_response(vec![("jobs".to_string(), jobs.list())])),
            "cancel" => {
                let id = req_u64(request, "id")?;
                let result = jobs.cancel(id)?;
                Outcome::Reply(ok_response(vec![(
                    "result".to_string(),
                    Value::String(result.to_string()),
                )]))
            }
            "frontier" => {
                let (task, backend, n) = req_key(request)?;
                let points = jobs.store().front_json(task, backend, n, false);
                // `null` points = key never merged; `[]` = merged but
                // empty. Clients can tell the two apart via `known`.
                let known = !matches!(points, Value::Null);
                let count = points.as_array().map_or(0, <[Value]>::len) as u64;
                Outcome::Reply(ok_response(vec![
                    (
                        "key".to_string(),
                        Value::String(crate::store::key_of(task, backend, n)),
                    ),
                    ("known".to_string(), Value::Bool(known)),
                    (
                        "count".to_string(),
                        Value::Number(serde::Number::UInt(count)),
                    ),
                    ("points".to_string(), points),
                    (
                        "keys".to_string(),
                        Value::Array(jobs.store().keys().into_iter().map(Value::String).collect()),
                    ),
                ]))
            }
            // The read tier: `query`/`query_batch` resolve against the
            // store's immutable snapshot only — they never take the store
            // mutex, so a concurrent merge's WAL fsync cannot stall them.
            "query" => {
                let snapshot = jobs.store().snapshot();
                let answer = crate::query::answer_query(&snapshot, request)?;
                Outcome::Reply(ok_response(vec![
                    ("result".to_string(), answer),
                    (
                        "epoch".to_string(),
                        Value::Number(serde::Number::UInt(snapshot.epoch())),
                    ),
                ]))
            }
            "query_batch" => {
                let queries = match request.get("queries") {
                    Some(Value::Array(qs)) => qs,
                    Some(other) => {
                        return Err(format!("field `queries`: expected an array, got {other:?}"))
                    }
                    None => return Err("missing field `queries`".to_string()),
                };
                if queries.len() > crate::query::MAX_BATCH {
                    return Err(format!(
                        "field `queries`: batch of {} exceeds the {} cap",
                        queries.len(),
                        crate::query::MAX_BATCH
                    ));
                }
                // One snapshot for the whole batch: every answer reflects
                // the same epoch, even if merges land mid-batch.
                let snapshot = jobs.store().snapshot();
                let results: Vec<Value> = queries
                    .iter()
                    .map(|q| crate::query::answer_query(&snapshot, q).unwrap_or_else(batch_error))
                    .collect();
                Outcome::Reply(ok_response(vec![
                    ("results".to_string(), Value::Array(results)),
                    (
                        "epoch".to_string(),
                        Value::Number(serde::Number::UInt(snapshot.epoch())),
                    ),
                ]))
            }
            // Cluster verbs (DESIGN.md §16). `repl_subscribe` switches the
            // connection into a one-way record stream; `cluster` reports
            // topology, hub and follower state (and resolves key owners).
            "repl_subscribe" => {
                let from_epoch = opt_u64(request, "epoch", 0)?;
                let from_seq = opt_u64(request, "from_seq", 0)?;
                let handshake = jobs.store().subscribe_replication(from_epoch, from_seq)?;
                let header = ok_response(vec![
                    ("mode".to_string(), Value::String("repl_stream".into())),
                    (
                        "epoch".to_string(),
                        Value::Number(serde::Number::UInt(handshake.epoch)),
                    ),
                    (
                        "seq".to_string(),
                        Value::Number(serde::Number::UInt(handshake.resume_seq)),
                    ),
                    (
                        "resume".to_string(),
                        Value::String(
                            if handshake.snapshot.is_some() {
                                "snapshot"
                            } else {
                                "stream"
                            }
                            .into(),
                        ),
                    ),
                ]);
                Outcome::Stream(header, handshake)
            }
            "cluster" => {
                let Some(topology) = jobs.config().cluster.clone() else {
                    return Err(
                        "this server is not part of a cluster (start it with --peers)".to_string(),
                    );
                };
                let mut fields = vec![("topology".to_string(), topology.to_json())];
                if let Some(epoch) = jobs.store().replication_epoch() {
                    fields.push((
                        "epoch".to_string(),
                        Value::Number(serde::Number::UInt(epoch)),
                    ));
                }
                if let Some((next_seq, subscribers)) = jobs.store().replication_stats() {
                    fields.push((
                        "next_seq".to_string(),
                        Value::Number(serde::Number::UInt(next_seq)),
                    ));
                    fields.push((
                        "subscribers".to_string(),
                        Value::Number(serde::Number::UInt(subscribers as u64)),
                    ));
                }
                fields.push(("sources".to_string(), jobs.repl_status_json()));
                // Optional owner lookup: `key` = "task/backend/n".
                if let Some(Value::String(key)) = request.get("key") {
                    crate::store::parse_key(key)?;
                    let owner = topology.primary_of(key);
                    fields.push((
                        "owner".to_string(),
                        Value::Number(serde::Number::UInt(owner as u64)),
                    ));
                    fields.push((
                        "owner_addr".to_string(),
                        Value::String(topology.peers[owner].clone()),
                    ));
                }
                Outcome::Reply(ok_response(fields))
            }
            "shutdown" => Outcome::Shutdown(ok_response(vec![(
                "result".to_string(),
                Value::String("shutting down".into()),
            )])),
            other => {
                return Err(format!(
                    "unknown cmd `{other}` (this server speaks `{PROTOCOL}`: \
                     ping|submit|status|list|cancel|frontier|query|query_batch|\
                     repl_subscribe|cluster|shutdown)"
                ))
            }
        })
    })();
    match result {
        Ok(outcome) => outcome,
        Err(e) => Outcome::Reply(error_response(&e)),
    }
}
