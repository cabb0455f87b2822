//! A small synchronous client for the `prefixrl.serve.v1` protocol —
//! what the `prefixrl submit|status|cancel|frontier` subcommands, the
//! [`crate::cluster::Router`], and the in-process tests/benches speak.
//!
//! The client keeps **one persistent connection** per `Client` (wire
//! throughput used to be connection-setup bound: a fresh TCP handshake
//! per request capped `query` at ~100k req/s vs 5.8M in-process,
//! BENCH_query.json). The socket sets `TCP_NODELAY` — each request is one
//! small line, exactly the write pattern Nagle's algorithm would sit on —
//! and reconnects transparently when a cached connection turns out stale
//! (e.g. the server restarted between requests). A request that may
//! already have reached the server is never retried unless it is
//! idempotent: every verb except `submit` is.

use crate::jobs::JobSpec;
use crate::lock;
use crate::protocol;
use crate::query::{query_fields, Query};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default per-request read/write timeout (override with
/// [`Client::with_timeout`]).
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a request failed — split so the [`crate::cluster::Router`] can
/// fail a *transport* error over to a follower while surfacing a
/// *rejection* (the server answered, and said no) immediately.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// The server could not be reached, timed out, or answered garbage;
    /// another replica may succeed.
    Transport(String),
    /// The server answered `"ok": false`; retrying elsewhere would return
    /// the same rejection.
    Rejected(String),
}

impl ClientError {
    /// Collapses the classification back into the flat error message the
    /// non-routing callers report.
    pub fn into_message(self) -> String {
        match self {
            ClientError::Transport(e) | ClientError::Rejected(e) => e,
        }
    }
}

/// One persistent connection's two halves.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One server address plus a lazily opened persistent connection.
/// Cloning yields an independent client (same address and timeout, its
/// own connection); concurrent requests on one `Client` serialize on the
/// connection.
pub struct Client {
    addr: String,
    timeout: Duration,
    conn: Mutex<Option<Conn>>,
}

impl Clone for Client {
    fn clone(&self) -> Client {
        Client {
            addr: self.addr.clone(),
            timeout: self.timeout,
            conn: Mutex::new(None),
        }
    }
}

impl Client {
    /// A client for `addr` (e.g. `127.0.0.1:7878`) with the default
    /// timeout.
    pub fn new(addr: impl Into<String>) -> Client {
        Client::with_timeout(addr, DEFAULT_CLIENT_TIMEOUT)
    }

    /// A client whose per-request read/write timeout is `timeout`
    /// (clamped to ≥ 1 ms — a zero timeout would disable reads entirely).
    pub fn with_timeout(addr: impl Into<String>, timeout: Duration) -> Client {
        Client {
            addr: addr.into(),
            timeout: timeout.max(Duration::from_millis(1)),
            conn: Mutex::new(None),
        }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        // One-line requests must not sit in Nagle's buffer waiting for an
        // ACK that only arrives after the server saw the request.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    fn classify(addr: &str, response: Value) -> Result<Value, ClientError> {
        match response.get("ok") {
            Some(Value::Bool(true)) => Ok(response),
            Some(Value::Bool(false)) => Err(ClientError::Rejected(match response.get("error") {
                Some(Value::String(e)) => e.clone(),
                _ => "unspecified server error".to_string(),
            })),
            _ => Err(ClientError::Transport(format!(
                "response from {addr} lacks `ok`"
            ))),
        }
    }

    /// Sends one request line and reads one response line over the
    /// persistent connection, classifying the failure mode.
    ///
    /// Only a *reused* connection earns a retry (the server may have
    /// restarted or closed it since the last request). A send that fails
    /// on one is re-sent on a fresh connection whatever the verb, since
    /// nothing reached the server. A receive that fails on one is re-sent
    /// once on a fresh connection unless the request is a `submit`, which
    /// is not idempotent and must stay at-most-once.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on connection/I-O/timeout errors or a
    /// malformed response; [`ClientError::Rejected`] on `"ok": false`.
    pub fn try_request(&self, request: &Value) -> Result<Value, ClientError> {
        let idempotent = !matches!(request.get("cmd"), Some(Value::String(cmd)) if cmd == "submit");
        let mut pending = self.send_request(request)?;
        let mut response = pending.response();
        if response.is_err() && pending.reused && idempotent {
            drop(pending);
            pending = self.send_request(request)?;
            response = pending.response();
        }
        Self::classify(&self.addr, response.map_err(ClientError::Transport)?)
    }

    /// Sends one request line on the persistent connection **without
    /// reading the response** — the send half of every exchange, and the
    /// scatter half of the router's cross-shard pipelining
    /// ([`crate::cluster::Router::query_batch`] puts every shard's
    /// sub-batch on the wire before gathering any answer, so the shards
    /// work concurrently with no per-call thread spawns). A send failure
    /// on a *reused* connection is retried once on a fresh one: nothing
    /// has been answered yet, so the request is still at-most-once on the
    /// wire.
    ///
    /// The returned [`Pending`] holds the connection lock until its
    /// response is read — interleaving another request on the same
    /// client would desequence the wire.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] when the request cannot be put on the
    /// wire.
    pub(crate) fn send_request(&self, request: &Value) -> Result<Pending<'_>, ClientError> {
        let mut text = serde_json::to_string(request).expect("infallible");
        text.push('\n');
        let mut guard = lock(&self.conn);
        let mut reused = guard.is_some();
        if !reused {
            *guard = Some(self.connect().map_err(ClientError::Transport)?);
        }
        let send = |conn: &mut Conn| {
            conn.writer
                .write_all(text.as_bytes())
                .and_then(|()| conn.writer.flush())
        };
        if let Err(e) = send(guard.as_mut().expect("just set")) {
            *guard = None;
            if !reused {
                return Err(ClientError::Transport(format!(
                    "send to {}: {e}",
                    self.addr
                )));
            }
            let mut conn = self.connect().map_err(ClientError::Transport)?;
            send(&mut conn)
                .map_err(|e| ClientError::Transport(format!("send to {}: {e}", self.addr)))?;
            *guard = Some(conn);
            reused = false;
        }
        Ok(Pending {
            guard,
            addr: &self.addr,
            answered: false,
            reused,
        })
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// Fails on connection/I/O errors, a malformed response, or an
    /// `"ok": false` response (the server's error message is returned).
    pub fn request(&self, request: &Value) -> Result<Value, String> {
        self.try_request(request).map_err(ClientError::into_message)
    }

    fn cmd(&self, cmd: &str, fields: Vec<(String, Value)>) -> Result<Value, String> {
        self.request(&protocol::request(cmd, fields))
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Fails while the server is unreachable.
    pub fn ping(&self) -> Result<Value, String> {
        self.cmd("ping", Vec::new())
    }

    /// Polls [`Client::ping`] until the server answers or `timeout`
    /// elapses — for scripts racing a freshly booted server.
    ///
    /// # Errors
    ///
    /// Fails with the last connection error on timeout.
    pub fn wait_until_ready(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.ping() {
                Ok(_) => return Ok(()),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("server not ready within {timeout:?}: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    /// Submits a job, returning its id.
    ///
    /// # Errors
    ///
    /// Propagates server-side validation failures (unknown task/backend,
    /// duplicate weights, full queue).
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, String> {
        protocol::submitted_id(&self.request(&protocol::submit_request(spec))?)
    }

    /// One job's status snapshot with up to `tail` recent events.
    ///
    /// # Errors
    ///
    /// Fails on an unknown id.
    pub fn status(&self, id: u64, tail: usize) -> Result<Value, String> {
        let response = self.cmd(
            "status",
            vec![
                ("id".to_string(), Value::Number(serde::Number::UInt(id))),
                (
                    "tail".to_string(),
                    Value::Number(serde::Number::UInt(tail as u64)),
                ),
            ],
        )?;
        response
            .get("job")
            .cloned()
            .ok_or_else(|| "status response lacks `job`".to_string())
    }

    /// Polls `status` until the job's phase is one of `phases` or
    /// `timeout` elapses; returns the final snapshot.
    ///
    /// # Errors
    ///
    /// Fails on an unknown id or on timeout (reporting the last phase).
    pub fn wait_for_phase(
        &self,
        id: u64,
        phases: &[&str],
        timeout: Duration,
    ) -> Result<Value, String> {
        let deadline = Instant::now() + timeout;
        // Poll at 1 ms, doubling to 25 ms: a short job is seen finished
        // promptly, a long one costs few polls.
        let mut pause = Duration::from_millis(1);
        loop {
            let snapshot = self.status(id, 0)?;
            let phase = match snapshot.get("phase") {
                Some(Value::String(p)) => p.clone(),
                _ => return Err("status snapshot lacks `phase`".to_string()),
            };
            if phases.contains(&phase.as_str()) {
                return Ok(snapshot);
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "job {id} still `{phase}` after {timeout:?} (wanted one of {phases:?})"
                ));
            }
            std::thread::sleep(pause);
            pause = (pause * 2).min(Duration::from_millis(25));
        }
    }

    /// Every job's brief snapshot.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn list(&self) -> Result<Value, String> {
        let response = self.cmd("list", Vec::new())?;
        response
            .get("jobs")
            .cloned()
            .ok_or_else(|| "list response lacks `jobs`".to_string())
    }

    /// Cancels a job (queued: removed; running: stops within one tick).
    ///
    /// # Errors
    ///
    /// Fails on an unknown or already-finished job.
    pub fn cancel(&self, id: u64) -> Result<Value, String> {
        self.cmd(
            "cancel",
            vec![("id".to_string(), Value::Number(serde::Number::UInt(id)))],
        )
    }

    /// The stored merged front for `(task, backend, n)`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn frontier(&self, task: &str, backend: &str, n: u16) -> Result<Value, String> {
        self.cmd("frontier", protocol::key_fields(task, backend, n))
    }

    /// One read-tier lookup (see [`crate::query`]), with the stored
    /// graphs attached when `include_graph` is set.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a query the server rejects (weight outside
    /// `[0, 1]`, non-finite parameter, aliasing names).
    pub fn query(
        &self,
        task: &str,
        backend: &str,
        n: u16,
        query: Query,
        include_graph: bool,
    ) -> Result<Value, String> {
        self.cmd(
            "query",
            query_fields(task, backend, n, query, include_graph),
        )
    }

    /// A batch of query payloads answered against one snapshot (every
    /// result reflects the same `epoch`). Each payload is the object
    /// [`Client::query`] would send, minus `proto`/`cmd`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an over-cap batch; per-query failures come
    /// back inline in `results`.
    pub fn query_batch(&self, queries: Vec<Value>) -> Result<Value, String> {
        self.cmd(
            "query_batch",
            vec![("queries".to_string(), Value::Array(queries))],
        )
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Fails when the request cannot be delivered.
    pub fn shutdown(&self) -> Result<(), String> {
        self.cmd("shutdown", Vec::new()).map(|_| ())
    }
}

/// A request that has been put on the wire but not yet answered (see
/// [`Client::send_request`]). Holds the client's connection lock so no
/// other request can interleave; dropping it before its response is read
/// leaves the unread response in the socket, so the connection is
/// discarded instead of returned to the cache.
pub(crate) struct Pending<'a> {
    guard: std::sync::MutexGuard<'a, Option<Conn>>,
    addr: &'a str,
    answered: bool,
    /// Whether the request went out on a connection cached from an
    /// earlier exchange (the one case [`Client::try_request`] re-sends).
    reused: bool,
}

impl Pending<'_> {
    /// Reads the one outstanding response line. A failure discards the
    /// cached connection (the next request reconnects) and is **not**
    /// resent here — the request may already have reached the server,
    /// so the caller decides whether a retry is safe.
    fn response(&mut self) -> Result<Value, String> {
        let conn = self.guard.as_mut().expect("pending holds a connection");
        let mut line = String::new();
        let outcome = match conn.reader.read_line(&mut line) {
            Err(e) => Err(format!("receive from {}: {e}", self.addr)),
            Ok(_) if line.trim().is_empty() => {
                Err(format!("server {} closed without responding", self.addr))
            }
            Ok(_) => serde_json::from_str(line.trim())
                .map_err(|e| format!("malformed response from {}: {e}", self.addr)),
        };
        match outcome {
            Ok(_) => self.answered = true,
            Err(_) => *self.guard = None,
        }
        outcome
    }

    /// Reads and classifies the one outstanding response (see
    /// [`Pending::response`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on I/O/timeout errors or a malformed
    /// response; [`ClientError::Rejected`] on `"ok": false`.
    pub(crate) fn recv(mut self) -> Result<Value, ClientError> {
        let response = self.response().map_err(ClientError::Transport)?;
        Client::classify(self.addr, response)
    }
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        // An unconsumed response would desequence the next request on
        // this connection; never return an unanswered one to the cache.
        if !self.answered {
            *self.guard = None;
        }
    }
}
