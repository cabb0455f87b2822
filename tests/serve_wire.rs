//! Pins of the `prefixrl.serve.v1` wire.
//!
//! - `client_entry_points_send_pinned_requests`: a recording listener
//!   captures the request line each `Client` and `Router` method, and the
//!   CLI's `submit`, `frontier` and `query` (every mode, with and without
//!   `--include-graph`, over `--addr` and `--peers`), put on the wire. The
//!   lines are compared as key-sorted JSON, so field order is free but
//!   every field and value is fixed.
//! - `read_verbs_answer_pinned_lines`: the response lines of `frontier`,
//!   `query` (every mode) and `query_batch` (with an inline error) over a
//!   deterministic store, byte for byte.
//! - The last two tests pin the client's retry rule on a reused
//!   connection: an idempotent request is re-sent once on a fresh
//!   connection; a `submit` that reached the server never is.

use prefix_graph::PrefixGraph;
use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_serve::{Client, ClientError, JobSpec, Router, ServeConfig, Server, Topology};
use serde_json::Value;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `value` as compact JSON with every object's keys sorted.
fn sorted(value: &Value) -> String {
    fn sort(v: &Value) -> Value {
        match v {
            Value::Object(entries) => {
                let mut entries: Vec<(String, Value)> =
                    entries.iter().map(|(k, v)| (k.clone(), sort(v))).collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                Value::Object(entries)
            }
            Value::Array(items) => Value::Array(items.iter().map(sort).collect()),
            other => other.clone(),
        }
    }
    serde_json::to_string(&sort(value)).unwrap()
}

/// An `ok` answer every client entry point accepts, whatever the verb:
/// `query_batch` gets one result per query so the router's gather holds.
fn canned_answer(request: &Value) -> String {
    let results = request
        .get("queries")
        .and_then(Value::as_array)
        .map_or(0, |queries| queries.len());
    let answer = serde_json::json!({
        "ok": true,
        "id": 7,
        "job": {"phase": "done"},
        "jobs": [],
        "known": true,
        "result": {"known": true},
        "results": Value::Array(vec![Value::Null; results]),
        "epoch": 0,
    });
    format!("{}\n", serde_json::to_string(&answer).unwrap())
}

/// Serves one recorded connection: every request line is logged before
/// its answer is written, so a caller that got its answer finds its line
/// logged.
fn record_connection(stream: TcpStream, log: &Mutex<Vec<String>>) {
    let mut writer = stream.try_clone().unwrap();
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { return };
        let request: Value = serde_json::from_str(&line).unwrap();
        log.lock().unwrap().push(sorted(&request));
        if writer
            .write_all(canned_answer(&request).as_bytes())
            .is_err()
        {
            return;
        }
    }
}

/// Runs `body` against a recording listener at the address it is given,
/// then stops the listener. Every connection `body` opens must be closed
/// when it returns (clients dropped, child processes exited).
fn with_recorder(body: impl FnOnce(&str, &dyn Fn() -> String)) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let log = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (log, stop) = (&log, &stop);
        s.spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let stream = stream.unwrap();
                s.spawn(move || record_connection(stream, log));
            }
        });
        // Stops the listener even when `body` panics, so a failed pin
        // fails the test instead of hanging it.
        struct Wake<'a>(&'a AtomicBool, &'a str);
        impl Drop for Wake<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(self.1);
            }
        }
        let _wake = Wake(stop, &addr);
        let last = || {
            log.lock()
                .unwrap()
                .last()
                .cloned()
                .expect("a recorded line")
        };
        body(&addr, &last);
    });
}

fn run_cli(args: &[&str]) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_prefixrl"))
        .args(args)
        .output()
        .expect("run the prefixrl binary");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

const PROTO: &str = r#""proto":"prefixrl.serve.v1""#;

#[test]
fn client_entry_points_send_pinned_requests() {
    let spec = JobSpec {
        task: "adder".to_string(),
        backend: "analytical".to_string(),
        n: 8,
        weights: vec![0.25, 0.75],
        steps: 60,
        seed: 3,
    };
    let job = r#""job":{"backend":"analytical","n":8,"seed":3,"steps":60,"task":"adder","weights":[0.25,0.75]}"#;
    let key = r#""backend":"analytical","#;
    let batch = || {
        vec![
            serde_json::json!({"task": "adder", "backend": "analytical", "n": 8,
                               "mode": "best_at_weight", "w": 0.5}),
            serde_json::json!({"task": "adder", "backend": "analytical", "n": 8,
                               "mode": "range", "delay_lo": 1.5, "delay_hi": 2.5}),
        ]
    };
    let queries = r#""queries":[{"backend":"analytical","mode":"best_at_weight","n":8,"task":"adder","w":0.5},{"backend":"analytical","delay_hi":2.5,"delay_lo":1.5,"mode":"range","n":8,"task":"adder"}]"#;
    with_recorder(|addr, last| {
        let client = Client::new(addr);
        let router = Router::new(Topology::new(0, vec![addr.to_string()], 0).unwrap()).unwrap();
        let pin = |name: &str, want: String| assert_eq!(last(), want, "{name}");
        client.ping().unwrap();
        pin("Client::ping", format!(r#"{{"cmd":"ping",{PROTO}}}"#));
        client.submit(&spec).unwrap();
        pin(
            "Client::submit",
            format!(r#"{{"cmd":"submit",{job},{PROTO}}}"#),
        );
        client.status(7, 5).unwrap();
        pin(
            "Client::status",
            format!(r#"{{"cmd":"status","id":7,{PROTO},"tail":5}}"#),
        );
        client.list().unwrap();
        pin("Client::list", format!(r#"{{"cmd":"list",{PROTO}}}"#));
        client.cancel(7).unwrap();
        pin(
            "Client::cancel",
            format!(r#"{{"cmd":"cancel","id":7,{PROTO}}}"#),
        );
        client.frontier("adder", "analytical", 8).unwrap();
        pin(
            "Client::frontier",
            format!(r#"{{{key}"cmd":"frontier","n":8,{PROTO},"task":"adder"}}"#),
        );
        client.query_batch(batch()).unwrap();
        pin(
            "Client::query_batch",
            format!(r#"{{"cmd":"query_batch",{PROTO},{queries}}}"#),
        );
        client.shutdown().unwrap();
        pin(
            "Client::shutdown",
            format!(r#"{{"cmd":"shutdown",{PROTO}}}"#),
        );
        router.submit(&spec).unwrap();
        pin(
            "Router::submit",
            format!(r#"{{"cmd":"submit",{job},{PROTO}}}"#),
        );
        router.frontier("adder", "analytical", 8).unwrap();
        pin(
            "Router::frontier",
            format!(r#"{{{key}"cmd":"frontier","n":8,{PROTO},"task":"adder"}}"#),
        );
        router.query_batch(batch()).unwrap();
        pin(
            "Router::query_batch",
            format!(r#"{{"cmd":"query_batch",{PROTO},{queries}}}"#),
        );
        drop(client);
        drop(router);

        // The CLI, once through `Client` (--addr) and once through
        // `Router` (--peers).
        for target in ["--addr", "--peers"] {
            let cli = |cmd: &str, rest: &[&str], want: String| {
                let args: Vec<&str> = [cmd, target, addr, "--task", "adder"]
                    .into_iter()
                    .chain(["--backend", "analytical"])
                    .chain(rest.iter().copied())
                    .collect();
                run_cli(&args);
                assert_eq!(last(), want, "prefixrl {args:?}");
            };
            cli(
                "submit",
                &[
                    "--n",
                    "8",
                    "--w-list",
                    "0.25,0.75",
                    "--steps",
                    "60",
                    "--seed",
                    "3",
                ],
                format!(r#"{{"cmd":"submit",{job},{PROTO}}}"#),
            );
            cli(
                "frontier",
                &["--n", "16"],
                format!(r#"{{{key}"cmd":"frontier","n":16,{PROTO},"task":"adder"}}"#),
            );
            for graph in [false, true] {
                let flag: &[&str] = if graph { &["--include-graph"] } else { &[] };
                let graph_field = if graph {
                    r#""include_graph":true,"#
                } else {
                    ""
                };
                let with = |mode: &[&'static str]| -> Vec<&'static str> {
                    ["--n", "16"]
                        .iter()
                        .chain(mode)
                        .chain(flag)
                        .copied()
                        .collect()
                };
                cli(
                    "query",
                    &with(&["--at-delay", "2.5"]),
                    format!(
                        r#"{{{key}"cmd":"query","delay":2.5,{graph_field}"mode":"best_at_delay","n":16,{PROTO},"task":"adder"}}"#
                    ),
                );
                cli(
                    "query",
                    &with(&["--at-weight", "0.25"]),
                    format!(
                        r#"{{{key}"cmd":"query",{graph_field}"mode":"best_at_weight","n":16,{PROTO},"task":"adder","w":0.25}}"#
                    ),
                );
                cli(
                    "query",
                    &with(&["--range", "1.5:3.25"]),
                    format!(
                        r#"{{{key}"cmd":"query","delay_hi":3.25,"delay_lo":1.5,{graph_field}"mode":"range","n":16,{PROTO},"task":"adder"}}"#
                    ),
                );
            }
        }
    });
}

/// Three points of one non-dominated front on 4-bit graphs, so graph
/// payloads stay short.
fn pinned_designs() -> Vec<(PrefixGraph, ObjectivePoint)> {
    vec![
        (
            prefix_graph::structures::kogge_stone(4),
            ObjectivePoint {
                area: 5.5,
                delay: 1.25,
            },
        ),
        (
            prefix_graph::structures::sklansky(4),
            ObjectivePoint {
                area: 4.0,
                delay: 2.0,
            },
        ),
        (
            PrefixGraph::ripple(4),
            ObjectivePoint {
                area: 3.0,
                delay: 3.5,
            },
        ),
    ]
}

/// Sends one raw request line and returns the raw response line.
fn exchange(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &str) -> String {
    writer.write_all(format!("{request}\n").as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end_matches('\n').to_string()
}

#[test]
fn read_verbs_answer_pinned_lines() {
    let handle = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let store = handle.jobs().store();
    store
        .merge("adder", "analytical", 4, &pinned_designs())
        .unwrap();
    store.merge("adder", "analytical", 6, &[]).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let head = r#"{"proto":"prefixrl.serve.v1","task":"adder","backend":"analytical""#;
    let q = |n: u32, rest: &str| format!(r#"{head},"n":{n},"cmd":"query",{rest}}}"#);
    let cases: Vec<(String, &str)> = vec![
        (
            format!(r#"{head},"n":4,"cmd":"frontier"}}"#),
            r#"{"ok":true,"proto":"prefixrl.serve.v1","key":"adder/analytical/4","known":true,"count":3,"points":[{"area":5.5,"delay":1.25,"size":5,"depth":2},{"area":4,"delay":2,"size":4,"depth":2},{"area":3,"delay":3.5,"size":3,"depth":3}],"keys":["adder/analytical/4","adder/analytical/6"]}"#,
        ),
        (
            format!(r#"{head},"n":6,"cmd":"frontier"}}"#),
            r#"{"ok":true,"proto":"prefixrl.serve.v1","key":"adder/analytical/6","known":true,"count":0,"points":[],"keys":["adder/analytical/4","adder/analytical/6"]}"#,
        ),
        (
            format!(r#"{head},"n":8,"cmd":"frontier"}}"#),
            r#"{"ok":true,"proto":"prefixrl.serve.v1","key":"adder/analytical/8","known":false,"count":0,"points":null,"keys":["adder/analytical/4","adder/analytical/6"]}"#,
        ),
        (
            q(4, r#""mode":"best_at_delay","delay":2.5"#),
            r#"{"ok":true,"proto":"prefixrl.serve.v1","result":{"key":"adder/analytical/4","mode":"best_at_delay","known":true,"found":true,"met":true,"point":{"index":1,"area":4,"delay":2,"size":4,"depth":2}},"epoch":2}"#,
        ),
        (
            q(4, r#""mode":"best_at_delay","delay":1,"include_graph":true"#),
            r#"{"ok":true,"proto":"prefixrl.serve.v1","result":{"key":"adder/analytical/4","mode":"best_at_delay","known":true,"found":true,"met":false,"point":{"index":0,"area":5.5,"delay":1.25,"size":5,"depth":2,"graph":{"n":4,"min_nodes":[[2,1],[3,2]]}}},"epoch":2}"#,
        ),
        (
            q(6, r#""mode":"best_at_delay","delay":1"#),
            r#"{"ok":true,"proto":"prefixrl.serve.v1","result":{"key":"adder/analytical/6","mode":"best_at_delay","known":true,"found":false,"met":false,"point":null},"epoch":2}"#,
        ),
        (
            q(4, r#""mode":"best_at_weight","w":0.75"#),
            r#"{"ok":true,"proto":"prefixrl.serve.v1","result":{"key":"adder/analytical/4","mode":"best_at_weight","known":true,"found":true,"point":{"index":2,"area":3,"delay":3.5,"size":3,"depth":3}},"epoch":2}"#,
        ),
        (
            q(8, r#""mode":"best_at_weight","w":0.5"#),
            r#"{"ok":true,"proto":"prefixrl.serve.v1","result":{"key":"adder/analytical/8","mode":"best_at_weight","known":false,"found":false,"point":null},"epoch":2}"#,
        ),
        (
            q(
                4,
                r#""mode":"range","delay_lo":1.25,"delay_hi":2,"include_graph":true"#,
            ),
            r#"{"ok":true,"proto":"prefixrl.serve.v1","result":{"key":"adder/analytical/4","mode":"range","known":true,"found":true,"count":2,"points":[{"index":0,"area":5.5,"delay":1.25,"size":5,"depth":2,"graph":{"n":4,"min_nodes":[[2,1],[3,2]]}},{"index":1,"area":4,"delay":2,"size":4,"depth":2,"graph":{"n":4,"min_nodes":[[3,2]]}}]},"epoch":2}"#,
        ),
        (
            q(4, r#""mode":"range","delay_lo":3,"delay_hi":2"#),
            r#"{"ok":true,"proto":"prefixrl.serve.v1","result":{"key":"adder/analytical/4","mode":"range","known":true,"found":false,"count":0,"points":[]},"epoch":2}"#,
        ),
        (
            q(4, r#""mode":"nearest""#),
            r#"{"ok":false,"proto":"prefixrl.serve.v1","error":"unknown query mode `nearest` (expected best_at_delay|best_at_weight|range)"}"#,
        ),
        (
            q(4, r#""mode":"best_at_weight","w":1.5"#),
            r#"{"ok":false,"proto":"prefixrl.serve.v1","error":"field `w`: weight must lie in [0, 1], got 1.5"}"#,
        ),
        (
            q(70000, r#""mode":"best_at_weight","w":0.5"#),
            r#"{"ok":false,"proto":"prefixrl.serve.v1","error":"field `n`: width 70000 exceeds u16"}"#,
        ),
        (
            r#"{"proto":"prefixrl.serve.v1","cmd":"query_batch","queries":[{"task":"adder","backend":"analytical","n":4,"mode":"best_at_delay","delay":2},{"task":"adder","backend":"analytical","n":4,"mode":"range","delay_lo":0,"delay_hi":9},{"task":"a/b","backend":"analytical","n":4,"mode":"best_at_weight","w":0},{"task":"adder","backend":"analytical","mode":"best_at_weight","w":0}]}"#
                .to_string(),
            r#"{"ok":true,"proto":"prefixrl.serve.v1","results":[{"key":"adder/analytical/4","mode":"best_at_delay","known":true,"found":true,"met":true,"point":{"index":1,"area":4,"delay":2,"size":4,"depth":2}},{"key":"adder/analytical/4","mode":"range","known":true,"found":true,"count":3,"points":[{"index":0,"area":5.5,"delay":1.25,"size":5,"depth":2},{"index":1,"area":4,"delay":2,"size":4,"depth":2},{"index":2,"area":3,"delay":3.5,"size":3,"depth":3}]},{"ok":false,"error":"field `task`: name `a/b` contains `/`, which is the store's key separator and would alias another (task, backend, n) key"},{"ok":false,"error":"missing field `n`"}],"epoch":2}"#,
        ),
    ];
    for (request, want) in &cases {
        assert_eq!(
            &exchange(&mut writer, &mut reader, request),
            want,
            "{request}"
        );
    }
    drop((writer, reader));
    handle.shutdown().unwrap();
}

/// Answers one request line on `stream` with a bare `ok`; returns the
/// line read.
fn answer_one(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    reader
        .get_mut()
        .write_all(b"{\"ok\":true,\"proto\":\"prefixrl.serve.v1\"}\n")
        .unwrap();
    line
}

/// The next connection on `listener` if one arrives within `timeout`, so
/// a client that fails to connect fails the test instead of hanging it.
fn accept_within(listener: &TcpListener, timeout: Duration) -> Option<TcpStream> {
    listener.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + timeout;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).unwrap();
                return Some(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return None,
        }
    }
}

#[test]
fn idempotent_request_is_resent_once_after_an_idle_close() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let client = Client::with_timeout(addr, Duration::from_secs(5));
    let (closed_tx, closed_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let listener = &listener;
        let server = s.spawn(move || {
            let first = accept_within(listener, Duration::from_secs(5))?;
            answer_one(&mut BufReader::new(first));
            // The connection is dropped here, idle, with the client
            // still caching it.
            closed_tx.send(()).unwrap();
            let second = accept_within(listener, Duration::from_secs(5))?;
            Some(answer_one(&mut BufReader::new(second)))
        });
        client.ping().unwrap();
        closed_rx.recv().unwrap();
        let retried_ping = client.ping();
        let retried = server.join().unwrap();
        assert!(
            retried.as_deref().is_some_and(|l| l.contains("\"ping\"")),
            "no ping re-sent on a fresh connection: {retried:?}"
        );
        assert!(retried_ping.is_ok(), "{retried_ping:?}");
    });
}

#[test]
fn submit_that_reached_the_server_is_never_resent() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let client = Client::with_timeout(addr, Duration::from_secs(2));
    let (returned_tx, returned_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let listener = &listener;
        let server = s.spawn(move || {
            let conn = accept_within(listener, Duration::from_secs(5))?;
            let mut conn = BufReader::new(conn);
            answer_one(&mut conn);
            // Read the submit, then drop the connection unanswered.
            let mut submit = String::new();
            conn.read_line(&mut submit).unwrap();
            drop(conn);
            returned_rx.recv().unwrap();
            let reconnected = accept_within(listener, Duration::ZERO).is_some();
            Some((submit, reconnected))
        });
        // The first exchange leaves a cached connection for the submit.
        client.ping().unwrap();
        let submit = serde_json::json!({
            "proto": "prefixrl.serve.v1",
            "cmd": "submit",
            "job": {"task": "adder", "backend": "analytical", "n": 8,
                    "weights": [0.5], "steps": 10, "seed": 0},
        });
        let outcome = client.try_request(&submit);
        returned_tx.send(()).unwrap();
        let (line, reconnected) = server.join().unwrap().expect("the client connected");
        assert!(line.contains("\"submit\""), "{line}");
        assert!(!reconnected, "a submit that reached the server was re-sent");
        assert!(
            matches!(outcome, Err(ClientError::Transport(_))),
            "{outcome:?}"
        );
    });
}
