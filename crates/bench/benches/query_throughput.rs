//! Frontier query-tier throughput: lock-free snapshot lookups vs reader
//! threads, in-process and over the wire (DESIGN.md §15).
//!
//! Builds a large synthetic Pareto front, then measures (a) in-process
//! `snapshot()` + `best_at_delay` / `best_at_weight` lookups per second
//! for 1/2/4 reader threads, (b) reader throughput and per-query latency
//! (p50/p99/max) while a writer thread merges and fsyncs concurrently —
//! the "reads never block on a merge" evidence, and (c) wire-level `query`
//! and `query_batch` throughput over persistent pipelined connections.
//! Writes the `BENCH_query.json` artifact; the read tier's ≥1M
//! lookups/sec budget is tracked against the in-process rows.
//!
//! ```sh
//! cargo bench -p prefixrl-bench --bench query_throughput
//! ```

use prefix_graph::PrefixGraph;
use prefixrl_bench::{latency, Report};
use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_serve::{Client, FrontierStore, ServeConfig, Server};
use serde_json::json;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const TASK: &str = "adder";
const BACKEND: &str = "analytical";
const N: u16 = 8;
/// Designs on the benchmarked front.
const POINTS: usize = 512;
/// `best_at_delay` lookups per in-process reader.
const LOOKUPS: u64 = 400_000;
/// `best_at_weight` lookups (a scan of the front each).
const SCAN_LOOKUPS: u64 = 50_000;
/// Requests per wire `query` connection.
const WIRE_ROUNDS: u64 = 3_000;
/// Requests on the wire `query_batch` connection.
const BATCH_ROUNDS: u64 = 200;
/// Queries per `query_batch` request.
const BATCH_SIZE: usize = 256;

/// Merges one strictly-tradeoff front of `points` mutually non-dominated
/// designs: point `i` has `delay = i + 1`, `area = points - i`.
fn merge_front(store: &FrontierStore, points: usize) {
    let designs: Vec<(PrefixGraph, ObjectivePoint)> = (0..points)
        .map(|i| {
            (
                PrefixGraph::ripple(N),
                ObjectivePoint {
                    area: (points - i) as f64,
                    delay: (i + 1) as f64,
                },
            )
        })
        .collect();
    store.merge(TASK, BACKEND, N, &designs).expect("merge");
}

/// Delay targets cycling across the front's span (plus under/overshoot).
fn delay_targets(points: usize) -> Vec<f64> {
    (0..1024)
        .map(|i| (points + 2) as f64 * (i as f64 / 1023.0))
        .collect()
}

/// `readers` threads each run `per_reader` snapshot lookups, recorded as
/// one `scenario` row. With `track_latency` every lookup is timed and the
/// row carries the latency summary in µs.
fn run_in_process(
    report: &mut Report,
    store: &Arc<FrontierStore>,
    scenario: &str,
    readers: usize,
    per_reader: u64,
    track_latency: bool,
) {
    let targets = Arc::new(delay_targets(POINTS));
    let by_weight = scenario.contains("weight");
    let t0 = Instant::now();
    let handles: Vec<_> = (0..readers)
        .map(|r| {
            let store = Arc::clone(store);
            let targets = Arc::clone(&targets);
            std::thread::spawn(move || {
                let mut samples_us = Vec::new();
                for i in 0..per_reader {
                    let pick = ((i as usize) * 31 + r * 7) % targets.len();
                    let t1 = track_latency.then(Instant::now);
                    let snapshot = store.snapshot();
                    let view = snapshot.front(TASK, BACKEND, N).expect("merged key");
                    if by_weight {
                        black_box(view.best_at_weight(targets[pick] / (POINTS + 2) as f64));
                    } else {
                        black_box(view.best_at_delay(targets[pick]));
                    }
                    if let Some(t1) = t1 {
                        samples_us.push(t1.elapsed().as_secs_f64() * 1e6);
                    }
                }
                samples_us
            })
        })
        .collect();
    let samples_us: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("reader thread"))
        .collect();
    let elapsed = t0.elapsed().as_secs_f64();
    let queries = per_reader * readers as u64;
    let qps = queries as f64 / elapsed.max(1e-9);
    let metrics = if track_latency {
        json!({"queries": queries, "qps": qps, "latency_us": latency(&samples_us)})
    } else {
        json!({"queries": queries, "qps": qps})
    };
    report.row(scenario, json!({"readers": readers}), metrics);
}

/// One persistent pipelined connection: writes a request line, reads the
/// response line, `rounds` times. Each request carries `per_request`
/// queries (1 ⇒ bare `query`, else `query_batch`).
fn wire_reader(addr: &str, rounds: u64, per_request: usize) -> u64 {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    let targets = delay_targets(POINTS);
    let mut answered = 0u64;
    for i in 0..rounds {
        let one = |j: u64| {
            format!(
                "\"task\":\"{TASK}\",\"backend\":\"{BACKEND}\",\"n\":{N},\
                 \"mode\":\"best_at_delay\",\"delay\":{}",
                targets[((i * per_request as u64 + j) as usize * 31) % targets.len()]
            )
        };
        let request = if per_request == 1 {
            format!("{{\"cmd\":\"query\",{}}}\n", one(0))
        } else {
            let queries: Vec<String> = (0..per_request as u64)
                .map(|j| format!("{{{}}}", one(j)))
                .collect();
            format!(
                "{{\"cmd\":\"query_batch\",\"queries\":[{}]}}\n",
                queries.join(",")
            )
        };
        writer.write_all(request.as_bytes()).expect("send");
        writer.flush().expect("flush");
        let mut response = String::new();
        reader.read_line(&mut response).expect("response line");
        assert!(
            response.starts_with("{\"ok\":true"),
            "query failed: {response}"
        );
        answered += per_request as u64;
    }
    answered
}

/// `readers` connections each send `rounds` requests, recorded as one
/// `scenario` row.
fn run_wire(
    report: &mut Report,
    addr: &str,
    scenario: &str,
    readers: usize,
    rounds: u64,
    per_request: usize,
) {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let addr = addr.to_string();
            std::thread::spawn(move || wire_reader(&addr, rounds, per_request))
        })
        .collect();
    let queries: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("wire reader"))
        .sum();
    let elapsed = t0.elapsed().as_secs_f64();
    report.row(
        scenario,
        json!({"readers": readers, "per_request": per_request}),
        json!({"queries": queries, "qps": queries as f64 / elapsed.max(1e-9)}),
    );
}

fn main() {
    let mut report = Report::new(
        "query",
        json!({
            "points_in_front": POINTS,
            "lookups": LOOKUPS,
            "scan_lookups": SCAN_LOOKUPS,
            "wire_rounds": WIRE_ROUNDS,
            "batch_rounds": BATCH_ROUNDS,
        }),
    );

    // (a) In-process snapshot lookups on a quiescent store.
    let store = Arc::new(FrontierStore::in_memory());
    merge_front(&store, POINTS);
    for readers in [1usize, 2, 4] {
        run_in_process(
            &mut report,
            &store,
            "in_process_best_at_delay",
            readers,
            LOOKUPS,
            false,
        );
    }
    run_in_process(
        &mut report,
        &store,
        "in_process_best_at_weight",
        1,
        SCAN_LOOKUPS,
        false,
    );

    // (b) Readers vs a concurrently merging, fsyncing writer: reader
    // latency stays flat because `merge` publishes the snapshot before it
    // touches the WAL.
    let dir = std::env::temp_dir().join(format!("prefixrl-query-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    {
        let disk_store =
            Arc::new(FrontierStore::open_with(&dir.join("frontier.json"), 64).expect("open store"));
        merge_front(&disk_store, POINTS);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let store = Arc::clone(&disk_store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Each merge extends the front with one fresh non-dominated
                // point, forcing a snapshot publish plus a WAL fsync.
                let mut m = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let point = ObjectivePoint {
                        area: 1.0 / (m + 2) as f64,
                        delay: (POINTS as u64 + 2 + m) as f64,
                    };
                    store
                        .merge(TASK, BACKEND, N, &[(PrefixGraph::ripple(N), point)])
                        .expect("writer merge");
                    m += 1;
                }
                m
            })
        };
        run_in_process(
            &mut report,
            &disk_store,
            "in_process_under_writer",
            2,
            LOOKUPS / 2,
            true,
        );
        stop.store(true, Ordering::Relaxed);
        let merges = writer.join().expect("writer thread");
        assert!(merges > 0, "writer never merged — no contention measured");
    }
    std::fs::remove_dir_all(&dir).ok();

    // (c) Wire-level: persistent pipelined connections into a live server.
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server boots");
    let addr = server.local_addr().to_string();
    merge_front(server.jobs().store(), POINTS);
    let server_thread = std::thread::spawn(move || server.run());
    for readers in [1usize, 2, 4] {
        run_wire(&mut report, &addr, "wire_query", readers, WIRE_ROUNDS, 1);
    }
    run_wire(
        &mut report,
        &addr,
        "wire_query_batch",
        1,
        BATCH_ROUNDS,
        BATCH_SIZE,
    );
    Client::new(addr).shutdown().expect("shutdown");
    server_thread
        .join()
        .expect("server thread")
        .expect("clean exit");

    report.write();
}
