//! Sharded serve-cluster throughput: partitioned merge scaling, fan-out
//! routed queries, and primary-kill failover latency (DESIGN.md §16).
//!
//! Three scenarios, all over real TCP against in-process shard servers:
//! (a) aggregate merge throughput at 1 vs 3 shards, replication off —
//! merge durability is fsync-bound, and the per-shard preallocated WALs
//! turn each record's fsync into pure data writeback that the shards
//! overlap, where a single node serializes every fsync behind one store
//! mutex, so the ratio is bounded by the host device's concurrent flush
//! parallelism (~1.5× to ~2.0× on a shared single-disk VM); (b) router
//! scatter/gather `query_batch` across 3 shards vs the single-node wire
//! query rate and the same batch against one single-node server — all
//! three recorded, because on one core the scatter's extra round trips
//! are pure overhead while real deployments parse and answer the
//! sub-batches in parallel; (c) read failover over the full replicated
//! path: kill one primary and time reads of its keys served by the ring
//! follower (the <1 s, zero-failure budget). Writes the
//! `BENCH_cluster.json` artifact.
//!
//! ```sh
//! cargo bench -p prefixrl-bench --bench cluster_throughput
//! ```

use prefix_graph::PrefixGraph;
use prefixrl_bench::{latency, Report};
use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_serve::cluster::shard_of;
use prefixrl_serve::store::key_of;
use prefixrl_serve::{Client, Router, ServeConfig, Server, ServerHandle, Topology};
use serde_json::{json, Value};
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const TASK: &str = "adder";
const BACKEND: &str = "analytical";
/// Concurrent writer threads of the merge rows.
const WRITERS: usize = 3;
/// Merges each writer makes.
const MERGES_PER_WRITER: u64 = 1000;
/// Interleaved runs per shard count of the merge rows; each row is the
/// median run.
const MERGE_RUNS: usize = 5;
/// Designs on each queried front.
const POINTS: usize = 512;
/// Queries per `query_batch` request.
const BATCH_SIZE: usize = 96;
/// `query_batch` requests per batch row.
const BATCH_ROUNDS: u64 = 150;
/// Requests of the unbatched wire row.
const WIRE_ROUNDS: u64 = 3_000;
/// Reads of the failover row.
const FAILOVER_READS: u64 = 50;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "prefixrl-cluster-bench-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    dir
}

/// Reserves `k` distinct ephemeral ports (the servers rebind them with
/// `SO_REUSEADDR`).
fn reserve_ports(k: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..k)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

fn shard_config(
    shard_id: usize,
    peers: &[String],
    replicas: usize,
    state_dir: Option<PathBuf>,
) -> ServeConfig {
    ServeConfig {
        addr: peers[shard_id].clone(),
        workers: 1,
        state_dir,
        cluster: Some(Topology::new(shard_id, peers.to_vec(), replicas).expect("topology")),
        ..ServeConfig::default()
    }
}

/// The first width in `4..=100` whose key is owned by `shard` in a
/// `num_shards`-way split.
fn width_owned_by(shard: usize, num_shards: usize) -> u16 {
    (4..=100)
        .find(|&n| shard_of(&key_of(TASK, BACKEND, n), num_shards) == shard)
        .expect("some width in the range hashes to every shard")
}

fn wait_ready(addr: &str) {
    Client::new(addr.to_string())
        .wait_until_ready(Duration::from_secs(10))
        .expect("shard ready");
}

/// Merges one strictly-tradeoff front of `points` mutually non-dominated
/// designs under width `n`.
fn merge_front(handle: &ServerHandle, n: u16, points: usize) {
    let designs: Vec<(PrefixGraph, ObjectivePoint)> = (0..points)
        .map(|i| {
            (
                PrefixGraph::ripple(n),
                ObjectivePoint {
                    area: (points - i) as f64,
                    delay: (i + 1) as f64,
                },
            )
        })
        .collect();
    handle
        .jobs()
        .store()
        .merge(TASK, BACKEND, n, &designs)
        .expect("merge front");
}

/// Aggregate merge throughput: `writers` concurrent writer threads, each
/// extending its own key's front one fresh non-dominated point at a time
/// (every merge publishes a snapshot and fsyncs one preallocated-WAL
/// record). With 1 shard all writers serialize on one store — one mutex,
/// one WAL file, one fsync stream; with `shards` shards each writer
/// lands on its key's owning shard and the per-shard WAL fsyncs — pure
/// data writeback thanks to preallocation — overlap. The same widths
/// (drawn from the 3-way split) are used at both shard counts so the
/// workload is identical and only the partitioning varies. Returns merges
/// per second.
fn merge_scaling(shards: usize, rep: usize) -> f64 {
    let peers = reserve_ports(shards);
    let dirs: Vec<PathBuf> = (0..shards)
        .map(|s| temp_dir(&format!("merge-{shards}shard-s{s}-r{rep}")))
        .collect();
    // Replication off: this row isolates the partitioned write path; the
    // failover row covers replication.
    let handles: Vec<ServerHandle> = (0..shards)
        .map(|s| Server::spawn(shard_config(s, &peers, 0, Some(dirs[s].clone()))).expect("spawn"))
        .collect();
    for addr in &peers {
        wait_ready(addr);
    }

    let widths: Vec<u16> = (0..WRITERS).map(|w| width_owned_by(w % 3, 3)).collect();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for &n in &widths {
            let shard = shard_of(&key_of(TASK, BACKEND, n), shards);
            let store = handles[shard].jobs().store();
            scope.spawn(move || {
                // Steady-refinement workload: every merge lands a strictly
                // better point at the key's delay target, so every merge
                // is accepted — and thus WAL-fsynced — while the front
                // holds at one point and per-merge CPU stays flat. The
                // durability fsync dominates, which is exactly the term
                // per-shard WAL files let the cluster overlap.
                for m in 0..MERGES_PER_WRITER {
                    let remaining = (MERGES_PER_WRITER - m) as f64;
                    let point = ObjectivePoint {
                        area: remaining,
                        delay: remaining,
                    };
                    store
                        .merge(TASK, BACKEND, n, &[(PrefixGraph::ripple(n), point)])
                        .expect("writer merge");
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    for handle in handles {
        handle.shutdown().expect("shutdown");
    }
    for dir in dirs {
        std::fs::remove_dir_all(&dir).ok();
    }
    (MERGES_PER_WRITER * WRITERS as u64) as f64 / elapsed.max(1e-9)
}

/// One `query_batch` payload: `BATCH_SIZE` best-at-delay queries cycling
/// across the cluster's three keys and a spread of delay targets.
fn batch(widths: &[u16], round: u64) -> Vec<Value> {
    (0..BATCH_SIZE)
        .map(|j| {
            let n = widths[j % widths.len()];
            let pick = (round as usize * BATCH_SIZE + j) * 31 % 1024;
            let delay = (POINTS + 2) as f64 * (pick as f64 / 1023.0);
            serde_json::json!({
                "task": TASK, "backend": BACKEND, "n": n,
                "mode": "best_at_delay", "delay": delay,
            })
        })
        .collect()
}

fn main() {
    let mut report = Report::new(
        "cluster",
        json!({
            "writers": WRITERS,
            "merges_per_writer": MERGES_PER_WRITER,
            "merge_runs": MERGE_RUNS,
            "points": POINTS,
            "batch_size": BATCH_SIZE,
            "batch_rounds": BATCH_ROUNDS,
            "wire_rounds": WIRE_ROUNDS,
            "failover_reads": FAILOVER_READS,
        }),
    );
    let throughput = |ops: u64, t0: Instant| json!({"ops": ops, "ops_per_sec": ops as f64 / t0.elapsed().as_secs_f64().max(1e-9)});

    // (a) Merge scaling: identical workload at 1 shard vs 3 shards. The
    // shared-host disk's flush latency wanders, so the two shard counts
    // run interleaved and each reports its median — noise reduction,
    // never selection between configurations.
    let (mut single, mut sharded) = (Vec::new(), Vec::new());
    for rep in 0..MERGE_RUNS {
        single.push(merge_scaling(1, rep));
        sharded.push(merge_scaling(3, rep));
    }
    for (shards, mut runs) in [(1usize, single), (3, sharded)] {
        runs.sort_by(f64::total_cmp);
        report.row(
            "merge_throughput",
            json!({"shards": shards}),
            json!({"ops": MERGES_PER_WRITER * WRITERS as u64, "ops_per_sec": runs[runs.len() / 2]}),
        );
    }

    // (b) Routed scatter/gather queries over a live 3-shard cluster with
    // one follower per primary.
    let peers = reserve_ports(3);
    let mut handles: Vec<ServerHandle> = (0..3)
        .map(|s| Server::spawn(shard_config(s, &peers, 1, None)).expect("spawn"))
        .collect();
    for addr in &peers {
        wait_ready(addr);
    }
    let widths: Vec<u16> = (0..3).map(|s| width_owned_by(s, 3)).collect();
    for (shard, &n) in widths.iter().enumerate() {
        merge_front(&handles[shard], n, POINTS);
    }
    let router = Router::new(Topology::new(0, peers.clone(), 1).expect("topology"))
        .expect("router")
        .with_retry(3, Duration::from_millis(10));
    let t0 = Instant::now();
    for round in 0..BATCH_ROUNDS {
        let gathered = router
            .query_batch(batch(&widths, round))
            .expect("routed batch");
        assert_eq!(
            gathered
                .get("results")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(BATCH_SIZE),
            "routed batch dropped results"
        );
    }
    report.row(
        "router_query_batch",
        json!({"shards": 3}),
        throughput(BATCH_ROUNDS * BATCH_SIZE as u64, t0),
    );

    // The single-node baseline: the same fronts and the same batches
    // against one classic (non-cluster) server over one persistent
    // connection.
    {
        let single = Server::spawn(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("single-node server");
        for &n in &widths {
            merge_front(&single, n, POINTS);
        }
        let client = Client::new(single.addr().to_string());
        client
            .wait_until_ready(Duration::from_secs(10))
            .expect("single node ready");
        let t0 = Instant::now();
        for round in 0..BATCH_ROUNDS {
            let request = json!({
                "proto": "prefixrl.serve.v1",
                "cmd": "query_batch",
                "queries": batch(&widths, round),
            });
            let gathered = client.request(&request).expect("single-node batch");
            assert_eq!(
                gathered
                    .get("results")
                    .and_then(Value::as_array)
                    .map(<[Value]>::len),
                Some(BATCH_SIZE),
                "single-node batch dropped results"
            );
        }
        report.row(
            "single_node_query_batch",
            json!({"shards": 1}),
            throughput(BATCH_ROUNDS * BATCH_SIZE as u64, t0),
        );

        // The per-query wire rate on the same node and fronts: one
        // request/response round trip per query over the persistent
        // connection — the rate a client gets *without* batching, and
        // the bar the routed batch has to clear.
        let t0 = Instant::now();
        for i in 0..WIRE_ROUNDS {
            let n = widths[i as usize % widths.len()];
            let pick = (i as usize * 31) % 1024;
            let delay = (POINTS + 2) as f64 * (pick as f64 / 1023.0);
            let response = client
                .query_best_at_delay(TASK, BACKEND, n, delay)
                .expect("wire query");
            assert_eq!(
                response.get("result").and_then(|r| r.get("found")),
                Some(&Value::Bool(true)),
                "wire query missed"
            );
        }
        report.row(
            "single_node_wire_query",
            json!({"shards": 1}),
            throughput(WIRE_ROUNDS, t0),
        );
        single.shutdown().expect("shutdown");
    }

    // (c) Failover: kill shard 1 and read its key through the router —
    // served by its ring follower (shard 2). The first read eats the
    // reconnect, so its latency is the row's max; every read must answer.
    let victim = 1usize;
    let follower = 2usize;
    let n = widths[victim];
    let want = serde_json::to_string(
        &handles[victim]
            .jobs()
            .store()
            .front_json(TASK, BACKEND, n, false),
    )
    .expect("front json");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = serde_json::to_string(
            &handles[follower]
                .jobs()
                .store()
                .front_json(TASK, BACKEND, n, false),
        )
        .expect("front json");
        if got == want {
            break;
        }
        assert!(Instant::now() < deadline, "follower never caught up");
        std::thread::sleep(Duration::from_millis(20));
    }
    handles.remove(victim).shutdown().expect("kill victim");

    let mut failures = 0u64;
    let mut samples_us = Vec::new();
    let t0 = Instant::now();
    for i in 0..FAILOVER_READS {
        let t1 = Instant::now();
        let response = router.query(
            TASK,
            BACKEND,
            n,
            "best_at_delay",
            vec![(
                "delay".to_string(),
                Value::Number(serde_json::Number::Float(1e9)),
            )],
        );
        samples_us.push(t1.elapsed().as_secs_f64() * 1e6);
        match response {
            Ok(v) if v.get("result").and_then(|r| r.get("found")) == Some(&Value::Bool(true)) => {}
            other => {
                failures += 1;
                eprintln!("failover read {i} failed: {other:?}");
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let summary = latency(&samples_us);
    report.row(
        "failover_read",
        json!({"shards": 3}),
        json!({
            "ops": FAILOVER_READS,
            "ops_per_sec": FAILOVER_READS as f64 / elapsed.max(1e-9),
            "failures": failures,
            "latency_us": summary,
        }),
    );
    assert_eq!(failures, 0, "failover reads must never fail");
    let max_us = samples_us.iter().copied().fold(0.0, f64::max);
    assert!(
        max_us < 1e6,
        "slowest failover read took {max_us}µs (must be < 1s)"
    );

    for handle in handles {
        handle.shutdown().expect("shutdown");
    }
    report.write();
}
