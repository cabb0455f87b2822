//! End-to-end service tests over real TCP: job lifecycle across three
//! concurrent `(task, backend)` keys on one shared eval stack, mid-run
//! cancellation within one event tick, protocol validation, and
//! queue/frontier survival across a server restart.

use prefixrl_serve::{Client, JobSpec, Query, ServeConfig, Server};
use serde_json::Value;
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "prefixrl-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(workers: usize, state_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        state_dir,
        ..ServeConfig::default()
    }
}

fn spec(task: &str, steps: u64) -> JobSpec {
    JobSpec {
        task: task.to_string(),
        backend: "analytical".to_string(),
        n: 8,
        weights: vec![0.3, 0.7],
        steps,
        seed: 0,
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Number(n) => n.as_f64(),
        other => panic!("expected a number, got {other:?}"),
    }
}

fn phase(snapshot: &Value) -> &str {
    match snapshot.get("phase") {
        Some(Value::String(p)) => p,
        other => panic!("snapshot without phase: {other:?}"),
    }
}

fn history(snapshot: &Value) -> Vec<String> {
    snapshot
        .get("history")
        .and_then(Value::as_array)
        .expect("history array")
        .iter()
        .map(|v| match v {
            Value::String(s) => s.clone(),
            other => panic!("non-string history entry {other:?}"),
        })
        .collect()
}

#[test]
fn three_concurrent_jobs_share_one_stack_and_reach_done() {
    let handle = Server::spawn(config(3, None)).unwrap();
    let client = Client::new(handle.addr().to_string());
    client.wait_until_ready(Duration::from_secs(10)).unwrap();

    // Three different (task, backend) keys, enough steps that they
    // overlap while running.
    let ids: Vec<u64> = ["adder", "prefix-or", "incrementer"]
        .iter()
        .map(|t| client.submit(&spec(t, 400)).unwrap())
        .collect();

    // With three workers, all three must be observably running at once.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let running = ids
            .iter()
            .filter(|&&id| phase(&client.status(id, 0).unwrap()) == "running")
            .count();
        let done = ids
            .iter()
            .filter(|&&id| phase(&client.status(id, 0).unwrap()) == "done")
            .count();
        if running == 3 {
            break;
        }
        assert!(
            done < 3 && std::time::Instant::now() < deadline,
            "never saw 3 jobs running concurrently (running={running}, done={done})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    for id in &ids {
        let snapshot = client
            .wait_for_phase(*id, &["done"], Duration::from_secs(120))
            .unwrap();
        assert_eq!(history(&snapshot), vec!["queued", "running", "done"]);
        assert!(
            num(snapshot.get("events_seen").unwrap()) > 0.0,
            "job streamed no events"
        );
        assert!(
            snapshot.get("submit_to_first_event_sec").unwrap() != &Value::Null,
            "first-event latency missing"
        );
    }

    // Each key has its own stored front; keys never mix.
    for task in ["adder", "prefix-or", "incrementer"] {
        let front = client.frontier(task, "analytical", 8).unwrap();
        assert!(
            num(front.get("count").unwrap()) > 0.0,
            "{task}: empty stored front"
        );
    }
    // A key nothing was merged under is *unknown* — `points` is null and
    // `known` false, distinguishable from a merged-but-empty front.
    let empty = client.frontier("adder", "synthesis", 8).unwrap();
    assert_eq!(num(empty.get("count").unwrap()), 0.0);
    assert_eq!(empty.get("known"), Some(&Value::Bool(false)));
    assert_eq!(empty.get("points"), Some(&Value::Null));

    // All three jobs evaluated through the one shared store.
    let ping = client.ping().unwrap();
    let cache = ping.get("cache").unwrap();
    assert!(num(cache.get("misses").unwrap()) > 0.0);
    assert!(num(cache.get("hits").unwrap()) > 0.0);

    handle.shutdown().unwrap();
}

#[test]
fn cancel_stops_a_running_job_quickly() {
    let handle = Server::spawn(config(1, None)).unwrap();
    let client = Client::new(handle.addr().to_string());
    client.wait_until_ready(Duration::from_secs(10)).unwrap();

    // A job far too long to finish on its own in this test.
    let id = client.submit(&spec("adder", 2_000_000)).unwrap();
    let snapshot = client
        .wait_for_phase(id, &["running"], Duration::from_secs(30))
        .unwrap();
    assert_eq!(phase(&snapshot), "running");
    // Let it actually train a little before cancelling.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while num(client.status(id, 0).unwrap().get("events_seen").unwrap()) == 0.0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no events before cancel"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let t0 = std::time::Instant::now();
    client.cancel(id).unwrap();
    let snapshot = client
        .wait_for_phase(id, &["cancelled"], Duration::from_secs(30))
        .unwrap();
    // "Within one event tick" at test scale: the cancel must land in
    // seconds, not after the 2M-step budget.
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "cancel took {:?}",
        t0.elapsed()
    );
    assert_eq!(history(&snapshot), vec!["queued", "running", "cancelled"]);
    // A cancelled job never merges into the frontier store — its key
    // stays entirely unknown.
    let front = client.frontier("adder", "analytical", 8).unwrap();
    assert_eq!(num(front.get("count").unwrap()), 0.0);
    assert_eq!(front.get("known"), Some(&Value::Bool(false)));
    // Cancelling again is a loud error.
    assert!(client.cancel(id).unwrap_err().contains("already cancelled"));

    handle.shutdown().unwrap();
}

#[test]
fn protocol_rejects_bad_requests_loudly() {
    let handle = Server::spawn(config(1, None)).unwrap();
    let client = Client::new(handle.addr().to_string());
    client.wait_until_ready(Duration::from_secs(10)).unwrap();

    let err = client.submit(&spec("multiplier", 100)).unwrap_err();
    assert!(err.contains("unknown task"), "{err}");
    let err = client
        .submit(&JobSpec {
            backend: "spice".to_string(),
            ..spec("adder", 100)
        })
        .unwrap_err();
    assert!(err.contains("unknown backend"), "{err}");
    // The duplicate-weights bugfix surfaces through the protocol.
    let err = client
        .submit(&JobSpec {
            weights: vec![0.5, 0.5],
            ..spec("adder", 100)
        })
        .unwrap_err();
    assert!(err.contains("duplicate weight"), "{err}");
    let err = client.status(999, 0).unwrap_err();
    assert!(err.contains("no such job"), "{err}");
    let err = client
        .request(&serde_json::json!({"proto": "prefixrl.serve.v1", "cmd": "fly"}))
        .unwrap_err();
    assert!(err.contains("unknown cmd"), "{err}");
    let err = client
        .request(&serde_json::json!({"proto": "prefixrl.serve.v2", "cmd": "ping"}))
        .unwrap_err();
    assert!(err.contains("unsupported protocol"), "{err}");

    handle.shutdown().unwrap();
}

#[test]
fn hostile_connections_do_not_kill_the_accept_loop() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let handle = Server::spawn(config(1, None)).unwrap();
    let addr = handle.addr();
    let client = Client::new(addr.to_string());
    client.wait_until_ready(Duration::from_secs(10)).unwrap();

    // Malformed JSON: a loud inline error, connection still usable.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"{this is not json\n").unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("malformed request"), "{line}");
    s.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");

    // Mid-handshake disconnects: one peer vanishes with no bytes, one
    // with a truncated request and no newline.
    drop(TcpStream::connect(addr).unwrap());
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"{\"proto\":\"prefixrl.serve.v1\",\"cmd\":\"pi")
        .unwrap();
    drop(s);

    // An oversized line (past the request cap, newline never sent) gets
    // an error response and a closed connection, not unbounded buffering.
    let mut s = TcpStream::connect(addr).unwrap();
    let chunk = vec![b'x'; 1 << 20];
    let mut sent = 0u64;
    while sent <= prefixrl_serve::protocol::MAX_REQUEST_LINE {
        // The server may close mid-send once the cap trips; that's fine.
        if s.write_all(&chunk).is_err() {
            break;
        }
        sent += chunk.len() as u64;
    }
    let mut response = String::new();
    let _ = BufReader::new(s).read_line(&mut response);
    assert!(
        response.contains("request line exceeds"),
        "oversized line must be answered loudly, got: {response:?}"
    );

    // Unknown verbs and cluster verbs on a non-clustered server refuse
    // loudly over a normal client.
    let err = client
        .request(&serde_json::json!({"cmd": "gossip"}))
        .unwrap_err();
    assert!(err.contains("unknown cmd"), "{err}");
    let err = client
        .request(&serde_json::json!({"cmd": "repl_subscribe", "epoch": 0, "from_seq": 0}))
        .unwrap_err();
    assert!(err.contains("replication is not enabled"), "{err}");
    let err = client
        .request(&serde_json::json!({"cmd": "cluster"}))
        .unwrap_err();
    assert!(err.contains("not part of a cluster"), "{err}");

    // After all of the above the accept loop still serves.
    assert!(client.ping().is_ok(), "server died serving hostile peers");

    handle.shutdown().unwrap();
}

#[test]
fn query_verbs_answer_over_the_wire() {
    let handle = Server::spawn(config(1, None)).unwrap();
    let client = Client::new(handle.addr().to_string());
    client.wait_until_ready(Duration::from_secs(10)).unwrap();

    // Nothing merged yet: every query answers known = false, not an
    // error, and the snapshot epoch is 0.
    let miss = client
        .query(
            "adder",
            "analytical",
            8,
            Query::BestAtDelay { delay: 10.0 },
            false,
        )
        .unwrap();
    assert_eq!(num(miss.get("epoch").unwrap()), 0.0);
    let result = miss.get("result").unwrap();
    assert_eq!(result.get("known"), Some(&Value::Bool(false)));
    assert_eq!(result.get("found"), Some(&Value::Bool(false)));

    let id = client.submit(&spec("adder", 200)).unwrap();
    client
        .wait_for_phase(id, &["done"], Duration::from_secs(120))
        .unwrap();

    // The merge bumped the published epoch without any explicit publish
    // call — the store publishes on merge.
    let best = client
        .query(
            "adder",
            "analytical",
            8,
            Query::BestAtDelay { delay: 1e9 },
            false,
        )
        .unwrap();
    assert!(num(best.get("epoch").unwrap()) >= 1.0);
    let result = best.get("result").unwrap();
    assert_eq!(result.get("found"), Some(&Value::Bool(true)));
    assert_eq!(result.get("met"), Some(&Value::Bool(true)));
    let point = result.get("point").unwrap();
    let best_area = num(point.get("area").unwrap());
    let best_delay = num(point.get("delay").unwrap());
    assert!(best_area > 0.0 && best_delay > 0.0);

    // A delay target below the whole front degrades to the fastest
    // design, flagged met = false.
    let unmet = client
        .query(
            "adder",
            "analytical",
            8,
            Query::BestAtDelay { delay: 1e-6 },
            false,
        )
        .unwrap();
    let result = unmet.get("result").unwrap();
    assert_eq!(result.get("found"), Some(&Value::Bool(true)));
    assert_eq!(result.get("met"), Some(&Value::Bool(false)));

    // Weight extremes agree with the front's ends.
    let smallest = client
        .query(
            "adder",
            "analytical",
            8,
            Query::BestAtWeight { w: 1.0 },
            false,
        )
        .unwrap();
    let small_area = num(smallest
        .get("result")
        .unwrap()
        .get("point")
        .unwrap()
        .get("area")
        .unwrap());
    assert!(
        (small_area - best_area).abs() < 1e-12,
        "w=1 must find the minimum-area point"
    );

    // A full-width range returns the whole front; a graph rides along
    // when asked for.
    let all = client
        .query(
            "adder",
            "analytical",
            8,
            Query::Range {
                delay_lo: 0.0,
                delay_hi: 1e9,
            },
            false,
        )
        .unwrap();
    let count = num(all.get("result").unwrap().get("count").unwrap());
    assert!(count >= 1.0);

    let with_graph = client
        .query(
            "adder",
            "analytical",
            8,
            Query::BestAtDelay { delay: 1e9 },
            true,
        )
        .unwrap();
    assert!(
        with_graph
            .get("result")
            .unwrap()
            .get("point")
            .unwrap()
            .get("graph")
            .is_some(),
        "include_graph must attach the stored graph"
    );

    // A batch resolves against one snapshot: same epoch for all results,
    // and per-query failures come back inline instead of failing the
    // batch.
    let batch = client
        .query_batch(vec![
            serde_json::json!({
                "task": "adder", "backend": "analytical", "n": 8,
                "mode": "best_at_weight", "w": 0.0,
            }),
            serde_json::json!({
                "task": "adder", "backend": "analytical", "n": 8,
                "mode": "range", "delay_lo": 0.0, "delay_hi": 1e9,
            }),
            serde_json::json!({
                "task": "a/b", "backend": "analytical", "n": 8,
                "mode": "best_at_weight", "w": 0.0,
            }),
        ])
        .unwrap();
    let results = batch.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].get("found"), Some(&Value::Bool(true)));
    assert!(num(results[1].get("count").unwrap()) == count);
    assert!(
        results[2]
            .get("error")
            .map(|e| matches!(e, Value::String(s) if s.contains("alias")))
            .unwrap_or(false),
        "aliasing name must fail inline: {:?}",
        results[2]
    );

    handle.shutdown().unwrap();
}

#[test]
fn queue_and_frontier_survive_restart() {
    let dir = temp_dir("restart");

    // First server: finish one job, leave one queued behind a
    // long-running one, then shut down gracefully (the long job is
    // re-queued; kill -9 crash-restart is exercised by the serve-smoke CI
    // job on the real binary).
    let handle = Server::spawn(config(1, Some(dir.clone()))).unwrap();
    let addr = handle.addr().to_string();
    let client = Client::new(addr);
    client.wait_until_ready(Duration::from_secs(10)).unwrap();
    let finished = client.submit(&spec("adder", 120)).unwrap();
    client
        .wait_for_phase(finished, &["done"], Duration::from_secs(120))
        .unwrap();
    let front_before = serde_json::to_string(
        client
            .frontier("adder", "analytical", 8)
            .unwrap()
            .get("points")
            .unwrap(),
    )
    .unwrap();
    let long = client.submit(&spec("prefix-or", 2_000_000)).unwrap();
    let queued = client.submit(&spec("incrementer", 100)).unwrap();
    client
        .wait_for_phase(long, &["running"], Duration::from_secs(30))
        .unwrap();
    handle.shutdown().unwrap();

    // Second server on the same state dir.
    let handle = Server::spawn(config(2, Some(dir.clone()))).unwrap();
    let client = Client::new(handle.addr().to_string());
    client.wait_until_ready(Duration::from_secs(10)).unwrap();

    // The stored front is bit-identical across the restart.
    let front_after = serde_json::to_string(
        client
            .frontier("adder", "analytical", 8)
            .unwrap()
            .get("points")
            .unwrap(),
    )
    .unwrap();
    assert_eq!(front_before, front_after, "stored front changed on restart");

    // The finished job is remembered; the interrupted and queued jobs
    // resume (the long one re-runs from scratch — cancel it rather than
    // wait out 2M steps).
    let snapshot = client.status(finished, 0).unwrap();
    assert_eq!(phase(&snapshot), "done");
    client
        .wait_for_phase(queued, &["done"], Duration::from_secs(120))
        .unwrap();
    let long_snapshot = client
        .wait_for_phase(long, &["running", "queued"], Duration::from_secs(30))
        .unwrap();
    assert!(
        history(&long_snapshot).contains(&"requeued".to_string()),
        "interrupted job must be re-queued: {long_snapshot:?}"
    );
    client.cancel(long).unwrap();
    client
        .wait_for_phase(long, &["cancelled"], Duration::from_secs(30))
        .unwrap();

    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
