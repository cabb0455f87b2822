//! Multi-node cluster contracts over real TCP: WAL-shipping replication
//! (followers converge to bit-identical fronts, including across
//! follower *and* primary restarts with epoch change), router read
//! failover to followers in under a second with zero failed queries, and
//! write-side ownership enforcement (submits never fail over).

use prefix_graph::{structures, PrefixGraph};
use prefixrl_core::evaluator::{Evaluator, ObjectivePoint};
use prefixrl_core::task::Adder;
use prefixrl_serve::cluster::shard_of;
use prefixrl_serve::store::key_of;
use prefixrl_serve::{Client, JobSpec, Router, ServeConfig, Server, ServerHandle, Topology};
use serde_json::Value;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "prefixrl-cluster-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reserves `k` distinct ephemeral ports. The listeners are dropped
/// before the servers bind them — a raced rebind would fail loudly, and
/// the server's `SO_REUSEADDR` bind makes restarts on the same port safe.
fn reserve_ports(k: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..k)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
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
        cluster: Some(Topology::new(shard_id, peers.to_vec(), replicas).unwrap()),
        ..ServeConfig::default()
    }
}

/// The widest pool of scored adder designs the tests merge in slices, so
/// successive merges keep growing the stored front.
fn designs(n: u16) -> Vec<(PrefixGraph, ObjectivePoint)> {
    let evaluator = Evaluator::analytical(Adder);
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

/// A width in `4..=64` whose `adder/analytical/<n>` key is owned by
/// `shard` in an `num_shards`-way split.
fn width_owned_by(shard: usize, num_shards: usize) -> u16 {
    (4..=64)
        .find(|&n| shard_of(&key_of("adder", "analytical", n), num_shards) == shard)
        .expect("some width in 4..=64 hashes to every shard")
}

/// One shard's stored front for a width, graphs included, as the exact
/// JSON string — the bit-identical comparison unit.
fn front_string(handle: &ServerHandle, n: u16) -> String {
    serde_json::to_string(
        &handle
            .jobs()
            .store()
            .front_json("adder", "analytical", n, true),
    )
    .unwrap()
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !done() {
        assert!(Instant::now() < deadline, "timeout waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn wait_ready(addr: &str) {
    Client::new(addr.to_string())
        .wait_until_ready(Duration::from_secs(10))
        .unwrap();
}

#[test]
fn replication_converges_bit_identically_across_restarts() {
    let dirs = [temp_dir("repl-s0"), temp_dir("repl-s1")];
    let peers = reserve_ports(2);
    let n = width_owned_by(0, 2);
    let pool = designs(n);

    let spawn_primary =
        || Server::spawn(shard_config(0, &peers, 1, Some(dirs[0].clone()))).unwrap();
    let spawn_follower =
        || Server::spawn(shard_config(1, &peers, 1, Some(dirs[1].clone()))).unwrap();
    let mut primary = spawn_primary();
    let mut follower = Some(spawn_follower());
    wait_ready(&peers[0]);
    wait_ready(&peers[1]);

    // Live shipping: a merge on the primary appears on the follower.
    primary
        .jobs()
        .store()
        .merge("adder", "analytical", n, &pool[0..2])
        .unwrap();
    let want = front_string(&primary, n);
    assert_ne!(want, "null", "primary merge must store a front");
    wait_until("initial replication", Duration::from_secs(10), || {
        front_string(follower.as_ref().unwrap(), n) == want
    });

    // Interleaved restarts: each round merges one more slice of the pool
    // into the primary; rounds alternate restarting the follower (cursor
    // resume over the same epoch) and the primary (epoch change, so the
    // follower must snapshot-resync). Every round must re-converge to a
    // bit-identical front.
    for round in 0..3usize {
        if round % 2 == 0 {
            follower.take().unwrap().shutdown().unwrap();
        } else {
            primary.shutdown().unwrap();
            primary = spawn_primary();
            wait_ready(&peers[0]);
        }
        let upto = (3 + round).min(pool.len());
        primary
            .jobs()
            .store()
            .merge("adder", "analytical", n, &pool[0..upto])
            .unwrap();
        if round % 2 == 0 {
            follower = Some(spawn_follower());
            wait_ready(&peers[1]);
        }
        let want = front_string(&primary, n);
        wait_until("post-restart convergence", Duration::from_secs(10), || {
            front_string(follower.as_ref().unwrap(), n) == want
        });
    }

    // The replicated key is durable on the follower's own disk: reload
    // its state dir cold and compare byte-for-byte again.
    let want = front_string(&primary, n);
    follower.take().unwrap().shutdown().unwrap();
    let store = prefixrl_serve::FrontierStore::open(&dirs[1].join("frontier.json")).unwrap();
    let cold = serde_json::to_string(&store.front_json("adder", "analytical", n, true)).unwrap();
    assert_eq!(
        cold, want,
        "follower's persisted front must match the primary's"
    );

    primary.shutdown().unwrap();
    for dir in dirs {
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn router_fails_reads_over_to_followers_within_a_second() {
    let peers = reserve_ports(3);
    let mut handles: Vec<ServerHandle> = (0..3)
        .map(|i| Server::spawn(shard_config(i, &peers, 1, None)).unwrap())
        .collect();
    for addr in &peers {
        wait_ready(addr);
    }

    // One owned key per shard, merged at its primary.
    let widths: Vec<u16> = (0..3).map(|s| width_owned_by(s, 3)).collect();
    for (shard, &n) in widths.iter().enumerate() {
        handles[shard]
            .jobs()
            .store()
            .merge("adder", "analytical", n, &designs(n))
            .unwrap();
    }

    let router = Router::new(Topology::new(0, peers.clone(), 1).unwrap()).unwrap();
    let found = |response: &Value| {
        response.get("result").and_then(|r| r.get("found")) == Some(&Value::Bool(true))
    };
    let at_delay = || {
        vec![(
            "delay".to_string(),
            Value::Number(serde_json::Number::Float(1e9)),
        )]
    };
    for &n in &widths {
        let response = router
            .query("adder", "analytical", n, "best_at_delay", at_delay())
            .unwrap();
        assert!(
            found(&response),
            "routed query missed for n={n}: {response:?}"
        );
    }

    // Wait for the victim's key to be replicated before killing it.
    let victim = 1usize;
    let follower = 2usize; // ring: shard 1's follower is shard 2
    let n = widths[victim];
    let want = front_string(&handles[victim], n);
    wait_until("victim key replicated", Duration::from_secs(10), || {
        front_string(&handles[follower], n) == want
    });
    handles.remove(victim).shutdown().unwrap();

    // Every read of the dead shard's key must still answer — served by
    // the follower — and the first failover must land in under a second.
    let t0 = Instant::now();
    let first = router
        .query("adder", "analytical", n, "best_at_delay", at_delay())
        .unwrap();
    let elapsed = t0.elapsed();
    assert!(found(&first), "failover query missed: {first:?}");
    assert!(
        elapsed < Duration::from_secs(1),
        "failover took {elapsed:?} (must be < 1s)"
    );
    for _ in 0..20 {
        let response = router
            .query("adder", "analytical", n, "best_at_delay", at_delay())
            .unwrap();
        assert!(
            found(&response),
            "query failed after failover: {response:?}"
        );
    }
    // The follower serves the bit-identical front.
    let fr = router.frontier("adder", "analytical", n).unwrap();
    let want_count = serde_json::from_str::<Value>(&want)
        .unwrap()
        .as_array()
        .map(<[Value]>::len)
        .unwrap() as u64;
    assert_eq!(
        fr.get("count"),
        Some(&Value::Number(serde_json::Number::UInt(want_count))),
        "follower front diverged"
    );

    // A scatter/gather batch touching all three shards reassembles in
    // input order, with the dead shard's sub-batch answered by its
    // follower.
    let batch: Vec<Value> = widths
        .iter()
        .map(|&n| {
            serde_json::json!({
                "task": "adder", "backend": "analytical", "n": n,
                "mode": "best_at_delay", "delay": 1e9,
            })
        })
        .collect();
    let gathered = router.query_batch(batch).unwrap();
    let results = gathered.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    for (i, result) in results.iter().enumerate() {
        assert_eq!(
            result.get("found"),
            Some(&Value::Bool(true)),
            "batch result {i} missed: {result:?}"
        );
    }

    for handle in handles {
        handle.shutdown().unwrap();
    }
}

#[test]
fn submits_are_ownership_checked_and_routed_to_the_primary() {
    let peers = reserve_ports(2);
    let handles: Vec<ServerHandle> = (0..2)
        .map(|i| Server::spawn(shard_config(i, &peers, 1, None)).unwrap())
        .collect();
    for addr in &peers {
        wait_ready(addr);
    }

    let n = width_owned_by(0, 2);
    let spec = JobSpec {
        task: "adder".to_string(),
        backend: "analytical".to_string(),
        n,
        weights: vec![0.3, 0.7],
        steps: 60,
        seed: 0,
    };

    // The wrong shard refuses the write and names the owner.
    let err = Client::new(peers[1].clone()).submit(&spec).unwrap_err();
    assert!(err.contains("wrong shard"), "{err}");
    assert!(err.contains("shard 0"), "{err}");

    // The router lands it on the primary, the job completes, and the
    // resulting merge replicates to the follower.
    let router = Router::new(Topology::new(0, peers.clone(), 1).unwrap()).unwrap();
    let (id, shard) = router.submit(&spec).unwrap();
    assert_eq!(shard, 0);
    Client::new(peers[0].clone())
        .wait_for_phase(id, &["done"], Duration::from_secs(120))
        .unwrap();
    let want = front_string(&handles[0], n);
    assert_ne!(want, "null", "finished job must store a front");
    wait_until("job merge replicated", Duration::from_secs(10), || {
        front_string(&handles[1], n) == want
    });

    // The cluster verb reports topology and resolves key owners.
    let info = Client::new(peers[0].clone())
        .request(&serde_json::json!({
            "proto": "prefixrl.serve.v1",
            "cmd": "cluster",
            "key": key_of("adder", "analytical", n),
        }))
        .unwrap();
    assert_eq!(
        info.get("owner"),
        Some(&Value::Number(serde_json::Number::UInt(0)))
    );
    assert_eq!(
        info.get("owner_addr"),
        Some(&Value::String(peers[0].clone()))
    );

    for handle in handles {
        handle.shutdown().unwrap();
    }
}
