//! Pins of the job bookkeeping a server keeps across restarts and shows
//! over the wire: how a persisted `prefixrl.serve.jobs.v1` queue loads,
//! what a graceful restart remembers, and the exact `status` event tail.

use prefixrl_core::agent::AgentConfig;
use prefixrl_core::experiment::{CallbackObserver, Event, Experiment, Weights};
use prefixrl_serve::{Client, JobManager, JobSpec, ServeConfig, Server};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "prefixrl-jobs-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
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

fn spec(task: &str, weights: &[f64], steps: u64, seed: u64) -> JobSpec {
    JobSpec {
        task: task.to_string(),
        backend: "analytical".to_string(),
        n: 8,
        weights: weights.to_vec(),
        steps,
        seed,
    }
}

fn str_of<'a>(snapshot: &'a Value, key: &str) -> &'a str {
    match snapshot.get(key) {
        Some(Value::String(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn id_of(snapshot: &Value) -> u64 {
    match snapshot.get("id") {
        Some(Value::Number(n)) => n.as_f64() as u64,
        other => panic!("snapshot without id: {other:?}"),
    }
}

fn history(snapshot: &Value) -> Vec<&str> {
    snapshot
        .get("history")
        .and_then(Value::as_array)
        .expect("history array")
        .iter()
        .map(|v| match v {
            Value::String(s) => s.as_str(),
            other => panic!("non-string history entry {other:?}"),
        })
        .collect()
}

/// `(id, phase, history, error)` of every job `list` shows, in id order.
fn listed(jobs: &Value) -> Vec<(u64, String, Vec<String>, Value)> {
    jobs.as_array()
        .expect("list is an array")
        .iter()
        .map(|j| {
            (
                id_of(j),
                str_of(j, "phase").to_string(),
                history(j).into_iter().map(str::to_string).collect(),
                j.get("error").cloned().expect("error field"),
            )
        })
        .collect()
}

fn row(id: u64, phase: &str, history: &[&str], error: Value) -> (u64, String, Vec<String>, Value) {
    (
        id,
        phase.to_string(),
        history.iter().map(|s| s.to_string()).collect(),
        error,
    )
}

#[test]
fn hand_written_v1_queue_loads_every_phase() {
    let dir = temp_dir("v1");
    let entry = |id: u64, phase: &str, error: Value| {
        json!({
            "id": id,
            "spec": {
                "task": "adder", "backend": "analytical", "n": 8,
                "weights": [0.25, 0.75], "steps": 40 + id, "seed": id,
            },
            "phase": phase,
            "error": error,
        })
    };
    let file = json!({
        "schema": "prefixrl.serve.jobs.v1",
        "next_id": 12,
        "jobs": [
            entry(2, "queued", Value::Null),
            entry(3, "running", Value::Null),
            entry(5, "done", Value::Null),
            entry(7, "cancelled", Value::Null),
            entry(9, "failed", Value::String("backend exploded".to_string())),
        ],
    });
    std::fs::write(
        dir.join("jobs.json"),
        serde_json::to_string_pretty(&file).unwrap(),
    )
    .unwrap();

    // No workers are spawned, so every loaded phase stays observable.
    let manager = JobManager::new(config(1, Some(dir.clone()))).unwrap();
    assert_eq!(
        listed(&manager.list()),
        vec![
            row(2, "queued", &["queued", "requeued"], Value::Null),
            row(3, "queued", &["queued", "requeued"], Value::Null),
            row(5, "done", &["queued", "done"], Value::Null),
            row(7, "cancelled", &["queued", "cancelled"], Value::Null),
            row(
                9,
                "failed",
                &["queued", "failed"],
                Value::String("backend exploded".to_string())
            ),
        ]
    );
    // The spec survives the load field for field.
    let three = manager.status(3, 0).unwrap();
    assert_eq!(str_of(&three, "task"), "adder");
    assert_eq!(three.get("steps"), Some(&json!(43u64)));
    assert_eq!(three.get("seed"), Some(&json!(3u64)));
    assert_eq!(three.get("weights"), Some(&json!([0.25, 0.75])));
    // The persisted next id, not one past the largest loaded id.
    assert_eq!(manager.submit(spec("adder", &[0.5], 40, 0)).unwrap(), 12);
    drop(manager);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_restart_keeps_phases_and_next_id() {
    let dir = temp_dir("graceful");
    let handle = Server::spawn(config(1, Some(dir.clone()))).unwrap();
    let client = Client::new(handle.addr().to_string());
    client.wait_until_ready(Duration::from_secs(10)).unwrap();

    let done = client.submit(&spec("adder", &[0.3, 0.7], 60, 1)).unwrap();
    client
        .wait_for_phase(done, &["done"], Duration::from_secs(120))
        .unwrap();
    // One worker: the long job holds it, so the next two stay queued.
    let long = client
        .submit(&spec("prefix-or", &[0.3, 0.7], 2_000_000, 2))
        .unwrap();
    client
        .wait_for_phase(long, &["running"], Duration::from_secs(30))
        .unwrap();
    let cancelled = client.submit(&spec("incrementer", &[0.5], 60, 3)).unwrap();
    client.cancel(cancelled).unwrap();
    let queued = client.submit(&spec("adder", &[0.5], 60, 4)).unwrap();
    assert_eq!(
        listed(&client.list().unwrap())
            .into_iter()
            .map(|(id, phase, _, _)| (id, phase))
            .collect::<Vec<_>>(),
        vec![
            (done, "done".to_string()),
            (long, "running".to_string()),
            (cancelled, "cancelled".to_string()),
            (queued, "queued".to_string()),
        ]
    );
    handle.shutdown().unwrap();

    // The next instance, without workers so the phases hold still: the
    // interrupted job is queued again, the finished ones are remembered.
    let manager = JobManager::new(config(1, Some(dir.clone()))).unwrap();
    assert_eq!(
        listed(&manager.list()),
        vec![
            row(done, "done", &["queued", "done"], Value::Null),
            row(long, "queued", &["queued", "requeued"], Value::Null),
            row(
                cancelled,
                "cancelled",
                &["queued", "cancelled"],
                Value::Null
            ),
            row(queued, "queued", &["queued", "requeued"], Value::Null),
        ]
    );
    assert_eq!(
        manager.submit(spec("adder", &[0.5], 40, 5)).unwrap(),
        queued + 1
    );
    drop(manager);
    std::fs::remove_dir_all(&dir).ok();
}

/// One event as the `status` tail renders it, written out key by key.
fn expected_event(run: usize, event: &Event) -> Value {
    match *event {
        Event::Step {
            step,
            epsilon,
            reward,
        } => json!({
            "run": run, "type": "step", "step": step,
            "epsilon": epsilon, "r_area": reward[0], "r_delay": reward[1],
        }),
        Event::GradStep { grad_step, loss } => json!({
            "run": run, "type": "grad_step", "grad_step": grad_step, "loss": loss,
        }),
        Event::EpisodeEnd {
            episode,
            scalarized_return,
        } => json!({
            "run": run, "type": "episode_end", "episode": episode,
            "return": scalarized_return,
        }),
        Event::DesignFound {
            step,
            point,
            size,
            depth,
        } => json!({
            "run": run, "type": "design_found", "step": step,
            "area": point.area, "delay": point.delay, "size": size, "depth": depth,
        }),
        Event::CheckpointSaved { step } => json!({
            "run": run, "type": "checkpoint_saved", "step": step,
        }),
    }
}

/// Every event the single-agent adder job `(steps, seed)` streams, as
/// the same run in process renders them: one agent on one thread streams
/// its events in a fixed order.
fn events_of(steps: u64, seed: u64) -> Vec<String> {
    let mut events = Vec::new();
    Experiment::builder()
        .n(8)
        .weights(Weights::single(0.5))
        .steps(steps)
        .seed(seed)
        .base_config(AgentConfig::small(8, 0.5, steps))
        .eval_threads(1)
        .build()
        .run(&mut CallbackObserver::new(|run, event: &Event| {
            events.push(serde_json::to_string(&expected_event(run, event)).unwrap())
        }))
        .unwrap();
    events
}

#[test]
fn status_tail_shows_the_last_events_oldest_first() {
    let handle = Server::spawn(ServeConfig {
        event_tail: 8,
        ..config(1, None)
    })
    .unwrap();
    let client = Client::new(handle.addr().to_string());
    client.wait_until_ready(Duration::from_secs(10)).unwrap();
    let mut types_seen = std::collections::BTreeSet::new();
    // A short job ends on an episode end; a longer one has begun training
    // and still finds designs near its end.
    for (steps, seed) in [(48, 7), (300, 1)] {
        let id = client.submit(&spec("adder", &[0.5], steps, seed)).unwrap();
        client
            .wait_for_phase(id, &["done"], Duration::from_secs(120))
            .unwrap();
        let tail = |k: usize| -> Vec<Value> {
            client
                .status(id, k)
                .unwrap()
                .get("tail")
                .and_then(Value::as_array)
                .expect("tail array")
                .to_vec()
        };
        let last5 = tail(5);
        let kept = tail(100);
        for event in &last5 {
            types_seen.insert(str_of(event, "type").to_string());
        }
        let render = |tail: Vec<Value>| -> Vec<String> {
            tail.iter()
                .map(|e| serde_json::to_string(e).unwrap())
                .collect()
        };
        let events = events_of(steps, seed);
        assert!(events.len() > 8, "too few events: {}", events.len());
        assert_eq!(render(kept), events[events.len() - 8..], "kept tail");
        assert_eq!(
            render(last5),
            events[events.len() - 5..],
            "status(id, 5) tail"
        );
    }
    assert_eq!(
        types_seen.into_iter().collect::<Vec<_>>(),
        ["design_found", "episode_end", "grad_step", "step"]
    );
    handle.shutdown().unwrap();
}
