//! Resident-service throughput: jobs/sec and submit-to-first-event
//! latency under a burst of sweep jobs (DESIGN.md §13).
//!
//! Boots an in-process `prefixrl-serve` server per worker count, submits a
//! burst of small jobs across all three circuit tasks, waits for the
//! queue to drain, and measures end-to-end job throughput plus the
//! latency from submit to each job's first streamed event — the two
//! numbers that gate interactive use of the service. A `job_history` row
//! then runs a long line of tiny jobs back to back on one worker over a
//! state dir and compares the jobs/s of its first and last stretch, which
//! stay level only while a finished job costs later jobs nothing. Writes
//! the `BENCH_serve.json` artifact.
//!
//! ```sh
//! cargo bench -p prefixrl-bench --bench serve_throughput
//! ```

use prefixrl_bench::{latency, Report};
use prefixrl_serve::{Client, JobSpec, ServeConfig, Server};
use serde_json::{json, Value};
use std::time::{Duration, Instant};

/// Adder width of every job.
const N: u16 = 8;
/// Jobs per burst.
const JOBS: usize = 6;
/// Environment steps per agent.
const STEPS: u64 = 120;
/// Scalarization weights (agents) per job.
const WEIGHTS: [f64; 2] = [0.3, 0.7];
/// Tasks the burst's jobs cycle through.
const TASKS: [&str; 3] = ["adder", "prefix-or", "incrementer"];
/// Jobs the `job_history` row runs back to back.
const HISTORY_JOBS: usize = 500;
/// Jobs in each of its first and last throughput windows.
const HISTORY_WINDOW: usize = 100;
/// Environment steps of its one agent per job: tiny, so the server's
/// per-job bookkeeping is not lost under the training.
const HISTORY_STEPS: u64 = 16;

fn num(v: &Value) -> f64 {
    match v {
        Value::Number(n) => n.as_f64(),
        other => panic!("expected a number, got {other:?}"),
    }
}

fn main() {
    let mut report = Report::new(
        "serve",
        json!({
            "n": N,
            "jobs": JOBS,
            "steps_per_agent": STEPS,
            "weights": WEIGHTS,
            "tasks": TASKS,
            "backend": "analytical",
            "history_jobs": HISTORY_JOBS,
            "history_window": HISTORY_WINDOW,
            "history_steps": HISTORY_STEPS,
        }),
    );
    for workers in [1usize, 2, 4] {
        let handle = Server::spawn(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            ..ServeConfig::default()
        })
        .expect("server boots");
        let client = Client::new(handle.addr().to_string());
        client
            .wait_until_ready(Duration::from_secs(10))
            .expect("server ready");

        // Counter snapshot before the burst: the row's hit rate is the
        // delta across this burst only, not whatever accumulated on the
        // stack beforehand.
        let ping0 = client.ping().expect("ping");
        let hits0 = num(ping0.get("cache").unwrap().get("hits").unwrap());
        let misses0 = num(ping0.get("cache").unwrap().get("misses").unwrap());

        let t0 = Instant::now();
        let ids: Vec<u64> = (0..JOBS)
            .map(|i| {
                client
                    .submit(&JobSpec {
                        task: TASKS[i % TASKS.len()].to_string(),
                        backend: "analytical".to_string(),
                        n: N,
                        weights: WEIGHTS.to_vec(),
                        steps: STEPS,
                        // Row-distinct seed block, so each configuration's
                        // burst is an independently seeded workload and the
                        // per-row hit rate is genuinely per-row.
                        seed: (workers * JOBS + i) as u64,
                    })
                    .expect("submit accepted")
            })
            .collect();
        let mut latencies = Vec::new();
        for id in &ids {
            let snapshot = client
                .wait_for_phase(*id, &["done", "failed"], Duration::from_secs(600))
                .expect("job finishes");
            assert_eq!(
                snapshot.get("phase").unwrap(),
                &Value::String("done".into()),
                "job {id} failed"
            );
            latencies.push(num(snapshot.get("submit_to_first_event_sec").unwrap()));
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let ping = client.ping().expect("ping");
        let hits = num(ping.get("cache").unwrap().get("hits").unwrap()) - hits0;
        let misses = num(ping.get("cache").unwrap().get("misses").unwrap()) - misses0;
        handle.shutdown().expect("graceful shutdown");

        report.row(
            "job_burst",
            json!({"workers": workers}),
            json!({
                "jobs_per_sec": JOBS as f64 / elapsed.max(1e-9),
                "first_event_s": latency(&latencies),
                "cache_hit_rate": hits / (hits + misses).max(1.0),
                "cache_hits": hits as u64,
                "cache_misses": misses as u64,
            }),
        );
    }
    job_history(&mut report);
    report.write();
}

/// One worker over a state dir runs `HISTORY_JOBS` identical tiny jobs
/// back to back: the next job is always submitted before the running one
/// finishes, so the queue never runs dry. Each job is seen done by a
/// status poll every 200 µs; the first job fills the shared cache and
/// every later one trains on hits, so the work per job is flat.
fn job_history(report: &mut Report) {
    let dir = std::env::temp_dir().join(format!("prefixrl-bench-history-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let handle = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("server boots");
    let client = Client::new(handle.addr().to_string());
    client
        .wait_until_ready(Duration::from_secs(10))
        .expect("server ready");
    let spec = JobSpec {
        task: "adder".to_string(),
        backend: "analytical".to_string(),
        n: N,
        weights: vec![0.5],
        steps: HISTORY_STEPS,
        seed: 0,
    };
    let submit = || client.submit(&spec).expect("submit accepted");
    let t0 = Instant::now();
    let mut done_at = Vec::with_capacity(HISTORY_JOBS);
    let mut latencies = Vec::with_capacity(HISTORY_JOBS);
    let mut running = submit();
    for i in 0..HISTORY_JOBS {
        let next = (i + 1 < HISTORY_JOBS).then(submit);
        let snapshot = loop {
            let snapshot = client.status(running, 0).expect("status");
            match snapshot.get("phase") {
                Some(Value::String(p)) if p == "done" => break snapshot,
                Some(Value::String(p)) if p == "queued" || p == "running" => {}
                other => panic!("job {running} ended {other:?}"),
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        done_at.push(t0.elapsed().as_secs_f64());
        latencies.push(num(snapshot.get("submit_to_first_event_sec").unwrap()));
        running = next.unwrap_or(running);
    }
    handle.shutdown().expect("graceful shutdown");
    let jobs_json_bytes = std::fs::metadata(dir.join("jobs.json"))
        .expect("jobs.json written")
        .len();
    std::fs::remove_dir_all(&dir).ok();

    let window = |from: f64, to: f64| HISTORY_WINDOW as f64 / (to - from).max(1e-9);
    report.row(
        "job_history",
        json!({"workers": 1, "jobs": HISTORY_JOBS}),
        json!({
            "jobs_per_sec": HISTORY_JOBS as f64 / done_at[HISTORY_JOBS - 1].max(1e-9),
            "first_jobs_per_sec": window(0.0, done_at[HISTORY_WINDOW - 1]),
            "last_jobs_per_sec": window(
                done_at[HISTORY_JOBS - HISTORY_WINDOW - 1],
                done_at[HISTORY_JOBS - 1],
            ),
            "first_event_s": latency(&latencies),
            "jobs_json_bytes": jobs_json_bytes,
        }),
    );
}
