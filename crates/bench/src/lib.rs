//! Shared support for the harnesses in `benches/`.
//!
//! The artifact harnesses (`claims`, `nn_throughput`, `task_throughput`,
//! `serve_throughput`, `query_throughput`, `cluster_throughput`,
//! `scaling_speedup`, `sweep_scaling`) each write one `BENCH_<bench>.json`
//! at the workspace root through [`Report`], in the `prefixrl.bench.v1`
//! schema (DESIGN.md §7), timing with [`time_per_call`] and summarising
//! per-operation samples with [`latency`]. `claims` reproduces the paper's
//! figures and Table I; [`front_json`] and [`spread_front`] serve it.

use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_core::pareto::ParetoFront;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::Instant;

/// The workspace root, where `BENCH_*.json` artifacts live.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One `BENCH_<bench>.json` artifact in the `prefixrl.bench.v1` schema:
/// `{schema, bench, commit, host: {cpus, avx, avx512}, config, rows}`,
/// where every row is `{scenario, params, metrics}`. `config` holds the
/// harness's constants; `params` what varies between a scenario's rows.
pub struct Report {
    bench: &'static str,
    config: Value,
    rows: Vec<Value>,
}

impl Report {
    /// Starts the report of bench `bench` run under `config`.
    pub fn new(bench: &'static str, config: Value) -> Self {
        Report {
            bench,
            config,
            rows: Vec::new(),
        }
    }

    /// Records one row and prints it as one line.
    pub fn row(&mut self, scenario: &str, params: Value, metrics: Value) {
        let text = |v: &Value| serde_json::to_string(v).unwrap();
        println!(
            "{} {scenario} {} {}",
            self.bench,
            text(&params),
            text(&metrics)
        );
        self.rows
            .push(json!({"scenario": scenario, "params": params, "metrics": metrics}));
    }

    /// The whole artifact, header and rows. The commit is `git rev-parse
    /// HEAD` of the workspace, or `"unknown"` outside a git checkout.
    pub fn to_value(&self) -> Value {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(workspace_root())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        json!({
            "schema": "prefixrl.bench.v1",
            "bench": self.bench,
            "commit": commit,
            "host": {
                "cpus": std::thread::available_parallelism().map_or(1, |p| p.get()),
                "avx": nn::simd::cpu_tier() >= nn::simd::Tier::Avx,
                "avx512": nn::simd::cpu_tier() >= nn::simd::Tier::Avx512,
            },
            "config": self.config,
            "rows": self.rows,
        })
    }

    /// Writes `BENCH_<bench>.json` at the workspace root.
    pub fn write(&self) {
        let path = workspace_root().join(format!("BENCH_{}.json", self.bench));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&self.to_value()).unwrap(),
        )
        .expect("write bench artifact");
        println!("[artifact] {}", path.display());
    }
}

/// Times `f` until `min_secs` of wall clock have accumulated (at least two
/// calls, after one untimed warm-up call) and returns seconds per call.
pub fn time_per_call(mut f: impl FnMut(), min_secs: f64) -> f64 {
    f(); // warm-up (scratch arenas, caches)
    let t0 = Instant::now();
    let mut iters = 0u32;
    loop {
        f();
        iters += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= min_secs && iters >= 2 {
            return elapsed / iters as f64;
        }
    }
}

/// `{p50, p99, max}` of per-operation samples, by nearest rank (the
/// smallest sample with at least that share of samples at or below it),
/// in the samples' unit.
///
/// # Panics
///
/// On no samples: an empty summary would read as zero latency.
pub fn latency(samples: &[f64]) -> Value {
    let rank = |pct| nearest_rank(samples, pct);
    json!({"p50": rank(50), "p99": rank(99), "max": rank(100)})
}

/// The `pct`th percentile of `samples` by nearest rank: the smallest
/// sample with at least `pct`% of the samples at or below it.
///
/// # Panics
///
/// On no samples.
pub fn nearest_rank(samples: &[f64], pct: usize) -> f64 {
    assert!(!samples.is_empty(), "latency summary of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() * pct).div_ceil(100).max(1) - 1]
}

/// Serializes a front for artifacts.
pub fn front_json<T: std::fmt::Display>(front: &ParetoFront<T>) -> Value {
    Value::Array(
        front
            .iter()
            .map(|(p, label)| {
                json!({
                    "area": p.area,
                    "delay": p.delay,
                    "label": label.to_string(),
                })
            })
            .collect(),
    )
}

/// Selects up to `limit` front members spread evenly across the delay range
/// (taking only the fastest members would drop the small-area end), always
/// starting with the fastest; a limit of 1 keeps only it.
pub fn spread_front<T: Clone>(front: &ParetoFront<T>, limit: usize) -> Vec<(ObjectivePoint, T)> {
    let all: Vec<(ObjectivePoint, T)> = front.iter().map(|(p, t)| (*p, t.clone())).collect();
    if all.len() <= limit {
        return all;
    }
    let last = all.len() - 1;
    (0..limit)
        .map(|i| all[i * last / (limit - 1).max(1)].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(
            latency(&samples),
            json!({"p50": 50.0, "p99": 99.0, "max": 100.0})
        );
        assert_eq!(latency(&[7.5]), json!({"p50": 7.5, "p99": 7.5, "max": 7.5}));
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn latency_rejects_no_samples() {
        latency(&[]);
    }

    #[test]
    fn spread_front_starts_fastest_at_every_limit() {
        let front: ParetoFront<char> = [(1.0, 30.0, 'a'), (2.0, 20.0, 'b'), (3.0, 10.0, 'c')]
            .into_iter()
            .map(|(delay, area, label)| (ObjectivePoint { area, delay }, label))
            .collect();
        let labels = |limit| -> Vec<char> {
            spread_front(&front, limit)
                .into_iter()
                .map(|(_, l)| l)
                .collect()
        };
        assert_eq!(labels(0), []);
        assert_eq!(labels(1), ['a']);
        assert_eq!(labels(2), ['a', 'c']);
        assert_eq!(labels(3), ['a', 'b', 'c']);
        assert_eq!(labels(7), ['a', 'b', 'c']);
    }

    #[test]
    fn report_has_the_v1_shape() {
        let mut report = Report::new("unit", json!({"n": 8}));
        report.row("probe", json!({"threads": 1}), json!({"ops_per_sec": 2.5}));
        let v = report.to_value();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["schema", "bench", "commit", "host", "config", "rows"]
        );
        assert_eq!(v.get("schema"), Some(&json!("prefixrl.bench.v1")));
        assert_eq!(v.get("bench"), Some(&json!("unit")));
        assert!(matches!(v.get("commit"), Some(Value::String(c)) if !c.is_empty()));
        let host = v.get("host").unwrap();
        assert!(matches!(host.get("cpus"), Some(Value::Number(_))));
        for flag in ["avx", "avx512"] {
            assert!(matches!(host.get(flag), Some(Value::Bool(_))));
        }
        assert_eq!(v.get("config"), Some(&json!({"n": 8})));
        let rows = v.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(
            rows,
            [json!({
                "scenario": "probe",
                "params": {"threads": 1},
                "metrics": {"ops_per_sec": 2.5},
            })]
        );
    }
}
