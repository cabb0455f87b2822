//! Query-tier quickstart: submit → train → query the read tier
//! (DESIGN.md §15).
//!
//! Boots an in-process server, runs one small sweep job so the frontier
//! store has something merged, then answers the three query modes over
//! the wire: minimum-area design meeting a delay target, scalarized
//! argmin at an area weight, and every stored design in a delay window.
//! All answers come from the server's lock-free frontier snapshot —
//! reads never wait on a running merge.
//!
//! ```sh
//! cargo run --release --example query_client
//! ```

use prefixrl_serve::{Client, JobSpec, Query, ServeConfig, Server};
use serde_json::Value;
use std::time::Duration;

fn main() {
    let handle = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server boots");
    let client = Client::new(handle.addr().to_string());
    client
        .wait_until_ready(Duration::from_secs(10))
        .expect("server answers ping");

    // Train: one short sweep merges its design pool into the store. Out
    // of process this is `prefixrl submit --task adder --w-list 0.2,0.8`.
    let id = client
        .submit(&JobSpec {
            task: "adder".to_string(),
            backend: "analytical".to_string(),
            n: 8,
            weights: vec![0.2, 0.8],
            steps: 400,
            seed: 0,
        })
        .expect("submit accepted");
    let snapshot = client
        .wait_for_phase(id, &["done", "failed"], Duration::from_secs(300))
        .expect("job finishes");
    assert_eq!(
        snapshot.get("phase"),
        Some(&Value::String("done".into())),
        "training job failed"
    );

    // Query mode 1 — best_at_delay: the minimum-area stored design whose
    // delay meets the target (`prefixrl query --at-delay 1e9`). A target
    // nothing meets degrades to the fastest design with `met: false`.
    let at_delay = client
        .query(
            "adder",
            "analytical",
            8,
            Query::BestAtDelay { delay: 1e9 },
            false,
        )
        .expect("query answered");
    let result = at_delay.get("result").unwrap();
    println!(
        "best at delay ≤ 1e9: met = {:?}, point = {}",
        result.get("met").unwrap(),
        point_summary(result.get("point").unwrap()),
    );

    // Query mode 2 — best_at_weight: scalarized argmin over the front's
    // normalized (area, delay); w = 0 is the fastest design, w = 1 the
    // smallest (`prefixrl query --at-weight 0.5`).
    for w in [0.0, 0.5, 1.0] {
        let response = client
            .query("adder", "analytical", 8, Query::BestAtWeight { w }, false)
            .expect("query answered");
        println!(
            "best at weight {w}: point = {}",
            point_summary(response.get("result").unwrap().get("point").unwrap()),
        );
    }

    // Query mode 3 — range: every stored design inside a delay window, in
    // delay order (`prefixrl query --range 0:1e9`).
    let range = client
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
        .expect("query answered");
    let result = range.get("result").unwrap();
    let points = result.get("points").and_then(Value::as_array).unwrap();
    println!("stored front ({} points):", points.len());
    for p in points {
        println!("  {}", point_summary(p));
    }
    println!(
        "answered at frontier epoch {:?}",
        range.get("epoch").unwrap()
    );

    handle.shutdown().expect("graceful shutdown");
}

fn point_summary(point: &Value) -> String {
    let num = |key: &str| match point.get(key) {
        Some(Value::Number(n)) => format!("{:.3}", n.as_f64()),
        other => format!("{other:?}"),
    };
    format!(
        "area {} delay {} (size {}, depth {})",
        num("area"),
        num("delay"),
        num("size"),
        num("depth")
    )
}
