//! Session-layer acceptance tests: checkpoint/resume determinism, sweep
//! orchestration over the shared cache, and the merged-front guarantee.

use prefixrl_core::agent::{AgentConfig, TrainLoop};
use prefixrl_core::checkpoint::{Checkpoint, RunState, SweepCheckpoint};
use prefixrl_core::evaluator::Evaluator;
use prefixrl_core::experiment::{Event, Experiment, NullObserver, RunObserver, RunRecord, Weights};
use prefixrl_core::task::{self, AnalyticalBackend, SynthesisBackend};
use std::sync::Arc;

fn losses_and_keys(result: &RunRecord) -> (Vec<f32>, Vec<Vec<u64>>) {
    (
        result.losses.clone(),
        result
            .designs
            .iter()
            .map(|(g, _)| g.canonical_key())
            .collect(),
    )
}

/// Save at round boundary k, resume, and the continued run must emit
/// bit-identical losses and an identical design pool to an uninterrupted
/// run — at one actor and at three.
#[test]
fn resume_is_bit_identical_to_uninterrupted_run() {
    for actors in [1, 3] {
        let mut cfg = AgentConfig::tiny(8, 0.4);
        cfg.actors = actors;

        // Uninterrupted reference run.
        let mut reference = TrainLoop::new(&cfg, Arc::new(Evaluator::analytical(task::Adder)));
        reference.run_to_completion(0, &mut NullObserver);
        let (_, reference) = reference.into_parts(0);

        // Interrupted run: stop at the first round boundary at or past step
        // 137, checkpoint through JSON (the full save format, not just the
        // in-memory struct), resume, finish.
        let mut interrupted = TrainLoop::new(&cfg, Arc::new(Evaluator::analytical(task::Adder)));
        while interrupted.step() < 137 {
            assert!(interrupted.step_round(0, &mut NullObserver));
        }
        let json = interrupted.checkpoint().to_json();
        drop(interrupted); // the "kill"
        let ckpt = Checkpoint::from_json(&json).unwrap();
        assert_eq!(ckpt.step, 137u64.div_ceil(actors as u64) * actors as u64);
        assert_eq!(ckpt.actors.len(), actors);
        let mut resumed =
            TrainLoop::from_checkpoint(&ckpt, Arc::new(Evaluator::analytical(task::Adder)))
                .unwrap();
        resumed.run_to_completion(0, &mut NullObserver);
        let (_, resumed) = resumed.into_parts(0);

        assert_eq!(reference.steps, resumed.steps);
        let (ref_losses, ref_keys) = losses_and_keys(&reference);
        let (res_losses, res_keys) = losses_and_keys(&resumed);
        assert_eq!(
            ref_losses, res_losses,
            "{actors} actor(s): losses diverged after resume"
        );
        assert_eq!(
            ref_keys, res_keys,
            "{actors} actor(s): design pools diverged after resume"
        );
        for ((_, pa), (_, pb)) in reference.designs.iter().zip(&resumed.designs) {
            assert_eq!(pa, pb, "design objectives diverged after resume");
        }
        assert_eq!(reference.episode_returns, resumed.episode_returns);
    }
}

/// Resuming must also continue the event stream correctly: the resumed
/// half emits exactly the missing steps.
#[test]
fn resume_continues_event_stream() {
    let cfg = AgentConfig::tiny(8, 0.6);
    let mut lp = TrainLoop::new(&cfg, Arc::new(Evaluator::analytical(task::Adder)));
    let mut first_half = 0u64;
    let mut counter = prefixrl_core::experiment::CallbackObserver::new(|_, e: &Event| {
        if matches!(e, Event::Step { .. }) {
            first_half += 1;
        }
    });
    for _ in 0..100 {
        lp.step_round(0, &mut counter);
    }
    let _ = counter; // closure borrow of `first_half` ends here
    assert_eq!(first_half, 100);
    let ckpt = lp.checkpoint();
    let mut resumed =
        TrainLoop::from_checkpoint(&ckpt, Arc::new(Evaluator::analytical(task::Adder))).unwrap();
    let mut second_half = 0u64;
    let mut counter = prefixrl_core::experiment::CallbackObserver::new(|_, e: &Event| {
        if matches!(e, Event::Step { .. }) {
            second_half += 1;
        }
    });
    resumed.run_to_completion(0, &mut counter);
    let _ = counter; // closure borrow of `second_half` ends here
    assert_eq!(second_half, cfg.total_steps - 100);
}

/// The sweep's merged front must dominate-or-equal every per-agent front.
#[test]
fn merged_front_dominates_or_equals_every_agent_front() {
    let exp = Experiment::builder()
        .n(8)
        .weights(Weights::linspace(0.1, 0.9, 4))
        .base_config(AgentConfig::tiny(8, 0.5))
        .eval_threads(4)
        .build();
    let result = exp.run_quiet().unwrap();
    assert!(result.completed);
    let merged = result.merged_front();
    assert!(!merged.is_empty());
    for record in &result.records {
        let agent_front = record.front();
        assert!(
            merged.pareto_dominates(&agent_front),
            "merged front fails to cover agent {} (w = {})",
            record.run,
            record.w_area
        );
    }
    // And each agent's designs were merged, not just its front.
    let total_designs: usize = result.records.iter().map(|r| r.designs.len()).sum();
    assert!(total_designs >= merged.len());
}

/// A sweep interrupted via `halt_at` writes a sweep checkpoint from which
/// `Experiment::resume` reproduces the uninterrupted sweep's designs and
/// losses exactly (the shared cache does not affect values), at one actor
/// per agent and at three.
#[test]
fn sweep_resume_reproduces_uninterrupted_sweep() {
    for actors in [1, 3] {
        sweep_resume_round_trip(actors);
    }
}

fn sweep_resume_round_trip(actors: usize) {
    let dir = std::env::temp_dir().join(format!(
        "prefixrl-sweep-resume-{}-{actors}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt_path = dir.join("sweep.ckpt.json");

    let build = |halt: Option<u64>| {
        let mut b = Experiment::builder()
            .n(8)
            .weights(Weights::linspace(0.2, 0.8, 3))
            .base_config(AgentConfig::tiny(8, 0.5))
            .actors(actors)
            .eval_threads(2)
            .checkpoint_path(ckpt_path.clone());
        if let Some(h) = halt {
            b = b.halt_at(h);
        }
        b.build()
    };

    // Reference: uninterrupted sweep.
    let reference = build(None).run_quiet().unwrap();
    assert!(reference.completed);

    // Interrupted sweep: halts every agent at the first round boundary
    // at or past step 100 (writing the sweep checkpoint), then a fresh
    // experiment resumes from the file.
    let halted = build(Some(100)).run_quiet().unwrap();
    assert!(!halted.completed);
    let halt_step = 100u64.div_ceil(actors as u64) * actors as u64;
    for r in &halted.records {
        assert_eq!(r.steps, halt_step, "run {} halted at the wrong step", r.run);
    }
    let sweep = SweepCheckpoint::load(&ckpt_path).unwrap();
    assert_eq!(sweep.completed_runs(), 0);
    assert!(sweep
        .runs
        .iter()
        .all(|r| matches!(r, RunState::InProgress(_))));
    let resumed = build(None).resume(sweep, &mut NullObserver).unwrap();
    assert!(resumed.completed);

    for (a, b) in reference.records.iter().zip(&resumed.records) {
        assert_eq!(a.run, b.run);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.losses, b.losses, "run {} losses diverged", a.run);
        assert_eq!(
            a.designs.len(),
            b.designs.len(),
            "run {} design pools diverged",
            a.run
        );
        for ((ga, pa), (gb, pb)) in a.designs.iter().zip(&b.designs) {
            assert_eq!(ga.canonical_key(), gb.canonical_key());
            assert_eq!(pa, pb);
        }
        assert_eq!(a.episode_returns, b.episode_returns);
    }
    // The final sweep checkpoint marks every run done.
    let final_sweep = SweepCheckpoint::load(&ckpt_path).unwrap();
    assert_eq!(final_sweep.completed_runs(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// Periodic checkpointing via `checkpoint_every` emits `CheckpointSaved`
/// events and keeps the persisted file loadable mid-run.
#[test]
fn periodic_checkpoints_stream_events() {
    struct CkptCounter {
        saves: usize,
    }
    impl RunObserver for CkptCounter {
        fn on_event(&mut self, _run: usize, event: &Event) {
            if matches!(event, Event::CheckpointSaved { .. }) {
                self.saves += 1;
            }
        }
    }
    let exp = Experiment::builder()
        .n(8)
        .weights(Weights::single(0.5))
        .base_config(AgentConfig::tiny(8, 0.5))
        .checkpoint_every(100)
        .build();
    let mut obs = CkptCounter { saves: 0 };
    let result = exp.run(&mut obs).unwrap();
    assert!(result.completed);
    // 300 steps, checkpoint at 100 and 200 (not at 300: run is done).
    assert_eq!(obs.saves, 2);
}

/// Non-adder tasks run end to end through the session layer and stamp
/// their identity on the result.
#[test]
fn prefix_or_and_incrementer_sessions_run_end_to_end() {
    for name in ["prefix-or", "incrementer"] {
        let exp = Experiment::builder()
            .n(8)
            .task(task::by_name(name).unwrap())
            .backend(Arc::new(AnalyticalBackend))
            .weights(Weights::single(0.5))
            .base_config(AgentConfig::tiny(8, 0.5))
            .build();
        let result = exp.run_quiet().unwrap();
        assert!(result.completed, "{name}");
        assert_eq!(result.task, name);
        assert_eq!(result.backend, "analytical");
        assert_eq!(result.evaluator, format!("{name}/analytical"));
        assert!(!result.records[0].designs.is_empty(), "{name}");
        assert!(
            result.frontier_power.is_none(),
            "analytical never annotates"
        );
        let json = result.to_json(false);
        assert_eq!(
            json.get("task").unwrap(),
            &serde_json::Value::String(name.into())
        );
    }
}

/// A sweep checkpoint written for one task refuses to resume an experiment
/// configured for another (a run's own checkpoint is refused the same way
/// by `TrainLoop::from_checkpoint`).
#[test]
fn sweep_resume_refuses_task_mismatch() {
    // Record a genuine in-progress adder checkpoint.
    let cfg = AgentConfig::tiny(8, 0.5);
    let mut lp = TrainLoop::new(&cfg, Arc::new(Evaluator::analytical(task::Adder)));
    for _ in 0..10 {
        lp.step_round(0, &mut NullObserver);
    }
    let mut sweep = SweepCheckpoint::fresh("adder", 1);
    sweep.runs[0] = RunState::InProgress(Box::new(lp.checkpoint()));
    sweep.validate().unwrap();

    let or_exp = Experiment::builder()
        .n(8)
        .task(task::by_name("prefix-or").unwrap())
        .weights(Weights::single(0.5))
        .base_config(AgentConfig::tiny(8, 0.5))
        .build();
    let err = match or_exp.resume(sweep, &mut NullObserver) {
        Err(e) => e,
        Ok(_) => panic!("task mismatch must be rejected"),
    };
    assert!(
        err.contains("task `adder`") && err.contains("task `prefix-or`"),
        "{err}"
    );
}

/// The synthesis-power backend annotates every merged-frontier point with
/// a positive switching-power estimate, surfaced in the JSON report.
#[test]
fn power_annotation_surfaces_in_result_and_json() {
    let mut cfg = AgentConfig::tiny(8, 0.5);
    cfg.total_steps = 40;
    cfg.env = prefixrl_core::env::EnvConfig::synthesis(8);
    let exp = Experiment::builder()
        .n(8)
        .backend(Arc::new(
            SynthesisBackend::new(
                netlist::Library::nangate45(),
                synth::sweep::SweepConfig::fast(),
                0.5,
            )
            .with_power_annotation(),
        ))
        .weights(Weights::single(0.5))
        .base_config(cfg)
        .build();
    let result = exp.run_quiet().unwrap();
    assert_eq!(result.backend, "synthesis-power");
    let powers = result.frontier_power.as_ref().expect("annotated");
    let merged = result.merged_front();
    assert_eq!(powers.len(), merged.len());
    assert!(powers.iter().all(|&p| p > 0.0));
    let json = result.to_json(false);
    let frontier = json.get("merged_frontier").unwrap().as_array().unwrap();
    assert!(!frontier.is_empty());
    for entry in frontier {
        match entry.get("power_uw").expect("power stamped per point") {
            serde_json::Value::Number(n) => assert!(n.as_f64() > 0.0),
            other => panic!("power_uw must be a number, got {other:?}"),
        }
    }
}
