//! Thread-level parallelism for training and evaluation (paper Section
//! IV-D).
//!
//! The paper's key systems observation is that DQN is off-policy, so
//! experience generation (environment + synthesis) can run in parallel
//! apart from gradient computation: 192 synthesis workers fed one learner.
//! This module holds the two thread pools that reproduce it at thread
//! scale:
//!
//! - `map_ordered` — an order-preserving map on a worker pool: scoped
//!   threads pull indices from a shared counter (dynamic load balancing
//!   for variable-cost synthesis jobs) into worker-local buffers, so there
//!   is no per-slot locking. [`evaluate_batch`] (the `scaling_speedup`
//!   bench and the `equivalence` tests) and
//!   [`crate::frontier::sweep_task_front`] both run on it;
//! - `lockstep` — the actor threads of one training run.
//!   [`crate::agent::TrainLoop`] hands every actor one environment step
//!   per round and waits for all of them; between rounds its coordinator
//!   thread draws every random number, picks the greedy actions with one
//!   batched forward, pushes the transitions in actor order and trains.
//!   The actors never touch the RNG, the replay buffer or the network, so
//!   a run is deterministic at every actor count and checkpoints at round
//!   boundaries.

use crate::evaluator::{Evaluator, ObjectivePoint};
use prefix_graph::PrefixGraph;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Evaluates `graphs` on up to `threads` workers, preserving order (see
/// `map_ordered`).
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn evaluate_batch(
    graphs: &[PrefixGraph],
    evaluator: &dyn Evaluator,
    threads: usize,
) -> Vec<ObjectivePoint> {
    map_ordered(graphs, threads, |g| evaluator.evaluate(g))
}

/// Applies `f` to every item on up to `threads` scoped workers and returns
/// the results in item order.
///
/// Workers pull indices from a shared atomic counter (so variable-cost
/// jobs — synthesis times differ per graph, and cache hits are near-free
/// next to misses — stay load-balanced) and accumulate into worker-local
/// buffers; there are no per-slot locks. An empty slice returns
/// immediately without spawning anything, and one worker (or one item)
/// runs inline on the caller's thread.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker panics.
pub(crate) fn map_ordered<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    assert!(threads > 0, "need at least one worker");
    if threads == 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return local;
            };
            local.push((i, f(item)));
        }
    };
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.min(items.len()))
            .map(|_| s.spawn(worker))
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("parallel worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item is mapped"))
        .collect()
}

/// A pool of `workers` threads that run one job each per round, in
/// lockstep — see [`lockstep`].
pub(crate) struct Lockstep<'w, I, O> {
    work: &'w (dyn Fn(usize, I) -> O + Sync),
    /// One job channel per worker thread; empty when the pool runs its
    /// single worker inline on the caller's thread.
    lanes: Vec<mpsc::Sender<I>>,
    done: mpsc::Receiver<(usize, std::thread::Result<O>)>,
}

impl<I, O> Lockstep<'_, I, O> {
    /// Runs `work(i, inputs[i])` for every input — input `i` on worker
    /// `i`, all at once — and returns the outputs in input order when the
    /// last one finishes. A panic in a worker is re-raised here, on the
    /// caller's thread, once the round's other workers are done.
    ///
    /// # Panics
    ///
    /// Panics if there are more inputs than workers, or re-raises a
    /// worker's panic.
    pub(crate) fn round(&mut self, inputs: Vec<I>) -> Vec<O> {
        if self.lanes.is_empty() {
            assert!(inputs.len() <= 1, "more inputs than workers");
            return inputs.into_iter().map(|x| (self.work)(0, x)).collect();
        }
        assert!(inputs.len() <= self.lanes.len(), "more inputs than workers");
        let count = inputs.len();
        for (lane, input) in self.lanes.iter().zip(inputs) {
            lane.send(input).expect("workers live as long as the pool");
        }
        let mut outputs: Vec<Option<O>> = (0..count).map(|_| None).collect();
        let mut panicked = None;
        for _ in 0..count {
            let (i, output) = self.done.recv().expect("every worker answers");
            match output {
                Ok(o) => outputs[i] = Some(o),
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        outputs
            .into_iter()
            .map(|o| o.expect("one output per input"))
            .collect()
    }
}

/// Runs `body` with a pool of `workers` threads that each execute `work`
/// on the inputs of [`Lockstep::round`]. Worker `i` is the same thread in
/// every round, so per-thread state (and per-thread accounting, such as
/// CPU clocks) follows one actor for the whole call. One worker runs
/// inline on the caller's thread and spawns nothing.
///
/// The workers block on their job channels between rounds (no spinning),
/// and exit when `body` returns or unwinds; the call returns after they
/// have all been joined.
pub(crate) fn lockstep<I: Send, O: Send, R>(
    workers: usize,
    work: impl Fn(usize, I) -> O + Sync,
    body: impl FnOnce(&mut Lockstep<'_, I, O>) -> R,
) -> R {
    let (done_tx, done) = mpsc::channel();
    if workers <= 1 {
        return body(&mut Lockstep {
            work: &work,
            lanes: Vec::new(),
            done,
        });
    }
    let work = &work;
    std::thread::scope(|s| {
        let lanes = (0..workers)
            .map(|i| {
                let (lane, jobs) = mpsc::channel::<I>();
                let done_tx = done_tx.clone();
                s.spawn(move || {
                    for input in jobs {
                        // Caught so the caller re-raises it instead of
                        // waiting forever for this worker's output.
                        let output = std::panic::catch_unwind(AssertUnwindSafe(|| work(i, input)));
                        if done_tx.send((i, output)).is_err() {
                            break;
                        }
                    }
                });
                lane
            })
            .collect();
        drop(done_tx);
        body(&mut Lockstep { work, lanes, done })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentConfig, TrainLoop};
    use crate::cache::CachedEvaluator;
    use crate::experiment::{CallbackObserver, CancelToken, Event, Experiment, RunRecord, Weights};
    use crate::task::{Adder, TaskEvaluator};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn run(cfg: &AgentConfig, evaluator: Arc<dyn Evaluator>, actors: usize) -> RunRecord {
        let mut cfg = cfg.clone();
        cfg.actors = actors;
        TrainLoop::run(&cfg, evaluator)
    }

    /// Input `i` runs on worker `i`, the same thread every round, and the
    /// outputs come back in input order; a short last round uses the
    /// first workers only.
    #[test]
    fn lockstep_rounds_pin_inputs_to_workers_in_order() {
        let caller = std::thread::current().id();
        let threads = lockstep(
            3,
            |i, x: usize| (i, x * 10, std::thread::current().id()),
            |pool| {
                let first = pool.round(vec![1, 2, 3]);
                let second = pool.round(vec![4, 5, 6]);
                let short = pool.round(vec![7]);
                assert_eq!(
                    first.iter().map(|o| (o.0, o.1)).collect::<Vec<_>>(),
                    [(0, 10), (1, 20), (2, 30)]
                );
                assert_eq!(second.iter().map(|o| o.1).collect::<Vec<_>>(), [40, 50, 60]);
                assert_eq!(short[0].2, first[0].2, "worker 0 changed thread");
                first
                    .iter()
                    .zip(&second)
                    .for_each(|(a, b)| assert_eq!(a.2, b.2));
                first.into_iter().map(|o| o.2).collect::<Vec<_>>()
            },
        );
        let distinct: std::collections::HashSet<_> = threads.iter().collect();
        assert_eq!(distinct.len(), 3);
        assert!(!threads.contains(&caller));
        // One worker runs inline on the caller's thread.
        let inline = lockstep(
            1,
            |_, _: ()| std::thread::current().id(),
            |p| p.round(vec![()]),
        );
        assert_eq!(inline, [caller]);
    }

    #[test]
    fn async_training_completes_and_harvests() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 400;
        let eval = Arc::new(CachedEvaluator::new(TaskEvaluator::analytical(Adder)));
        let result = run(&cfg, eval.clone(), 3);
        assert_eq!(result.steps, 400);
        assert!(
            result.designs.len() > 20,
            "{} designs",
            result.designs.len()
        );
        assert!(!result.losses.is_empty(), "learner never trained");
        for (g, _) in &result.designs {
            g.verify_legal().unwrap();
        }
        // Actors share the cache: repeated start states must hit.
        assert!(eval.store().hits() > 0);
        // Every actor's finished episodes are recorded.
        assert!(!result.episode_returns.is_empty());
    }

    #[test]
    fn async_and_serial_explore_comparable_design_counts() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 300;
        let serial = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)), 1);
        let parallel = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)), 2);
        // Same step budget → same order of magnitude of distinct designs.
        let (a, b) = (serial.designs.len() as f64, parallel.designs.len() as f64);
        assert!(a / b < 4.0 && b / a < 4.0, "serial {a} vs parallel {b}");
    }

    /// The coordinator trains on the one-actor schedule: one gradient step
    /// whenever the global step index is a multiple of `train_every`, once
    /// the replay holds `min_replay` (none at 0). Transitions enter the
    /// replay in step order whatever the actor count, so every count takes
    /// the same number of gradient steps.
    #[test]
    fn async_learner_takes_the_serial_number_of_gradient_steps() {
        for train_every in [0u64, 1, 4, 16] {
            let mut cfg = AgentConfig::tiny(8, 0.5);
            cfg.total_steps = 300;
            cfg.train_every = train_every;
            let expected = if train_every == 0 {
                0
            } else {
                // Step `s` trains once `s + 1` transitions fill `min_replay`.
                (0..cfg.total_steps)
                    .filter(|s| s % train_every == 0 && s + 1 >= cfg.dqn.min_replay as u64)
                    .count()
            };
            for actors in [1, 3] {
                let record = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)), actors);
                assert_eq!(
                    record.losses.len(),
                    expected,
                    "train_every {train_every}, {actors} actor(s)"
                );
            }
        }
    }

    /// A 3-actor run is deterministic by construction: the coordinator
    /// draws every random number and pushes transitions in actor order, so
    /// two runs agree **bitwise** — steps, losses, episode returns, design
    /// keys and points — however the actor threads are scheduled.
    #[test]
    fn three_actor_run_repeats_bitwise() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 240;
        let [a, b] = [(); 2].map(|_| run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)), 3));
        assert_eq!(a.steps, 240);
        assert_eq!(a.steps, b.steps);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(!a.episode_returns.is_empty());
        assert_eq!(
            bits(&a.episode_returns),
            bits(&b.episode_returns),
            "episode returns diverged"
        );
        let loss_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(!a.losses.is_empty());
        assert_eq!(
            loss_bits(&a.losses),
            loss_bits(&b.losses),
            "losses diverged"
        );
        assert_eq!(a.designs.len(), b.designs.len(), "design pools diverged");
        for ((ga, pa), (gb, pb)) in a.designs.iter().zip(&b.designs) {
            assert_eq!(ga.canonical_key(), gb.canonical_key());
            assert_eq!(
                (pa.area.to_bits(), pa.delay.to_bits()),
                (pb.area.to_bits(), pb.delay.to_bits())
            );
        }
    }

    /// Serve-shutdown audit (DESIGN.md §13): a panic inside a multi-actor
    /// run must propagate out of it, not hang it. An evaluator panic on an
    /// actor thread is caught by the pool and re-raised on the
    /// coordinator, whose unwind closes the other actors' job channels;
    /// they exit, the scope joins them, and the panic reaches the caller.
    /// (A panic on the coordinator itself — its reset scoring — takes the
    /// same unwind.) Pinned with a watchdog.
    #[test]
    fn evaluator_panic_propagates_instead_of_hanging() {
        struct PanicAfter {
            calls: AtomicU64,
        }
        impl Evaluator for PanicAfter {
            fn evaluate(&self, graph: &PrefixGraph) -> ObjectivePoint {
                if self.calls.fetch_add(1, Ordering::SeqCst) >= 20 {
                    panic!("synthetic oracle failure");
                }
                ObjectivePoint {
                    area: graph.size() as f64,
                    delay: graph.depth() as f64,
                }
            }
            fn name(&self) -> &str {
                "panic-after"
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut cfg = AgentConfig::tiny(8, 0.5);
                cfg.total_steps = 100_000;
                let evaluator = Arc::new(PanicAfter {
                    calls: AtomicU64::new(0),
                });
                run(&cfg, evaluator, 3)
            }));
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("multi-actor run hung after an actor panic");
        assert!(panicked, "the panic must propagate to the caller");
    }

    /// Serve-shutdown audit (DESIGN.md §13): a `ChannelObserver` whose
    /// receiver is dropped mid-run must not stall training. The observer
    /// sends with `let _ =`, and the compat channel's `send` returns an
    /// error (rather than blocking) once the receiver is gone — even for
    /// senders already blocked on a full channel — so events are dropped
    /// and the run finishes.
    #[test]
    fn observer_receiver_dropped_mid_run_does_not_stall() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 300;
        cfg.actors = 3;
        // Capacity 1: without the disconnect-errors guarantee the very
        // first unconsumed event after the drop would block forever.
        let (mut observer, rx) = crate::experiment::ChannelObserver::bounded(1);
        let (tx, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut lp = TrainLoop::new(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
            lp.run_to_completion(0, &mut observer);
            let _ = tx.send(lp.into_parts(0).1);
        });
        // Consume one event to prove the stream was live, then hang up
        // (the compat receiver has no recv_timeout; poll with a deadline).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if rx.try_recv().is_ok() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no event ever arrived"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(rx);
        let record = done
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run stalled after the observer receiver was dropped");
        assert_eq!(record.steps, 300);
    }

    /// A cancel stops a 3-actor run at the next round boundary, where it
    /// checkpoints like a halt: the report keeps the partial record.
    #[test]
    fn cancel_token_stops_async_run_with_partial_record() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 1_000_000; // far beyond what a test should run
        let token = CancelToken::new();
        let cancel_at = 300u64;
        let canceller = token.clone();
        let observer = &mut CallbackObserver::new(move |_, e| {
            if let Event::Step { step, .. } = e {
                if *step >= cancel_at {
                    canceller.cancel();
                }
            }
        });
        let result = Experiment::builder()
            .weights(Weights::single(0.5))
            .base_config(cfg.clone())
            .actors(3)
            .cancel_token(token)
            .build()
            .run(observer)
            .unwrap();
        assert!(!result.completed);
        let record = &result.records[0];
        // Step 300's event fires the cancel inside round 300..303; the run
        // stops at the boundary after it.
        assert_eq!(record.steps, 303, "cancel not within one round");
        assert!(!record.designs.is_empty(), "partial pool must survive");
    }

    fn mixed_graphs(n: u16) -> Vec<PrefixGraph> {
        vec![
            PrefixGraph::ripple(n),
            prefix_graph::structures::sklansky(n),
            prefix_graph::structures::kogge_stone(n),
            prefix_graph::structures::brent_kung(n),
            prefix_graph::structures::han_carlson(n),
        ]
    }

    #[test]
    fn evaluate_batch_matches_serial() {
        let graphs = mixed_graphs(8);
        let ev = TaskEvaluator::analytical(Adder);
        let parallel = evaluate_batch(&graphs, &ev, 4);
        let serial: Vec<ObjectivePoint> = graphs.iter().map(|g| ev.evaluate(g)).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn evaluate_batch_single_thread_ok() {
        let graphs = vec![PrefixGraph::ripple(8)];
        let out = evaluate_batch(&graphs, &TaskEvaluator::analytical(Adder), 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn evaluate_batch_empty_spawns_nothing() {
        let out = evaluate_batch(&[], &TaskEvaluator::analytical(Adder), 8);
        assert!(out.is_empty());
    }

    #[test]
    fn evaluate_batch_more_threads_than_graphs() {
        let graphs = mixed_graphs(8);
        let out = evaluate_batch(&graphs, &TaskEvaluator::analytical(Adder), 64);
        assert_eq!(out.len(), graphs.len());
        assert!(out.iter().all(|p| p.area.is_finite()));
    }

    /// Serve-shutdown audit (DESIGN.md §13): dropping an evaluator handle
    /// while a clone still has a batch in flight must neither hang nor
    /// lose results. `evaluate_batch` holds no threads or queues of its
    /// own — its workers are scoped to the call — so the in-flight batch
    /// completes on the clone and the drop is inert.
    #[test]
    fn drop_with_inflight_batch_completes() {
        struct Slow;
        impl Evaluator for Slow {
            fn evaluate(&self, graph: &PrefixGraph) -> ObjectivePoint {
                std::thread::sleep(std::time::Duration::from_millis(20));
                ObjectivePoint {
                    area: graph.size() as f64,
                    delay: graph.depth() as f64,
                }
            }
            fn name(&self) -> &str {
                "slow"
            }
        }
        let evaluator = Arc::new(CachedEvaluator::new(Slow));
        let clone = Arc::clone(&evaluator);
        let graphs = mixed_graphs(8);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn({
            let graphs = graphs.clone();
            move || {
                let _ = tx.send(evaluate_batch(&graphs, &*clone, 4));
            }
        });
        drop(evaluator); // the original handle dies mid-batch
        let results = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("in-flight batch lost after handle drop");
        worker.join().unwrap();
        assert_eq!(results.len(), graphs.len());
        assert!(results.iter().all(|p| p.area.is_finite()));
    }

    #[test]
    fn evaluate_batch_shares_cache_across_calls() {
        let cache = CachedEvaluator::new(TaskEvaluator::analytical(Adder));
        let graphs = mixed_graphs(8);
        let first = evaluate_batch(&graphs, &cache, 4);
        let second = evaluate_batch(&graphs, &cache, 4);
        assert_eq!(first, second);
        assert_eq!(cache.store().misses(), graphs.len() as u64);
        assert!(cache.store().hits() >= graphs.len() as u64);
    }
}
