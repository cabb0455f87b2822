//! Checkpoint save/resume for training runs and weight sweeps.
//!
//! A [`Checkpoint`] captures *everything* [`crate::agent::TrainLoop`] needs
//! to continue bit-identically from a round boundary: both network
//! parameter sets, the Adam moments, the replay buffer (its transitions'
//! state keys, ring cursor and push counter), the raw RNG state, the
//! ε-schedule position (the step counter), every actor's mid-episode
//! environment state, and the harvested design pool. A
//! [`SweepCheckpoint`] aggregates per-agent states for a multi-weight
//! [`crate::experiment::Experiment`], so a killed sweep restarts exactly
//! where it stopped: finished agents are restored from their records,
//! in-progress agents resume from their checkpoints, and pending agents
//! start fresh.
//!
//! Checkpoints serialize as JSON through the workspace serde shim. `f32`/
//! `f64` values round-trip bit-identically (shortest-representation float
//! formatting), which the resume-determinism tests rely on.

use crate::agent::AgentConfig;
use crate::evaluator::ObjectivePoint;
use crate::experiment::RunRecord;
use nn::AdamState;
use prefix_graph::PrefixGraph;
use rl::{ReplayBuffer, TrainerState};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One actor's mid-episode state inside a [`Checkpoint`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ActorState {
    /// The actor's current prefix graph.
    pub graph: PrefixGraph,
    /// Steps already taken in its current episode.
    pub steps: u64,
    /// Scalarized return accumulated in its current episode.
    pub episode_return: f64,
}

/// A complete snapshot of one agent's training state between two rounds.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`Checkpoint::FORMAT_VERSION`]); loads reject others.
    pub version: u32,
    /// The agent configuration the run was started with.
    pub cfg: AgentConfig,
    /// Environment steps executed so far.
    pub step: u64,
    /// Online/target parameters and the gradient-step counter.
    pub trainer: TrainerState,
    /// Adam moments + step counter of the online network's optimizer.
    pub opt: AdamState,
    /// The replay buffer of state keys, including ring cursor and push
    /// counter.
    pub replay: ReplayBuffer,
    /// Raw RNG state (xoshiro256** words).
    pub rng: [u64; 4],
    /// Every actor's environment state, in actor order (`cfg.actors`
    /// entries).
    pub actors: Vec<ActorState>,
    /// The design pool harvested so far (canonical-key order).
    pub designs: Vec<(PrefixGraph, ObjectivePoint)>,
    /// Per-gradient-step losses so far.
    pub losses: Vec<f32>,
    /// Completed-episode returns so far.
    pub episode_returns: Vec<f64>,
    /// FNV-1a digest of the online parameters, checked on load.
    pub net_digest: u64,
}

impl Checkpoint {
    /// The current checkpoint format version. v4 stores replay states as
    /// the graphs' canonical keys instead of feature tensors and masks; v3
    /// holds one environment state per actor (`actors`, with
    /// `cfg.actors`); v2 added the circuit-task fields (`cfg.env.task`,
    /// `SweepCheckpoint::task`). Older files are refused by version.
    pub const FORMAT_VERSION: u32 = 4;

    /// Validates version, online-parameter digest, the actor count and
    /// every replay transition, decoding each state key once.
    ///
    /// # Errors
    ///
    /// Fails on a version mismatch, a digest mismatch, a number of actor
    /// states other than `cfg.actors`, or a replay key that is no legal
    /// `cfg.env.n`-bit graph's or an action outside the action space
    /// (corruption).
    pub fn validate(&self) -> Result<(), String> {
        check_version("checkpoint", self.version)?;
        let digest = nn::serialize::digest(&self.trainer.online);
        if digest != self.net_digest {
            return Err(format!(
                "checkpoint digest mismatch: stored {:#x}, computed {digest:#x} (corrupt file?)",
                self.net_digest
            ));
        }
        if self.actors.len() != self.cfg.actors {
            return Err(format!(
                "checkpoint holds {} actor states for {} actors (corrupt file?)",
                self.actors.len(),
                self.cfg.actors
            ));
        }
        let n = self.cfg.env.n;
        let actions = 2 * n as usize * n as usize;
        for (i, t) in self.replay.iter().enumerate() {
            for key in [&t.state, &t.next_state] {
                let g = PrefixGraph::from_canonical_key(key)
                    .map_err(|e| format!("replay transition {i}: {e} (corrupt file?)"))?;
                if g.n() != n {
                    return Err(format!(
                        "replay transition {i}: a {}-bit state in a {n}-bit run (corrupt file?)",
                        g.n()
                    ));
                }
            }
            if t.action >= actions {
                return Err(format!(
                    "replay transition {i}: action {} outside the {actions}-action space \
                     (corrupt file?)",
                    t.action
                ));
            }
        }
        Ok(())
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        to_pretty_json(self)
    }

    /// Parses and validates a checkpoint from JSON.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, shape mismatch, or failed validation.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let ckpt: Checkpoint = from_json_str("checkpoint", s)?;
        ckpt.validate()?;
        Ok(ckpt)
    }
}

/// The state of one agent inside a sweep checkpoint.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum RunState {
    /// Not started yet; resumes as a fresh run.
    Pending,
    /// Mid-run; resumes from the embedded checkpoint.
    InProgress(Box<Checkpoint>),
    /// Finished; restored from the embedded record without re-running.
    Done(RunRecord),
}

/// A checkpoint of an entire multi-agent sweep: one [`RunState`] per
/// configured weight, in run order, stamped with the circuit task it was
/// recorded for (resume refuses a task mismatch).
#[derive(Clone, Debug, Deserialize)]
pub struct SweepCheckpoint {
    /// Format version (shared with [`Checkpoint::FORMAT_VERSION`]).
    pub version: u32,
    /// The circuit task's stable id
    /// ([`crate::task::CircuitTask::task_id`]).
    pub task: String,
    /// Per-run states, indexed by run id.
    pub runs: Vec<RunState>,
}

impl SweepCheckpoint {
    /// An all-pending sweep checkpoint for `n` runs of task `task_id`.
    pub fn fresh(task_id: &str, n: usize) -> Self {
        SweepCheckpoint {
            version: Checkpoint::FORMAT_VERSION,
            task: task_id.to_string(),
            runs: (0..n).map(|_| RunState::Pending).collect(),
        }
    }

    /// How many runs have finished.
    pub fn completed_runs(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| matches!(r, RunState::Done(_)))
            .count()
    }

    /// Validates version and every embedded per-agent checkpoint.
    ///
    /// # Errors
    ///
    /// Fails when the sweep or any embedded checkpoint fails validation.
    pub fn validate(&self) -> Result<(), String> {
        check_version("sweep checkpoint", self.version)?;
        for (i, run) in self.runs.iter().enumerate() {
            if let RunState::InProgress(ckpt) = run {
                ckpt.validate().map_err(|e| format!("run {i}: {e}"))?;
                if ckpt.cfg.env.task != self.task {
                    return Err(format!(
                        "run {i}: embedded checkpoint is for task `{}` but the \
                         sweep is stamped `{}` (corrupt or hand-edited file?)",
                        ckpt.cfg.env.task, self.task
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        let runs = self.runs.iter().map(Serialize::to_value).collect();
        sweep_json(self.version, &self.task, runs)
    }

    /// Parses and validates a sweep checkpoint from JSON.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, shape mismatch, or failed validation.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let ckpt: SweepCheckpoint = from_json_str("sweep checkpoint", s)?;
        ckpt.validate()?;
        Ok(ckpt)
    }

    /// Writes the sweep checkpoint to `path` (atomically via a sibling
    /// temp file, so a crash mid-write never corrupts the previous one).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        write_atomic(path, &self.to_json())
    }

    /// Loads and validates a sweep checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, malformed JSON, or failed validation.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }
}

fn to_pretty_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("value-tree serialization is infallible")
}

/// The sweep file's text: `version`, `task`, then the encoded run states.
/// [`SweepCheckpoint::to_json`] and the experiment's periodic persist,
/// which encodes its live run slots without cloning them into a
/// [`SweepCheckpoint`], both write through it.
pub(crate) fn sweep_json(version: u32, task: &str, runs: Vec<serde::Value>) -> String {
    to_pretty_json(&serde::Value::Object(vec![
        ("version".to_string(), version.to_value()),
        ("task".to_string(), task.to_value()),
        ("runs".to_string(), serde::Value::Array(runs)),
    ]))
}

/// Refuses a `what` of any format but [`Checkpoint::FORMAT_VERSION`],
/// naming both versions.
fn check_version(what: &str, version: u32) -> Result<(), String> {
    if version != Checkpoint::FORMAT_VERSION {
        return Err(format!(
            "{what} format v{version} unsupported (expected v{})",
            Checkpoint::FORMAT_VERSION
        ));
    }
    Ok(())
}

/// Parses a `what` from JSON, checking its `version` before its shape, so
/// a file of another format is refused by version rather than by the
/// first field that changed.
fn from_json_str<T: Deserialize>(what: &str, s: &str) -> Result<T, String> {
    let value: serde::Value = serde_json::from_str(s)?;
    let version = value
        .get("version")
        .ok_or_else(|| format!("{what} has no format version"))?;
    check_version(what, u32::from_value(version)?)?;
    T::from_value(&value)
}

/// Writes `contents` to `path` via a uniquely named sibling temp file +
/// rename, creating parent directories as needed (shared by checkpoint,
/// sweep, and frontier-store persists).
///
/// The temp name *appends* to the full file name (it never replaces the
/// extension) and embeds the pid plus a process-wide counter. With the
/// historical `path.with_extension("tmp")` scheme, two writers whose paths
/// differed only in extension (`a.json` vs `a.ckpt`), or two jobs
/// checkpointing the same stem concurrently, shared one temp path: each
/// could overwrite the other's half-written bytes and then rename the
/// rival's file into place. Unique temp names make concurrent writers to
/// *different* destinations fully independent; concurrent writers to the
/// *same* destination each rename a complete file (last rename wins).
///
/// # Errors
///
/// Fails on I/O errors or a path with no file name.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
    }
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| format!("cannot write {}: path has no file name", path.display()))?
        .to_os_string();
    tmp_name.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        // Leave no orphaned temp behind a failed rename.
        let _ = std::fs::remove_file(&tmp);
        format!("rename to {}: {e}", path.display())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::TrainLoop;
    use crate::evaluator::Evaluator;
    use crate::experiment::NullObserver;
    use crate::task::Adder;
    use std::sync::Arc;

    fn mid_run_checkpoint() -> Checkpoint {
        let cfg = AgentConfig::tiny(8, 0.4);
        let mut lp = TrainLoop::new(&cfg, Arc::new(Evaluator::analytical(Adder)));
        for _ in 0..120 {
            lp.step_round(0, &mut NullObserver);
        }
        lp.checkpoint()
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let ckpt = mid_run_checkpoint();
        let json = ckpt.to_json();
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(back.step, ckpt.step);
        assert_eq!(back.rng, ckpt.rng);
        assert_eq!(back.trainer.online, ckpt.trainer.online);
        assert_eq!(back.trainer.target, ckpt.trainer.target);
        assert_eq!(back.trainer.grad_steps, ckpt.trainer.grad_steps);
        assert_eq!(back.opt.t, ckpt.opt.t);
        assert_eq!(back.opt.m, ckpt.opt.m);
        assert_eq!(back.opt.v, ckpt.opt.v);
        assert_eq!(back.replay.len(), ckpt.replay.len());
        assert_eq!(back.replay.total_pushed(), ckpt.replay.total_pushed());
        assert!(
            back.replay.iter().eq(ckpt.replay.iter()),
            "replay keys, actions or rewards changed"
        );
        assert_eq!(back.losses, ckpt.losses);
        assert_eq!(back.designs.len(), ckpt.designs.len());
        assert_eq!(back.actors.len(), ckpt.actors.len());
        for (a, b) in back.actors.iter().zip(&ckpt.actors) {
            assert_eq!(a.graph.canonical_key(), b.graph.canonical_key());
            assert_eq!((a.steps, a.episode_return), (b.steps, b.episode_return));
        }
    }

    #[test]
    fn corrupted_checkpoint_rejected() {
        let mut ckpt = mid_run_checkpoint();
        ckpt.trainer.online[0][0] += 1.0;
        let err = Checkpoint::from_json(&ckpt.to_json()).unwrap_err();
        assert!(err.contains("digest"), "{err}");
        let mut wrong_version = mid_run_checkpoint();
        wrong_version.version = 99;
        let err = Checkpoint::from_json(&wrong_version.to_json()).unwrap_err();
        assert!(err.contains("format"), "{err}");
    }

    /// The object field `key` of `v`, mutably.
    fn field<'a>(v: &'a mut serde::Value, key: &str) -> &'a mut serde::Value {
        match v {
            serde::Value::Object(entries) => {
                &mut entries.iter_mut().find(|(k, _)| k == key).expect(key).1
            }
            other => panic!("expected an object around `{key}`, got {other:?}"),
        }
    }

    /// The replay's stored transitions in a checkpoint's value tree.
    fn transitions(v: &mut serde::Value) -> &mut Vec<serde::Value> {
        match field(field(v, "replay"), "storage") {
            serde::Value::Array(items) => items,
            other => panic!("expected the replay storage array, got {other:?}"),
        }
    }

    #[test]
    fn v3_file_is_refused_naming_both_versions() {
        // A v3 replay held feature tensors and a next-state mask; the
        // version, checked before the shape, names the mismatch.
        let mut v = mid_run_checkpoint().to_value();
        *field(&mut v, "version") = 3u32.to_value();
        for t in transitions(&mut v) {
            *field(t, "state") = vec![0.5f32; 4 * 64].to_value();
            *field(t, "next_state") = vec![0.25f32; 4 * 64].to_value();
            if let serde::Value::Object(entries) = t {
                entries.push(("next_mask".to_string(), vec![true; 2 * 64].to_value()));
            }
        }
        let json = serde_json::to_string_pretty(&v).unwrap();
        let err = Checkpoint::from_json(&json).unwrap_err();
        assert!(err.contains("v3") && err.contains("v4"), "{err}");
        let mut sweep = SweepCheckpoint::fresh("adder", 1);
        sweep.version = 3;
        let err = SweepCheckpoint::from_json(&sweep.to_json()).unwrap_err();
        assert!(err.contains("v3") && err.contains("v4"), "{err}");
    }

    #[test]
    fn flipped_replay_key_bit_fails_at_load() {
        let ckpt = mid_run_checkpoint();
        // Flip one key word bit of transition 5: the (0, 0) input's (no
        // legal graph lacks it) or one above the diagonal, (2, 5).
        for (which, bit) in [("state", 0), ("next_state", 2 * 8 + 5)] {
            let mut v = ckpt.to_value();
            let serde::Value::Array(key) = field(&mut transitions(&mut v)[5], which) else {
                panic!("{which} is not a word array");
            };
            let word = &mut key[1];
            let flipped = u64::from_value(word).unwrap() ^ (1 << bit);
            *word = flipped.to_value();
            let err = Checkpoint::from_json(&serde_json::to_string(&v).unwrap()).unwrap_err();
            assert!(err.contains("replay transition 5"), "{which}: {err}");
        }
    }

    #[test]
    fn file_roundtrip_and_atomic_write() {
        let dir = std::env::temp_dir().join("prefixrl-ckpt-test");
        let path = dir.join("sweep.ckpt.json");
        let mut sweep = SweepCheckpoint::fresh("adder", 2);
        sweep.runs[1] = RunState::InProgress(Box::new(mid_run_checkpoint()));
        sweep.save(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), sweep.to_json());
        let back = SweepCheckpoint::load(&path).unwrap();
        assert!(matches!(back.runs[0], RunState::Pending));
        match &back.runs[1] {
            RunState::InProgress(c) => assert_eq!(c.step, 120),
            other => panic!("expected InProgress, got {}", variant_name(other)),
        }
        assert_no_temp_files(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn assert_no_temp_files(dir: &Path) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "temp file left behind: {name:?}"
            );
        }
    }

    /// Regression test for the shared-temp-name clobber: two threads
    /// persisting `a.json` and `a.ckpt` side by side. Under the old
    /// `with_extension("tmp")` scheme both writers raced on one `a.tmp`,
    /// so a writer could rename the rival's (possibly half-written) bytes
    /// into its own destination; with unique sibling temp names every
    /// read-back must see exactly the writer's own last contents.
    #[test]
    fn concurrent_writers_with_shared_stem_never_clobber() {
        let dir = std::env::temp_dir().join(format!(
            "prefixrl-atomic-stress-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::thread::scope(|s| {
            for name in ["a.json", "a.ckpt"] {
                let path = dir.join(name);
                s.spawn(move || {
                    for i in 0..400 {
                        let body = format!("{{\"file\":\"{name}\",\"i\":{i}}}");
                        write_atomic(&path, &body).unwrap();
                        let back = std::fs::read_to_string(&path).unwrap();
                        assert_eq!(
                            back, body,
                            "{name}: write {i} clobbered by the sibling writer"
                        );
                    }
                });
            }
        });
        assert_no_temp_files(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_checkpoint_roundtrip() {
        let mut sweep = SweepCheckpoint::fresh("adder", 3);
        sweep.runs[1] = RunState::InProgress(Box::new(mid_run_checkpoint()));
        sweep.runs[2] = RunState::Done(RunRecord {
            run: 2,
            w_area: 0.9,
            steps: 300,
            designs: Vec::new(),
            losses: vec![0.5, 0.25],
            episode_returns: vec![1.0],
        });
        assert_eq!(sweep.completed_runs(), 1);
        let back = SweepCheckpoint::from_json(&sweep.to_json()).unwrap();
        assert_eq!(back.runs.len(), 3);
        assert!(matches!(back.runs[0], RunState::Pending));
        match &back.runs[1] {
            RunState::InProgress(c) => assert_eq!(c.step, 120),
            other => panic!("expected InProgress, got {}", variant_name(other)),
        }
        match &back.runs[2] {
            RunState::Done(r) => {
                assert_eq!(r.losses, vec![0.5, 0.25]);
                assert_eq!(r.w_area, 0.9);
            }
            other => panic!("expected Done, got {}", variant_name(other)),
        }
    }

    fn variant_name(r: &RunState) -> &'static str {
        match r {
            RunState::Pending => "Pending",
            RunState::InProgress(_) => "InProgress",
            RunState::Done(_) => "Done",
        }
    }
}
