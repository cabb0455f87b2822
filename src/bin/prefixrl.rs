//! The `prefixrl` command-line tool: train agents, sweep weight schedules,
//! evaluate and render prefix-adder designs, and export Verilog, without
//! writing any code.
//!
//! ```text
//! prefixrl structures --n 32                         # survey regular adders
//! prefixrl train --n 8 --w 0.5 --steps 2000          # train one agent
//! prefixrl sweep --n 8 --weights 5 --steps 300       # 5-agent weight sweep
//! prefixrl eval --structure sklansky --n 32 --lib tech8
//! prefixrl render --structure brent_kung --n 16 --dot
//! prefixrl verilog --structure kogge_stone --n 16 --target 0.3
//! ```
//!
//! `train` and `sweep` are both [`Experiment`] sessions: they share the
//! evaluation stack, the checkpoint format (`--checkpoint` /
//! `--checkpoint-every` / `--resume`), and the `prefixrl.experiment.v1`
//! JSON report schema (DESIGN.md §10).

use prefixrl::prelude::*;
use prefixrl_serve::{Client, JobSpec, Query, Router, ServeConfig, Server, Topology};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The default serve/client address of the `prefixrl.serve.v1` socket.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7878";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        return;
    };
    let opts = parse_opts(rest);
    if let Some(flags) = flags_of(cmd) {
        reject_unknown_flags(cmd, &opts, flags);
    }
    match cmd.as_str() {
        "structures" => cmd_structures(&opts),
        "train" => cmd_train(&opts),
        "sweep" => cmd_sweep(&opts),
        "eval" => cmd_eval(&opts),
        "render" => cmd_render(&opts),
        "verilog" => cmd_verilog(&opts),
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "status" => cmd_status(&opts),
        "cancel" => cmd_cancel(&opts),
        "frontier" => cmd_frontier(&opts),
        "query" => cmd_query(&opts),
        "shutdown" => cmd_shutdown(&opts),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown command `{other}`");
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "prefixrl — deep-RL prefix-adder design (PrefixRL, DAC 2021 reproduction)\n\
         \n\
         COMMANDS (each accepts --help for its full option list)\n\
         \x20 structures   survey the regular adder structures\n\
         \x20 train        train one PrefixRL agent and report its Pareto frontier\n\
         \x20 sweep        train one agent per scalarization weight over a shared\n\
         \x20              evaluation cache and merge their fronts (paper Fig. 4)\n\
         \x20 eval         synthesize a structure across delay targets\n\
         \x20 render       draw a prefix graph (ASCII, or Graphviz with --dot)\n\
         \x20 verilog      emit (optionally timing-optimized) structural Verilog\n\
         \n\
         SERVICE (prefixrl.serve.v1 over a local TCP socket, DESIGN.md §13)\n\
         \x20 serve        run the resident multi-job optimization service\n\
         \x20 submit       enqueue a sweep job on a running server\n\
         \x20 status       one job's status (--id) or the full job list\n\
         \x20 cancel       cancel a queued or running job\n\
         \x20 frontier     fetch the stored merged front of a (task, backend, n) key\n\
         \x20 query        best-at-delay / best-at-weight / delay-range lookups\n\
         \x20              against the server's lock-free read snapshot\n\
         \x20 shutdown     ask the server to stop gracefully"
    );
}

/// Flags shared by `train` and `sweep` (see [`session_options_help`]).
const SESSION_FLAGS: &str = "steps seed task backend lib actors eval-threads checkpoint \
     checkpoint-every resume halt-at progress json out";
/// Flags of the sweep weight schedule (see [`parse_weights`]).
const WEIGHT_FLAGS: &str = "weights w-min w-max w-list";
/// Flags of client commands that may route through a cluster (see
/// [`cluster_router`]).
const CLIENT_FLAGS: &str = "addr peers replicas task backend n";

/// Every flag a subcommand documents in its `--help`, as space-separated
/// groups; `None` for an unknown command.
fn flags_of(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "structures" => &["n lib"],
        "train" => &["n w", SESSION_FLAGS],
        "sweep" => &["n", WEIGHT_FLAGS, SESSION_FLAGS],
        "eval" => &["structure n targets lib"],
        "render" => &["structure n dot"],
        "verilog" => &["structure n target lib"],
        "serve" => &[
            "addr workers queue-capacity eval-threads event-tail state-dir compact-every \
             shard-id peers replicas",
        ],
        "submit" => &[CLIENT_FLAGS, WEIGHT_FLAGS, "steps seed"],
        "status" => &["addr id tail"],
        "cancel" => &["addr id"],
        "frontier" => &[CLIENT_FLAGS],
        "query" => &[CLIENT_FLAGS, "at-delay at-weight range include-graph"],
        "shutdown" => &["addr"],
        _ => return None,
    })
}

/// Exits 2 on a flag `cmd` does not document: a typo such as `--stepz`
/// would otherwise be ignored and the run would silently use a default.
fn reject_unknown_flags(cmd: &str, opts: &HashMap<String, String>, groups: &[&str]) {
    let valid: Vec<&str> = groups.iter().flat_map(|g| g.split_whitespace()).collect();
    let unknown = opts
        .keys()
        .filter(|k| !valid.contains(&k.as_str()) && !["help", "h", "-h"].contains(&k.as_str()))
        .min();
    if let Some(first) = unknown {
        eprintln!(
            "error: unknown option `--{first}` for `prefixrl {cmd}` (valid: --{})",
            valid.join(", --")
        );
        std::process::exit(2);
    }
}

fn wants_help(opts: &HashMap<String, String>) -> bool {
    opts.contains_key("help") || opts.contains_key("-h") || opts.contains_key("h")
}

fn parse_opts(rest: &[String]) -> HashMap<String, String> {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i].trim_start_matches("--").to_string();
        if i + 1 < rest.len() && !rest[i + 1].starts_with("--") {
            opts.insert(key, rest[i + 1].clone());
            i += 2;
        } else {
            opts.insert(key, "true".to_string());
            i += 1;
        }
    }
    opts
}

/// Parses `--key value`, exiting with a clear diagnostic on a malformed
/// value (a silent fallback to the default would mask typos like
/// `--steps abc`).
fn get<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: T) -> T {
    match opts.get(key) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!(
                "error: invalid value `{raw}` for --{key} (expected {})",
                friendly_type_name::<T>()
            );
            std::process::exit(2);
        }),
    }
}

/// Like [`get`] but with no default: `None` when the flag is absent.
fn get_opt<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str) -> Option<T> {
    opts.get(key).map(|raw| {
        raw.parse().unwrap_or_else(|_| {
            eprintln!(
                "error: invalid value `{raw}` for --{key} (expected {})",
                friendly_type_name::<T>()
            );
            std::process::exit(2);
        })
    })
}

/// Parses `--n`, the input width, exiting like [`get`] outside `2..=512`,
/// the widths a prefix graph supports (a bad width would otherwise panic
/// inside a worker thread).
fn get_width(opts: &HashMap<String, String>, default: u16) -> u16 {
    let n = get(opts, "n", default);
    if !(2..=512).contains(&n) {
        eprintln!("error: invalid value `{n}` for --n (expected a width in 2..=512)");
        std::process::exit(2);
    }
    n
}

/// Parses a worker-count flag, clamping `0` to `1` with a loud warning —
/// a zero here would silently spin zero workers and hang or no-op the
/// session (mirrors the PR 2 malformed-value policy of never failing
/// silently).
fn get_workers(opts: &HashMap<String, String>, key: &str, default: usize) -> usize {
    let v: usize = get(opts, key, default);
    if v == 0 {
        eprintln!("warning: --{key} 0 would spin zero workers; clamping to 1");
        return 1;
    }
    v
}

fn friendly_type_name<T>() -> &'static str {
    let full = std::any::type_name::<T>();
    match full {
        "u8" | "u16" | "u32" | "u64" | "usize" => "a non-negative integer",
        "i8" | "i16" | "i32" | "i64" | "isize" => "an integer",
        "f32" | "f64" => "a number",
        _ => full,
    }
}

fn library(opts: &HashMap<String, String>) -> Library {
    match opts.get("lib").map(String::as_str) {
        Some("tech8") => Library::tech8(),
        Some("nangate45") | None => Library::nangate45(),
        Some(other) => {
            eprintln!("error: unknown library `{other}` (expected nangate45|tech8)");
            std::process::exit(2);
        }
    }
}

fn structure(name: &str, n: u16) -> PrefixGraph {
    match name {
        "ripple" => PrefixGraph::ripple(n),
        "sklansky" => structures::sklansky(n),
        "kogge_stone" => structures::kogge_stone(n),
        "brent_kung" => structures::brent_kung(n),
        "han_carlson" => structures::han_carlson(n),
        "ladner_fischer" => structures::ladner_fischer(n),
        other => {
            if let Some(s) = other.strip_prefix("sparse_ks_") {
                match s.parse::<u16>() {
                    Ok(sparsity) if sparsity.is_power_of_two() => {
                        return structures::sparse_kogge_stone(n, sparsity);
                    }
                    _ => {
                        eprintln!(
                            "error: invalid value `{other}` for --structure \
                             (sparse_ks_<k> takes a sparsity k that is a power of two)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            eprintln!("unknown structure `{other}`");
            std::process::exit(2);
        }
    }
}

fn cmd_structures(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl structures — survey the regular adder structures\n\
             \n\
             OPTIONS\n\
             \x20 --n <N>                input width (default 16)\n\
             \x20 --lib nangate45|tech8  cell library (default nangate45)"
        );
        return;
    }
    let n = get_width(opts, 16);
    let lib = library(opts);
    println!(
        "{:<16} {:>6} {:>6} {:>7} {:>10} {:>10} {:>11} {:>11}",
        "structure", "size", "depth", "fanout", "ana.area", "ana.delay", "syn.area", "syn.delay"
    );
    for (name, ctor) in structures::all_regular() {
        let g = ctor(n);
        let ana = prefix_graph::analytical::evaluate(&g);
        let curve = synth::sweep::sweep_graph(&g, &lib, &SweepConfig::fast());
        let d = curve.min_delay();
        println!(
            "{name:<16} {:>6} {:>6} {:>7} {:>10.1} {:>10.2} {:>11.1} {:>11.3}",
            g.size(),
            g.depth(),
            g.max_fanout(),
            ana.area,
            ana.delay,
            curve.area_at(d),
            d
        );
    }
}

fn session_options_help() -> &'static str {
    "\x20 --steps <K>              environment steps per agent (default 2000)\n\
     \x20 --seed <S>               master seed; agent i trains with S+i (default 0)\n\
     \x20 --task adder|prefix-or|incrementer\n\
     \x20                          circuit task to optimize (default adder);\n\
     \x20                          any parallel prefix computation shares the\n\
     \x20                          same MDP, only the emitted netlist differs\n\
     \x20 --backend analytical|synthesis|synthesis-power\n\
     \x20                          objective backend scoring the task's circuit\n\
     \x20                          (default synthesis; synthesis-power also\n\
     \x20                          annotates frontier points with estimated\n\
     \x20                          switching power, off the reward path)\n\
     \x20 --lib nangate45|tech8    cell library for synthesis rewards\n\
     \x20 --actors <A>             actor threads per agent, each stepping one\n\
     \x20                          environment per round (default 1)\n\
     \x20 --eval-threads <T>       how many agents of a sweep train at once\n\
     \x20 --checkpoint <path>      persist a sweep checkpoint to this file\n\
     \x20 --checkpoint-every <K>   capture a checkpoint every K steps per agent\n\
     \x20 --resume <path>          resume from a sweep checkpoint file\n\
     \x20 --halt-at <K>            stop each agent at step K after checkpointing\n\
     \x20                          (interrupt/resume testing; implies --checkpoint)\n\
     \x20 --progress               stream episode/checkpoint events to stderr\n\
     \x20 --json                   print the prefixrl.experiment.v1 report\n\
     \x20 --out <file>             write the report (with graphs) to a file"
}

fn cmd_train(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl train — train one PrefixRL agent and report its Pareto frontier\n\
             \n\
             OPTIONS\n\
             \x20 --n <N>                  input width (default 8)\n\
             \x20 --w <w_area>             scalarization weight in [0,1] (default 0.5)\n{}",
            session_options_help()
        );
        return;
    }
    let w: f64 = get(opts, "w", 0.5);
    if !(0.0..=1.0).contains(&w) {
        eprintln!("error: --w must lie in [0, 1], got {w}");
        std::process::exit(2);
    }
    run_session(opts, Weights::single(w));
}

fn cmd_sweep(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl sweep — train one agent per scalarization weight over one\n\
             shared evaluation cache and merge their design fronts (paper Fig. 4:\n\
             15 agents over w_area in [0.10, 0.99])\n\
             \n\
             OPTIONS\n\
             \x20 --n <N>                  input width (default 8)\n\
             \x20 --weights <K>            number of linspaced agents (default 5)\n\
             \x20 --w-min <w>              first weight (default 0.10)\n\
             \x20 --w-max <w>              last weight (default 0.99)\n\
             \x20 --w-list <w1,w2,...>     explicit weight list (overrides the above)\n{}",
            session_options_help()
        );
        return;
    }
    run_session(opts, parse_weights(opts));
}

/// Parses the sweep weight schedule (`--w-list`, or `--weights`/`--w-min`/
/// `--w-max` linspace), exiting loudly on malformed values or duplicate
/// weights — a duplicate would burn a sweep slot and double-count designs
/// in the merged front, so it is rejected rather than silently deduped
/// (linspace collapses float-equal points itself).
fn parse_weights(opts: &HashMap<String, String>) -> Weights {
    match opts.get("w-list") {
        Some(list) => {
            let ws: Vec<f64> = list
                .split(',')
                .map(|tok| {
                    tok.trim().parse().unwrap_or_else(|_| {
                        eprintln!("error: invalid weight `{tok}` in --w-list (expected a number)");
                        std::process::exit(2);
                    })
                })
                .collect();
            Weights::try_list(ws).unwrap_or_else(|e| {
                eprintln!("error: --w-list: {e}");
                std::process::exit(2);
            })
        }
        None => {
            let k: usize = get(opts, "weights", 5);
            let lo: f64 = get(opts, "w-min", 0.10);
            let hi: f64 = get(opts, "w-max", 0.99);
            if k == 0 || !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
                eprintln!(
                    "error: need --weights >= 1 and 0 <= --w-min <= --w-max <= 1 \
                     (got {k} over [{lo}, {hi}])"
                );
                std::process::exit(2);
            }
            Weights::linspace(lo, hi, k)
        }
    }
}

/// Streams sweep events to stderr (`--progress`): one line per finished
/// episode and per checkpoint.
struct ProgressObserver;

impl RunObserver for ProgressObserver {
    fn on_event(&mut self, run: usize, event: &Event) {
        match event {
            Event::EpisodeEnd {
                episode,
                scalarized_return,
            } => eprintln!("[agent {run}] episode {episode}: return {scalarized_return:+.3}"),
            Event::CheckpointSaved { step } => {
                eprintln!("[agent {run}] checkpoint at step {step}")
            }
            _ => {}
        }
    }
}

/// Resolves `--task`, erroring loudly with the valid names on an unknown
/// value (no silent default past typos).
fn circuit_task(opts: &HashMap<String, String>) -> Arc<dyn CircuitTask> {
    let name = opts.get("task").map(String::as_str).unwrap_or("adder");
    prefixrl_core::task::by_name(name).unwrap_or_else(|| {
        eprintln!(
            "error: unknown task `{name}` (expected one of: {})",
            prefixrl_core::task::TASK_NAMES.join("|")
        );
        std::process::exit(2);
    })
}

/// Resolves `--backend`, erroring loudly with the valid names on an
/// unknown value. One backend instance is shared by every agent so the
/// IV-D cache sharing happens; the synthesis curve point is picked at the
/// sweep's median weight (see DESIGN.md §10). The flag selects the
/// synthesis reward scaling.
fn objective_backend(
    opts: &HashMap<String, String>,
    median_w: f64,
) -> (Arc<dyn ObjectiveBackend>, bool) {
    let name = opts
        .get("backend")
        .map(String::as_str)
        .unwrap_or("synthesis");
    prefixrl_core::task::backend_by_name(name, library(opts), median_w).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The shared `train`/`sweep` session driver: builds the [`Experiment`],
/// runs or resumes it, and emits the unified report.
fn run_session(opts: &HashMap<String, String>, weights: Weights) {
    let n = get_width(opts, 8);
    let steps: u64 = get(opts, "steps", 2000);
    let seed: u64 = get(opts, "seed", 0);
    let actors = get_workers(opts, "actors", 1);
    let default_threads = weights.len().max(actors);
    let eval_threads = get_workers(opts, "eval-threads", default_threads);
    let json_mode = opts.contains_key("json");
    let task = circuit_task(opts);
    let median_w = weights.values()[weights.len() / 2];
    let (backend, use_synth) = objective_backend(opts, median_w);

    let mut base = AgentConfig::small(n, 0.5, steps);
    if use_synth {
        base.env = prefixrl_core::env::EnvConfig::synthesis(n);
    }

    let mut builder = Experiment::builder()
        .n(n)
        .weights(weights.clone())
        .steps(steps)
        .seed(seed)
        .base_config(base)
        .task(Arc::clone(&task))
        .backend(Arc::clone(&backend))
        .actors(actors)
        .eval_threads(eval_threads);
    if let Some(every) = get_opt::<u64>(opts, "checkpoint-every") {
        builder = builder.checkpoint_every(every);
    }
    let halt_at = get_opt::<u64>(opts, "halt-at");
    if let Some(halt) = halt_at {
        builder = builder.halt_at(halt);
    }
    let checkpoint_path: Option<PathBuf> = opts
        .get("checkpoint")
        .map(PathBuf::from)
        .or_else(|| opts.get("resume").map(PathBuf::from));
    if halt_at.is_some() && checkpoint_path.is_none() {
        eprintln!("error: --halt-at requires --checkpoint <path> (or --resume)");
        std::process::exit(2);
    }
    if let Some(path) = &checkpoint_path {
        builder = builder.checkpoint_path(path.clone());
    }
    let experiment = builder.build();

    if !json_mode {
        eprintln!(
            "{} {n}b agent(s): task={}, backend={}, weights {:?}, {steps} steps \
             each, actors={actors}, eval-threads={eval_threads}",
            if weights.len() > 1 {
                "sweeping"
            } else {
                "training"
            },
            task.task_id(),
            backend.backend_id(),
            weights
                .values()
                .iter()
                .map(|w| (w * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
        );
    }

    let mut progress = ProgressObserver;
    let mut null = NullObserver;
    let observer: &mut dyn RunObserver = if opts.contains_key("progress") {
        &mut progress
    } else {
        &mut null
    };

    let outcome = match opts.get("resume") {
        Some(path) => {
            let sweep = SweepCheckpoint::load(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("error: cannot resume: {e}");
                std::process::exit(1);
            });
            if !json_mode {
                eprintln!(
                    "resuming from {path}: {}/{} runs already complete",
                    sweep.completed_runs(),
                    sweep.runs.len()
                );
            }
            experiment.resume(sweep, observer)
        }
        None => experiment.run(observer),
    };
    let result = outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    if json_mode {
        println!(
            "{}",
            serde_json::to_string_pretty(&result.to_json(false)).unwrap()
        );
    } else {
        report_human(&result);
    }
    if let Some(path) = opts.get("out") {
        let report = serde_json::to_string_pretty(&result.to_json(true)).unwrap();
        std::fs::write(path, report).unwrap_or_else(|e| {
            eprintln!("error: write {path}: {e}");
            std::process::exit(1);
        });
        if !json_mode {
            println!("\nwrote prefixrl.experiment.v1 report to {path}");
        }
    }
}

fn report_human(result: &ExperimentResult) {
    let merged = result.merged_front();
    println!(
        "{} in {:.1}s ({:.1} steps/s): {} agent(s) on task {} ({}), cache hit \
         rate {:.0}%",
        if result.completed { "done" } else { "halted" },
        result.elapsed_sec,
        result.total_steps() as f64 / result.elapsed_sec.max(1e-9),
        result.records.len(),
        result.task,
        result.backend,
        100.0 * result.cache.hit_rate,
    );
    println!(
        "\n{:>5} {:>8} {:>8} {:>9} {:>10} {:>9}",
        "agent", "w_area", "designs", "frontier", "grad steps", "episodes"
    );
    for r in &result.records {
        println!(
            "{:>5} {:>8.3} {:>8} {:>9} {:>10} {:>9}",
            r.run,
            r.w_area,
            r.designs.len(),
            r.front().len(),
            r.losses.len(),
            r.episode_returns.len()
        );
    }
    println!("\nmerged Pareto frontier ({} points):", merged.len());
    let powers = result.frontier_power.as_deref();
    if powers.is_some() {
        println!(
            "{:>10} {:>10}  {:>5} {:>5} {:>10}",
            "area", "delay", "size", "depth", "power(uW)"
        );
    } else {
        println!(
            "{:>10} {:>10}  {:>5} {:>5}",
            "area", "delay", "size", "depth"
        );
    }
    for (i, (p, g)) in merged.iter().enumerate() {
        match powers.and_then(|ps| ps.get(i)) {
            Some(power) => println!(
                "{:>10.2} {:>10.3}  {:>5} {:>5} {:>10.2}",
                p.area,
                p.delay,
                g.size(),
                g.depth(),
                power
            ),
            None => println!(
                "{:>10.2} {:>10.3}  {:>5} {:>5}",
                p.area,
                p.delay,
                g.size(),
                g.depth()
            ),
        }
    }
}

fn cmd_eval(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl eval — synthesize a structure across delay targets\n\
             \n\
             OPTIONS\n\
             \x20 --structure <name>     ripple|sklansky|kogge_stone|brent_kung|\n\
             \x20                        han_carlson|ladner_fischer|sparse_ks_<k>\n\
             \x20 --n <N>                input width (default 16)\n\
             \x20 --targets <T>          delay targets to sweep, at least 2 (default 8)\n\
             \x20 --lib nangate45|tech8  cell library (default nangate45)"
        );
        return;
    }
    let n = get_width(opts, 16);
    let name = opts
        .get("structure")
        .cloned()
        .unwrap_or_else(|| "sklansky".into());
    let targets: usize = get(opts, "targets", 8);
    if targets < 2 {
        eprintln!("error: --targets must be at least 2 (a curve needs two points), got {targets}");
        std::process::exit(2);
    }
    let lib = library(opts);
    let g = structure(&name, n);
    let cfg = SweepConfig {
        target_fractions: prefixrl_core::frontier::target_fractions(targets),
        ..SweepConfig::paper()
    };
    let curve = synth::sweep::sweep_graph(&g, &lib, &cfg);
    println!(
        "{name} {n}b on {} ({} graph nodes, depth {}):",
        lib.name(),
        g.size(),
        g.depth()
    );
    println!("{:>12} {:>12}", "delay(ns)", "area(um^2)");
    for (d, a) in curve.knots() {
        println!("{d:>12.4} {a:>12.2}");
    }
}

fn cmd_render(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl render — draw a prefix graph\n\
             \n\
             OPTIONS\n\
             \x20 --structure <name>  structure to draw (default brent_kung)\n\
             \x20 --n <N>             input width (default 16)\n\
             \x20 --dot               emit Graphviz instead of ASCII"
        );
        return;
    }
    let n = get_width(opts, 16);
    let name = opts
        .get("structure")
        .cloned()
        .unwrap_or_else(|| "brent_kung".into());
    let g = structure(&name, n);
    if opts.contains_key("dot") {
        print!("{}", prefix_graph::render::dot(&g));
    } else {
        print!("{}", prefix_graph::render::ascii(&g));
    }
}

fn serve_client(opts: &HashMap<String, String>) -> Client {
    Client::new(
        opts.get("addr")
            .cloned()
            .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string()),
    )
}

/// Parses `--peers a,b,c` into a peer list (exits loudly on empties).
fn parse_peers(raw: &str) -> Vec<String> {
    let peers: Vec<String> = raw
        .split(',')
        .map(|p| p.trim().to_string())
        .filter(|p| !p.is_empty())
        .collect();
    if peers.is_empty() {
        eprintln!("error: --peers expects a comma-separated list of ip:port addresses");
        std::process::exit(2);
    }
    peers
}

/// A fan-out [`Router`] over `--peers`/`--replicas` when given — client
/// commands then route each key to its owning shard with follower
/// failover — or `None` for classic single-server `--addr` mode.
fn cluster_router(opts: &HashMap<String, String>) -> Option<Router> {
    let peers = parse_peers(opts.get("peers")?);
    let replicas: usize = get(opts, "replicas", if peers.len() > 1 { 1 } else { 0 });
    let topology = Topology::new(0, peers, replicas).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    Some(Router::new(topology).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    }))
}

/// Prints a successful protocol response as pretty JSON, or exits loudly
/// with the server's error.
fn report_response(result: Result<serde_json::Value, String>) {
    match result {
        Ok(value) => println!("{}", serde_json::to_string_pretty(&value).unwrap()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_serve(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl serve — run the resident multi-job optimization service\n\
             \n\
             Speaks prefixrl.serve.v1 (newline-delimited JSON over local TCP;\n\
             DESIGN.md §13). Jobs share one evaluation store, finished\n\
             jobs merge into the persistent per-(task, backend, width) frontier\n\
             store, and with --state-dir both the frontier store and the job\n\
             queue survive restarts (even kill -9).\n\
             \n\
             OPTIONS\n\
             \x20 --addr <ip:port>       listen address (default {DEFAULT_SERVE_ADDR};\n\
             \x20                        port 0 picks an ephemeral port)\n\
             \x20 --workers <W>          concurrent job workers (default 2)\n\
             \x20 --queue-capacity <Q>   max queued-or-running jobs (default 256)\n\
             \x20 --eval-threads <T>     agents of one job run at once (default 2)\n\
             \x20 --event-tail <K>       events retained per job for status (default 64)\n\
             \x20 --state-dir <dir>      persist frontier.json + frontier.wal +\n\
             \x20                        jobs.json here\n\
             \x20 --compact-every <K>    WAL records before the frontier store\n\
             \x20                        compacts (default 64)\n\
             \n\
             CLUSTER (DESIGN.md §16; all three flags together)\n\
             \x20 --shard-id <K>         this node's shard id (0-based)\n\
             \x20 --peers <a,b,c>        every shard's listen address, in shard-id\n\
             \x20                        order; --addr defaults to peers[shard-id]\n\
             \x20 --replicas <R>         followers per primary on the peer ring\n\
             \x20                        (default 1 with >1 peers; 0 disables\n\
             \x20                        replication)"
        );
        return;
    }
    let cluster = opts.get("peers").map(|raw| {
        let peers = parse_peers(raw);
        let Some(shard_id) = get_opt::<usize>(opts, "shard-id") else {
            eprintln!("error: --peers requires --shard-id (which entry this node is)");
            std::process::exit(2);
        };
        let replicas: usize = get(opts, "replicas", if peers.len() > 1 { 1 } else { 0 });
        Topology::new(shard_id, peers, replicas).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    });
    let addr = opts.get("addr").cloned().unwrap_or_else(|| {
        cluster
            .as_ref()
            .map(|t| t.peers[t.shard_id].clone())
            .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string())
    });
    let cfg = ServeConfig {
        addr,
        workers: get_workers(opts, "workers", 2),
        queue_capacity: get::<usize>(opts, "queue-capacity", 256).max(1),
        eval_threads: get_workers(opts, "eval-threads", 2),
        event_tail: get(opts, "event-tail", 64),
        state_dir: opts.get("state-dir").map(PathBuf::from),
        compact_every: get::<u64>(opts, "compact-every", 64).max(1),
        cluster,
    };
    let server = Server::bind(cfg).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    if let Some(topology) = &server.jobs().config().cluster {
        eprintln!(
            "prefixrl-serve shard {}/{} listening on {} ({}, {} replica(s)/primary) — \
             stop with `prefixrl shutdown --addr {}`",
            topology.shard_id,
            topology.num_shards(),
            server.local_addr(),
            prefixrl_serve::protocol::PROTOCOL,
            topology.replicas,
            server.local_addr(),
        );
    } else {
        eprintln!(
            "prefixrl-serve listening on {} ({}) — stop with `prefixrl shutdown --addr {}`",
            server.local_addr(),
            prefixrl_serve::protocol::PROTOCOL,
            server.local_addr(),
        );
    }
    if let Err(e) = server.run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn cmd_submit(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl submit — enqueue a sweep job on a running server\n\
             \n\
             OPTIONS\n\
             \x20 --addr <ip:port>       server address (default {DEFAULT_SERVE_ADDR})\n\
             \x20 --peers <a,b,c>        cluster mode: route to the shard owning the\n\
             \x20                        job's key (with --replicas, default 1)\n\
             \x20 --task adder|prefix-or|incrementer   (default adder)\n\
             \x20 --backend analytical|synthesis|synthesis-power\n\
             \x20                        (default analytical; a synthesis binding\n\
             \x20                        keeps the first job's median weight for\n\
             \x20                        its curve point — shared-cache soundness)\n\
             \x20 --n <N>                input width (default 8)\n\
             \x20 --weights <K> / --w-min / --w-max / --w-list <w1,w2,...>\n\
             \x20                        weight schedule (defaults as in sweep;\n\
             \x20                        duplicates are rejected loudly)\n\
             \x20 --steps <K>            environment steps per agent (default 2000)\n\
             \x20 --seed <S>             master seed (default 0)"
        );
        return;
    }
    let weights = parse_weights(opts);
    let spec = JobSpec {
        task: opts.get("task").cloned().unwrap_or_else(|| "adder".into()),
        backend: opts
            .get("backend")
            .cloned()
            .unwrap_or_else(|| "analytical".into()),
        n: get_width(opts, 8),
        weights: weights.values().to_vec(),
        steps: get(opts, "steps", 2000),
        seed: get(opts, "seed", 0),
    };
    let result = match cluster_router(opts) {
        Some(router) => router
            .submit(&spec)
            .map(|(id, shard)| serde_json::json!({ "id": id, "shard": shard as u64 })),
        None => serve_client(opts)
            .submit(&spec)
            .map(|id| serde_json::json!({ "id": id })),
    };
    match result {
        Ok(value) => println!("{}", serde_json::to_string(&value).unwrap()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_status(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl status — one job's status, or the full job list\n\
             \n\
             OPTIONS\n\
             \x20 --addr <ip:port>  server address (default {DEFAULT_SERVE_ADDR})\n\
             \x20 --id <K>          job id (omit to list every job)\n\
             \x20 --tail <K>        recent events to include (default 16)"
        );
        return;
    }
    let client = serve_client(opts);
    match get_opt::<u64>(opts, "id") {
        Some(id) => report_response(client.status(id, get(opts, "tail", 16))),
        None => report_response(client.list()),
    }
}

fn cmd_cancel(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl cancel — cancel a queued or running job\n\
             \n\
             OPTIONS\n\
             \x20 --addr <ip:port>  server address (default {DEFAULT_SERVE_ADDR})\n\
             \x20 --id <K>          job id (required); a running job stops\n\
             \x20                   within one event tick"
        );
        return;
    }
    let Some(id) = get_opt::<u64>(opts, "id") else {
        eprintln!("error: --id is required");
        std::process::exit(2);
    };
    report_response(serve_client(opts).cancel(id));
}

fn cmd_frontier(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl frontier — fetch a stored merged Pareto front\n\
             \n\
             The server merges every finished job's design pool into one\n\
             persistent front per (task, backend, width) key; this returns the\n\
             current combined front for one key (and lists all stored keys).\n\
             \n\
             OPTIONS\n\
             \x20 --addr <ip:port>  server address (default {DEFAULT_SERVE_ADDR})\n\
             \x20 --peers <a,b,c>   cluster mode: route to the owning shard, fail\n\
             \x20                   reads over to followers (--replicas, default 1)\n\
             \x20 --task <name>     circuit task (default adder)\n\
             \x20 --backend <name>  objective backend (default analytical)\n\
             \x20 --n <N>           input width (default 8)\n\
             \n\
             Exits 1 with `no such key` when nothing was ever merged under\n\
             the (task, backend, n) key — distinct from a stored-but-empty\n\
             front, which prints normally with count 0."
        );
        return;
    }
    let task = opts.get("task").cloned().unwrap_or_else(|| "adder".into());
    let backend = opts
        .get("backend")
        .cloned()
        .unwrap_or_else(|| "analytical".into());
    let n = get_width(opts, 8);
    let response = match cluster_router(opts) {
        Some(router) => router.frontier(&task, &backend, n),
        None => serve_client(opts).frontier(&task, &backend, n),
    };
    if let Ok(value) = &response {
        if value.get("known") == Some(&serde_json::Value::Bool(false)) {
            let keys = value
                .get("keys")
                .and_then(serde_json::Value::as_array)
                .map(|ks| {
                    ks.iter()
                        .filter_map(|k| match k {
                            serde_json::Value::String(s) => Some(s.as_str()),
                            _ => None,
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .unwrap_or_default();
            eprintln!(
                "error: no such key `{task}/{backend}/{n}` — nothing has ever been \
                 merged under it (stored keys: [{keys}])"
            );
            std::process::exit(1);
        }
    }
    report_response(response);
}

fn cmd_query(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl query — look up stored designs on the server's read tier\n\
             \n\
             Answers come from the server's lock-free frontier snapshot\n\
             (DESIGN.md §15): reads never wait on a running merge. Exactly one\n\
             query mode is required.\n\
             \n\
             MODES\n\
             \x20 --at-delay <D>    minimum-area stored design with delay <= D\n\
             \x20                   (falls back to the fastest design, met=false,\n\
             \x20                   when nothing is that fast)\n\
             \x20 --at-weight <W>   scalarized argmin at area-weight W in [0, 1]\n\
             \x20                   (W=0 fastest, W=1 smallest)\n\
             \x20 --range <LO:HI>   every stored design with LO <= delay <= HI\n\
             \n\
             OPTIONS\n\
             \x20 --addr <ip:port>  server address (default {DEFAULT_SERVE_ADDR})\n\
             \x20 --peers <a,b,c>   cluster mode: route to the owning shard, fail\n\
             \x20                   reads over to followers (--replicas, default 1)\n\
             \x20 --task <name>     circuit task (default adder)\n\
             \x20 --backend <name>  objective backend (default analytical)\n\
             \x20 --n <N>           input width (default 8)\n\
             \x20 --include-graph   attach the stored prefix graph(s)\n\
             \n\
             Exits 1 with `no such key` when nothing was ever merged under\n\
             the (task, backend, n) key."
        );
        return;
    }
    let task = opts.get("task").cloned().unwrap_or_else(|| "adder".into());
    let backend = opts
        .get("backend")
        .cloned()
        .unwrap_or_else(|| "analytical".into());
    let n = get_width(opts, 8);
    let modes_given = ["at-delay", "at-weight", "range"]
        .iter()
        .filter(|m| opts.contains_key(**m))
        .count();
    if modes_given != 1 {
        eprintln!("error: exactly one of --at-delay, --at-weight, --range is required");
        std::process::exit(2);
    }
    let query = if let Some(delay) = get_opt(opts, "at-delay") {
        Query::BestAtDelay { delay }
    } else if let Some(w) = get_opt(opts, "at-weight") {
        Query::BestAtWeight { w }
    } else {
        let raw = opts.get("range").expect("checked above");
        let Some((lo, hi)) = raw.split_once(':') else {
            eprintln!("error: --range expects <LO:HI>, got `{raw}`");
            std::process::exit(2);
        };
        let parse = |s: &str| -> f64 {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("error: --range expects numeric <LO:HI>, got `{raw}`");
                std::process::exit(2);
            })
        };
        Query::Range {
            delay_lo: parse(lo),
            delay_hi: parse(hi),
        }
    };
    let include_graph = opts.contains_key("include-graph");
    let response = match cluster_router(opts) {
        Some(router) => router.query(&task, &backend, n, query, include_graph),
        None => serve_client(opts).query(&task, &backend, n, query, include_graph),
    };
    if let Ok(value) = &response {
        let known = value.get("result").and_then(|r| r.get("known")).cloned();
        if known == Some(serde_json::Value::Bool(false)) {
            eprintln!(
                "error: no such key `{task}/{backend}/{n}` — nothing has ever been \
                 merged under it"
            );
            std::process::exit(1);
        }
    }
    report_response(response);
}

fn cmd_shutdown(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl shutdown — ask the server to stop gracefully\n\
             \n\
             Running jobs are cancelled and re-queued in the persisted state,\n\
             so a restart with the same --state-dir resumes them.\n\
             \n\
             OPTIONS\n\
             \x20 --addr <ip:port>  server address (default {DEFAULT_SERVE_ADDR})"
        );
        return;
    }
    match serve_client(opts).shutdown() {
        Ok(()) => println!(
            "{}",
            serde_json::to_string(&serde_json::json!({ "result": "shutting down" })).unwrap()
        ),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_verilog(opts: &HashMap<String, String>) {
    if wants_help(opts) {
        eprintln!(
            "prefixrl verilog — emit structural Verilog for a structure\n\
             \n\
             OPTIONS\n\
             \x20 --structure <name>     structure to emit (default brent_kung)\n\
             \x20 --n <N>                input width (default 16)\n\
             \x20 --target <ns>          timing-optimize to this delay first\n\
             \x20 --lib nangate45|tech8  cell library (default nangate45)"
        );
        return;
    }
    let n = get_width(opts, 16);
    let name = opts
        .get("structure")
        .cloned()
        .unwrap_or_else(|| "brent_kung".into());
    let lib = library(opts);
    let g = structure(&name, n);
    let nl = adder::generate(&g);
    if let Some(target) = get_opt::<f64>(opts, "target") {
        let cons = synth::sta::TimingConstraints::uniform(&lib);
        let out =
            synth::optimizer::optimize(&nl, &lib, &cons, target, &OptimizerConfig::commercial());
        eprintln!(
            "// optimized to {:.4} ns (target {:.4}), area {:.2} um^2, met={}",
            out.delay, target, out.area, out.met
        );
        print!("{}", netlist::verilog::export(&out.netlist));
    } else {
        print!("{}", netlist::verilog::export(&nl));
    }
}
