//! Tensor-compute-engine throughput: the small(16) gradient step and the
//! small(16) 5×5 convolution's three implicit-GEMM passes at every kernel
//! tier the CPU has, each row with a bitwise identity check against the
//! scalar tier, and Q-network forward/backward/inference samples/sec
//! against the naive im2col conv path (preserved in
//! `nn::compute::reference`). Dumps `BENCH_nn.json` at the workspace
//! root.
//!
//! ```sh
//! cargo bench -p prefixrl-bench --bench nn_throughput
//! ```

use nn::compute::{self, reference, ConvShape};
use nn::simd::{self, Tier};
use prefixrl_bench::{time_per_call, Report};
use prefixrl_core::qnet::{PrefixQNet, QNetConfig};
use rand::prelude::*;
use rl::QNetwork;
use serde_json::json;

/// States per Q-network batch.
const BATCH: usize = 32;
/// Wall clock each timing accumulates, seconds.
const MIN_SECS: f64 = 0.4;

/// The conv shapes a [`QNetConfig`] instantiates, in network order.
fn conv_shapes(cfg: &QNetConfig) -> Vec<(usize, usize, usize)> {
    let c = cfg.channels;
    let mut shapes = vec![(4, c, 3)];
    for _ in 0..cfg.blocks {
        shapes.push((c, c, 5));
        shapes.push((c, c, 5));
    }
    shapes.push((c, c, 1));
    shapes.push((c, 4, 1));
    shapes
}

/// Forward throughput of the naive network path: every
/// convolution through the preserved naive im2col + scalar-GEMM oracle
/// (`nn::compute::reference`), interleaved with the same batch-norm /
/// LReLU / residual arithmetic the Fig. 2 body applies. This is the
/// baseline every engine row is compared to.
fn baseline_fwd_samples_per_sec(cfg: &QNetConfig, batch: usize) -> f64 {
    use nn::{BatchNorm2d, Layer, LeakyReLU};
    let n = cfg.n as usize;
    let mut rng = StdRng::seed_from_u64(7);
    let weights: Vec<(usize, usize, usize, Vec<f32>)> = conv_shapes(cfg)
        .into_iter()
        .map(|(in_c, out_c, k)| {
            let w: Vec<f32> = (0..out_c * in_c * k * k)
                .map(|_| rng.random::<f32>() * 0.2 - 0.1)
                .collect();
            (in_c, out_c, k, w)
        })
        .collect();
    let out_bias: Vec<f32> = vec![0.0; 4];
    // One BN after every conv except the output head; one activation after
    // every BN (distinct instances: each caches its own mask, as the old
    // path did).
    let mut bns: Vec<BatchNorm2d> = (0..weights.len() - 1)
        .map(|i| BatchNorm2d::new(weights[i].1))
        .collect();
    let mut acts: Vec<LeakyReLU> = (0..weights.len() - 1)
        .map(|_| LeakyReLU::default())
        .collect();
    let x0 = nn::Tensor::from_vec(
        [batch, 4, n, n],
        (0..batch * 4 * n * n)
            .map(|_| rng.random::<f32>())
            .collect(),
    );
    let secs = time_per_call(
        || {
            // Stem.
            let (in_c, out_c, k, w) = &weights[0];
            let mut cur = reference::conv2d_forward(*in_c, *out_c, *k, w, None, &x0).out;
            cur = bns[0].forward(&cur);
            cur = acts[0].forward(&cur);
            // Residual blocks (conv-BN-act-conv-BN, skip, act).
            for b in 0..cfg.blocks {
                let skip = cur.clone();
                for half in 0..2 {
                    let idx = 1 + 2 * b + half;
                    let (in_c, out_c, k, w) = &weights[idx];
                    cur = reference::conv2d_forward(*in_c, *out_c, *k, w, None, &cur).out;
                    cur = bns[idx].forward(&cur);
                    if half == 0 {
                        cur = acts[idx].forward(&cur);
                    }
                }
                cur.add_assign(&skip);
                cur = acts[2 * b + 2].forward(&cur);
            }
            // Head conv-BN-act, then the 4-channel output conv.
            let head = weights.len() - 2;
            let (in_c, out_c, k, w) = &weights[head];
            cur = reference::conv2d_forward(*in_c, *out_c, *k, w, None, &cur).out;
            cur = bns[head].forward(&cur);
            cur = acts[head].forward(&cur);
            let (in_c, out_c, k, w) = &weights[head + 1];
            cur = reference::conv2d_forward(*in_c, *out_c, *k, w, Some(&out_bias), &cur).out;
            std::hint::black_box(&cur);
        },
        MIN_SECS,
    );
    batch as f64 / secs
}

/// Every tier this CPU runs, scalar first, with its conv lane width (0
/// for scalar).
fn tiers() -> Vec<(Tier, usize)> {
    [(Tier::Scalar, 0), (Tier::Avx, 8), (Tier::Avx512, 16)]
        .into_iter()
        .filter(|&(tier, _)| simd::cpu_tier() >= tier)
        .collect()
}

/// Rounds a comparison across tiers is split into, the tiers alternating
/// within each, so a swing in a shared host's speed reaches every tier
/// alike; each tier reports its fastest round. (Timed back to back, one
/// tier per block, the 8- and 16-lane rows of one product swapped order
/// between runs on a 2-vCPU VM.)
const ROUNDS: usize = 5;

/// Seconds per call of `run` at each tier: the fastest of [`ROUNDS`]
/// alternating rounds of `MIN_SECS / ROUNDS` each. `run` receives the tier
/// index and is called with that tier set; the cap is restored after.
fn time_tiers(tiers: &[(Tier, usize)], mut run: impl FnMut(usize)) -> Vec<f64> {
    let saved_tier = simd::max_tier();
    let mut best = vec![f64::MAX; tiers.len()];
    for _ in 0..ROUNDS {
        for (i, &(tier, _)) in tiers.iter().enumerate() {
            simd::set_max_tier(tier);
            best[i] = best[i].min(time_per_call(|| run(i), MIN_SECS / ROUNDS as f64));
        }
    }
    simd::set_max_tier(saved_tier);
    best
}

/// One small(16) gradient step — training forward, backward and Adam at
/// batch 16 — at every tier the CPU has. Each tier also takes
/// one step from a fresh network, whose parameters must match the scalar
/// tier's bit for bit.
fn grad_step_rows(report: &mut Report) {
    let cfg = QNetConfig::small(16);
    let batch = 16;
    let feat = 4 * cfg.n as usize * cfg.n as usize;
    let mut rng = StdRng::seed_from_u64(31);
    let states: Vec<Vec<f32>> = (0..batch)
        .map(|_| (0..feat).map(|_| f32::from(rng.random::<bool>())).collect())
        .collect();
    let refs: Vec<&[f32]> = states.iter().map(Vec::as_slice).collect();
    let tiers = tiers();
    let mut grad = vec![vec![[0.0f32; 2]; PrefixQNet::new(&cfg).num_actions()]; batch];
    for row in &mut grad {
        row[3] = [0.01, -0.01];
    }
    // One network per tier, each checked after one step from the same
    // initialization, then timed on.
    let saved_tier = simd::max_tier();
    let mut nets: Vec<PrefixQNet> = tiers
        .iter()
        .map(|&(tier, _)| {
            simd::set_max_tier(tier);
            let mut q = PrefixQNet::new(&cfg);
            q.forward(&refs);
            q.apply_gradient(&grad);
            q
        })
        .collect();
    simd::set_max_tier(saved_tier);
    let params: Vec<_> = nets.iter_mut().map(|q| q.state()).collect();
    let secs = time_tiers(&tiers, |i| {
        std::hint::black_box(nets[i].forward(&refs));
        nets[i].apply_gradient(&grad);
    });
    for ((&(tier, lanes), secs), p) in tiers.iter().zip(secs).zip(&params) {
        let bit_identical = *p == params[0];
        report.row(
            "grad_step",
            json!({"tier": format!("{tier:?}"), "lanes": lanes, "batch": batch}),
            json!({"step_us": secs * 1e6, "bit_identical": bit_identical}),
        );
        assert!(
            bit_identical,
            "gradient step diverged from scalar at {tier:?}"
        );
    }
}

/// The small(16) 5×5 residual convolution's passes — forward at batch 1
/// and 16, input gradient and weight gradient at batch 16 — at every tier
/// the CPU has, each timed as the layer runs it on the
/// `nn::compute` conv products and checked bitwise against the scalar
/// tier. The forward pads each sample first; the input gradient starts
/// each sample from a zeroed gradient plane and copies out its interior;
/// the weight gradient reads the planes a training forward caches.
fn conv_rows(report: &mut Report) {
    let (c, k, n, batch) = (12usize, 5usize, 16usize, 16usize);
    let hw = n * n;
    let shape = ConvShape::new(c, k, n, n);
    let plane_len = shape.plane_len();
    let mut rng = StdRng::seed_from_u64(37);
    let mut filled =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.random::<f32>() - 0.5).collect() };
    let (weight, x, go) = (
        filled(c * c * k * k),
        filled(batch * c * hw),
        filled(batch * c * hw),
    );
    let mut planes = vec![0.0f32; batch * plane_len];
    for (plane, xs) in planes
        .chunks_exact_mut(plane_len)
        .zip(x.chunks_exact(c * hw))
    {
        shape.pad(xs, plane);
    }
    let tiers = tiers();
    for (pass, samples) in [
        ("forward", 1usize),
        ("forward", batch),
        ("input_grad", batch),
        ("weight_grad", batch),
    ] {
        let mut outputs = vec![Vec::new(); tiers.len()];
        let mut scratch_plane = vec![0.0f32; plane_len];
        let mut out = vec![0.0f32; samples * c * hw];
        let mut wg = vec![0.0f32; c * c * k * k];
        let secs = time_tiers(&tiers, |i| {
            match pass {
                "forward" => {
                    out.fill(0.0);
                    for (dst, xs) in out.chunks_exact_mut(c * hw).zip(x.chunks_exact(c * hw)) {
                        shape.pad(xs, &mut scratch_plane);
                        compute::conv_forward(&shape, c, &weight, &scratch_plane, dst);
                    }
                    outputs[i].clone_from(&out);
                }
                "input_grad" => {
                    for (dst, gs) in out.chunks_exact_mut(c * hw).zip(go.chunks_exact(c * hw)) {
                        scratch_plane.fill(0.0);
                        compute::conv_input_grad(&shape, c, &weight, gs, &mut scratch_plane);
                        shape.unpad(&scratch_plane, dst);
                    }
                    outputs[i].clone_from(&out);
                }
                _ => {
                    wg.fill(0.0);
                    for (plane, gs) in planes.chunks_exact(plane_len).zip(go.chunks_exact(c * hw)) {
                        compute::conv_weight_grad(&shape, c, gs, plane, &mut wg);
                    }
                    outputs[i].clone_from(&wg);
                }
            }
            std::hint::black_box(&outputs[i]);
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for ((&(tier, lanes), secs), o) in tiers.iter().zip(secs).zip(&outputs) {
            let bit_identical = bits(o) == bits(&outputs[0]);
            report.row(
                "conv5",
                json!({"tier": format!("{tier:?}"), "lanes": lanes, "pass": pass, "batch": samples}),
                json!({"us": secs * 1e6, "bit_identical": bit_identical}),
            );
            assert!(
                bit_identical,
                "conv {pass} diverged from scalar at {tier:?}"
            );
        }
    }
}

fn main() {
    let mut report = Report::new("nn", json!({"batch": BATCH, "min_secs": MIN_SECS}));
    grad_step_rows(&mut report);
    conv_rows(&mut report);

    for (label, cfg) in [
        ("tiny(8)", QNetConfig::tiny(8)),
        ("small(16)", QNetConfig::small(16)),
    ] {
        let n = cfg.n as usize;
        let feat = 4 * n * n;
        let mut rng = StdRng::seed_from_u64(17);
        let states: Vec<Vec<f32>> = (0..BATCH)
            .map(|_| (0..feat).map(|_| f32::from(rng.random::<bool>())).collect())
            .collect();
        let refs: Vec<&[f32]> = states.iter().map(Vec::as_slice).collect();
        let baseline = baseline_fwd_samples_per_sec(&cfg, BATCH);
        let mut q = PrefixQNet::new(&cfg);
        let num_actions = q.num_actions();
        // Training-mode forward.
        let fwd_secs = time_per_call(
            || {
                std::hint::black_box(q.forward(&refs));
            },
            MIN_SECS,
        );
        // Full gradient step (forward + backward + Adam), from which the
        // backward-only share is derived.
        let mut grad = vec![vec![[0.0f32; 2]; num_actions]; BATCH];
        for row in &mut grad {
            row[3] = [0.01, -0.01];
        }
        let step_secs = time_per_call(
            || {
                std::hint::black_box(q.forward(&refs));
                q.apply_gradient(&grad);
            },
            MIN_SECS,
        );
        let bwd_secs = (step_secs - fwd_secs).max(1e-9);
        // Immutable inference.
        let mut scratch = nn::Scratch::new();
        let infer_secs = time_per_call(
            || {
                std::hint::black_box(q.infer(&refs, &mut scratch));
            },
            MIN_SECS,
        );
        let batch = BATCH as f64;
        report.row(
            "qnet",
            json!({"config": label}),
            json!({
                "fwd_samples_per_sec": batch / fwd_secs,
                "bwd_samples_per_sec": batch / bwd_secs,
                "infer_samples_per_sec": batch / infer_secs,
                "baseline_fwd_samples_per_sec": baseline,
            }),
        );
    }
    report.write();
}
