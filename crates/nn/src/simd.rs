//! Explicit f32 SIMD lanes for the compute engine (DESIGN.md §14).
//!
//! This module is the workspace's one home for vector intrinsics: a
//! `compat`-style [`F32x8`] wrapper over the x86-64 AVX registers, the
//! runtime dispatch switch ([`enabled`]/[`set_enabled`]), and the
//! vectorized elementwise hot paths shared by the layers (LReLU, BN
//! normalize, bias add, residual add). The GEMM microkernel in
//! [`crate::compute`] builds on [`F32x8`] directly.
//!
//! # The bit-identity contract
//!
//! Every function here produces results **bit-identical** to its scalar
//! fallback (and therefore to `compute::reference`), which is what lets
//! the engine switch freely between vector and scalar paths — across
//! machines, feature configurations, and the [`set_enabled`] override —
//! without perturbing training trajectories or checkpoint resume. Three
//! rules make that possible:
//!
//! 1. **Lanes run across independent output elements, never across a
//!    reduction.** A vectorized loop computes eight *separate* outputs per
//!    instruction; per-element reduction order (ascending `k`, one product
//!    at a time) is untouched.
//! 2. **Multiply and add stay separate instructions.** FMA contracts
//!    `a*b + c` into one rounding where the scalar code has two, which
//!    changes low bits — so `_mm256_fmadd_ps` is banned from this
//!    codebase even where the CPU offers it.
//! 3. **Branch-free selects use exact multiplicative identities.** LReLU
//!    becomes `x * s` with `s ∈ {1.0, α}`; `x * 1.0` is exact for every
//!    finite and infinite `f32`, so the blend is bitwise equal to the
//!    branchy scalar form. One caveat: the *historical* branchy LReLU
//!    (`if v <= 0 { v *= α }`) left NaN untouched, while the
//!    multiplicative form scales NaN lanes (`NaN > 0` is false, so
//!    `s = α`). The product is still NaN — only its payload/sign bits
//!    are platform-defined — and the vector and scalar paths multiply
//!    with the same operand order, so *they* stay bit-identical to each
//!    other. What is lost is bit-equivalence with the pre-SIMD kernels
//!    on NaN activations, i.e. only after training has already diverged.
//!
//! # Dispatch
//!
//! The vector paths compile only under the (default-on) `simd` cargo
//! feature on x86-64; at runtime they additionally require AVX in CPUID
//! (cached on first query) and the process-wide [`set_enabled`] switch
//! (default on, `PREFIXRL_NN_SIMD=0` clears it at startup — the same
//! shape as the `PREFIXRL_NN_THREADS` budget). Everything falls back to
//! the scalar forms otherwise, so non-x86 targets and `--no-default-
//! features` builds are first-class, just slower.
//!
//! # Adding a lane width
//!
//! Wider (or narrower) registers slot in as a sibling of [`F32x8`]: wrap
//! the arch type, expose the same `splat`/`load`/`store`/`add`/`sub`/
//! `mul`/`select_gt_zero` surface, keep multiply and add separate, and
//! vectorize only across outputs. Any function obeying those rules is
//! automatically bit-identical to the scalar fallback, so the parity
//! suite (`tests/simd_parity.rs`) needs no new oracles — only new shape
//! coverage for the added remainder widths.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

// ------------------------------------------------------------- dispatch

/// Whether the vector paths were compiled in at all.
const COMPILED: bool = cfg!(all(feature = "simd", target_arch = "x86_64"));

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn cpu_has_avx() -> bool {
    static AVX: OnceLock<bool> = OnceLock::new();
    *AVX.get_or_init(|| std::arch::is_x86_feature_detected!("avx"))
}

fn force_scalar() -> &'static AtomicBool {
    static FORCE: OnceLock<AtomicBool> = OnceLock::new();
    FORCE.get_or_init(|| {
        let off = std::env::var("PREFIXRL_NN_SIMD").is_ok_and(|v| v == "0" || v == "off");
        AtomicBool::new(off)
    })
}

/// Whether the vector paths are active: compiled in (`simd` feature,
/// x86-64), supported by the CPU (AVX), and not switched off via
/// [`set_enabled`] or `PREFIXRL_NN_SIMD=0`.
///
/// Results are bit-identical either way; only throughput changes.
pub fn enabled() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        COMPILED && cpu_has_avx() && !force_scalar().load(Ordering::Relaxed)
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Switches the vector paths on or off process-wide at runtime (used by
/// the parity suite and the SIMD-vs-scalar benchmark rows to compare both
/// engines in one process). A no-op when the paths are not compiled in or
/// the CPU lacks AVX.
pub fn set_enabled(on: bool) {
    force_scalar().store(!on, Ordering::Relaxed);
}

/// Whether the `simd` feature was compiled in for this target (reported
/// by benchmarks so BENCH_nn.json records which engine produced it).
pub fn compiled() -> bool {
    COMPILED
}

// ------------------------------------------------------------ the lanes

/// Eight f32 lanes over one AVX `__m256` register.
///
/// All methods are `unsafe` and `#[inline(always)]`: callers wrap their
/// loops in an `#[target_feature(enable = "avx")]` function guarded by
/// [`enabled`], and the methods inline into it so the compiler emits bare
/// VEX instructions. Loads and stores are unaligned (`loadu`/`storeu`) —
/// tensor rows have no alignment guarantee.
///
/// Deliberately absent: any fused multiply-add. See the module docs.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[derive(Clone, Copy, Debug)]
pub struct F32x8(core::arch::x86_64::__m256);

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
impl F32x8 {
    /// Lane count.
    pub const LANES: usize = 8;

    /// All lanes set to `v`.
    ///
    /// # Safety
    ///
    /// Requires AVX (call under `#[target_feature(enable = "avx")]`).
    #[inline(always)]
    pub unsafe fn splat(v: f32) -> Self {
        F32x8(core::arch::x86_64::_mm256_set1_ps(v))
    }

    /// All lanes zero.
    ///
    /// # Safety
    ///
    /// Requires AVX.
    #[inline(always)]
    pub unsafe fn zero() -> Self {
        F32x8(core::arch::x86_64::_mm256_setzero_ps())
    }

    /// Unaligned load of `src[0..8]`.
    ///
    /// # Safety
    ///
    /// Requires AVX and `src.len() >= 8`.
    #[inline(always)]
    pub unsafe fn load(src: &[f32]) -> Self {
        debug_assert!(src.len() >= Self::LANES);
        F32x8(core::arch::x86_64::_mm256_loadu_ps(src.as_ptr()))
    }

    /// Unaligned store into `dst[0..8]`.
    ///
    /// # Safety
    ///
    /// Requires AVX and `dst.len() >= 8`.
    #[inline(always)]
    pub unsafe fn store(self, dst: &mut [f32]) {
        debug_assert!(dst.len() >= Self::LANES);
        core::arch::x86_64::_mm256_storeu_ps(dst.as_mut_ptr(), self.0);
    }

    /// Unaligned load of `src[0..8]` through a raw pointer — for the GEMM
    /// microkernels, whose slice bounds are established once per tile so
    /// the per-`k` loop carries no checks.
    ///
    /// # Safety
    ///
    /// Requires AVX and 8 readable floats at `src`.
    #[inline(always)]
    pub unsafe fn load_ptr(src: *const f32) -> Self {
        F32x8(core::arch::x86_64::_mm256_loadu_ps(src))
    }

    /// Unaligned store of 8 lanes through a raw pointer.
    ///
    /// # Safety
    ///
    /// Requires AVX and 8 writable floats at `dst`.
    #[inline(always)]
    pub unsafe fn store_ptr(self, dst: *mut f32) {
        core::arch::x86_64::_mm256_storeu_ps(dst, self.0);
    }

    /// Lanewise `self + rhs`.
    ///
    /// # Safety
    ///
    /// Requires AVX.
    #[inline(always)]
    pub unsafe fn add(self, rhs: Self) -> Self {
        F32x8(core::arch::x86_64::_mm256_add_ps(self.0, rhs.0))
    }

    /// Lanewise `self - rhs`.
    ///
    /// # Safety
    ///
    /// Requires AVX.
    #[inline(always)]
    pub unsafe fn sub(self, rhs: Self) -> Self {
        F32x8(core::arch::x86_64::_mm256_sub_ps(self.0, rhs.0))
    }

    /// Lanewise `self * rhs` (a separate rounding from any following add —
    /// never contracted to FMA).
    ///
    /// # Safety
    ///
    /// Requires AVX.
    #[inline(always)]
    pub unsafe fn mul(self, rhs: Self) -> Self {
        F32x8(core::arch::x86_64::_mm256_mul_ps(self.0, rhs.0))
    }

    /// Lanewise select: `if self > 0.0 { a } else { b }` (NaN lanes take
    /// `b`, matching scalar `v > 0.0` being false for NaN).
    ///
    /// # Safety
    ///
    /// Requires AVX.
    #[inline(always)]
    pub unsafe fn select_gt_zero(self, a: Self, b: Self) -> Self {
        use core::arch::x86_64::*;
        let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(self.0, _mm256_setzero_ps());
        F32x8(_mm256_blendv_ps(b.0, a.0, mask))
    }

    /// Transposes an 8×8 block held as eight row registers: lane `j` of
    /// output `i` is lane `i` of input `j`. Pure data movement (unpack,
    /// shuffle, lane permute), so values pass through bit for bit.
    ///
    /// # Safety
    ///
    /// Requires AVX.
    #[inline(always)]
    pub unsafe fn transpose8(rows: [Self; 8]) -> [Self; 8] {
        use core::arch::x86_64::*;
        let r = rows.map(|v| v.0);
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            F32x8(_mm256_permute2f128_ps::<0x20>(s0, s4)),
            F32x8(_mm256_permute2f128_ps::<0x20>(s1, s5)),
            F32x8(_mm256_permute2f128_ps::<0x20>(s2, s6)),
            F32x8(_mm256_permute2f128_ps::<0x20>(s3, s7)),
            F32x8(_mm256_permute2f128_ps::<0x31>(s0, s4)),
            F32x8(_mm256_permute2f128_ps::<0x31>(s1, s5)),
            F32x8(_mm256_permute2f128_ps::<0x31>(s2, s6)),
            F32x8(_mm256_permute2f128_ps::<0x31>(s3, s7)),
        ]
    }
}

// ----------------------------------------------------- elementwise ops
//
// Each operation has a scalar form and (under the feature) an AVX twin
// whose vector body applies the identical per-element formula, with the
// scalar form finishing the `len % 8` tail. The public function picks at
// runtime. The scalar forms are written multiplicatively (rule 3 above)
// so both paths are bit-identical by construction.

macro_rules! dispatch {
    ($avx:ident($($arg:expr),*), $scalar:ident) => {{
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if enabled() {
            // SAFETY: `enabled()` is true only when CPUID reports AVX.
            unsafe { $avx($($arg),*) };
            return;
        }
        $scalar($($arg),*)
    }};
}

/// In-place LReLU: `v = v * (v > 0 ? 1.0 : alpha)` — the cache-free
/// inference rectifier ([`crate::LeakyReLU::apply`]).
pub fn lrelu_apply(buf: &mut [f32], alpha: f32) {
    dispatch!(lrelu_apply_avx(buf, alpha), lrelu_apply_scalar)
}

fn lrelu_apply_scalar(buf: &mut [f32], alpha: f32) {
    for v in buf {
        let s = if *v > 0.0 { 1.0 } else { alpha };
        *v *= s;
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn lrelu_apply_avx(buf: &mut [f32], alpha: f32) {
    let ones = F32x8::splat(1.0);
    let alphas = F32x8::splat(alpha);
    let mut chunks = buf.chunks_exact_mut(F32x8::LANES);
    for c in &mut chunks {
        let v = F32x8::load(c);
        v.mul(v.select_gt_zero(ones, alphas)).store(c);
    }
    lrelu_apply_scalar(chunks.into_remainder(), alpha);
}

/// Training-mode LReLU forward: `out = x * s`, recording the per-element
/// scale `s ∈ {1.0, alpha}` for backward.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn lrelu_forward_scale(x: &[f32], out: &mut [f32], scale: &mut [f32], alpha: f32) {
    assert!(
        x.len() == out.len() && x.len() == scale.len(),
        "length mismatch"
    );
    dispatch!(
        lrelu_forward_scale_avx(x, out, scale, alpha),
        lrelu_forward_scale_scalar
    )
}

fn lrelu_forward_scale_scalar(x: &[f32], out: &mut [f32], scale: &mut [f32], alpha: f32) {
    for ((&v, o), s) in x.iter().zip(out.iter_mut()).zip(scale.iter_mut()) {
        *s = if v > 0.0 { 1.0 } else { alpha };
        *o = v * *s;
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn lrelu_forward_scale_avx(x: &[f32], out: &mut [f32], scale: &mut [f32], alpha: f32) {
    let ones = F32x8::splat(1.0);
    let alphas = F32x8::splat(alpha);
    let n = x.len() / F32x8::LANES * F32x8::LANES;
    for i in (0..n).step_by(F32x8::LANES) {
        let v = F32x8::load(&x[i..]);
        let s = v.select_gt_zero(ones, alphas);
        s.store(&mut scale[i..]);
        v.mul(s).store(&mut out[i..]);
    }
    lrelu_forward_scale_scalar(&x[n..], &mut out[n..], &mut scale[n..], alpha);
}

/// Lanewise `dst *= src` (LReLU backward: grad times cached scale).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn mul_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    dispatch!(mul_assign_avx(dst, src), mul_assign_scalar)
}

fn mul_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d *= s;
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn mul_assign_avx(dst: &mut [f32], src: &[f32]) {
    let n = dst.len() / F32x8::LANES * F32x8::LANES;
    for i in (0..n).step_by(F32x8::LANES) {
        F32x8::load(&dst[i..])
            .mul(F32x8::load(&src[i..]))
            .store(&mut dst[i..]);
    }
    mul_assign_scalar(&mut dst[n..], &src[n..]);
}

/// Lanewise `dst += src` (residual adds).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    dispatch!(add_assign_avx(dst, src), add_assign_scalar)
}

fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn add_assign_avx(dst: &mut [f32], src: &[f32]) {
    let n = dst.len() / F32x8::LANES * F32x8::LANES;
    for i in (0..n).step_by(F32x8::LANES) {
        F32x8::load(&dst[i..])
            .add(F32x8::load(&src[i..]))
            .store(&mut dst[i..]);
    }
    add_assign_scalar(&mut dst[n..], &src[n..]);
}

/// `dst += v` over a contiguous run (conv bias over one output plane).
pub fn add_scalar(dst: &mut [f32], v: f32) {
    dispatch!(add_scalar_avx(dst, v), add_scalar_scalar)
}

fn add_scalar_scalar(dst: &mut [f32], v: f32) {
    for d in dst {
        *d += v;
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn add_scalar_avx(dst: &mut [f32], v: f32) {
    let vs = F32x8::splat(v);
    let mut chunks = dst.chunks_exact_mut(F32x8::LANES);
    for c in &mut chunks {
        F32x8::load(c).add(vs).store(c);
    }
    add_scalar_scalar(chunks.into_remainder(), v);
}

/// Evaluation-mode BN normalize over one channel plane:
/// `out = ((g * (x - mean)) * inv) + b` — the exact association of the
/// scalar evaluation forward.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn bn_apply(x: &[f32], out: &mut [f32], mean: f32, inv: f32, g: f32, b: f32) {
    assert_eq!(x.len(), out.len(), "length mismatch");
    dispatch!(bn_apply_avx(x, out, mean, inv, g, b), bn_apply_scalar)
}

fn bn_apply_scalar(x: &[f32], out: &mut [f32], mean: f32, inv: f32, g: f32, b: f32) {
    for (&v, o) in x.iter().zip(out.iter_mut()) {
        *o = g * (v - mean) * inv + b;
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn bn_apply_avx(x: &[f32], out: &mut [f32], mean: f32, inv: f32, g: f32, b: f32) {
    let (means, invs) = (F32x8::splat(mean), F32x8::splat(inv));
    let (gs, bs) = (F32x8::splat(g), F32x8::splat(b));
    let n = x.len() / F32x8::LANES * F32x8::LANES;
    for i in (0..n).step_by(F32x8::LANES) {
        let v = F32x8::load(&x[i..]);
        // Same association as the scalar form: ((g*(x-mean))*inv)+b.
        gs.mul(v.sub(means)).mul(invs).add(bs).store(&mut out[i..]);
    }
    bn_apply_scalar(&x[n..], &mut out[n..], mean, inv, g, b);
}

/// Training-mode BN normalize over one channel plane: caches
/// `xhat = (x - mean) * inv` and writes `out = g * xhat + b` (the exact
/// association of the scalar training forward — note it differs from
/// [`bn_apply`]'s, which is why the two stay separate functions).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn bn_normalize_cache(
    x: &[f32],
    out: &mut [f32],
    xhat: &mut [f32],
    mean: f32,
    inv: f32,
    g: f32,
    b: f32,
) {
    assert!(
        x.len() == out.len() && x.len() == xhat.len(),
        "length mismatch"
    );
    dispatch!(
        bn_normalize_cache_avx(x, out, xhat, mean, inv, g, b),
        bn_normalize_cache_scalar
    )
}

#[allow(clippy::too_many_arguments)]
fn bn_normalize_cache_scalar(
    x: &[f32],
    out: &mut [f32],
    xhat: &mut [f32],
    mean: f32,
    inv: f32,
    g: f32,
    b: f32,
) {
    for ((&v, o), xh) in x.iter().zip(out.iter_mut()).zip(xhat.iter_mut()) {
        let h = (v - mean) * inv;
        *xh = h;
        *o = g * h + b;
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
unsafe fn bn_normalize_cache_avx(
    x: &[f32],
    out: &mut [f32],
    xhat: &mut [f32],
    mean: f32,
    inv: f32,
    g: f32,
    b: f32,
) {
    let (means, invs) = (F32x8::splat(mean), F32x8::splat(inv));
    let (gs, bs) = (F32x8::splat(g), F32x8::splat(b));
    let n = x.len() / F32x8::LANES * F32x8::LANES;
    for i in (0..n).step_by(F32x8::LANES) {
        let h = F32x8::load(&x[i..]).sub(means).mul(invs);
        h.store(&mut xhat[i..]);
        gs.mul(h).add(bs).store(&mut out[i..]);
    }
    bn_normalize_cache_scalar(&x[n..], &mut out[n..], &mut xhat[n..], mean, inv, g, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn randv(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()
    }

    /// Every elementwise op, vector vs scalar path, across remainder
    /// lengths — bit-identical by contract. (One test body, because
    /// [`set_enabled`] is process-global: splitting the toggling across
    /// concurrently-running `#[test]`s would race.)
    #[test]
    fn vector_paths_match_scalar_bitwise() {
        if !enabled() {
            return; // scalar-only build or CPU: nothing to compare
        }
        set_enabled(false);
        assert!(!enabled(), "set_enabled(false) must force the scalar path");
        set_enabled(true);
        assert!(enabled(), "set_enabled(true) must restore the vector path");
        let mut rng = StdRng::seed_from_u64(77);
        for len in [0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 100] {
            let x = randv(&mut rng, len);
            let base = randv(&mut rng, len);

            let mut a = base.clone();
            let mut b = base.clone();
            set_enabled(true);
            lrelu_apply(&mut a, 0.01);
            set_enabled(false);
            lrelu_apply(&mut b, 0.01);
            assert_eq!(a, b, "lrelu_apply len {len}");

            let (mut oa, mut ob) = (vec![0.0; len], vec![0.0; len]);
            let (mut sa, mut sb) = (vec![0.0; len], vec![0.0; len]);
            set_enabled(true);
            lrelu_forward_scale(&x, &mut oa, &mut sa, 0.01);
            set_enabled(false);
            lrelu_forward_scale(&x, &mut ob, &mut sb, 0.01);
            assert_eq!(oa, ob, "lrelu fwd len {len}");
            assert_eq!(sa, sb, "lrelu scale len {len}");

            let mut a = base.clone();
            let mut b = base.clone();
            set_enabled(true);
            mul_assign(&mut a, &x);
            set_enabled(false);
            mul_assign(&mut b, &x);
            assert_eq!(a, b, "mul_assign len {len}");

            let mut a = base.clone();
            let mut b = base.clone();
            set_enabled(true);
            add_assign(&mut a, &x);
            set_enabled(false);
            add_assign(&mut b, &x);
            assert_eq!(a, b, "add_assign len {len}");

            let mut a = base.clone();
            let mut b = base.clone();
            set_enabled(true);
            add_scalar(&mut a, 0.37);
            set_enabled(false);
            add_scalar(&mut b, 0.37);
            assert_eq!(a, b, "add_scalar len {len}");

            set_enabled(true);
            bn_apply(&x, &mut oa, 0.1, 1.7, 0.9, -0.2);
            set_enabled(false);
            bn_apply(&x, &mut ob, 0.1, 1.7, 0.9, -0.2);
            assert_eq!(oa, ob, "bn_apply len {len}");

            set_enabled(true);
            bn_normalize_cache(&x, &mut oa, &mut sa, 0.1, 1.7, 0.9, -0.2);
            set_enabled(false);
            bn_normalize_cache(&x, &mut ob, &mut sb, 0.1, 1.7, 0.9, -0.2);
            assert_eq!(oa, ob, "bn_normalize out len {len}");
            assert_eq!(sa, sb, "bn_normalize xhat len {len}");

            set_enabled(true);
        }

        // NaN lanes (module docs, rule 3 caveat): both LReLU paths
        // compute `NaN * alpha` with identical operand order, so even
        // the NaN output bits must agree between vector and scalar.
        let mut a = vec![f32::NAN, -f32::NAN, -1.0, 2.0];
        a.resize(17, f32::NAN); // one full vector body plus a tail
        let mut b = a.clone();
        set_enabled(true);
        lrelu_apply(&mut a, 0.01);
        set_enabled(false);
        lrelu_apply(&mut b, 0.01);
        set_enabled(true);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "NaN lrelu_apply parity");
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn transpose8_swaps_rows_and_columns() {
        if !std::arch::is_x86_feature_detected!("avx") {
            return;
        }
        let m: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut out = vec![0.0f32; 64];
        // SAFETY: AVX was detected above; every row slice holds 8 floats.
        unsafe {
            let rows = std::array::from_fn(|r| F32x8::load(&m[r * 8..]));
            for (i, col) in F32x8::transpose8(rows).iter().enumerate() {
                col.store(&mut out[i * 8..]);
            }
        }
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(out[i * 8 + j], m[j * 8 + i], "({i}, {j})");
            }
        }
    }

    /// The multiplicative LReLU form is bitwise equal to the historical
    /// branchy form (`if v <= 0 { v *= alpha }`) for every non-NaN input
    /// — the identity that made the scale-vector refactor safe. NaN is
    /// the one documented divergence (module docs, rule 3): the branchy
    /// form left NaN untouched, the multiplicative form computes
    /// `NaN * alpha`. Accepted behavior is "NaN stays NaN", with
    /// platform-defined payload bits.
    #[test]
    fn multiplicative_lrelu_equals_branchy_form() {
        let mut rng = StdRng::seed_from_u64(78);
        let mut a = randv(&mut rng, 1000);
        a.extend_from_slice(&[
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ]);
        let mut b = a.clone();
        lrelu_apply(&mut a, 0.01);
        for v in &mut b {
            if *v <= 0.0 {
                *v *= 0.01;
            }
        }
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
        // NaN: not bit-preserved (unlike the branchy form), but never
        // anything other than NaN.
        let mut n = vec![f32::NAN, -f32::NAN];
        lrelu_apply(&mut n, 0.01);
        assert!(n.iter().all(|v| v.is_nan()), "{n:?}");
    }
}
