//! Explicit f32 SIMD lanes for the compute engine (DESIGN.md §14).
//!
//! This module is the workspace's one home for vector intrinsics: the
//! `compat`-style lane wrappers [`F32x8`] (AVX `__m256`) and [`F32x16`]
//! (AVX-512 `__m512`), the [`Lanes`] surface the GEMM microkernel in
//! [`crate::compute`] is written against, the runtime dispatch ([`tier`],
//! capped by [`set_max_tier`]), and the vectorized elementwise hot paths
//! shared by the layers (LReLU, BN normalize and reductions, bias add,
//! residual add), which run at eight lanes.
//!
//! # The bit-identity contract
//!
//! Every function here produces results **bit-identical** to its scalar
//! fallback (and therefore to `compute::reference`), which is what lets
//! the engine switch freely between tiers — across machines, feature
//! configurations, and the [`set_max_tier`] cap — without perturbing
//! training trajectories or checkpoint resume. Three rules make that
//! possible:
//!
//! 1. **Lanes run across independent output elements, never across a
//!    reduction.** A vectorized loop computes eight (or sixteen)
//!    *separate* outputs per instruction; per-element reduction order
//!    (ascending `k`, one product at a time) is untouched.
//! 2. **Multiply and add stay separate instructions.** FMA contracts
//!    `a*b + c` into one rounding where the scalar code has two, which
//!    changes low bits — so `_mm256_fmadd_ps` and its 512-bit twin are
//!    banned from this codebase even where the CPU offers them.
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
//! feature on x86-64. At runtime [`tier`] is the widest [`Tier`] the CPU
//! supports (CPUID, cached on first query), capped process-wide by
//! [`set_max_tier`]. The cap starts from `PREFIXRL_NN_SIMD`: `0` or `off`
//! caps at [`Tier::Scalar`], `avx` at [`Tier::Avx`] (eight lanes even on
//! an AVX-512 host) — the same shape as the `PREFIXRL_NN_THREADS` budget.
//! Everything falls back to the scalar forms below AVX, so non-x86 targets
//! and `--no-default-features` builds are first-class, just slower.
//!
//! # Adding a lane width
//!
//! A width slots in as a sibling of [`F32x8`]: wrap the arch type,
//! implement [`Lanes`] (no FMA), give it a [`Tier`], and vectorize only
//! across outputs. Any function obeying those rules is automatically
//! bit-identical to the scalar fallback, so the parity suite
//! (`tests/simd_parity.rs`) needs no new oracles — only new shape coverage
//! for the added remainder widths.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

// ------------------------------------------------------------- dispatch

/// Whether the vector paths were compiled in at all.
const COMPILED: bool = cfg!(all(feature = "simd", target_arch = "x86_64"));

/// A kernel tier: the widest vectors the compute engine may use. Ordered
/// from narrowest to widest, so a cap is a `min`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// No explicit vectors: the scalar fallbacks.
    Scalar,
    /// AVX, eight lanes ([`F32x8`]) everywhere.
    Avx,
    /// AVX-512F: sixteen lanes ([`F32x16`]) for the GEMM products that
    /// measure faster at that width, eight for everything else.
    Avx512,
}

impl Tier {
    fn from_u8(v: u8) -> Tier {
        match v {
            0 => Tier::Scalar,
            1 => Tier::Avx,
            _ => Tier::Avx512,
        }
    }
}

/// The widest tier this build and CPU support (CPUID, cached).
pub fn cpu_tier() -> Tier {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        static CPU: OnceLock<Tier> = OnceLock::new();
        *CPU.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx512f") {
                Tier::Avx512
            } else if std::arch::is_x86_feature_detected!("avx") {
                Tier::Avx
            } else {
                Tier::Scalar
            }
        })
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        Tier::Scalar
    }
}

fn cap() -> &'static AtomicU8 {
    static CAP: OnceLock<AtomicU8> = OnceLock::new();
    CAP.get_or_init(|| {
        let cap = match std::env::var("PREFIXRL_NN_SIMD").as_deref() {
            Ok("0" | "off") => Tier::Scalar,
            Ok("avx") => Tier::Avx,
            _ => Tier::Avx512,
        };
        AtomicU8::new(cap as u8)
    })
}

/// The tier the kernels run at: [`cpu_tier`] capped by [`max_tier`].
///
/// Results are bit-identical at every tier; only throughput changes.
pub fn tier() -> Tier {
    cpu_tier().min(max_tier())
}

/// The process-wide cap on [`tier`] (initially from `PREFIXRL_NN_SIMD`).
pub fn max_tier() -> Tier {
    Tier::from_u8(cap().load(Ordering::Relaxed))
}

/// Caps [`tier`] process-wide at runtime (used by the parity suites and
/// the per-tier benchmark rows to compare every engine in one process).
/// A cap above what the CPU supports leaves [`tier`] at [`cpu_tier`].
pub fn set_max_tier(t: Tier) {
    cap().store(t as u8, Ordering::Relaxed);
}

/// Whether the vector paths are active: [`tier`] is at least
/// [`Tier::Avx`].
pub fn enabled() -> bool {
    tier() >= Tier::Avx
}

/// Whether the `simd` feature was compiled in for this target (reported
/// by benchmarks so BENCH_nn.json records which engine produced it).
pub fn compiled() -> bool {
    COMPILED
}

// ------------------------------------------------------------ the lanes

/// The lane surface of the GEMM microkernel: the handful of operations it
/// needs, implemented once per register width. Deliberately absent: any
/// fused multiply-add (see the module docs).
///
/// All methods are `unsafe` and `#[inline(always)]`: callers wrap their
/// loops in a `#[target_feature]` function for the implementing width, and
/// the methods inline into it so the compiler emits bare vector
/// instructions. Loads and stores are unaligned — tensor rows have no
/// alignment guarantee.
///
/// `[f32; 8]` implements it too, with plain lanewise loops and no CPU
/// feature: the scalar tier's lanes, so the microkernel and the loop nests
/// around it compile in every build and run at every tier.
///
/// # Safety
///
/// Every method requires the implementing width's CPU feature (AVX for
/// [`F32x8`], AVX-512F for [`F32x16`], none for `[f32; 8]`) and, for the
/// pointer methods, [`Lanes::LANES`] readable or writable floats at the
/// pointer.
pub trait Lanes: Copy {
    /// Lane count.
    const LANES: usize;
    /// All lanes `+0.0`.
    ///
    /// # Safety
    ///
    /// See the trait docs.
    unsafe fn zero() -> Self;
    /// All lanes set to `v`.
    ///
    /// # Safety
    ///
    /// See the trait docs.
    unsafe fn splat(v: f32) -> Self;
    /// Unaligned load of `LANES` floats at `src`.
    ///
    /// # Safety
    ///
    /// See the trait docs.
    unsafe fn load_ptr(src: *const f32) -> Self;
    /// Unaligned store of `LANES` floats at `dst`.
    ///
    /// # Safety
    ///
    /// See the trait docs.
    unsafe fn store_ptr(self, dst: *mut f32);
    /// Lanewise `self + rhs`.
    ///
    /// # Safety
    ///
    /// See the trait docs.
    unsafe fn add(self, rhs: Self) -> Self;
    /// Lanewise `self * rhs` (a separate rounding from any following add —
    /// never contracted to FMA).
    ///
    /// # Safety
    ///
    /// See the trait docs.
    unsafe fn mul(self, rhs: Self) -> Self;
}

impl Lanes for [f32; 8] {
    const LANES: usize = 8;

    #[inline(always)]
    unsafe fn zero() -> Self {
        [0.0; 8]
    }

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        [v; 8]
    }

    #[inline(always)]
    unsafe fn load_ptr(src: *const f32) -> Self {
        src.cast::<[f32; 8]>().read_unaligned()
    }

    #[inline(always)]
    unsafe fn store_ptr(self, dst: *mut f32) {
        dst.cast::<[f32; 8]>().write_unaligned(self);
    }

    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        std::array::from_fn(|i| self[i] + rhs[i])
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        std::array::from_fn(|i| self[i] * rhs[i])
    }
}

/// Eight f32 lanes over one AVX `__m256` register: the [`Lanes`] surface
/// plus the slice loads/stores, `sub`, select and transpose the
/// elementwise paths use. Callers guard on [`enabled`] and run under
/// `#[target_feature(enable = "avx")]`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[derive(Clone, Copy, Debug)]
pub struct F32x8(core::arch::x86_64::__m256);

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
impl Lanes for F32x8 {
    const LANES: usize = 8;

    #[inline(always)]
    unsafe fn zero() -> Self {
        F32x8(core::arch::x86_64::_mm256_setzero_ps())
    }

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        F32x8(core::arch::x86_64::_mm256_set1_ps(v))
    }

    #[inline(always)]
    unsafe fn load_ptr(src: *const f32) -> Self {
        F32x8(core::arch::x86_64::_mm256_loadu_ps(src))
    }

    #[inline(always)]
    unsafe fn store_ptr(self, dst: *mut f32) {
        core::arch::x86_64::_mm256_storeu_ps(dst, self.0);
    }

    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        F32x8(core::arch::x86_64::_mm256_add_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        F32x8(core::arch::x86_64::_mm256_mul_ps(self.0, rhs.0))
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
impl F32x8 {
    /// Unaligned load of `src[0..8]`.
    ///
    /// # Safety
    ///
    /// Requires AVX and `src.len() >= 8`.
    #[inline(always)]
    pub unsafe fn load(src: &[f32]) -> Self {
        debug_assert!(src.len() >= Self::LANES);
        Self::load_ptr(src.as_ptr())
    }

    /// Unaligned store into `dst[0..8]`.
    ///
    /// # Safety
    ///
    /// Requires AVX and `dst.len() >= 8`.
    #[inline(always)]
    pub unsafe fn store(self, dst: &mut [f32]) {
        debug_assert!(dst.len() >= Self::LANES);
        self.store_ptr(dst.as_mut_ptr());
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

/// Sixteen f32 lanes over one AVX-512 `__m512` register: the [`Lanes`]
/// surface only, for the GEMM microkernel's wide tier. Callers guard on
/// [`tier`] being [`Tier::Avx512`] and run under
/// `#[target_feature(enable = "avx512f")]`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[derive(Clone, Copy, Debug)]
pub struct F32x16(core::arch::x86_64::__m512);

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
impl Lanes for F32x16 {
    const LANES: usize = 16;

    #[inline(always)]
    unsafe fn zero() -> Self {
        F32x16(core::arch::x86_64::_mm512_setzero_ps())
    }

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        F32x16(core::arch::x86_64::_mm512_set1_ps(v))
    }

    #[inline(always)]
    unsafe fn load_ptr(src: *const f32) -> Self {
        F32x16(core::arch::x86_64::_mm512_loadu_ps(src))
    }

    #[inline(always)]
    unsafe fn store_ptr(self, dst: *mut f32) {
        core::arch::x86_64::_mm512_storeu_ps(dst, self.0);
    }

    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        F32x16(core::arch::x86_64::_mm512_add_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        F32x16(core::arch::x86_64::_mm512_mul_ps(self.0, rhs.0))
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

/// Per-channel f64 sums over an NCHW buffer of `n` samples, `c` channels
/// and `plane` positions: `sum_a[ci] = Σ a` and `sum_ab[ci] = Σ a·b` (each
/// factor widened to f64 first), over samples then positions in ascending
/// order, from `+0.0` — one sequential chain per channel, exactly the
/// batch-norm statistics loop. Pass `b = a` for `Σ a²`.
///
/// The vector path runs four channels side by side, one per f64 lane: it
/// loads four positions of each channel, transposes the 4×4 block so each
/// register holds the four channels at one position, and adds those
/// registers in position order. Lanes span channels, never positions, so
/// every channel keeps its scalar summation order.
///
/// # Panics
///
/// Panics if a slice is shorter than its extent.
pub fn bn_channel_sums(
    a: &[f32],
    b: &[f32],
    (n, c, plane): (usize, usize, usize),
    sum_a: &mut [f64],
    sum_ab: &mut [f64],
) {
    assert!(
        a.len() >= n * c * plane
            && b.len() >= n * c * plane
            && sum_a.len() >= c
            && sum_ab.len() >= c,
        "length mismatch"
    );
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if enabled() {
        // SAFETY: `enabled()` is true only when CPUID reports AVX; the
        // lengths were asserted above.
        unsafe { bn_channel_sums_avx(a, b, (n, c, plane), sum_a, sum_ab) };
        return;
    }
    bn_channel_sums_scalar(a, b, (n, c, plane), 0..c, sum_a, sum_ab)
}

fn bn_channel_sums_scalar(
    a: &[f32],
    b: &[f32],
    (n, c, plane): (usize, usize, usize),
    channels: std::ops::Range<usize>,
    sum_a: &mut [f64],
    sum_ab: &mut [f64],
) {
    for ci in channels {
        let (mut sa, mut sab) = (0.0f64, 0.0f64);
        for s in 0..n {
            let base = (s * c + ci) * plane;
            for (&x, &y) in a[base..base + plane].iter().zip(&b[base..base + plane]) {
                sa += x as f64;
                sab += x as f64 * y as f64;
            }
        }
        sum_a[ci] = sa;
        sum_ab[ci] = sab;
    }
}

/// Transposes a 4×4 f64 block held as four row registers (pure data
/// movement): lane `j` of output `i` is lane `i` of input `j`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
unsafe fn transpose4_pd(r: [core::arch::x86_64::__m256d; 4]) -> [core::arch::x86_64::__m256d; 4] {
    use core::arch::x86_64::*;
    let t0 = _mm256_unpacklo_pd(r[0], r[1]);
    let t1 = _mm256_unpackhi_pd(r[0], r[1]);
    let t2 = _mm256_unpacklo_pd(r[2], r[3]);
    let t3 = _mm256_unpackhi_pd(r[2], r[3]);
    [
        _mm256_permute2f128_pd::<0x20>(t0, t2),
        _mm256_permute2f128_pd::<0x20>(t1, t3),
        _mm256_permute2f128_pd::<0x31>(t0, t2),
        _mm256_permute2f128_pd::<0x31>(t1, t3),
    ]
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn bn_channel_sums_avx(
    a: &[f32],
    b: &[f32],
    (n, c, plane): (usize, usize, usize),
    sum_a: &mut [f64],
    sum_ab: &mut [f64],
) {
    use core::arch::x86_64::*;
    // `b = a` (the forward's Σx²) needs no second load or transpose.
    let square = std::ptr::eq(a.as_ptr(), b.as_ptr());
    let p4 = plane / 4 * 4;
    let groups = c / 4;
    for c0 in (0..groups * 4).step_by(4) {
        let (mut sa, mut sab) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        for s in 0..n {
            let base: [usize; 4] = std::array::from_fn(|j| (s * c + c0 + j) * plane);
            let load = |src: &[f32], p: usize| -> [__m256d; 4] {
                std::array::from_fn(|j| _mm256_cvtps_pd(_mm_loadu_ps(src[base[j] + p..].as_ptr())))
            };
            for p in (0..p4).step_by(4) {
                let ta = transpose4_pd(load(a, p));
                let tb = if square {
                    ta
                } else {
                    transpose4_pd(load(b, p))
                };
                for (&va, &vb) in ta.iter().zip(&tb) {
                    sa = _mm256_add_pd(sa, va);
                    sab = _mm256_add_pd(sab, _mm256_mul_pd(va, vb));
                }
            }
            for p in p4..plane {
                let at = |src: &[f32], j: usize| src[base[j] + p] as f64;
                let va = _mm256_set_pd(at(a, 3), at(a, 2), at(a, 1), at(a, 0));
                let vb = _mm256_set_pd(at(b, 3), at(b, 2), at(b, 1), at(b, 0));
                sa = _mm256_add_pd(sa, va);
                sab = _mm256_add_pd(sab, _mm256_mul_pd(va, vb));
            }
        }
        _mm256_storeu_pd(sum_a[c0..c0 + 4].as_mut_ptr(), sa);
        _mm256_storeu_pd(sum_ab[c0..c0 + 4].as_mut_ptr(), sab);
    }
    bn_channel_sums_scalar(a, b, (n, c, plane), groups * 4..c, sum_a, sum_ab);
}

/// Batch-norm backward over one channel plane:
/// `grad_in = k * ((m * dy - sum_dy) - xhat * sum_dy_xhat)` — the exact
/// association of the scalar backward.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn bn_backward_apply(
    dy: &[f32],
    xhat: &[f32],
    grad_in: &mut [f32],
    (k, m): (f32, f32),
    (sum_dy, sum_dy_xhat): (f32, f32),
) {
    assert!(
        dy.len() == xhat.len() && dy.len() == grad_in.len(),
        "length mismatch"
    );
    dispatch!(
        bn_backward_apply_avx(dy, xhat, grad_in, (k, m), (sum_dy, sum_dy_xhat)),
        bn_backward_apply_scalar
    )
}

fn bn_backward_apply_scalar(
    dy: &[f32],
    xhat: &[f32],
    grad_in: &mut [f32],
    (k, m): (f32, f32),
    (sum_dy, sum_dy_xhat): (f32, f32),
) {
    for ((&d, &h), g) in dy.iter().zip(xhat).zip(grad_in.iter_mut()) {
        *g = k * (m * d - sum_dy - h * sum_dy_xhat);
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn bn_backward_apply_avx(
    dy: &[f32],
    xhat: &[f32],
    grad_in: &mut [f32],
    (k, m): (f32, f32),
    (sum_dy, sum_dy_xhat): (f32, f32),
) {
    let (ks, ms) = (F32x8::splat(k), F32x8::splat(m));
    let (sd, sdx) = (F32x8::splat(sum_dy), F32x8::splat(sum_dy_xhat));
    let n = dy.len() / F32x8::LANES * F32x8::LANES;
    for i in (0..n).step_by(F32x8::LANES) {
        let (d, h) = (F32x8::load(&dy[i..]), F32x8::load(&xhat[i..]));
        // Same association as the scalar form: k*(((m*dy)-sdy)-(xhat*sdx)).
        ks.mul(ms.mul(d).sub(sd).sub(h.mul(sdx)))
            .store(&mut grad_in[i..]);
    }
    bn_backward_apply_scalar(
        &dy[n..],
        &xhat[n..],
        &mut grad_in[n..],
        (k, m),
        (sum_dy, sum_dy_xhat),
    );
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
    /// [`set_max_tier`] is process-global: splitting the toggling across
    /// concurrently-running `#[test]`s would race.)
    #[test]
    fn vector_paths_match_scalar_bitwise() {
        if !enabled() {
            return; // scalar-only build or CPU: nothing to compare
        }
        let saved = max_tier();
        set_max_tier(Tier::Scalar);
        assert!(!enabled(), "a Scalar cap must force the scalar path");
        set_max_tier(Tier::Avx512);
        assert!(enabled(), "lifting the cap must restore the vector path");
        let mut rng = StdRng::seed_from_u64(77);
        for len in [0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 100] {
            let x = randv(&mut rng, len);
            let base = randv(&mut rng, len);

            let mut a = base.clone();
            let mut b = base.clone();
            set_max_tier(Tier::Avx512);
            lrelu_apply(&mut a, 0.01);
            set_max_tier(Tier::Scalar);
            lrelu_apply(&mut b, 0.01);
            assert_eq!(a, b, "lrelu_apply len {len}");

            let (mut oa, mut ob) = (vec![0.0; len], vec![0.0; len]);
            let (mut sa, mut sb) = (vec![0.0; len], vec![0.0; len]);
            set_max_tier(Tier::Avx512);
            lrelu_forward_scale(&x, &mut oa, &mut sa, 0.01);
            set_max_tier(Tier::Scalar);
            lrelu_forward_scale(&x, &mut ob, &mut sb, 0.01);
            assert_eq!(oa, ob, "lrelu fwd len {len}");
            assert_eq!(sa, sb, "lrelu scale len {len}");

            let mut a = base.clone();
            let mut b = base.clone();
            set_max_tier(Tier::Avx512);
            mul_assign(&mut a, &x);
            set_max_tier(Tier::Scalar);
            mul_assign(&mut b, &x);
            assert_eq!(a, b, "mul_assign len {len}");

            let mut a = base.clone();
            let mut b = base.clone();
            set_max_tier(Tier::Avx512);
            add_assign(&mut a, &x);
            set_max_tier(Tier::Scalar);
            add_assign(&mut b, &x);
            assert_eq!(a, b, "add_assign len {len}");

            let mut a = base.clone();
            let mut b = base.clone();
            set_max_tier(Tier::Avx512);
            add_scalar(&mut a, 0.37);
            set_max_tier(Tier::Scalar);
            add_scalar(&mut b, 0.37);
            assert_eq!(a, b, "add_scalar len {len}");

            set_max_tier(Tier::Avx512);
            bn_apply(&x, &mut oa, 0.1, 1.7, 0.9, -0.2);
            set_max_tier(Tier::Scalar);
            bn_apply(&x, &mut ob, 0.1, 1.7, 0.9, -0.2);
            assert_eq!(oa, ob, "bn_apply len {len}");

            set_max_tier(Tier::Avx512);
            bn_normalize_cache(&x, &mut oa, &mut sa, 0.1, 1.7, 0.9, -0.2);
            set_max_tier(Tier::Scalar);
            bn_normalize_cache(&x, &mut ob, &mut sb, 0.1, 1.7, 0.9, -0.2);
            assert_eq!(oa, ob, "bn_normalize out len {len}");
            assert_eq!(sa, sb, "bn_normalize xhat len {len}");

            set_max_tier(Tier::Avx512);
        }

        // NaN lanes (module docs, rule 3 caveat): both LReLU paths
        // compute `NaN * alpha` with identical operand order, so even
        // the NaN output bits must agree between vector and scalar.
        let mut a = vec![f32::NAN, -f32::NAN, -1.0, 2.0];
        a.resize(17, f32::NAN); // one full vector body plus a tail
        let mut b = a.clone();
        set_max_tier(Tier::Avx512);
        lrelu_apply(&mut a, 0.01);
        set_max_tier(Tier::Scalar);
        lrelu_apply(&mut b, 0.01);
        set_max_tier(saved);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "NaN lrelu_apply parity");
    }

    /// The batch-norm kernels against their scalar twins, called directly
    /// (no global switch): channel counts on and off the 4-lane grouping,
    /// planes with and without a tail, one sample and several.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn batchnorm_kernels_match_scalar_twins_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx") {
            return;
        }
        let mut rng = StdRng::seed_from_u64(79);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Magnitudes across 2^±20, so the f64 sums round and any change of
        // summation order shows in their bits.
        let mut wide = |len: usize| -> Vec<f32> {
            let v = randv(&mut rng, len);
            v.iter()
                .map(|x| x * 2f32.powi(rng.random_range(-20..20)))
                .collect()
        };
        for (n, c, plane) in [
            (1, 1, 1),
            (1, 4, 4),
            (2, 5, 7),
            (3, 8, 9),
            (1, 12, 256),
            (4, 13, 15),
        ] {
            let a = wide(n * c * plane);
            let b = wide(n * c * plane);
            for b in [&a, &b] {
                let (mut sa, mut sab) = (vec![0.0; c], vec![0.0; c]);
                let (mut ra, mut rab) = (vec![0.0; c], vec![0.0; c]);
                // SAFETY: AVX was detected above; the slices hold n·c·plane
                // floats and c sums.
                unsafe { bn_channel_sums_avx(&a, b, (n, c, plane), &mut sa, &mut sab) };
                bn_channel_sums_scalar(&a, b, (n, c, plane), 0..c, &mut ra, &mut rab);
                assert_eq!(bits(&sa), bits(&ra), "Σa at {n}x{c}x{plane}");
                assert_eq!(bits(&sab), bits(&rab), "Σab at {n}x{c}x{plane}");
            }
            let len = n * c * plane;
            let (mut va, mut sc) = (vec![0.0; len], vec![0.0; len]);
            let consts = ((0.37, len as f32), (-1.25, 0.625));
            // SAFETY: as above; the three slices have equal lengths.
            unsafe { bn_backward_apply_avx(&a, &b, &mut va, consts.0, consts.1) };
            bn_backward_apply_scalar(&a, &b, &mut sc, consts.0, consts.1);
            assert_eq!(va, sc, "bn backward at {n}x{c}x{plane}");
        }
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
