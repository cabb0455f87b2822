//! Explicit f32 SIMD lanes for the compute engine (DESIGN.md §14).
//!
//! This module is the workspace's one home for vector intrinsics: the
//! `compat`-style lane wrappers [`F32x8`] (AVX `__m256`) and [`F32x16`]
//! (AVX-512 `__m512`), the [`Lanes`] surface that the GEMM microkernel in
//! [`crate::compute`] and the elementwise kernels below are written
//! against, the runtime dispatch ([`tier`], capped by [`set_max_tier`]),
//! and the elementwise hot paths shared by the layers (LReLU, BN normalize
//! and reductions, bias add, residual add), which run at eight lanes.
//!
//! # The bit-identity contract
//!
//! Every function here produces results **bit-identical** at every tier
//! (and therefore to `compute::reference`), which is what lets the engine
//! switch freely between tiers — across machines and the [`set_max_tier`]
//! cap — without perturbing training trajectories or checkpoint resume.
//! Three rules make that possible:
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
//!    are platform-defined — and every tier runs the one body with the
//!    same operand order, so the tiers stay bit-identical to each other.
//!    What is lost is bit-equivalence with the pre-SIMD kernels on NaN
//!    activations, i.e. only after training has already diverged.
//!
//! # Dispatch
//!
//! The vector tiers are compiled into every x86-64 build. At runtime
//! [`tier`] is the widest [`Tier`] the CPU supports (CPUID, cached on
//! first query), capped process-wide by [`set_max_tier`]. The cap starts
//! from `PREFIXRL_NN_SIMD`: `0` or `off` caps at [`Tier::Scalar`], `avx`
//! at [`Tier::Avx`] (eight lanes even on an AVX-512 host). Below AVX, and
//! on every other target, everything runs at the scalar tier: the same
//! loop nests and kernel bodies on portable lanes, just slower.
//!
//! # Adding a lane width
//!
//! A width slots in as a sibling of [`F32x8`]: wrap the arch type,
//! implement [`Lanes`] (no FMA), give it a [`Tier`], and instantiate the
//! generic loop nests at it under its `#[target_feature]`. Every kernel is
//! one body over [`Lanes`] that vectorizes only across outputs, so the new
//! width is bit-identical to the scalar tier by construction; the parity
//! suite (`tests/simd_parity.rs`) and the scalar-loop oracle in this
//! module's tests need no new oracles — only shape coverage for the added
//! remainder widths.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

// ------------------------------------------------------------- dispatch

/// A kernel tier: the widest vectors the compute engine may use. Ordered
/// from narrowest to widest, so a cap is a `min`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// No explicit vectors: the kernel bodies on portable lanes.
    Scalar,
    /// AVX, eight lanes ([`F32x8`]) everywhere.
    Avx,
    /// AVX-512F: sixteen lanes ([`F32x16`]) for the conv products that
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
    #[cfg(target_arch = "x86_64")]
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
    #[cfg(not(target_arch = "x86_64"))]
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

/// Whether the vector tiers are compiled for this target, i.e. it is
/// x86-64 (reported by benchmarks so BENCH_nn.json records which engine
/// produced it).
pub fn compiled() -> bool {
    cfg!(target_arch = "x86_64")
}

// ------------------------------------------------------------ the lanes

/// The lane surface that the GEMM microkernel and the elementwise kernels
/// are written against: the handful of operations they need, implemented
/// once per register width. Deliberately absent: any fused multiply-add
/// (see the module docs).
///
/// All methods are `unsafe` and `#[inline(always)]`: callers wrap their
/// loops in a `#[target_feature]` function for the implementing width, and
/// the methods inline into it so the compiler emits bare vector
/// instructions. Loads and stores are unaligned — tensor rows have no
/// alignment guarantee.
///
/// Two portable widths need no CPU feature: `[f32; 8]`, the scalar tier's
/// lanes for the microkernel and the loop nests around it, and `f32`, one
/// lane, which runs the elementwise kernels at the scalar tier and every
/// kernel's tail at the vector tiers.
///
/// # Safety
///
/// Every method requires the implementing width's CPU feature (AVX for
/// [`F32x8`], AVX-512F for [`F32x16`], none for `f32` and `[f32; 8]`)
/// and, for the pointer methods, [`Lanes::LANES`] readable or writable
/// floats at the pointer.
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
    /// Lanewise `self - rhs`.
    ///
    /// # Safety
    ///
    /// See the trait docs.
    unsafe fn sub(self, rhs: Self) -> Self;
    /// Lanewise `self * rhs` (a separate rounding from any following add —
    /// never contracted to FMA).
    ///
    /// # Safety
    ///
    /// See the trait docs.
    unsafe fn mul(self, rhs: Self) -> Self;
    /// Lanewise select: `if self > 0.0 { a } else { b }` (NaN lanes take
    /// `b`, as scalar `v > 0.0` is false for NaN).
    ///
    /// # Safety
    ///
    /// See the trait docs.
    unsafe fn select_gt_zero(self, a: Self, b: Self) -> Self;
}

impl Lanes for f32 {
    const LANES: usize = 1;

    #[inline(always)]
    unsafe fn zero() -> Self {
        0.0
    }

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        v
    }

    #[inline(always)]
    unsafe fn load_ptr(src: *const f32) -> Self {
        src.read()
    }

    #[inline(always)]
    unsafe fn store_ptr(self, dst: *mut f32) {
        dst.write(self);
    }

    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        self + rhs
    }

    #[inline(always)]
    unsafe fn sub(self, rhs: Self) -> Self {
        self - rhs
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        self * rhs
    }

    #[inline(always)]
    unsafe fn select_gt_zero(self, a: Self, b: Self) -> Self {
        if self > 0.0 {
            a
        } else {
            b
        }
    }
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
    unsafe fn sub(self, rhs: Self) -> Self {
        std::array::from_fn(|i| self[i] - rhs[i])
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        std::array::from_fn(|i| self[i] * rhs[i])
    }

    #[inline(always)]
    unsafe fn select_gt_zero(self, a: Self, b: Self) -> Self {
        std::array::from_fn(|i| self[i].select_gt_zero(a[i], b[i]))
    }
}

/// Eight f32 lanes over one AVX `__m256` register: the [`Lanes`] surface
/// plus the 8×8 transpose the vector tiers' panel packing uses. Callers
/// guard on [`enabled`] and run under `#[target_feature(enable = "avx")]`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct F32x8(core::arch::x86_64::__m256);

#[cfg(target_arch = "x86_64")]
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
    unsafe fn sub(self, rhs: Self) -> Self {
        F32x8(core::arch::x86_64::_mm256_sub_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        F32x8(core::arch::x86_64::_mm256_mul_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn select_gt_zero(self, a: Self, b: Self) -> Self {
        use core::arch::x86_64::*;
        let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(self.0, _mm256_setzero_ps());
        F32x8(_mm256_blendv_ps(b.0, a.0, mask))
    }
}

#[cfg(target_arch = "x86_64")]
impl F32x8 {
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
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct F32x16(core::arch::x86_64::__m512);

#[cfg(target_arch = "x86_64")]
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
    unsafe fn sub(self, rhs: Self) -> Self {
        F32x16(core::arch::x86_64::_mm512_sub_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        F32x16(core::arch::x86_64::_mm512_mul_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn select_gt_zero(self, a: Self, b: Self) -> Self {
        use core::arch::x86_64::*;
        let mask = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(self.0, _mm512_setzero_ps());
        F32x16(_mm512_mask_blend_ps(mask, b.0, a.0))
    }
}

// ----------------------------------------------------- elementwise ops
//
// Each f32 operation is one body, an `Elementwise::step` written once over
// `Lanes`. `run` steps it at eight lanes (`F32x8`, under AVX) at both
// vector tiers and at one lane (`f32`) at the scalar tier, and finishes
// the `len % 8` tail at one lane. A body applies the same per-element
// formula in the same association at every width, so the tiers are
// bit-identical by construction; the scalar-loop oracle in this module's
// tests pins each formula. The selects are multiplicative (rule 3 above).

/// One elementwise kernel: its slices and constants, and the body.
trait Elementwise {
    /// Computes the `V::LANES` elements from `i`.
    ///
    /// # Safety
    ///
    /// `V`'s CPU feature, and `i + V::LANES` at most the length [`run`]
    /// was given.
    unsafe fn step<V: Lanes>(&mut self, i: usize);
}

/// Runs `kernel` over elements `0..len` at the width [`tier`] selects.
///
/// # Safety
///
/// Every slice the kernel touches holds at least `len` floats.
unsafe fn run(len: usize, kernel: impl Elementwise) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` is true only when CPUID reports AVX.
        sweep_avx(len, kernel);
        return;
    }
    sweep::<f32>(len, kernel)
}

/// [`sweep`] at eight lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn sweep_avx(len: usize, kernel: impl Elementwise) {
    sweep::<F32x8>(len, kernel)
}

/// Steps `kernel` over `0..len`, `V::LANES` elements at a time, then the
/// tail one lane at a time.
#[inline(always)]
unsafe fn sweep<V: Lanes>(len: usize, mut kernel: impl Elementwise) {
    let body = len / V::LANES * V::LANES;
    for i in (0..body).step_by(V::LANES) {
        kernel.step::<V>(i);
    }
    for i in body..len {
        kernel.step::<f32>(i);
    }
}

/// `V::LANES` floats of `src` from `i`.
#[inline(always)]
unsafe fn load<V: Lanes>(src: &[f32], i: usize) -> V {
    V::load_ptr(src.as_ptr().add(i))
}

/// Stores `v` into `dst` from `i`.
#[inline(always)]
unsafe fn store<V: Lanes>(v: V, dst: &mut [f32], i: usize) {
    v.store_ptr(dst.as_mut_ptr().add(i));
}

/// In-place LReLU: `v = v * (v > 0 ? 1.0 : alpha)` — the cache-free
/// inference rectifier ([`crate::LeakyReLU::apply`]).
pub fn lrelu_apply(buf: &mut [f32], alpha: f32) {
    struct K<'a>(&'a mut [f32], f32);
    impl Elementwise for K<'_> {
        #[inline(always)]
        unsafe fn step<V: Lanes>(&mut self, i: usize) {
            let v: V = load(self.0, i);
            let s = v.select_gt_zero(V::splat(1.0), V::splat(self.1));
            store(v.mul(s), self.0, i);
        }
    }
    // SAFETY: the kernel touches `buf` only.
    unsafe { run(buf.len(), K(buf, alpha)) }
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
    struct K<'a>(&'a [f32], &'a mut [f32], &'a mut [f32], f32);
    impl Elementwise for K<'_> {
        #[inline(always)]
        unsafe fn step<V: Lanes>(&mut self, i: usize) {
            let v: V = load(self.0, i);
            let s = v.select_gt_zero(V::splat(1.0), V::splat(self.3));
            store(s, self.2, i);
            store(v.mul(s), self.1, i);
        }
    }
    // SAFETY: the lengths were asserted equal above.
    unsafe { run(x.len(), K(x, out, scale, alpha)) }
}

/// Lanewise `dst *= src` (LReLU backward: grad times cached scale).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn mul_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    struct K<'a>(&'a mut [f32], &'a [f32]);
    impl Elementwise for K<'_> {
        #[inline(always)]
        unsafe fn step<V: Lanes>(&mut self, i: usize) {
            let v = load::<V>(self.0, i).mul(load(self.1, i));
            store(v, self.0, i);
        }
    }
    // SAFETY: the lengths were asserted equal above.
    unsafe { run(dst.len(), K(dst, src)) }
}

/// Lanewise `dst += src` (residual adds).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    struct K<'a>(&'a mut [f32], &'a [f32]);
    impl Elementwise for K<'_> {
        #[inline(always)]
        unsafe fn step<V: Lanes>(&mut self, i: usize) {
            let v = load::<V>(self.0, i).add(load(self.1, i));
            store(v, self.0, i);
        }
    }
    // SAFETY: the lengths were asserted equal above.
    unsafe { run(dst.len(), K(dst, src)) }
}

/// `dst += v` over a contiguous run (conv bias over one output plane).
pub fn add_scalar(dst: &mut [f32], v: f32) {
    struct K<'a>(&'a mut [f32], f32);
    impl Elementwise for K<'_> {
        #[inline(always)]
        unsafe fn step<V: Lanes>(&mut self, i: usize) {
            let v = load::<V>(self.0, i).add(V::splat(self.1));
            store(v, self.0, i);
        }
    }
    // SAFETY: the kernel touches `dst` only.
    unsafe { run(dst.len(), K(dst, v)) }
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
    struct K<'a>(&'a [f32], &'a mut [f32], [f32; 4]);
    impl Elementwise for K<'_> {
        #[inline(always)]
        unsafe fn step<V: Lanes>(&mut self, i: usize) {
            let [mean, inv, g, b] = self.2.map(|c| V::splat(c));
            let v = g.mul(load::<V>(self.0, i).sub(mean)).mul(inv).add(b);
            store(v, self.1, i);
        }
    }
    // SAFETY: the lengths were asserted equal above.
    unsafe { run(x.len(), K(x, out, [mean, inv, g, b])) }
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
    struct K<'a>(&'a [f32], &'a mut [f32], &'a mut [f32], [f32; 4]);
    impl Elementwise for K<'_> {
        #[inline(always)]
        unsafe fn step<V: Lanes>(&mut self, i: usize) {
            let [mean, inv, g, b] = self.3.map(|c| V::splat(c));
            let h = load::<V>(self.0, i).sub(mean).mul(inv);
            store(h, self.2, i);
            store(g.mul(h).add(b), self.1, i);
        }
    }
    // SAFETY: the lengths were asserted equal above.
    unsafe { run(x.len(), K(x, out, xhat, [mean, inv, g, b])) }
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
/// every channel keeps its scalar summation order. It is the one kernel
/// here on f64 lanes, with channels rather than elements side by side, so
/// it keeps an explicit AVX body beside its scalar form instead of one
/// body over [`Lanes`].
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
    #[cfg(target_arch = "x86_64")]
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
#[cfg(target_arch = "x86_64")]
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

#[cfg(target_arch = "x86_64")]
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
    struct K<'a>(&'a [f32], &'a [f32], &'a mut [f32], [f32; 4]);
    impl Elementwise for K<'_> {
        #[inline(always)]
        unsafe fn step<V: Lanes>(&mut self, i: usize) {
            let [k, m, sd, sdx] = self.3.map(|c| V::splat(c));
            let (d, h) = (load::<V>(self.0, i), load::<V>(self.1, i));
            store(k.mul(m.mul(d).sub(sd).sub(h.mul(sdx))), self.2, i);
        }
    }
    // SAFETY: the lengths were asserted equal above.
    unsafe { run(dy.len(), K(dy, xhat, grad_in, [k, m, sum_dy, sum_dy_xhat])) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn randv(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()
    }

    /// Values with magnitudes across 2^±20, so a changed association or
    /// summation order shows in the low bits of the results.
    fn wide(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * 2f32.powi(rng.random_range(-20..20)))
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every elementwise kernel, at every tier cap, against a verbatim
    /// scalar loop of its formula, bit for bit: lengths on both sides of
    /// the eight-lane body and its tail, and `bn_channel_sums` with and
    /// without its `b = a` shortcut, on channel counts on and off its
    /// four-lane grouping. (One test body, because [`set_max_tier`] is
    /// process-global: splitting the caps across concurrently-running
    /// `#[test]`s would race.)
    #[test]
    fn vector_paths_match_scalar_bitwise() {
        let saved = max_tier();
        let mut rng = StdRng::seed_from_u64(77);
        let alpha = 0.01;
        let (mean, inv, g, b) = (0.1, 1.7, 0.9, -0.2);
        let (km, sums) = ((0.37, 3.0), (-1.25, 0.625));
        for tier in [Tier::Scalar, Tier::Avx, Tier::Avx512] {
            set_max_tier(tier);
            assert_eq!(enabled(), tier.min(cpu_tier()) >= Tier::Avx);
            for len in [0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 100] {
                let (x, y) = (wide(&mut rng, len), wide(&mut rng, len));
                let check = |what: &str, got: &[f32], want: Vec<f32>| {
                    assert_eq!(bits(got), bits(&want), "{what} at {tier:?}, len {len}");
                };
                let scale = |v: f32| if v > 0.0 { 1.0 } else { alpha };

                let mut got = x.clone();
                lrelu_apply(&mut got, alpha);
                check(
                    "lrelu_apply",
                    &got,
                    x.iter().map(|&v| v * scale(v)).collect(),
                );

                let (mut out, mut s) = (vec![0.0; len], vec![0.0; len]);
                lrelu_forward_scale(&x, &mut out, &mut s, alpha);
                check("lrelu scale", &s, x.iter().map(|&v| scale(v)).collect());
                check("lrelu out", &out, x.iter().map(|&v| v * scale(v)).collect());

                let mut got = y.clone();
                mul_assign(&mut got, &x);
                check(
                    "mul_assign",
                    &got,
                    y.iter().zip(&x).map(|(d, s)| d * s).collect(),
                );

                let mut got = y.clone();
                add_assign(&mut got, &x);
                check(
                    "add_assign",
                    &got,
                    y.iter().zip(&x).map(|(d, s)| d + s).collect(),
                );

                let mut got = y.clone();
                add_scalar(&mut got, 0.37);
                check("add_scalar", &got, y.iter().map(|d| d + 0.37).collect());

                bn_apply(&x, &mut out, mean, inv, g, b);
                check(
                    "bn_apply",
                    &out,
                    x.iter().map(|&v| g * (v - mean) * inv + b).collect(),
                );

                let mut xhat = vec![0.0; len];
                bn_normalize_cache(&x, &mut out, &mut xhat, mean, inv, g, b);
                let hs: Vec<f32> = x.iter().map(|&v| (v - mean) * inv).collect();
                check(
                    "bn_normalize out",
                    &out,
                    hs.iter().map(|&h| g * h + b).collect(),
                );
                check("bn_normalize xhat", &xhat, hs);

                bn_backward_apply(&x, &y, &mut out, km, sums);
                let ((k, m), (sd, sdx)) = (km, sums);
                let want = x.iter().zip(&y).map(|(&d, &h)| k * (m * d - sd - h * sdx));
                check("bn_backward_apply", &out, want.collect());

                for (n, c) in [(1, 1), (2, 5), (3, 8)] {
                    let (a, other) = (wide(&mut rng, n * c * len), wide(&mut rng, n * c * len));
                    for bv in [&a, &other] {
                        let (mut sa, mut sab) = (vec![0.0; c], vec![0.0; c]);
                        bn_channel_sums(&a, bv, (n, c, len), &mut sa, &mut sab);
                        for ci in 0..c {
                            let (mut wa, mut wab) = (0.0f64, 0.0f64);
                            for s in 0..n {
                                for p in 0..len {
                                    let at = (s * c + ci) * len + p;
                                    wa += a[at] as f64;
                                    wab += a[at] as f64 * bv[at] as f64;
                                }
                            }
                            let at = format!("channel {ci} of {n}x{c}x{len} at {tier:?}");
                            assert_eq!(sa[ci].to_bits(), wa.to_bits(), "Σa, {at}");
                            assert_eq!(sab[ci].to_bits(), wab.to_bits(), "Σab, {at}");
                        }
                    }
                }
            }
        }

        // NaN lanes (module docs, rule 3 caveat): every tier computes
        // `NaN * alpha` with identical operand order, so even the NaN
        // output bits must agree between vector and scalar.
        let mut a = vec![f32::NAN, -f32::NAN, -1.0, 2.0];
        a.resize(17, f32::NAN); // two full vector bodies plus a tail
        let mut b = a.clone();
        set_max_tier(Tier::Avx512);
        lrelu_apply(&mut a, 0.01);
        set_max_tier(Tier::Scalar);
        lrelu_apply(&mut b, 0.01);
        set_max_tier(saved);
        assert_eq!(bits(&a), bits(&b), "NaN lrelu_apply parity");
    }

    /// `bn_channel_sums`' AVX body against its scalar form, called
    /// directly (no global switch), and `bn_backward_apply` against a
    /// verbatim scalar loop: channel counts on and off the 4-lane
    /// grouping, planes with and without a tail, one sample and several.
    /// `bn_backward_apply` runs at whatever cap is set (the tiers are
    /// bit-identical, so a concurrent cap change cannot fail it).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn batchnorm_kernels_match_scalar_twins_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx") {
            return;
        }
        let mut rng = StdRng::seed_from_u64(79);
        let bits64 = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (n, c, plane) in [
            (1, 1, 1),
            (1, 4, 4),
            (2, 5, 7),
            (3, 8, 9),
            (1, 12, 256),
            (4, 13, 15),
        ] {
            let len = n * c * plane;
            let (a, other) = (wide(&mut rng, len), wide(&mut rng, len));
            for b in [&a, &other] {
                let (mut sa, mut sab) = (vec![0.0; c], vec![0.0; c]);
                let (mut ra, mut rab) = (vec![0.0; c], vec![0.0; c]);
                // SAFETY: AVX was detected above; the slices hold n·c·plane
                // floats and c sums.
                unsafe { bn_channel_sums_avx(&a, b, (n, c, plane), &mut sa, &mut sab) };
                bn_channel_sums_scalar(&a, b, (n, c, plane), 0..c, &mut ra, &mut rab);
                assert_eq!(bits64(&sa), bits64(&ra), "Σa at {n}x{c}x{plane}");
                assert_eq!(bits64(&sab), bits64(&rab), "Σab at {n}x{c}x{plane}");
            }
            let mut out = vec![0.0; len];
            let ((k, m), (sd, sdx)) = ((0.37, len as f32), (-1.25, 0.625));
            bn_backward_apply(&a, &other, &mut out, (k, m), (sd, sdx));
            let want: Vec<f32> = a
                .iter()
                .zip(&other)
                .map(|(&d, &h)| k * (m * d - sd - h * sdx))
                .collect();
            assert_eq!(bits(&out), bits(&want), "bn backward at {n}x{c}x{plane}");
        }
    }

    /// `sub` and the `> 0` select at one width over sixteen lanes.
    ///
    /// # Safety
    ///
    /// `V`'s CPU feature.
    #[inline(always)]
    unsafe fn sub_select<V: Lanes>(x: &[f32; 16], y: &[f32; 16]) -> [[f32; 16]; 2] {
        let mut out = [[0.0; 16]; 2];
        for i in (0..16).step_by(V::LANES) {
            let (a, b) = (V::load_ptr(x[i..].as_ptr()), V::load_ptr(y[i..].as_ptr()));
            a.sub(b).store_ptr(out[0][i..].as_mut_ptr());
            a.select_gt_zero(a, b).store_ptr(out[1][i..].as_mut_ptr());
        }
        out
    }

    /// `sub` and the select agree lane for lane at every width, on signed
    /// zeros, infinities, subnormals and NaN.
    #[test]
    fn lane_widths_agree_on_sub_and_select() {
        let x = [
            -0.0,
            0.0,
            1.5,
            -1.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-40,
            -1e-40,
            3e38,
            -3e38,
            2.0,
            -7.25,
            0.5,
        ];
        let mut y = x;
        y.reverse();
        // SAFETY: `f32` needs no CPU feature.
        let want = unsafe { sub_select::<f32>(&x, &y) };
        assert_eq!(want[1][0].to_bits(), y[0].to_bits(), "-0.0 > 0 is false");
        assert_eq!(want[1][6].to_bits(), y[6].to_bits(), "NaN > 0 is false");
        let same = |got: [[f32; 16]; 2], width: &str| {
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(bits(g), bits(w), "{width}");
            }
        };
        // SAFETY: `[f32; 8]` needs no CPU feature.
        same(unsafe { sub_select::<[f32; 8]>(&x, &y) }, "[f32; 8]");
        #[cfg(target_arch = "x86_64")]
        {
            /// [`sub_select`] at eight lanes. Requires AVX.
            #[target_feature(enable = "avx")]
            unsafe fn at8(x: &[f32; 16], y: &[f32; 16]) -> [[f32; 16]; 2] {
                sub_select::<F32x8>(x, y)
            }
            /// [`sub_select`] at sixteen lanes. Requires AVX-512F.
            #[target_feature(enable = "avx512f")]
            unsafe fn at16(x: &[f32; 16], y: &[f32; 16]) -> [[f32; 16]; 2] {
                sub_select::<F32x16>(x, y)
            }
            if cpu_tier() >= Tier::Avx {
                // SAFETY: CPUID reports AVX.
                same(unsafe { at8(&x, &y) }, "F32x8");
            }
            if cpu_tier() >= Tier::Avx512 {
                // SAFETY: CPUID reports AVX-512F.
                same(unsafe { at16(&x, &y) }, "F32x16");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn transpose8_swaps_rows_and_columns() {
        if !std::arch::is_x86_feature_detected!("avx") {
            return;
        }
        let m: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut out = vec![0.0f32; 64];
        // SAFETY: AVX was detected above; every row slice holds 8 floats.
        unsafe {
            let rows = std::array::from_fn(|r| F32x8::load_ptr(m[r * 8..].as_ptr()));
            for (i, col) in F32x8::transpose8(rows).iter().enumerate() {
                col.store_ptr(out[i * 8..].as_mut_ptr());
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
