//! The vector tiers of the three GEMMs (DESIGN.md §14): one register-tiled
//! microkernel behind all of them, written once against [`Lanes`].
//!
//! [`tile`] computes an `R`×`NV·LANES` block of `C` — `R ≤ MR` rows of `NV`
//! accumulators — from `A` elements addressed through a row and a k stride
//! and one `NV·LANES`-float `B` row per k step. The strides let one body
//! serve `gemm` (A row-major) and `gemm_at_b` (A k-major); its [`Init`]
//! modes serve the accumulate-into-`C` products, their zero-start form and
//! `gemm_a_bt`'s dot from zero, added to `C` once. Per lane the recurrence
//! is exactly the scalar kernels': products added one at a time in
//! ascending k, with multiply and add as separate instructions (no FMA).
//! So every product here is bit-identical to its `_scalar` twin in
//! `compute`, at either width.
//!
//! The generic bodies are instantiated for three tile [`Shape`]s: 6×16 at
//! eight lanes under `#[target_feature(enable = "avx")]`, and 12×32 and
//! 12×16 at sixteen lanes under `"avx512f"`. [`Tier::Avx`] runs every
//! product on 6×16 tiles; [`Tier::Avx512`] runs `gemm` and `gemm_at_b` on
//! 12×32 tiles and `gemm_a_bt`, whose panels are transposed sixteen rows at
//! a time, on 12×16 tiles.
//!
//! Ragged edges stay in the vector lanes: a partial row count selects a
//! shorter `R` instantiation, and a partial column panel runs on a
//! zero-padded full-width copy of `B` and a temporary `C` tile whose valid
//! columns are copied back.

use super::{KC, NC};
use crate::simd::{F32x16, F32x8, Lanes, Tier};
use std::cell::RefCell;
use std::mem::MaybeUninit;

/// A register tile shape the microkernel is instantiated at: its lanes,
/// its rows, and the vectors in each row. A tile and the `B` panels it
/// streams are `NV·LANES` columns wide.
trait Shape {
    /// The lane type.
    type V: Lanes;
    /// Rows per register tile.
    const MR: usize;
    /// Vectors per tile row.
    const NV: usize;

    /// [`tile`] instantiated for `mr` rows, compiled under the shape's
    /// target feature. It is the one out-of-line unit per tile: inlining
    /// every row instantiation into the blocking loops measured ~8% slower
    /// on the eight-lane 300×12×256 `gemm_at_b`, where a tile is only
    /// twelve k steps.
    ///
    /// # Safety
    ///
    /// Requires the shape's CPU feature; the [`tile`] contract for
    /// `R = mr`, `1 ≤ mr ≤ MR`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile_rows(
        mr: usize,
        kc: usize,
        a: Strided,
        b: *const f32,
        b_ks: usize,
        c: *mut f32,
        c_rs: usize,
        init: Init,
    );
}

/// Declares a [`Shape`]: its lane type and target feature, tile height
/// (with the shorter heights a partial row tile can take) and vectors per
/// row.
macro_rules! shape {
    ($(#[$doc:meta])* $name:ident: $v:ty, $feature:literal, rows $mr:literal, partial [$($r:literal)*], vectors $nv:literal) => {
        $(#[$doc])*
        struct $name;

        impl Shape for $name {
            type V = $v;
            const MR: usize = $mr;
            const NV: usize = $nv;

            #[target_feature(enable = $feature)]
            unsafe fn tile_rows(
                mr: usize,
                kc: usize,
                a: Strided,
                b: *const f32,
                b_ks: usize,
                c: *mut f32,
                c_rs: usize,
                init: Init,
            ) {
                match mr {
                    $($r => tile::<$v, $r, $nv>(kc, a, b, b_ks, c, c_rs, init),)*
                    _ => tile::<$v, $mr, $nv>(kc, a, b, b_ks, c, c_rs, init),
                }
            }
        }
    };
}

shape!(
    /// 6×16 at eight lanes: twelve of the sixteen ymm registers hold
    /// accumulators, leaving room for two `B` vectors and the broadcast.
    Ymm6x16: F32x8, "avx", rows 6, partial [1 2 3 4 5], vectors 2
);
shape!(
    /// 12×32 at sixteen lanes: 24 of the 32 zmm registers hold
    /// accumulators, plus two `B` vectors and the broadcast.
    Zmm12x32: F32x16, "avx512f", rows 12, partial [1 2 3 4 5 6 7 8 9 10 11], vectors 2
);
shape!(
    /// 12×16 at sixteen lanes: the 6×16 tile's panel width with twice its
    /// rows per `B` load.
    Zmm12x16: F32x16, "avx512f", rows 12, partial [1 2 3 4 5 6 7 8 9 10 11], vectors 1
);

/// Floats in the largest temporary `C` tile.
const TMP_LEN: usize = Zmm12x32::MR * Zmm12x32::NV * <F32x16 as Lanes>::LANES;

/// Rows above which [`accumulate`] copies every `B` block into contiguous
/// panels before the row tiles stream it. With few row tiles the copy
/// costs about as much as the products it would speed up, so `B` is read
/// in place.
const PACK_ABOVE_ROWS: usize = 24;

std::thread_local! {
    /// Reusable `B` panel (packed or transposed); thread-local so row-panel
    /// and conv-backward workers do not contend.
    static PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// How [`tile`] starts and finishes its accumulators.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Init {
    /// Load `C`, add every product into it, store it back.
    Accumulate,
    /// Start from `+0.0`, add every product, store over `C` (never read):
    /// bitwise [`Init::Accumulate`] into a `+0.0`-filled `C`.
    Zero,
    /// Start from zero, then add the finished dot to `C` once.
    DotThenAdd,
}

/// A strided read-only operand: element `(r, p)` lives at
/// `ptr + r*rs + p*ks`.
#[derive(Clone, Copy)]
struct Strided {
    ptr: *const f32,
    rs: usize,
    ks: usize,
}

impl Strided {
    /// The operand shifted to start at element `(r, p)`.
    ///
    /// # Safety
    ///
    /// `(r, p)` must lie inside the operand's allocation.
    #[inline(always)]
    unsafe fn at(self, r: usize, p: usize) -> Self {
        Strided {
            ptr: self.ptr.add(r * self.rs + p * self.ks),
            ..self
        }
    }
}

/// The microkernel: one `R`×`NV·LANES` tile of `C` over `kc` k steps.
///
/// # Safety
///
/// Requires `V`'s CPU feature (inlines into [`Shape::tile_rows`], which
/// enables it). `a` must be readable at `(r, p)` for `r < R`, `p < kc`;
/// `NV·LANES` floats at `b + p*b_ks` for `p < kc`; `NV·LANES` writable
/// (and, unless `init` is [`Init::Zero`], readable) floats at `c + r*c_rs`
/// for `r < R`.
#[inline(always)]
unsafe fn tile<V: Lanes, const R: usize, const NV: usize>(
    kc: usize,
    a: Strided,
    b: *const f32,
    b_ks: usize,
    c: *mut f32,
    c_rs: usize,
    init: Init,
) {
    let mut acc = [[V::zero(); NV]; R];
    if init == Init::Accumulate {
        for (r, row) in acc.iter_mut().enumerate() {
            let crow = c.add(r * c_rs);
            for (v, lane) in row.iter_mut().enumerate() {
                *lane = V::load_ptr(crow.add(v * V::LANES));
            }
        }
    }
    // One base pointer per row, indexed by a shared k offset: the row
    // addresses stay independent of each other within a k step.
    let arows: [*const f32; R] = std::array::from_fn(|r| a.ptr.add(r * a.rs));
    let (mut off, mut bp) = (0, b);
    for _ in 0..kc {
        let bv: [V; NV] = std::array::from_fn(|v| V::load_ptr(bp.add(v * V::LANES)));
        for (row, arow) in acc.iter_mut().zip(arows) {
            let av = V::splat(*arow.add(off));
            for (lane, &bl) in row.iter_mut().zip(&bv) {
                *lane = lane.add(av.mul(bl));
            }
        }
        off += a.ks;
        // Wrapping: after the last step `bp` may point past `B`'s end (it is
        // never read there), which `add` would not allow.
        bp = bp.wrapping_add(b_ks);
    }
    for (r, row) in acc.iter().enumerate() {
        let crow = c.add(r * c_rs);
        match init {
            Init::Accumulate | Init::Zero => {
                for (v, lane) in row.iter().enumerate() {
                    lane.store_ptr(crow.add(v * V::LANES));
                }
            }
            Init::DotThenAdd => {
                for (v, lane) in row.iter().enumerate() {
                    let cp = crow.add(v * V::LANES);
                    V::load_ptr(cp).add(*lane).store_ptr(cp);
                }
            }
        }
    }
}

/// Runs one `mr`×`nr` tile (`1 ≤ mr ≤ MR`, `1 ≤ nr ≤ NV·LANES`) through
/// [`tile`]. A partial-width tile computes into a temporary full-width
/// copy of its `C` rows (padded with zeros, and not copied at all under
/// [`Init::Zero`], which never reads it) and writes back only the `nr`
/// valid columns.
///
/// # Safety
///
/// The [`tile`] contract for `mr` rows, except that `C` need only hold `nr`
/// columns per row; `B` must still hold `NV·LANES` readable floats per k
/// step (a zero-padded panel when `nr` is partial).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn run_tile<S: Shape>(
    mr: usize,
    nr: usize,
    kc: usize,
    a: Strided,
    b: *const f32,
    b_ks: usize,
    c: *mut f32,
    c_rs: usize,
    init: Init,
) {
    let nrv = S::NV * S::V::LANES;
    if nr == nrv {
        return S::tile_rows(mr, kc, a, b, b_ks, c, c_rs, init);
    }
    debug_assert!(mr * nrv <= TMP_LEN);
    let mut tmp = MaybeUninit::<[f32; TMP_LEN]>::uninit();
    let tp = tmp.as_mut_ptr().cast::<f32>();
    if init != Init::Zero {
        for r in 0..mr {
            std::ptr::copy_nonoverlapping(c.add(r * c_rs), tp.add(r * nrv), nr);
            // All-zero bytes are `+0.0`.
            std::ptr::write_bytes(tp.add(r * nrv + nr), 0, nrv - nr);
        }
    }
    S::tile_rows(mr, kc, a, b, b_ks, tp, nrv, init);
    for r in 0..mr {
        std::ptr::copy_nonoverlapping(tp.add(r * nrv), c.add(r * c_rs), nr);
    }
}

/// `C[m,n] += A·B` with `A` row-major `[m,k]` (vector form of
/// `compute::gemm`).
///
/// # Safety
///
/// `tier` is [`Tier::Avx`] or [`Tier::Avx512`] and the CPU supports it.
/// `a`, `b`, `c` hold at least `m·k`, `k·n`, `m·n` floats.
pub(super) unsafe fn gemm(
    tier: Tier,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let a = Strided {
        ptr: a.as_ptr(),
        rs: k,
        ks: 1,
    };
    accumulate_at(tier, m, k, n, a, b, c, false);
}

/// `C[m,n] += Aᵀ·B` with `A` stored `[k,m]` (vector form of
/// `compute::gemm_at_b`): the same loop nest as [`gemm`], reading `A` with
/// unit row stride and k stride `m`. With `zero_start` the first k-block
/// starts from `+0.0` instead of loading `C`, which is then never read.
///
/// # Safety
///
/// `tier` is [`Tier::Avx`] or [`Tier::Avx512`] and the CPU supports it.
/// `a`, `b`, `c` hold at least `k·m`, `k·n`, `m·n` floats; `k > 0` when
/// `zero_start` (no k-block would write `C`).
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn gemm_at_b(
    tier: Tier,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    zero_start: bool,
) {
    let a = Strided {
        ptr: a.as_ptr(),
        rs: 1,
        ks: m,
    };
    accumulate_at(tier, m, k, n, a, b, c, zero_start);
}

/// `C[m,n] += A·Bᵀ` with `B` stored `[n,k]` (vector form of
/// `compute::gemm_a_bt`).
///
/// # Safety
///
/// `tier` is [`Tier::Avx`] or [`Tier::Avx512`] and the CPU supports it.
/// `a`, `b`, `c` hold at least `m·k`, `n·k`, `m·n` floats.
pub(super) unsafe fn gemm_a_bt(
    tier: Tier,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    PANEL.with_borrow_mut(|panel| match tier {
        Tier::Avx512 => dot_then_add16(m, k, n, a, b, c, panel),
        _ => dot_then_add8(m, k, n, a, b, c, panel),
    });
}

/// Runs [`accumulate`] at `tier`'s width on this thread's panel.
///
/// # Safety
///
/// The contract of [`gemm_at_b`] (`a` already strided).
#[allow(clippy::too_many_arguments)]
unsafe fn accumulate_at(
    tier: Tier,
    m: usize,
    k: usize,
    n: usize,
    a: Strided,
    b: &[f32],
    c: &mut [f32],
    zero_start: bool,
) {
    PANEL.with_borrow_mut(|panel| match tier {
        Tier::Avx512 => accumulate16(m, k, n, a, b, c, zero_start, panel),
        _ => accumulate8(m, k, n, a, b, c, zero_start, panel),
    });
}

/// [`accumulate`] at eight lanes.
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
unsafe fn accumulate8(
    m: usize,
    k: usize,
    n: usize,
    a: Strided,
    b: &[f32],
    c: &mut [f32],
    zero_start: bool,
    panel: &mut Vec<f32>,
) {
    accumulate::<Ymm6x16>(m, k, n, a, b, c, zero_start, panel);
}

/// [`accumulate`] at sixteen lanes.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn accumulate16(
    m: usize,
    k: usize,
    n: usize,
    a: Strided,
    b: &[f32],
    c: &mut [f32],
    zero_start: bool,
    panel: &mut Vec<f32>,
) {
    accumulate::<Zmm12x32>(m, k, n, a, b, c, zero_start, panel);
}

/// The loop nest of the accumulating products. Cache-blocked in `KC`×`NC`
/// blocks of `B` — storing and reloading a `C` tile between k-blocks is
/// exact, so the blocking cannot reorder any element's sum, and under
/// `zero_start` only the first k-block starts from zero. Within a block,
/// every row tile streams every `NV·LANES`-column panel of `B`: in place (k
/// stride `n`) for small `m`, from packed copies once there are enough row
/// tiles to repay the copy, and always from a zero-padded copy for the
/// ragged last panel.
///
/// # Safety
///
/// Requires `S::V`'s CPU feature; the contract of [`gemm_at_b`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn accumulate<S: Shape>(
    m: usize,
    k: usize,
    n: usize,
    a: Strided,
    b: &[f32],
    c: &mut [f32],
    zero_start: bool,
    panel: &mut Vec<f32>,
) {
    let nrv = S::NV * S::V::LANES;
    let pack_all = m > PACK_ABOVE_ROWS;
    let cp = c.as_mut_ptr();
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let panels = nc.div_ceil(nrv);
        let first_packed = if pack_all { 0 } else { nc / nrv };
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let init = if zero_start && pc == 0 {
                Init::Zero
            } else {
                Init::Accumulate
            };
            // Every packed float is overwritten below, so the buffer is only
            // grown, never cleared first.
            panel.resize((panels - first_packed) * kc * nrv, 0.0);
            for (t, dst) in (first_packed..panels).zip(panel.chunks_exact_mut(kc * nrv)) {
                let j0 = jc + t * nrv;
                let nr = nrv.min(jc + nc - j0);
                for (p, drow) in (pc..pc + kc).zip(dst.chunks_exact_mut(nrv)) {
                    drow[..nr].copy_from_slice(&b[p * n + j0..][..nr]);
                    drow[nr..].fill(0.0);
                }
            }
            for i0 in (0..m).step_by(S::MR) {
                let mr = S::MR.min(m - i0);
                let ai = a.at(i0, pc);
                for t in 0..panels {
                    let j0 = jc + t * nrv;
                    let nr = nrv.min(jc + nc - j0);
                    let (bp, b_ks) = if t >= first_packed {
                        (panel.as_ptr().add((t - first_packed) * kc * nrv), nrv)
                    } else {
                        (b.as_ptr().add(pc * n + j0), n)
                    };
                    run_tile::<S>(mr, nr, kc, ai, bp, b_ks, cp.add(i0 * n + j0), n, init);
                }
            }
        }
    }
}

/// [`dot_then_add`] at eight lanes.
#[target_feature(enable = "avx")]
unsafe fn dot_then_add8(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    panel: &mut Vec<f32>,
) {
    dot_then_add::<Ymm6x16>(m, k, n, a, b, c, panel);
}

/// [`dot_then_add`] at sixteen lanes, on the narrow 12×16 tile: it reads
/// the same 16-wide transposed panels as the eight-lane 6×16 tile with
/// twice the rows per `B` load, where a 32-wide panel would pad the
/// 12-column products to 32.
#[target_feature(enable = "avx512f")]
unsafe fn dot_then_add16(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    panel: &mut Vec<f32>,
) {
    dot_then_add::<Zmm12x16>(m, k, n, a, b, c, panel);
}

/// The loop nest of `gemm_a_bt`: for each `NV·LANES`-row slab of `B`,
/// transpose it into a `k`×`NV·LANES` panel (8×8 register transposes, pure data
/// movement), then run every row tile over the full `k` extent — never
/// k-blocked, because each element's single add into `C` must not be
/// split.
///
/// # Safety
///
/// Requires `S::V`'s CPU feature; the contract of [`gemm_a_bt`].
#[inline(always)]
unsafe fn dot_then_add<S: Shape>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    panel: &mut Vec<f32>,
) {
    let nrv = S::NV * S::V::LANES;
    panel.clear();
    panel.resize(k * nrv, 0.0);
    let a = Strided {
        ptr: a.as_ptr(),
        rs: k,
        ks: 1,
    };
    let cp = c.as_mut_ptr();
    for j0 in (0..n).step_by(nrv) {
        let nr = nrv.min(n - j0);
        transpose_panel(k, nr, nrv, &b[j0 * k..(j0 + nr) * k], panel);
        for i0 in (0..m).step_by(S::MR) {
            let ai = a.at(i0, 0);
            let ci = cp.add(i0 * n + j0);
            let mr = S::MR.min(m - i0);
            run_tile::<S>(mr, nr, k, ai, panel.as_ptr(), nrv, ci, n, Init::DotThenAdd);
        }
    }
}

/// Writes the `rows ≤ width` rows of length `k` in `src` as the columns of
/// the `k`×`width` `panel`: `panel[p*width + j] = src[j*k + p]`. Columns
/// past `rows` keep stale values; the tiles that read them discard those
/// lanes.
#[target_feature(enable = "avx")]
unsafe fn transpose_panel(k: usize, rows: usize, width: usize, src: &[f32], panel: &mut [f32]) {
    assert!(
        rows <= width
            && width.is_multiple_of(F32x8::LANES)
            && src.len() >= rows * k
            && panel.len() >= k * width
    );
    let k8 = k / F32x8::LANES * F32x8::LANES;
    let (sp, pp) = (src.as_ptr(), panel.as_mut_ptr());
    for g in (0..rows).step_by(F32x8::LANES) {
        let live = F32x8::LANES.min(rows - g);
        for p0 in (0..k8).step_by(F32x8::LANES) {
            let mut block = [F32x8::zero(); F32x8::LANES];
            for (r, row) in block.iter_mut().enumerate().take(live) {
                *row = F32x8::load_ptr(sp.add((g + r) * k + p0));
            }
            for (i, col) in F32x8::transpose8(block).iter().enumerate() {
                col.store_ptr(pp.add((p0 + i) * width + g));
            }
        }
        for p in k8..k {
            for r in 0..live {
                panel[p * width + g + r] = src[(g + r) * k + p];
            }
        }
    }
}
