//! The AVX tier of the three GEMMs (DESIGN.md §14): one register-tiled
//! microkernel behind all of them.
//!
//! [`tile`] computes an `R`×[`NRV`] block of `C` — `R ≤ MR` rows of two
//! [`F32x8`] accumulators — from `A` elements addressed through a row and
//! a k stride and one 16-float `B` row per k step. The strides let one
//! body serve `gemm` (A row-major) and `gemm_at_b` (A k-major); its two
//! [`Init`] modes serve the accumulate-into-`C` products and `gemm_a_bt`'s
//! dot from zero, added to `C` once. Per lane the recurrence is exactly the
//! scalar kernels': products added one at a time in ascending k, with
//! multiply and add as separate instructions (no FMA). So every driver
//! here is bit-identical to its `_scalar` twin in `compute`.
//!
//! Ragged edges stay in the vector lanes: a partial row count selects a
//! shorter `R` instantiation, and a partial column panel runs on a
//! zero-padded 16-wide copy of `B` and a temporary `C` tile whose valid
//! columns are copied back.

use super::{KC, MR, NC};
use crate::simd::F32x8;
use std::cell::RefCell;

/// Columns per tile: two [`F32x8`] per row.
const NRV: usize = 16;

/// Row tiles above which [`gemm`] copies every `B` block into contiguous
/// 16-wide panels before the row tiles stream it. With few row tiles the
/// copy costs about as much as the products it would speed up, so `B` is
/// read in place.
const PACK_MIN_ROW_TILES: usize = 4;

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

/// The microkernel: one `R`×[`NRV`] tile of `C` over `kc` k steps.
///
/// # Safety
///
/// Requires AVX (inlines into the `#[target_feature]` drivers). `a` must be
/// readable at `(r, p)` for `r < R`, `p < kc`; sixteen floats at
/// `b + p*b_ks` for `p < kc`; sixteen read/writable floats at `c + r*c_rs`
/// for `r < R`.
#[inline(always)]
unsafe fn tile<const R: usize>(
    kc: usize,
    a: Strided,
    b: *const f32,
    b_ks: usize,
    c: *mut f32,
    c_rs: usize,
    init: Init,
) {
    let mut acc = [[F32x8::zero(); 2]; R];
    if init == Init::Accumulate {
        for (r, row) in acc.iter_mut().enumerate() {
            let crow = c.add(r * c_rs);
            row[0] = F32x8::load_ptr(crow);
            row[1] = F32x8::load_ptr(crow.add(F32x8::LANES));
        }
    }
    // One base pointer per row, indexed by a shared k offset: the row
    // addresses stay independent of each other within a k step.
    let arows: [*const f32; R] = std::array::from_fn(|r| a.ptr.add(r * a.rs));
    let (mut off, mut bp) = (0, b);
    for _ in 0..kc {
        let b0 = F32x8::load_ptr(bp);
        let b1 = F32x8::load_ptr(bp.add(F32x8::LANES));
        for (row, arow) in acc.iter_mut().zip(arows) {
            let av = F32x8::splat(*arow.add(off));
            row[0] = row[0].add(av.mul(b0));
            row[1] = row[1].add(av.mul(b1));
        }
        off += a.ks;
        // Wrapping: after the last step `bp` may point past `B`'s end (it is
        // never read there), which `add` would not allow.
        bp = bp.wrapping_add(b_ks);
    }
    for (r, row) in acc.iter().enumerate() {
        let crow = c.add(r * c_rs);
        let (lo, hi) = (crow, crow.add(F32x8::LANES));
        match init {
            Init::Accumulate => {
                row[0].store_ptr(lo);
                row[1].store_ptr(hi);
            }
            Init::DotThenAdd => {
                F32x8::load_ptr(lo).add(row[0]).store_ptr(lo);
                F32x8::load_ptr(hi).add(row[1]).store_ptr(hi);
            }
        }
    }
}

/// Runs one `mr`×`nr` tile (`1 ≤ mr ≤ MR`, `1 ≤ nr ≤ NRV`) through
/// [`tile`]. A partial-width tile computes into a temporary 16-wide copy
/// of its `C` rows and writes back only the `nr` valid columns.
///
/// # Safety
///
/// Requires AVX. The [`tile`] contract for `mr` rows, except that `C` need
/// only hold `nr` columns per row; `B` must still hold sixteen readable
/// floats per k step (a zero-padded panel when `nr < NRV`).
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
unsafe fn run_tile(
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
    if nr == NRV {
        return tile_rows(mr, kc, a, b, b_ks, c, c_rs, init);
    }
    let mut tmp = [0.0f32; MR * NRV];
    for r in 0..mr {
        std::ptr::copy_nonoverlapping(c.add(r * c_rs), tmp.as_mut_ptr().add(r * NRV), nr);
    }
    tile_rows(mr, kc, a, b, b_ks, tmp.as_mut_ptr(), NRV, init);
    for r in 0..mr {
        std::ptr::copy_nonoverlapping(tmp.as_ptr().add(r * NRV), c.add(r * c_rs), nr);
    }
}

/// [`tile`] instantiated for `mr` rows.
///
/// # Safety
///
/// The [`tile`] contract for `R = mr`, `1 ≤ mr ≤ MR`.
#[inline(always)]
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
) {
    match mr {
        1 => tile::<1>(kc, a, b, b_ks, c, c_rs, init),
        2 => tile::<2>(kc, a, b, b_ks, c, c_rs, init),
        3 => tile::<3>(kc, a, b, b_ks, c, c_rs, init),
        4 => tile::<4>(kc, a, b, b_ks, c, c_rs, init),
        5 => tile::<5>(kc, a, b, b_ks, c, c_rs, init),
        _ => tile::<MR>(kc, a, b, b_ks, c, c_rs, init),
    }
}

/// `C[m,n] += A·B` with `A` row-major `[m,k]` (AVX form of
/// `compute::gemm`).
///
/// # Safety
///
/// Requires AVX. `a`, `b`, `c` hold at least `m·k`, `k·n`, `m·n` floats.
pub(super) unsafe fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let a = Strided {
        ptr: a.as_ptr(),
        rs: k,
        ks: 1,
    };
    PANEL.with_borrow_mut(|panel| accumulate(m, k, n, a, b, c, panel));
}

/// `C[m,n] += Aᵀ·B` with `A` stored `[k,m]` (AVX form of
/// `compute::gemm_at_b`): the same driver as [`gemm`], reading `A` with
/// unit row stride and k stride `m`.
///
/// # Safety
///
/// Requires AVX. `a`, `b`, `c` hold at least `k·m`, `k·n`, `m·n` floats.
pub(super) unsafe fn gemm_at_b(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let a = Strided {
        ptr: a.as_ptr(),
        rs: 1,
        ks: m,
    };
    PANEL.with_borrow_mut(|panel| accumulate(m, k, n, a, b, c, panel));
}

/// `C[m,n] += A·Bᵀ` with `B` stored `[n,k]` (AVX form of
/// `compute::gemm_a_bt`).
///
/// # Safety
///
/// Requires AVX. `a`, `b`, `c` hold at least `m·k`, `n·k`, `m·n` floats.
pub(super) unsafe fn gemm_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    PANEL.with_borrow_mut(|panel| dot_then_add(m, k, n, a, b, c, panel));
}

/// The driver of the accumulating products. Cache-blocked in `KC`×`NC`
/// blocks of `B` — storing and reloading a `C` tile between k-blocks is
/// exact, so the blocking cannot reorder any element's sum. Within a block,
/// every row tile streams every 16-column panel of `B`: in place (k stride
/// `n`) for small `m`, from packed copies once there are enough row tiles
/// to repay the copy, and always from a zero-padded copy for the ragged
/// last panel.
#[target_feature(enable = "avx")]
unsafe fn accumulate(
    m: usize,
    k: usize,
    n: usize,
    a: Strided,
    b: &[f32],
    c: &mut [f32],
    panel: &mut Vec<f32>,
) {
    let pack_all = m.div_ceil(MR) > PACK_MIN_ROW_TILES;
    let cp = c.as_mut_ptr();
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let panels = nc.div_ceil(NRV);
        let first_packed = if pack_all { 0 } else { nc / NRV };
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // Every packed float is overwritten below, so the buffer is only
            // grown, never cleared first.
            panel.resize((panels - first_packed) * kc * NRV, 0.0);
            for (t, dst) in (first_packed..panels).zip(panel.chunks_exact_mut(kc * NRV)) {
                let j0 = jc + t * NRV;
                let nr = NRV.min(jc + nc - j0);
                for (p, drow) in (pc..pc + kc).zip(dst.chunks_exact_mut(NRV)) {
                    drow[..nr].copy_from_slice(&b[p * n + j0..][..nr]);
                    drow[nr..].fill(0.0);
                }
            }
            for i0 in (0..m).step_by(MR) {
                let mr = MR.min(m - i0);
                let ai = a.at(i0, pc);
                for t in 0..panels {
                    let j0 = jc + t * NRV;
                    let nr = NRV.min(jc + nc - j0);
                    let (bp, b_ks) = if t >= first_packed {
                        (panel.as_ptr().add((t - first_packed) * kc * NRV), NRV)
                    } else {
                        (b.as_ptr().add(pc * n + j0), n)
                    };
                    run_tile(
                        mr,
                        nr,
                        kc,
                        ai,
                        bp,
                        b_ks,
                        cp.add(i0 * n + j0),
                        n,
                        Init::Accumulate,
                    );
                }
            }
        }
    }
}

/// The driver of `gemm_a_bt`: for each 16-row slab of `B`, transpose it
/// into a `k`×16 panel (8×8 register transposes, pure data movement), then
/// run every row tile over the full `k` extent — never k-blocked, because
/// each element's single add into `C` must not be split.
#[target_feature(enable = "avx")]
unsafe fn dot_then_add(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    panel: &mut Vec<f32>,
) {
    panel.clear();
    panel.resize(k * NRV, 0.0);
    let a = Strided {
        ptr: a.as_ptr(),
        rs: k,
        ks: 1,
    };
    let cp = c.as_mut_ptr();
    for j0 in (0..n).step_by(NRV) {
        let nr = NRV.min(n - j0);
        transpose_panel(k, nr, &b[j0 * k..(j0 + nr) * k], panel);
        for i0 in (0..m).step_by(MR) {
            let ai = a.at(i0, 0);
            let ci = cp.add(i0 * n + j0);
            run_tile(
                MR.min(m - i0),
                nr,
                k,
                ai,
                panel.as_ptr(),
                NRV,
                ci,
                n,
                Init::DotThenAdd,
            );
        }
    }
}

/// Writes the `rows ≤ 16` rows of length `k` in `src` as the columns of the
/// `k`×16 `panel`: `panel[p*16 + j] = src[j*k + p]`. Columns past `rows`
/// keep stale values; the tiles that read them discard those lanes.
#[target_feature(enable = "avx")]
unsafe fn transpose_panel(k: usize, rows: usize, src: &[f32], panel: &mut [f32]) {
    assert!(rows <= NRV && src.len() >= rows * k && panel.len() >= k * NRV);
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
                col.store_ptr(pp.add((p0 + i) * NRV + g));
            }
        }
        for p in k8..k {
            for r in 0..live {
                panel[p * NRV + g + r] = src[(g + r) * k + p];
            }
        }
    }
}
