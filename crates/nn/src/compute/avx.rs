//! The vector tiers of the implicit-GEMM convolutions (DESIGN.md §14):
//! the x86 tile shapes of the one microkernel in [`super::tile`] and the
//! `#[target_feature]` entry points that instantiate every conv pass's
//! loop nest at a width.
//!
//! Three shapes: 6×16 at eight lanes under `#[target_feature(enable =
//! "avx")]`, and 12×32 and 12×16 at sixteen lanes under `"avx512f"`.
//! `Tier::Avx` runs every pass on 6×16 tiles; `Tier::Avx512` runs the
//! conv forward and input gradient on 12×32 tiles, and the conv weight
//! gradient, whose panels are transposed sixteen rows at a time, on 12×16
//! tiles.

use super::implicit::{self, ConvShape};
use super::tile::{dot_then_add, shape, Runs, Strided, Walk};
use crate::simd::{F32x16, F32x8, Lanes};
use std::ops::Range;

shape!(
    /// 6×16 at eight lanes: twelve of the sixteen ymm registers hold
    /// accumulators, leaving room for two `B` vectors and the broadcast.
    Ymm6x16: F32x8, [#[target_feature(enable = "avx")]], rows 6, partial [1 2 3 4 5], vectors 2,
    transpose transpose_panel
);
shape!(
    /// 12×32 at sixteen lanes: 24 of the 32 zmm registers hold
    /// accumulators, plus two `B` vectors and the broadcast.
    Zmm12x32: F32x16, [#[target_feature(enable = "avx512f")]], rows 12,
    partial [1 2 3 4 5 6 7 8 9 10 11], vectors 2, transpose transpose_panel
);
shape!(
    /// 12×16 at sixteen lanes: the 6×16 tile's panel width with twice its
    /// rows per `B` load.
    Zmm12x16: F32x16, [#[target_feature(enable = "avx512f")]], rows 12,
    partial [1 2 3 4 5 6 7 8 9 10 11], vectors 1, transpose transpose_panel
);

/// Declares `#[target_feature]` entry points, each one generic loop nest
/// instantiated at one tile shape.
macro_rules! at_width {
    ($($(#[$doc:meta])* $feature:literal fn $name:ident = $($body:ident)::+ [$shape:ty] ($($arg:ident: $t:ty),*);)*) => {
        $(
            $(#[$doc])*
            ///
            /// # Safety
            ///
            /// Requires the shape's CPU feature; the contract of the loop
            /// nest it instantiates.
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            pub(super) unsafe fn $name($($arg: $t),*) {
                $($body)::+::<$shape>($($arg),*)
            }
        )*
    };
}

at_width! {
    /// The implicit-GEMM conv forward at eight lanes.
    "avx" fn conv_forward8 = implicit::forward [Ymm6x16]
        (shape: &ConvShape, m: usize, weight: &[f32], plane: &[f32], out: &mut [f32], taps: &[usize], rows: Range<usize>);
    /// The implicit-GEMM conv forward at sixteen lanes.
    "avx512f" fn conv_forward16 = implicit::forward [Zmm12x32]
        (shape: &ConvShape, m: usize, weight: &[f32], plane: &[f32], out: &mut [f32], taps: &[usize], rows: Range<usize>);
    /// The implicit-GEMM conv input gradient at eight lanes.
    "avx" fn conv_input_grad8 = implicit::input_grad [Ymm6x16]
        (shape: &ConvShape, oc: usize, weight: &[f32], go: &[f32], grad_plane: &mut [f32]);
    /// The implicit-GEMM conv input gradient at sixteen lanes.
    "avx512f" fn conv_input_grad16 = implicit::input_grad [Zmm12x32]
        (shape: &ConvShape, oc: usize, weight: &[f32], go: &[f32], grad_plane: &mut [f32]);
    /// [`dot_then_add`] at eight lanes: the conv weight gradient.
    "avx" fn dot_then_add8 = dot_then_add [Ymm6x16]
        (m: usize, n: usize, a: Strided, src: *const f32, row: impl Walk, runs: Runs, c: *mut f32, c_rs: usize, panel: &mut Vec<f32>);
    /// [`dot_then_add`] at sixteen lanes, on the 12×16 tile.
    "avx512f" fn dot_then_add16 = dot_then_add [Zmm12x16]
        (m: usize, n: usize, a: Strided, src: *const f32, row: impl Walk, runs: Runs, c: *mut f32, c_rs: usize, panel: &mut Vec<f32>);
}

/// [`Shape::transpose`] of the vector shapes: 8×8 register transposes
/// (pure data movement) over each run's full eight-column blocks, and
/// plain copies for the rest of the run and for a partial group of rows.
/// Columns past `rows` keep stale values; the tiles that read them discard
/// those lanes.
///
/// # Safety
///
/// Requires AVX; every source element read exists and `panel` holds
/// `runs.total() · width` floats.
#[target_feature(enable = "avx")]
unsafe fn transpose_panel<W: Walk>(
    rows: usize,
    first: usize,
    width: usize,
    src: *const f32,
    row: W,
    runs: Runs,
    panel: &mut [f32],
) {
    const L: usize = F32x8::LANES;
    assert!(rows <= width && width.is_multiple_of(L) && panel.len() >= runs.total() * width);
    let len8 = runs.len / L * L;
    let pp = panel.as_mut_ptr();
    for g in (0..rows).step_by(L) {
        let live = L.min(rows - g);
        let bases: [*const f32; L] =
            std::array::from_fn(|r| src.wrapping_add(row.at(first + g + r.min(live - 1))));
        for run in 0..runs.count {
            let (from, to) = (run * runs.stride, run * runs.len);
            for c0 in (0..len8).step_by(L) {
                let mut block = [F32x8::zero(); L];
                for (v, base) in block.iter_mut().zip(bases).take(live) {
                    *v = F32x8::load_ptr(base.add(from + c0));
                }
                for (i, col) in F32x8::transpose8(block).iter().enumerate() {
                    col.store_ptr(pp.add((to + c0 + i) * width + g));
                }
            }
            for c in len8..runs.len {
                for (r, base) in bases.iter().enumerate().take(live) {
                    *pp.add((to + c) * width + g + r) = *base.add(from + c);
                }
            }
        }
    }
}
