//! Implicit-GEMM convolutions (DESIGN.md §14): the three passes of a
//! stride-1, same-padded convolution as products that read a zero-padded
//! input plane in place of an im2col panel.
//!
//! Each sample's input is copied once into a plane `[in_c, h+k−1, w+k−1]`
//! ([`ConvShape::pad`]). Tap `q = (ci, kh, kw)` of the kernel then reads
//! the plane shifted by `taps[q] = ci·plane + kh·(w+k−1) + kw`, so the
//! im2col panel's row `q` is the plane seen through that offset, and the
//! microkernel walks `B` (forward) or `C` (input gradient) through the tap
//! table instead of a fixed stride. Output positions are covered by
//! *segments* — runs of at most `LANES` columns of one output row — and a
//! tile's `NV` vectors are consecutive segments.
//!
//! Every element keeps its products, their ascending-tap (or ascending
//! channel, or ascending position) order and its accumulate or
//! dot-then-add semantics, and padding enters as a `+0.0` operand exactly
//! where the im2col panel held one, never as a skipped product. So each
//! pass is bitwise the im2col formulation it replaces, at every tier.

use super::tile::{
    dot_then_add_at, run_tile, Grid, Init, Runs, Shape, Soft6x8, Stride, Strided, Table, MAX_NV,
    PANEL,
};
use super::KC;
use crate::simd::Lanes;
use std::cell::RefCell;
use std::ops::Range;

/// Floats past a plane's last row that a vector may read: a partial
/// segment's lanes beyond its output row, at most one vector of the widest
/// tier.
const SLACK: usize = 16;

std::thread_local! {
    /// The tap offset table of the current product.
    static TAPS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One sample's stride-1, same-padded convolution geometry: `in_c` input
/// channels on an `h`×`w` plane under an odd `k`×`k` kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvShape {
    in_c: usize,
    k: usize,
    h: usize,
    w: usize,
}

/// The lanes the forward and input-gradient tiles run at.
#[derive(Clone, Copy)]
enum Width {
    /// AVX-512, 12×32 tiles.
    #[cfg(target_arch = "x86_64")]
    Sixteen,
    /// AVX, 6×16 tiles.
    #[cfg(target_arch = "x86_64")]
    Eight,
    /// The scalar tier's portable lanes, 6×8 tiles.
    Portable,
}

impl Width {
    /// Lanes per vector.
    fn lanes(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Width::Sixteen => 16,
            _ => 8,
        }
    }
}

/// `NV ≤ 2` consecutive segments as one tile's vectors: vector `v` starts
/// at `plane + v·plane_vs` in a padded plane and at `out + v·out_vs` in a
/// dense `h·w` plane, with `lens[v]` valid lanes. A vector past the last
/// segment repeats the first one's addresses with no valid lane.
struct Group {
    plane: usize,
    plane_vs: usize,
    out: usize,
    out_vs: usize,
    lens: [usize; MAX_NV],
}

impl ConvShape {
    /// The geometry of one sample.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even.
    pub fn new(in_c: usize, k: usize, h: usize, w: usize) -> Self {
        assert!(k % 2 == 1, "kernel size {k} must be odd for same padding");
        ConvShape { in_c, k, h, w }
    }

    /// Padded plane width.
    fn wp(&self) -> usize {
        self.w + self.k - 1
    }

    /// Floats of one padded channel plane.
    fn channel_len(&self) -> usize {
        (self.h + self.k - 1) * self.wp()
    }

    /// Floats of the padded channel planes (without the slack).
    fn planes_len(&self) -> usize {
        self.in_c * self.channel_len()
    }

    /// Floats of one sample's padded plane, read slack included: the
    /// buffer [`ConvShape::pad`] fills and the weight-gradient and forward
    /// products read.
    pub fn plane_len(&self) -> usize {
        self.planes_len() + SLACK
    }

    /// Kernel taps `in_c·k·k`: the reduction depth of the forward.
    fn taps_len(&self) -> usize {
        self.in_c * self.k * self.k
    }

    /// Writes sample `x` (`[in_c, h, w]`) into `plane` with `k/2` zero
    /// rows and columns around every channel and zeroed slack. Every
    /// element of `plane[..plane_len()]` is written once.
    ///
    /// # Panics
    ///
    /// Panics if a slice is shorter than its extent.
    pub fn pad(&self, x: &[f32], plane: &mut [f32]) {
        self.pad_rows(x, plane, 0..self.h);
    }

    /// [`ConvShape::pad`] on the plane rows a forward on output rows
    /// `rows` reads: padded rows `rows.start..rows.end + k − 1`, which
    /// hold input rows `rows` widened by `k/2` and the zero rows past the
    /// input's edges, and the slack. Every other plane row keeps what it
    /// held; only lanes the kernels discard read it.
    ///
    /// # Panics
    ///
    /// Panics if a slice is shorter than its extent or `rows` is not inside
    /// `0..h`.
    pub fn pad_rows(&self, x: &[f32], plane: &mut [f32], rows: Range<usize>) {
        assert!(rows.start <= rows.end && rows.end <= self.h);
        let (pad, wp, hw) = (self.k / 2, self.wp(), self.h * self.w);
        // Padded rows `lo..hi`: zero rows above the input, input rows
        // `ilo..ihi` (padded row `pad + i` holds input row `i`), zero rows
        // below.
        let (lo, hi) = (rows.start, rows.end + self.k - 1);
        let (ilo, ihi) = (lo.saturating_sub(pad), (hi - pad).min(self.h));
        let (planes, slack) = plane[..self.plane_len()].split_at_mut(self.planes_len());
        for (dst, src) in planes
            .chunks_exact_mut(self.channel_len().max(1))
            .zip(x[..self.in_c * hw].chunks_exact(hw.max(1)))
        {
            let (top, rest) = dst.split_at_mut(pad * wp);
            let (interior, bottom) = rest.split_at_mut(self.h * wp);
            top[lo.min(pad) * wp..].fill(0.0);
            for (row, src) in interior[ilo * wp..ihi * wp]
                .chunks_exact_mut(wp)
                .zip(src[ilo * self.w..ihi * self.w].chunks_exact(self.w))
            {
                row[..pad].fill(0.0);
                row[pad..pad + self.w].copy_from_slice(src);
                row[pad + self.w..].fill(0.0);
            }
            bottom[..(hi - pad - ihi) * wp].fill(0.0);
        }
        slack.fill(0.0);
    }

    /// Copies the interior of a padded `plane` into `x` (`[in_c, h, w]`):
    /// the inverse of [`ConvShape::pad`] on the interior.
    ///
    /// # Panics
    ///
    /// Panics if a slice is shorter than its extent.
    pub fn unpad(&self, plane: &[f32], x: &mut [f32]) {
        let (pad, wp, hw) = (self.k / 2, self.wp(), self.h * self.w);
        let planes = &plane[..self.planes_len()];
        for (src, dst) in planes
            .chunks_exact(self.channel_len().max(1))
            .zip(x[..self.in_c * hw].chunks_exact_mut(hw.max(1)))
        {
            for (row, dst) in src[pad * wp..]
                .chunks_exact(wp)
                .zip(dst.chunks_exact_mut(self.w))
            {
                dst.copy_from_slice(&row[pad..pad + self.w]);
            }
        }
    }

    /// Fills `taps` with the plane offset of every tap, ascending.
    fn taps(&self, taps: &mut Vec<usize>) {
        let (k, wp, plane) = (self.k, self.wp(), self.channel_len());
        taps.clear();
        for ci in 0..self.in_c {
            for kh in 0..k {
                taps.extend((0..k).map(|kw| ci * plane + kh * wp + kw));
            }
        }
    }

    /// The width of this geometry's forward and input-gradient tiles at
    /// [`crate::simd::tier`]: sixteen lanes only where they divide the
    /// output row, since a row narrower than a vector (the 8×8 grid)
    /// would leave half of every sixteen-lane vector idle and send every
    /// tile through the partial-tile path; eight otherwise.
    fn width(&self) -> Width {
        match crate::simd::tier() {
            #[cfg(target_arch = "x86_64")]
            crate::simd::Tier::Avx512 if self.w.is_multiple_of(16) => Width::Sixteen,
            #[cfg(target_arch = "x86_64")]
            crate::simd::Tier::Avx512 | crate::simd::Tier::Avx => Width::Eight,
            _ => Width::Portable,
        }
    }

    /// Segments covering output rows `rows` at `lanes` lanes per vector:
    /// a range of segment indices, since segments run row-major.
    fn segments(&self, rows: Range<usize>, lanes: usize) -> Range<usize> {
        let per_row = self.w.div_ceil(lanes);
        rows.start * per_row..rows.end * per_row
    }

    /// Segment `s`: its offsets in a padded and a dense plane, and its
    /// length. Segments run row-major and never span two output rows.
    fn segment(&self, s: usize, lanes: usize) -> (usize, usize, usize) {
        let per_row = self.w.div_ceil(lanes);
        let (oh, ow) = (s / per_row, s % per_row * lanes);
        (
            oh * self.wp() + ow,
            oh * self.w + ow,
            lanes.min(self.w - ow),
        )
    }

    /// The tile column group of `nv ≤ 2` segments that starts at segment
    /// `first`, taking none at or past `end`.
    fn group(&self, first: usize, end: usize, lanes: usize, nv: usize) -> Group {
        debug_assert!(nv <= MAX_NV);
        let (plane, out, len) = self.segment(first, lanes);
        let mut group = Group {
            plane,
            plane_vs: 0,
            out,
            out_vs: 0,
            lens: [len, 0],
        };
        if nv == 2 && first + 1 < end {
            let (plane2, out2, len2) = self.segment(first + 1, lanes);
            group.plane_vs = plane2 - plane;
            group.out_vs = out2 - out;
            group.lens[1] = len2;
        }
        group
    }
}

/// One sample's conv forward over `m` output channels, on output rows
/// `rows` (`0..h` for the whole plane):
/// `out[m, h·w] += weight[m, in_c·k·k] · B` at those rows' positions, where
/// `B`'s row for tap `q` is tap `q`'s shifted view of the padded `plane`
/// ([`ConvShape::pad`]). Each element sums its products in the order of
/// [`super::reference::gemm`] of `weight` with the sample's im2col panel,
/// whatever the row range: segments never span two rows, so a range only
/// drops whole segments. Elements outside `rows` are left untouched.
///
/// # Panics
///
/// Panics if a slice is shorter than its extent or `rows` is not inside
/// `0..h`.
pub fn conv_forward(
    shape: &ConvShape,
    m: usize,
    weight: &[f32],
    plane: &[f32],
    out: &mut [f32],
    rows: Range<usize>,
) {
    let hw = shape.h * shape.w;
    assert!(
        weight.len() >= m * shape.taps_len()
            && plane.len() >= shape.plane_len()
            && out.len() >= m * hw
    );
    assert!(
        rows.start <= rows.end && rows.end <= shape.h,
        "output rows {rows:?} outside 0..{}",
        shape.h
    );
    TAPS.with_borrow_mut(|taps| {
        shape.taps(taps);
        // SAFETY: `shape.width()` picks only tiers CPUID supports; the
        // lengths and rows were asserted above and `taps` matches `shape`.
        unsafe {
            match shape.width() {
                #[cfg(target_arch = "x86_64")]
                Width::Sixteen => {
                    super::avx::conv_forward16(shape, m, weight, plane, out, taps, rows)
                }
                #[cfg(target_arch = "x86_64")]
                Width::Eight => super::avx::conv_forward8(shape, m, weight, plane, out, taps, rows),
                Width::Portable => forward::<Soft6x8>(shape, m, weight, plane, out, taps, rows),
            }
        }
    });
}

/// One sample's conv input gradient, accumulated onto `grad_plane`, a
/// padded plane (`[in_c, h+k−1, w+k−1]`) that starts at `+0.0`: the
/// product `weight[oc, in_c·k·k]ᵀ · go[oc, h·w]`, each element's dot over
/// `oc` from zero, added to the plane through tap `q`'s shifted view.
/// The interior ([`ConvShape::unpad`]) is then bitwise col2im of that
/// product; the border gathers the products col2im drops.
///
/// # Panics
///
/// Panics if a slice is shorter than its extent.
pub fn conv_input_grad(
    shape: &ConvShape,
    oc: usize,
    weight: &[f32],
    go: &[f32],
    grad_plane: &mut [f32],
) {
    let hw = shape.h * shape.w;
    assert!(
        weight.len() >= oc * shape.taps_len()
            && go.len() >= oc * hw
            && grad_plane.len() >= shape.planes_len()
    );
    let width = shape.width();
    PANEL.with_borrow_mut(|panel| {
        // A partial segment's vectors read past its output row of `go`,
        // and past `go` itself on the last row: such a shape reads a copy
        // with slack.
        let go = if shape.w.is_multiple_of(width.lanes()) {
            &go[..oc * hw]
        } else {
            panel.clear();
            panel.extend_from_slice(&go[..oc * hw]);
            panel.resize(oc * hw + SLACK, 0.0);
            &panel[..]
        };
        // SAFETY: as in `conv_forward`.
        unsafe {
            match width {
                #[cfg(target_arch = "x86_64")]
                Width::Sixteen => super::avx::conv_input_grad16(shape, oc, weight, go, grad_plane),
                #[cfg(target_arch = "x86_64")]
                Width::Eight => super::avx::conv_input_grad8(shape, oc, weight, go, grad_plane),
                Width::Portable => input_grad::<Soft6x8>(shape, oc, weight, go, grad_plane),
            }
        }
    });
}

/// One sample's conv weight gradient over `m` output channels:
/// `wg[m, in_c·k·k] += go[m, h·w] · Bᵀ`, each element's dot over the
/// output positions from zero, added once, where `B`'s row for tap `q` is
/// tap `q`'s shifted view of the padded `plane`. The transposed panels
/// that feed the tiles are read straight from the plane. Each element's
/// dot runs in the order of [`super::reference::gemm_a_bt`] of `go` with
/// the sample's im2col panel.
///
/// # Panics
///
/// Panics if a slice is shorter than its extent.
pub fn conv_weight_grad(shape: &ConvShape, m: usize, go: &[f32], plane: &[f32], wg: &mut [f32]) {
    let (q, hw) = (shape.taps_len(), shape.h * shape.w);
    assert!(go.len() >= m * hw && plane.len() >= shape.plane_len() && wg.len() >= m * q);
    let a = Strided {
        ptr: go.as_ptr(),
        rs: hw,
        ks: 1,
    };
    let runs = Runs {
        count: shape.h,
        len: shape.w,
        stride: shape.wp(),
    };
    TAPS.with_borrow_mut(|taps| {
        shape.taps(taps);
        let row = Table(taps.as_ptr());
        // SAFETY: the lengths were asserted above and `taps` matches
        // `shape`, so every tap's view lies inside the plane.
        unsafe { dot_then_add_at(m, q, a, plane.as_ptr(), row, runs, wg.as_mut_ptr(), q) }
    });
}

/// The loop nest of [`conv_forward`]: k-blocked in `KC` taps (storing and
/// reloading a `C` tile between blocks is exact), then every column group
/// of the segments of `rows`, then every row tile of output channels.
///
/// # Safety
///
/// Requires `S::V`'s CPU feature; the lengths and rows [`conv_forward`]
/// asserts, and `taps` filled for `shape`.
#[inline(always)]
pub(super) unsafe fn forward<S: Shape>(
    shape: &ConvShape,
    m: usize,
    weight: &[f32],
    plane: &[f32],
    out: &mut [f32],
    taps: &[usize],
    rows: Range<usize>,
) {
    let lanes = S::V::LANES;
    let (q, hw) = (taps.len(), shape.h * shape.w);
    let segments = shape.segments(rows, lanes);
    let a = Strided {
        ptr: weight.as_ptr(),
        rs: q,
        ks: 1,
    };
    for pc in (0..q).step_by(KC) {
        let kc = KC.min(q - pc);
        for first in segments.clone().step_by(S::NV) {
            let group = shape.group(first, segments.end, lanes, S::NV);
            let b = Grid {
                ptr: plane.as_ptr().add(group.plane).cast_mut(),
                walk: Table(taps.as_ptr().add(pc)),
                vs: group.plane_vs,
            };
            for i0 in (0..m).step_by(S::MR) {
                let c = Grid {
                    ptr: out.as_mut_ptr().add(i0 * hw + group.out),
                    walk: Stride(hw),
                    vs: group.out_vs,
                };
                let mr = S::MR.min(m - i0);
                run_tile::<S, _, _>(mr, group.lens, kc, a.at(i0, pc), b, c, Init::Accumulate);
            }
        }
    }
}

/// The loop nest of [`conv_input_grad`]: rows are taps, columns output
/// positions, and row `q` of `C` is tap `q`'s view of the gradient plane,
/// so the views of two taps of one channel overlap.
///
/// col2im adds each input element's contributions in ascending tap order
/// within its channel (channels never meet). Column groups therefore run
/// last-first, with the kernel offsets `(kh, kw)` ascending inside each:
/// for one input element, a larger tap reads a smaller output position —
/// an earlier or the same segment, since segments run row-major and never
/// span rows — so its contribution always lands after every smaller
/// tap's. A row tile holds one offset of up to `MR` channels, so its rows
/// never overlap, and each tile's stores are a whole tile's work behind
/// the next overlapping load rather than one row.
///
/// # Safety
///
/// Requires `S::V`'s CPU feature; the lengths [`conv_input_grad`] asserts
/// and `go` readable for `SLACK` floats past its last row unless `w` is a
/// multiple of the lanes.
#[inline(always)]
pub(super) unsafe fn input_grad<S: Shape>(
    shape: &ConvShape,
    oc: usize,
    weight: &[f32],
    go: &[f32],
    grad_plane: &mut [f32],
) {
    let lanes = S::V::LANES;
    let (k, hw, chan) = (shape.k, shape.h * shape.w, shape.channel_len());
    let q = shape.taps_len();
    let segments = shape.segments(0..shape.h, lanes);
    for first in segments.clone().step_by(S::NV).rev() {
        let group = shape.group(first, segments.end, lanes, S::NV);
        let b = Grid {
            ptr: go.as_ptr().add(group.out).cast_mut(),
            walk: Stride(hw),
            vs: group.out_vs,
        };
        for kh in 0..k {
            for kw in 0..k {
                // Wᵀ over channels at one offset: row `ci`, step `o` reads
                // `weight[o·q + ci·k·k + kh·k + kw]`.
                let a = Strided {
                    ptr: weight.as_ptr().add(kh * k + kw),
                    rs: k * k,
                    ks: q,
                };
                let plane = group.plane + kh * shape.wp() + kw;
                for ci0 in (0..shape.in_c).step_by(S::MR) {
                    let c = Grid {
                        ptr: grad_plane.as_mut_ptr().add(plane + ci0 * chan),
                        walk: Stride(chan),
                        vs: group.plane_vs,
                    };
                    let mr = S::MR.min(shape.in_c - ci0);
                    run_tile::<S, _, _>(mr, group.lens, oc, a.at(ci0, 0), b, c, Init::DotThenAdd);
                }
            }
        }
    }
}
