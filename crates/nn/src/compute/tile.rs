//! The one register-tiled microkernel behind every convolution pass
//! (DESIGN.md §14), written once against [`Lanes`] and compiled in every
//! build.
//!
//! [`tile`] computes an `R`×`NV·LANES` block of `C` — `R ≤ MR` rows of `NV`
//! accumulators — from `A` elements addressed through a row and a k stride
//! ([`Strided`]) and `NV` vectors of `B` per k step ([`Grid`]). `B`'s k
//! steps and `C`'s rows are each reached through a [`Walk`]: a fixed
//! stride for dense operands, an offset table for a conv tap's shifted
//! view of a padded plane. Its [`Init`] modes serve the accumulate-into-`C`
//! products and the dot from zero, added to `C` once. Per lane the
//! recurrence is exactly the scalar kernels': products added one at a
//! time in ascending k, with multiply and add as separate instructions (no
//! FMA). So every product here is bit-identical to the scalar order of
//! `compute::reference`, at every width.
//!
//! The generic bodies are instantiated for the tile [`Shape`]s declared
//! with [`shape!`]: [`Soft6x8`] here, on the portable `[f32; 8]` lanes of
//! the scalar tier, and the eight- and sixteen-lane shapes of the `avx`
//! module under their target features. [`dot_then_add_at`] and the conv
//! passes pick the shape for [`crate::simd::tier`].
//!
//! Ragged edges stay in the lanes: a partial row count selects a shorter
//! `R` instantiation, and a tile with a partial vector runs on a temporary
//! `C` tile whose valid lanes are copied (or added) back ([`run_tile`]).

use crate::simd::Lanes;
use std::cell::RefCell;
use std::mem::MaybeUninit;

/// Most vectors per tile row of any [`Shape`] (the length of a tile's
/// per-vector valid-lane counts).
pub(super) const MAX_NV: usize = 2;

/// Floats in the largest temporary `C` tile (12 rows of 32 lanes).
pub(super) const TMP_LEN: usize = 12 * 32;

std::thread_local! {
    /// Reusable transposed `B` panel or slack copy of an operand;
    /// thread-local so concurrent networks do not contend.
    pub(super) static PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// A register tile shape the microkernel is instantiated at: its lanes,
/// its rows, and the vectors in each row.
pub(super) trait Shape {
    /// The lane type.
    type V: Lanes;
    /// Rows per register tile.
    const MR: usize;
    /// Vectors per tile row.
    const NV: usize;

    /// [`tile`] instantiated for `mr` rows, compiled under the shape's
    /// target feature. It is the one out-of-line unit per tile: inlining
    /// every row instantiation into the blocking loops measured ~8% slower
    /// on an eight-lane 300×12×256 product, where a tile is only twelve k
    /// steps.
    ///
    /// # Safety
    ///
    /// Requires the shape's CPU feature; the [`tile`] contract for
    /// `R = mr`, `1 ≤ mr ≤ MR`.
    unsafe fn tile_rows<BW: Walk, CW: Walk>(
        mr: usize,
        kc: usize,
        a: Strided,
        b: Grid<BW>,
        c: Grid<CW>,
        init: Init,
    );

    /// Writes `rows ≤ width` source rows, `first..first + rows` of `row`,
    /// as the columns of the `runs.total()`×`width` `panel` (pure data
    /// movement; see [`transpose_scalar`] for the element map).
    ///
    /// # Safety
    ///
    /// Requires the shape's CPU feature; every source element read exists
    /// and `panel` holds `runs.total() · width` floats.
    unsafe fn transpose<W: Walk>(
        rows: usize,
        first: usize,
        width: usize,
        src: *const f32,
        row: W,
        runs: Runs,
        panel: &mut [f32],
    );
}

/// Declares a [`Shape`]: its lane type and target feature (none for the
/// portable lanes), tile height (with the shorter heights a partial row
/// tile can take), vectors per row, and panel transpose.
macro_rules! shape {
    ($(#[$doc:meta])* $name:ident: $v:ty, [$(#[$feature:meta])*], rows $mr:literal, partial [$($r:literal)*], vectors $nv:literal, transpose $tr:path) => {
        $(#[$doc])*
        pub(super) struct $name;

        const _: () = assert!(
            $nv <= $crate::compute::tile::MAX_NV
                && $mr * $nv * <$v as $crate::simd::Lanes>::LANES <= $crate::compute::tile::TMP_LEN
        );

        impl $crate::compute::tile::Shape for $name {
            type V = $v;
            const MR: usize = $mr;
            const NV: usize = $nv;

            $(#[$feature])*
            unsafe fn tile_rows<BW: $crate::compute::tile::Walk, CW: $crate::compute::tile::Walk>(
                mr: usize,
                kc: usize,
                a: $crate::compute::tile::Strided,
                b: $crate::compute::tile::Grid<BW>,
                c: $crate::compute::tile::Grid<CW>,
                init: $crate::compute::tile::Init,
            ) {
                use $crate::compute::tile::tile;
                match mr {
                    $($r => tile::<$v, $r, $nv, BW, CW>(kc, a, b, c, init),)*
                    _ => tile::<$v, $mr, $nv, BW, CW>(kc, a, b, c, init),
                }
            }

            unsafe fn transpose<W: $crate::compute::tile::Walk>(
                rows: usize,
                first: usize,
                width: usize,
                src: *const f32,
                row: W,
                runs: $crate::compute::tile::Runs,
                panel: &mut [f32],
            ) {
                $tr(rows, first, width, src, row, runs, panel)
            }
        }
    };
}
#[cfg(target_arch = "x86_64")]
pub(super) use shape;

shape!(
    /// 6×8 on the portable `[f32; 8]` lanes: the scalar tier, twelve
    /// baseline-SSE registers of accumulators where the compiler vectorizes
    /// the lanewise loops.
    Soft6x8: [f32; 8], [], rows 6, partial [1 2 3 4 5], vectors 1, transpose transpose_scalar
);

/// How [`tile`] starts and finishes its accumulators.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Init {
    /// Load `C`, add every product into it, store it back.
    Accumulate,
    /// Start from zero, then add the finished dot to `C` once.
    DotThenAdd,
}

/// A strided read-only operand: element `(r, p)` lives at
/// `ptr + r*rs + p*ks`.
#[derive(Clone, Copy)]
pub(super) struct Strided {
    pub(super) ptr: *const f32,
    pub(super) rs: usize,
    pub(super) ks: usize,
}

impl Strided {
    /// The operand shifted to start at element `(r, p)`.
    ///
    /// # Safety
    ///
    /// `(r, p)` must lie inside the operand's allocation.
    #[inline(always)]
    pub(super) unsafe fn at(self, r: usize, p: usize) -> Self {
        Strided {
            ptr: self.ptr.add(r * self.rs + p * self.ks),
            ..self
        }
    }
}

/// The offset of step `i` of an operand: a k step of `B`, a row of `C`,
/// a source row of a transposed panel.
pub(super) trait Walk: Copy {
    /// Offset (in floats) of step `i`.
    ///
    /// # Safety
    ///
    /// A [`Table`] must hold at least `i + 1` entries.
    unsafe fn at(self, i: usize) -> usize;
}

/// Steps a fixed number of floats apart.
#[derive(Clone, Copy)]
pub(super) struct Stride(pub(super) usize);

impl Walk for Stride {
    #[inline(always)]
    unsafe fn at(self, i: usize) -> usize {
        i * self.0
    }
}

/// Steps at the offsets a table lists: a conv's tap offsets in a padded
/// plane.
#[derive(Clone, Copy)]
pub(super) struct Table(pub(super) *const usize);

impl Walk for Table {
    #[inline(always)]
    unsafe fn at(self, i: usize) -> usize {
        *self.0.add(i)
    }
}

/// A `B` or `C` operand of [`tile`]: vector `v` of step `i` starts at
/// `ptr + walk.at(i) + v*vs`. `B` operands are only read through `ptr`.
#[derive(Clone, Copy)]
pub(super) struct Grid<W> {
    pub(super) ptr: *mut f32,
    pub(super) walk: W,
    pub(super) vs: usize,
}

impl<W: Walk> Grid<W> {
    /// Vector `v` of step `i`.
    ///
    /// # Safety
    ///
    /// The address must lie inside the operand's allocation.
    #[inline(always)]
    unsafe fn at(self, i: usize, v: usize) -> *mut f32 {
        self.ptr.add(self.walk.at(i) + v * self.vs)
    }
}

/// How a transposed panel's k index `p` maps into a source row: `count`
/// runs of `len` contiguous floats, `stride` apart; `p = run·len + col`
/// reads `run·stride + col`. A plain row-major row is one run.
#[derive(Clone, Copy)]
pub(super) struct Runs {
    pub(super) count: usize,
    pub(super) len: usize,
    pub(super) stride: usize,
}

impl Runs {
    /// Floats per source row.
    pub(super) fn total(self) -> usize {
        self.count * self.len
    }
}

/// The valid lanes of each vector of a tile `nr` columns wide.
#[inline(always)]
pub(super) fn lens(nr: usize, lanes: usize) -> [usize; MAX_NV] {
    std::array::from_fn(|v| nr.saturating_sub(v * lanes).min(lanes))
}

/// The microkernel: one `R`×`NV·LANES` tile of `C` over `kc` k steps.
///
/// # Safety
///
/// Requires `V`'s CPU feature (inlines into [`Shape::tile_rows`], which
/// enables it). `a` must be readable at `(r, p)` for `r < R`, `p < kc`;
/// `LANES` floats at `b.at(p, v)` for `p < kc`, `v < NV`; `LANES` readable
/// and writable floats at `c.at(r, v)` for `r < R`, `v < NV`.
#[inline(always)]
pub(super) unsafe fn tile<V: Lanes, const R: usize, const NV: usize, BW: Walk, CW: Walk>(
    kc: usize,
    a: Strided,
    b: Grid<BW>,
    c: Grid<CW>,
    init: Init,
) {
    let crows: [*mut f32; R] = std::array::from_fn(|r| c.at(r, 0));
    let mut acc = [[V::zero(); NV]; R];
    if init == Init::Accumulate {
        for (row, crow) in acc.iter_mut().zip(crows) {
            for (v, lane) in row.iter_mut().enumerate() {
                *lane = V::load_ptr(crow.add(v * c.vs));
            }
        }
    }
    // One base pointer per row, indexed by a shared k offset: the row
    // addresses stay independent of each other within a k step.
    let arows: [*const f32; R] = std::array::from_fn(|r| a.ptr.add(r * a.rs));
    let mut off = 0;
    for p in 0..kc {
        let bp = b.at(p, 0);
        let bv: [V; NV] = std::array::from_fn(|v| V::load_ptr(bp.add(v * b.vs)));
        for (row, arow) in acc.iter_mut().zip(arows) {
            let av = V::splat(*arow.add(off));
            for (lane, &bl) in row.iter_mut().zip(&bv) {
                *lane = lane.add(av.mul(bl));
            }
        }
        off += a.ks;
    }
    // Rows in ascending order: under an offset table two rows of `C` may
    // overlap, and the later row must add onto the earlier one's result.
    for (row, crow) in acc.iter().zip(crows) {
        for (v, lane) in row.iter().enumerate() {
            let cp = crow.add(v * c.vs);
            match init {
                Init::Accumulate => lane.store_ptr(cp),
                Init::DotThenAdd => V::load_ptr(cp).add(*lane).store_ptr(cp),
            }
        }
    }
}

/// Runs one `mr`-row tile (`1 ≤ mr ≤ MR`) whose vector `v` has `lens[v]`
/// valid lanes through [`tile`]. A tile with a partial vector computes into
/// a temporary full tile and writes back only the valid lanes: under
/// [`Init::Accumulate`] it starts from a zero-padded copy of `C` and copies
/// back; under [`Init::DotThenAdd`] it takes the dots from a zeroed tile
/// (`+0.0 + dot` is the dot, which never sums to `-0.0`) and adds them to
/// `C` row by row in ascending order, as [`tile`] does.
///
/// # Safety
///
/// The [`tile`] contract for `mr` rows, except that `C` need only hold
/// `lens[v]` valid floats per vector; `B` must still hold `LANES` readable
/// floats per vector and k step.
#[inline(always)]
pub(super) unsafe fn run_tile<S: Shape, BW: Walk, CW: Walk>(
    mr: usize,
    lens: [usize; MAX_NV],
    kc: usize,
    a: Strided,
    b: Grid<BW>,
    c: Grid<CW>,
    init: Init,
) {
    let lanes = S::V::LANES;
    let lens = &lens[..S::NV];
    if lens.iter().all(|&l| l == lanes) {
        return S::tile_rows(mr, kc, a, b, c, init);
    }
    let width = S::NV * lanes;
    debug_assert!(mr * width <= TMP_LEN);
    let mut tmp = MaybeUninit::<[f32; TMP_LEN]>::uninit();
    let t = Grid {
        ptr: tmp.as_mut_ptr().cast::<f32>(),
        walk: Stride(width),
        vs: lanes,
    };
    match init {
        Init::Accumulate => {
            for r in 0..mr {
                for (v, &len) in lens.iter().enumerate() {
                    std::ptr::copy_nonoverlapping(c.at(r, v), t.at(r, v), len);
                    // All-zero bytes are `+0.0`.
                    std::ptr::write_bytes(t.at(r, v).add(len), 0, lanes - len);
                }
            }
        }
        Init::DotThenAdd => std::ptr::write_bytes(t.ptr, 0, mr * width),
    }
    S::tile_rows(mr, kc, a, b, t, init);
    for r in 0..mr {
        for (v, &len) in lens.iter().enumerate() {
            let (src, dst) = (t.at(r, v), c.at(r, v));
            match init {
                Init::Accumulate => std::ptr::copy_nonoverlapping(src, dst, len),
                Init::DotThenAdd => {
                    for j in 0..len {
                        *dst.add(j) += *src.add(j);
                    }
                }
            }
        }
    }
}

/// [`dot_then_add`] at [`crate::simd::tier`]'s width, on this thread's
/// panel: the 12×16 tile at sixteen lanes, which reads the same 16-wide
/// transposed panels as the eight-lane 6×16 tile with twice the rows per
/// `B` load, where a 32-wide panel would pad 12-column products to 32.
///
/// # Safety
///
/// The contract of [`dot_then_add`], without the CPU feature.
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn dot_then_add_at(
    m: usize,
    n: usize,
    a: Strided,
    src: *const f32,
    row: impl Walk,
    runs: Runs,
    c: *mut f32,
    c_rs: usize,
) {
    PANEL.with_borrow_mut(|panel| match crate::simd::tier() {
        #[cfg(target_arch = "x86_64")]
        crate::simd::Tier::Avx512 => {
            super::avx::dot_then_add16(m, n, a, src, row, runs, c, c_rs, panel)
        }
        #[cfg(target_arch = "x86_64")]
        crate::simd::Tier::Avx => {
            super::avx::dot_then_add8(m, n, a, src, row, runs, c, c_rs, panel)
        }
        _ => dot_then_add::<Soft6x8>(m, n, a, src, row, runs, c, c_rs, panel),
    });
}

/// `C[m,n] += A·Bᵀ` over `B`'s `n` rows of `k = runs.total()` floats:
/// for each `NV·LANES`-row slab of `B`, transpose it into a k×`NV·LANES`
/// panel (pure data movement), then run every row tile over the full `k`
/// extent in dot-then-add mode — never k-blocked, because each element's
/// single add into `C` must not be split. Serves the conv weight gradient,
/// where `B`'s rows are conv taps' shifted views of a padded plane.
///
/// # Safety
///
/// Requires `S::V`'s CPU feature; `a` readable at `(r, p)` for `r < m`,
/// `p < k`; source rows `0..n` of `row` readable over `runs`; `c` holds
/// `m` rows of `n` floats, `c_rs` apart.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn dot_then_add<S: Shape>(
    m: usize,
    n: usize,
    a: Strided,
    src: *const f32,
    row: impl Walk,
    runs: Runs,
    c: *mut f32,
    c_rs: usize,
    panel: &mut Vec<f32>,
) {
    let lanes = S::V::LANES;
    let width = S::NV * lanes;
    let k = runs.total();
    panel.clear();
    panel.resize(k * width, 0.0);
    for j0 in (0..n).step_by(width) {
        let nr = width.min(n - j0);
        S::transpose(nr, j0, width, src, row, runs, panel);
        let b = Grid {
            ptr: panel.as_mut_ptr(),
            walk: Stride(width),
            vs: lanes,
        };
        for i0 in (0..m).step_by(S::MR) {
            let ci = Grid {
                ptr: c.add(i0 * c_rs + j0),
                walk: Stride(c_rs),
                vs: lanes,
            };
            let mr = S::MR.min(m - i0);
            run_tile::<S, _, _>(mr, lens(nr, lanes), k, a.at(i0, 0), b, ci, Init::DotThenAdd);
        }
    }
}

/// [`Shape::transpose`] in plain loops: `panel[p·width + j] =` element `p`
/// of source row `first + j`, which lives at
/// `src + row.at(first + j) + run·runs.stride + col` for
/// `p = run·runs.len + col`. Columns past `rows` keep stale values; the
/// tiles that read them discard those lanes.
///
/// # Safety
///
/// Every source element read exists and `panel` holds
/// `runs.total() · width` floats.
pub(super) unsafe fn transpose_scalar<W: Walk>(
    rows: usize,
    first: usize,
    width: usize,
    src: *const f32,
    row: W,
    runs: Runs,
    panel: &mut [f32],
) {
    assert!(rows <= width && panel.len() >= runs.total() * width);
    for j in 0..rows {
        let base = src.add(row.at(first + j));
        for run in 0..runs.count {
            for col in 0..runs.len {
                panel[(run * runs.len + col) * width + j] = *base.add(run * runs.stride + col);
            }
        }
    }
}
