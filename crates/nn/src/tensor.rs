//! A 4-dimensional NCHW tensor.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A dense `f32` tensor with NCHW layout `[batch, channels, height, width]`.
///
/// All layers in this crate operate on 4-D tensors; vectors are represented
/// as `[n, c, 1, 1]`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: [usize; 4],
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: [usize; 4]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a one-filled tensor.
    pub fn ones(shape: [usize; 4]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape,
            data: vec![1.0; len],
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_vec(shape: [usize; 4], data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "tensor data length mismatch"
        );
        Tensor { shape, data }
    }

    /// The tensor shape `[n, c, h, w]`.
    #[inline]
    pub fn shape(&self) -> [usize; 4] {
        self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, yielding its storage (for recycling into a
    /// [`crate::compute::Scratch`] arena).
    #[inline]
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Flat index of `[n, c, h, w]`.
    #[inline]
    pub fn index(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        ((n * self.shape[1] + c) * self.shape[2] + h) * self.shape[3] + w
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.index(n, c, h, w)]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let i = self.index(n, c, h, w);
        &mut self.data[i]
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "tensor shape mismatch");
        crate::simd::add_assign(&mut self.data, &other.data);
    }

    /// [`Tensor::add_assign`] on rows `rows[s]` of every channel of each
    /// sample `s` only.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or as [`Tensor::row_spans`] does.
    pub fn add_assign_rows(&mut self, other: &Tensor, rows: &[Range<usize>]) {
        assert_eq!(self.shape, other.shape, "tensor shape mismatch");
        for run in self.row_runs(rows) {
            crate::simd::add_assign(&mut self.data[run.clone()], &other.data[run]);
        }
    }

    /// [`Tensor::row_spans`] without channels, adjacent spans merged: a
    /// whole-plane window is one run over the whole tensor.
    ///
    /// # Panics
    ///
    /// As [`Tensor::row_spans`] does.
    pub fn row_runs<'a>(
        &self,
        rows: &'a [Range<usize>],
    ) -> impl Iterator<Item = Range<usize>> + 'a {
        let mut spans = self.row_spans(rows).map(|(_, span)| span).peekable();
        std::iter::from_fn(move || {
            let mut run = spans.next()?;
            while let Some(next) = spans.next_if(|span| span.start == run.end) {
                run.end = next.end;
            }
            Some(run)
        })
    }

    /// The flat index range of rows `rows[s]` in each channel plane of each
    /// sample `s`, with its channel: samples ascending, then channels.
    /// Elementwise passes run on these spans to touch a row window only.
    ///
    /// # Panics
    ///
    /// Panics unless `rows` holds one range inside `0..h` per sample.
    pub fn row_spans<'a>(
        &self,
        rows: &'a [Range<usize>],
    ) -> impl Iterator<Item = (usize, Range<usize>)> + 'a {
        let [n, c, h, w] = self.shape;
        assert!(
            rows.len() == n && rows.iter().all(|r| r.start <= r.end && r.end <= h),
            "need one row window inside 0..{h} per sample, got {rows:?}"
        );
        rows.iter().enumerate().flat_map(move |(s, r)| {
            (0..c).map(move |ci| {
                let base = (s * c + ci) * h * w;
                (ci, base + r.start * w..base + r.end * w)
            })
        })
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_indexing() {
        let mut t = Tensor::zeros([2, 3, 4, 5]);
        assert_eq!(t.len(), 120);
        *t.at_mut(1, 2, 3, 4) = 7.0;
        assert_eq!(t.at(1, 2, 3, 4), 7.0);
        assert_eq!(t.data()[119], 7.0, "last element in row-major NCHW");
    }

    #[test]
    fn arithmetic() {
        let mut a = Tensor::ones([1, 1, 2, 2]);
        let b = Tensor::ones([1, 1, 2, 2]);
        a.add_assign(&b);
        a.scale(0.5);
        assert_eq!(a.data(), &[1.0; 4]);
        assert_eq!(a.max_abs(), 1.0);
    }

    #[test]
    fn row_spans_and_runs() {
        let t = Tensor::zeros([2, 2, 3, 4]);
        let spans: Vec<_> = t.row_spans(&[1..2, 0..3]).collect();
        assert_eq!(spans, [(0, 4..8), (1, 16..20), (0, 24..36), (1, 36..48)]);
        let runs: Vec<_> = t.row_runs(&[1..2, 0..3]).collect();
        assert_eq!(runs, [4..8, 16..20, 24..48]);
        let mut whole = t.row_runs(&[0..3, 0..3]);
        assert_eq!((whole.next(), whole.next()), (Some(0..48), None));
    }

    #[test]
    #[should_panic(expected = "one row window inside")]
    fn row_spans_check_windows() {
        let _ = Tensor::zeros([2, 1, 3, 4]).row_spans(&[0..1, 2..4]).count();
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_checks_len() {
        Tensor::from_vec([1, 1, 2, 2], vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_checks_shape() {
        let mut a = Tensor::zeros([1, 1, 2, 2]);
        a.add_assign(&Tensor::zeros([1, 1, 2, 3]));
    }
}
