//! 3-D tensors (channels × height × width) used for DNN activations.

use crate::matrix::Matrix;

/// A dense C×H×W tensor of `f32`, stored channel-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor3 {
    c: usize,
    h: usize,
    w: usize,
    data: Vec<f32>,
}

impl Tensor3 {
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        Self {
            c,
            h,
            w,
            data: vec![0.0; c * h * w],
        }
    }

    pub fn from_vec(c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), c * h * w, "tensor shape mismatch");
        Self { c, h, w, data }
    }

    pub fn filled(c: usize, h: usize, w: usize, v: f32) -> Self {
        Self {
            c,
            h,
            w,
            data: vec![v; c * h * w],
        }
    }

    pub fn shape(&self) -> (usize, usize, usize) {
        (self.c, self.h, self.w)
    }

    pub fn channels(&self) -> usize {
        self.c
    }

    pub fn height(&self) -> usize {
        self.h
    }

    pub fn width(&self) -> usize {
        self.w
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        debug_assert!(c < self.c && y < self.h && x < self.w);
        self.data[(c * self.h + y) * self.w + x]
    }

    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
        debug_assert!(c < self.c && y < self.h && x < self.w);
        self.data[(c * self.h + y) * self.w + x] = v;
    }

    /// Padded read: out-of-range coordinates return 0 (zero padding for
    /// convolutions).
    #[inline]
    pub fn get_padded(&self, c: usize, y: isize, x: isize) -> f32 {
        if y < 0 || x < 0 || y as usize >= self.h || x as usize >= self.w {
            0.0
        } else {
            self.get(c, y as usize, x as usize)
        }
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Flatten to a 1×N matrix (for transitioning into full layers).
    pub fn flatten(&self) -> Matrix {
        Matrix::from_vec(1, self.data.len(), self.data.clone())
    }

    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            c: self.c,
            h: self.h,
            w: self.w,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Index of the maximum element in flattened order (argmax for
    /// classification outputs).
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_and_shape() {
        let mut t = Tensor3::zeros(2, 3, 4);
        t.set(1, 2, 3, 5.0);
        assert_eq!(t.get(1, 2, 3), 5.0);
        assert_eq!(t.shape(), (2, 3, 4));
        assert_eq!(t.len(), 24);
    }

    #[test]
    fn padded_access() {
        let t = Tensor3::filled(1, 2, 2, 1.0);
        assert_eq!(t.get_padded(0, -1, 0), 0.0);
        assert_eq!(t.get_padded(0, 0, 2), 0.0);
        assert_eq!(t.get_padded(0, 1, 1), 1.0);
    }

    #[test]
    fn flatten_order_is_channel_major() {
        let t = Tensor3::from_vec(2, 1, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.flatten().as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(0, 0, 1), 2.0);
        assert_eq!(t.get(1, 0, 0), 3.0);
    }

    #[test]
    fn argmax() {
        let t = Tensor3::from_vec(3, 1, 1, vec![0.1, 0.9, 0.3]);
        assert_eq!(t.argmax(), 1);
    }
}
