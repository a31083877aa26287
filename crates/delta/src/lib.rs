//! # mh-delta
//!
//! Delta encoding between versioned float matrices (§IV-B "Delta Encoding
//! across Snapshots").
//!
//! Two operators, both *exactly* invertible on IEEE-754 bit patterns:
//!
//! * **Sub** — wrapping 32-bit integer subtraction of the bit patterns.
//!   For nearby values this produces deltas with long runs of `0x00`/`0xFF`
//!   bytes, which entropy-code extremely well. (Plain float subtraction is
//!   not exactly invertible due to rounding, so an archival store cannot
//!   use it; integer subtraction of the patterns is the standard
//!   compression-literature equivalent.)
//! * **Xor** — bitwise XOR of the patterns.
//!
//! Mismatched shapes (the paper's extended-version note) are handled by
//! virtually zero-extending or cropping the base to the target's shape, so
//! any matrix can be delta-encoded against any other.

use mh_tensor::Matrix;

pub mod simd;

/// The delta operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    /// Wrapping integer subtraction of bit patterns.
    Sub,
    /// Bitwise XOR of bit patterns.
    Xor,
}

impl DeltaOp {
    pub fn name(self) -> &'static str {
        match self {
            DeltaOp::Sub => "delta-sub",
            DeltaOp::Xor => "delta-xor",
        }
    }
}

/// A delta that recreates a target matrix from a base matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    pub op: DeltaOp,
    rows: usize,
    cols: usize,
    /// One 32-bit word per target element.
    words: Vec<u32>,
}

/// Bit pattern of the base element at the target's (r, c), or 0 if the
/// base does not cover that position.
#[inline]
fn base_bits(base: &Matrix, r: usize, c: usize) -> u32 {
    if r < base.rows() && c < base.cols() {
        base.get(r, c).to_bits()
    } else {
        0
    }
}

impl Delta {
    /// Compute the delta that recreates `target` from `base`.
    ///
    /// Same-shape pairs (the overwhelmingly common archival case — every
    /// snapshot of one layer has one shape) take a fast path over the
    /// flat word arrays; the positional fallback handles crop/extend.
    /// Both produce identical words: the flat loop visits elements in
    /// the same row-major order with the same wrapping integer ops.
    pub fn compute(base: &Matrix, target: &Matrix, op: DeltaOp) -> Self {
        let (rows, cols) = target.shape();
        if base.shape() == target.shape() {
            let mut words: Vec<u32> = target.as_slice().iter().map(|x| x.to_bits()).collect();
            let base_bits = simd::bits_of(base.as_slice());
            match op {
                DeltaOp::Sub => simd::sub_assign(&mut words, base_bits),
                DeltaOp::Xor => simd::xor_assign(&mut words, base_bits),
            }
            return Self {
                op,
                rows,
                cols,
                words,
            };
        }
        let mut words = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let t = target.get(r, c).to_bits();
                let b = base_bits(base, r, c);
                words.push(match op {
                    DeltaOp::Sub => t.wrapping_sub(b),
                    DeltaOp::Xor => t ^ b,
                });
            }
        }
        Self {
            op,
            rows,
            cols,
            words,
        }
    }

    /// Recreate the target from the base this delta was computed against.
    /// (Any base works shape-wise; correctness requires the original base.)
    pub fn apply(&self, base: &Matrix) -> Matrix {
        if base.shape() == (self.rows, self.cols) {
            let mut bits: Vec<u32> = simd::bits_of(base.as_slice()).to_vec();
            match self.op {
                DeltaOp::Sub => simd::add_assign(&mut bits, &self.words),
                DeltaOp::Xor => simd::xor_assign(&mut bits, &self.words),
            }
            let data: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
            return Matrix::from_vec(self.rows, self.cols, data);
        }
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let d = self.words[r * self.cols + c];
                let b = base_bits(base, r, c);
                let bits = match self.op {
                    DeltaOp::Sub => b.wrapping_add(d),
                    DeltaOp::Xor => b ^ d,
                };
                data.push(f32::from_bits(bits));
            }
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn num_elements(&self) -> usize {
        self.words.len()
    }

    /// The raw word bytes, big-endian (so byte-plane splitting
    /// puts the most significant delta byte in plane 0) — what PAS
    /// compresses.
    pub fn word_bytes(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_be_bytes()).collect()
    }

    /// Fraction of delta words that are exactly zero — a cheap closeness
    /// statistic used by PAS cost estimation.
    pub fn zero_fraction(&self) -> f64 {
        if self.words.is_empty() {
            return 1.0;
        }
        self.words.iter().filter(|&&w| w == 0).count() as f64 / self.words.len() as f64
    }
}

/// Bitwise equality of two matrices (distinguishes -0.0 from 0.0 and treats
/// identical NaN patterns as equal — exactly what archival recovery needs).
pub fn bit_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_target(close: bool) -> (Matrix, Matrix) {
        let base = Matrix::from_fn(6, 7, |r, c| ((r * 7 + c) as f32 * 0.37).sin() * 0.5);
        let target = if close {
            base.map(|x| x + 1e-4)
        } else {
            Matrix::from_fn(6, 7, |r, c| ((r * 7 + c) as f32 * 1.7).cos() * 2.0)
        };
        (base, target)
    }

    #[test]
    fn sub_roundtrip_exact() {
        for close in [true, false] {
            let (b, t) = base_target(close);
            let d = Delta::compute(&b, &t, DeltaOp::Sub);
            assert!(bit_equal(&d.apply(&b), &t));
        }
    }

    #[test]
    fn xor_roundtrip_exact() {
        for close in [true, false] {
            let (b, t) = base_target(close);
            let d = Delta::compute(&b, &t, DeltaOp::Xor);
            assert!(bit_equal(&d.apply(&b), &t));
        }
    }

    #[test]
    fn self_delta_is_zero() {
        let (b, _) = base_target(true);
        for op in [DeltaOp::Sub, DeltaOp::Xor] {
            let d = Delta::compute(&b, &b, op);
            assert_eq!(d.zero_fraction(), 1.0);
            assert!(bit_equal(&d.apply(&b), &b));
        }
    }

    #[test]
    fn mismatched_shapes_grow_and_shrink() {
        let base = Matrix::from_fn(4, 4, |r, c| (r + c) as f32);
        let bigger = Matrix::from_fn(6, 5, |r, c| (r * c) as f32 + 0.5);
        let smaller = Matrix::from_fn(2, 3, |r, c| (r + 2 * c) as f32 - 0.25);
        for op in [DeltaOp::Sub, DeltaOp::Xor] {
            let d1 = Delta::compute(&base, &bigger, op);
            assert!(bit_equal(&d1.apply(&base), &bigger));
            let d2 = Delta::compute(&base, &smaller, op);
            assert!(bit_equal(&d2.apply(&base), &smaller));
        }
    }

    #[test]
    fn delta_from_empty_base_is_materialization() {
        let empty = Matrix::zeros(0, 0);
        let t = Matrix::from_fn(3, 3, |r, c| (r as f32) - (c as f32) * 0.5);
        let d = Delta::compute(&empty, &t, DeltaOp::Sub);
        assert!(bit_equal(&d.apply(&empty), &t));
        // XOR against zero bits is the identity on patterns.
        let dx = Delta::compute(&empty, &t, DeltaOp::Xor);
        assert!(bit_equal(&dx.apply(&empty), &t));
    }

    #[test]
    fn close_matrices_give_compressible_deltas() {
        // The core premise of Fig 6(b): deltas between nearby snapshots
        // have low-entropy high bytes.
        let (b, t) = base_target(true);
        let d = Delta::compute(&b, &t, DeltaOp::Sub);
        let planes = mh_tensor::split_byte_planes(&d.word_bytes(), 4);
        // Top delta byte should be overwhelmingly 0x00 or 0xff.
        let top = &planes[0];
        let trivial = top.iter().filter(|&&x| x == 0 || x == 0xff).count();
        assert!(
            trivial as f64 > 0.9 * top.len() as f64,
            "top delta plane not sparse: {trivial}/{}",
            top.len()
        );
    }

    #[test]
    fn same_shape_fast_path_matches_positional_path() {
        // Force the positional path by cropping a (rows+1) base down to
        // the target shape element-for-element, then compare against the
        // same-shape flat path on the identical element values.
        for (rows, cols) in [(1, 1), (3, 5), (7, 9), (16, 16), (5, 33)] {
            let target = Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32).sin());
            let base_same = Matrix::from_fn(rows, cols, |r, c| ((r + c) as f32).cos() * 0.7);
            let base_bigger = Matrix::from_fn(rows + 1, cols, |r, c| {
                if r < rows {
                    base_same.get(r, c)
                } else {
                    9.9
                }
            });
            for op in [DeltaOp::Sub, DeltaOp::Xor] {
                let fast = Delta::compute(&base_same, &target, op);
                let positional = Delta::compute(&base_bigger, &target, op);
                assert_eq!(fast.words, positional.words, "{rows}x{cols} {op:?}");
                assert!(bit_equal(&fast.apply(&base_same), &target));
                assert!(bit_equal(&positional.apply(&base_bigger), &target));
            }
        }
    }

    #[test]
    fn negative_zero_and_nan_patterns_survive() {
        let base = Matrix::from_vec(1, 3, vec![1.0, -0.0, f32::NAN]);
        let target = Matrix::from_vec(1, 3, vec![-0.0, f32::NAN, 2.0]);
        for op in [DeltaOp::Sub, DeltaOp::Xor] {
            let d = Delta::compute(&base, &target, op);
            assert!(bit_equal(&d.apply(&base), &target), "{op:?}");
        }
    }
}
