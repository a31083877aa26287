//! The delta/XOR word loops.
//!
//! Plain element-wise loops over the common prefix of two word slices:
//! wrapping 32-bit integer arithmetic and XOR on IEEE-754 bit patterns,
//! so results are bit-exact on every target. The optimiser vectorises
//! them; they run far faster than the plane decode that feeds them, so
//! no hand-written ISA path would show end to end.

/// Reinterpret a float slice as its IEEE-754 bit patterns without
/// copying. `f32` and `u32` have identical size and alignment, and every
/// bit pattern is a valid `u32`, so the view is total.
// mh-audit: trusted(total: same-size same-align reinterpret, no arithmetic)
pub fn bits_of(s: &[f32]) -> &[u32] {
    // SAFETY: size_of::<f32>() == size_of::<u32>(), align_of matches,
    // and u32 has no invalid bit patterns; lifetime is inherited from s.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u32>(), s.len()) }
}

/// `dst[i] ^= src[i]` over the common prefix of the two slices — the XOR
/// delta loop (self-inverse: compute and apply are the same operation).
pub fn xor_assign(dst: &mut [u32], src: &[u32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// `dst[i] = dst[i].wrapping_sub(src[i])` over the common prefix — the
/// Sub-delta *compute* loop (target bits minus base bits).
pub fn sub_assign(dst: &mut [u32], src: &[u32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.wrapping_sub(*s);
    }
}

/// `dst[i] = dst[i].wrapping_add(src[i])` over the common prefix — the
/// Sub-delta *apply* loop (base bits plus delta words).
pub fn add_assign(dst: &mut [u32], src: &[u32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.wrapping_add(*s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn bits_of_roundtrips_patterns() {
        let floats = [0.0f32, -0.0, 1.5, f32::NAN, f32::INFINITY, -2.25];
        let bits = bits_of(&floats);
        for (f, b) in floats.iter().zip(bits) {
            assert_eq!(f.to_bits(), *b);
        }
        assert!(bits_of(&[]).is_empty());
    }

    /// Run `kernel` on `dst`/`src` and on misaligned sub-slices of them,
    /// and demand `op` applied index by index over the common prefix with
    /// any longer tail of `dst` untouched. The loops are auto-vectorised,
    /// so lengths around the vector widths exercise both the vector body
    /// and its scalar remainder.
    fn assert_matches_scalar(
        dst: &[u32],
        src: &[u32],
        kernel: fn(&mut [u32], &[u32]),
        op: fn(u32, u32) -> u32,
    ) {
        for offset in [0usize, 1, 3] {
            if offset > dst.len() || offset > src.len() {
                continue;
            }
            let (d0, s0) = (&dst[offset..], &src[offset..]);
            let mut want = d0.to_vec();
            for i in 0..d0.len().min(s0.len()) {
                want[i] = op(d0[i], s0[i]);
            }
            let mut got = d0.to_vec();
            kernel(&mut got, s0);
            assert_eq!(got, want, "kernel != scalar at offset {offset}");
        }
    }

    proptest! {
        #[test]
        fn xor_matches_scalar_on_adversarial_inputs(
            dst in vec(any::<u32>(), 0..200),
            src in vec(any::<u32>(), 0..200),
        ) {
            assert_matches_scalar(&dst, &src, xor_assign, |d, s| d ^ s);
        }

        #[test]
        fn sub_matches_scalar_on_adversarial_inputs(
            dst in vec(any::<u32>(), 0..200),
            src in vec(any::<u32>(), 0..200),
        ) {
            assert_matches_scalar(&dst, &src, sub_assign, u32::wrapping_sub);
        }

        #[test]
        fn add_matches_scalar_on_adversarial_inputs(
            dst in vec(any::<u32>(), 0..200),
            src in vec(any::<u32>(), 0..200),
        ) {
            assert_matches_scalar(&dst, &src, add_assign, u32::wrapping_add);
        }

        #[test]
        fn sub_then_add_is_identity(
            base in vec(any::<u32>(), 0..200),
        ) {
            let target: Vec<u32> = base.iter().map(|b| b.rotate_left(7) ^ 0xA5A5_5A5A).collect();
            let mut delta = target.clone();
            sub_assign(&mut delta, &base);
            let mut back = base.clone();
            add_assign(&mut back, &delta);
            prop_assert_eq!(back, target);
        }
    }

    #[test]
    fn exact_lane_boundaries() {
        // Lengths straddling common vector widths (4, 8, 16 words), plus
        // the empty and single-element cases.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
            let dst: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B1)).collect();
            let src: Vec<u32> = (0..n as u32).map(|i| !i).collect();
            assert_matches_scalar(&dst, &src, xor_assign, |d, s| d ^ s);
        }
    }
}
