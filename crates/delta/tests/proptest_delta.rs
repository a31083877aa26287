//! Property tests: delta application is exactly inverse to delta
//! computation for arbitrary bit patterns and arbitrary shape pairs.

use mh_delta::{bit_equal, Delta, DeltaOp};
use mh_tensor::Matrix;
use proptest::prelude::*;

fn arb_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(any::<u32>(), r * c).prop_map(move |bits| {
            Matrix::from_vec(r, c, bits.into_iter().map(f32::from_bits).collect())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_same_shape(bits in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..64)) {
        let n = bits.len();
        let base = Matrix::from_vec(1, n, bits.iter().map(|(b, _)| f32::from_bits(*b)).collect());
        let target = Matrix::from_vec(1, n, bits.iter().map(|(_, t)| f32::from_bits(*t)).collect());
        for op in [DeltaOp::Sub, DeltaOp::Xor] {
            let d = Delta::compute(&base, &target, op);
            prop_assert!(bit_equal(&d.apply(&base), &target));
        }
    }

    #[test]
    fn roundtrip_any_shapes(base in arb_matrix(), target in arb_matrix()) {
        for op in [DeltaOp::Sub, DeltaOp::Xor] {
            let d = Delta::compute(&base, &target, op);
            prop_assert!(bit_equal(&d.apply(&base), &target));
        }
    }
}
