//! Property-based tests for the resource-vector algebra.
//!
//! These invariants underpin every scheduler score in the workspace: if
//! vector arithmetic misbehaves (NaN leakage, broken normalization,
//! asymmetric dot products) every downstream heuristic silently degrades.

use proptest::prelude::*;
use tetris_resources::{Resource, ResourceVec, NUM_RESOURCES};

fn arb_component() -> impl Strategy<Value = f64> {
    // Realistic magnitudes: cores (units), bytes (up to ~1e12), rates.
    prop_oneof![0.0..=64.0, 0.0..=1e12, Just(0.0),]
}

fn arb_vec() -> impl Strategy<Value = ResourceVec> {
    proptest::array::uniform6(arb_component()).prop_map(ResourceVec)
}

fn arb_capacity() -> impl Strategy<Value = ResourceVec> {
    // Strictly positive capacities.
    proptest::array::uniform6(1e-3..=1e12).prop_map(ResourceVec)
}

proptest! {
    #[test]
    fn add_commutes(a in arb_vec(), b in arb_vec()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn sub_then_add_roundtrips(a in arb_vec(), b in arb_vec()) {
        let r = a - b + b;
        for i in 0..NUM_RESOURCES {
            let tol = 1e-9 * a.0[i].abs().max(b.0[i].abs()).max(1.0);
            prop_assert!((r.0[i] - a.0[i]).abs() <= tol);
        }
    }

    #[test]
    fn dot_symmetric(a in arb_vec(), b in arb_vec()) {
        prop_assert_eq!(a.dot(&b), b.dot(&a));
    }

    #[test]
    fn dot_nonnegative_for_nonnegative(a in arb_vec(), b in arb_vec()) {
        prop_assert!(a.dot(&b) >= 0.0);
    }

    #[test]
    fn normalize_then_scale_roundtrips(a in arb_vec(), cap in arb_capacity()) {
        let n = a.normalized_by(&cap);
        for i in 0..NUM_RESOURCES {
            let back = n.0[i] * cap.0[i];
            let tol = 1e-9 * a.0[i].abs().max(1.0);
            prop_assert!((back - a.0[i]).abs() <= tol,
                "component {i}: {} vs {}", back, a.0[i]);
        }
    }

    #[test]
    fn normalized_never_nan(a in arb_vec(), cap in arb_capacity()) {
        prop_assert!(!a.normalized_by(&cap).has_nan());
    }

    #[test]
    fn fits_within_reflexive(a in arb_vec()) {
        prop_assert!(a.fits_within(&a));
    }

    #[test]
    fn fits_within_monotone(a in arb_vec(), b in arb_vec(), extra in arb_vec()) {
        // If a fits in b, then a fits in b + extra (extra >= 0).
        if a.fits_within(&b) {
            prop_assert!(a.fits_within(&(b + extra)));
        }
    }

    #[test]
    fn clamp_non_negative_idempotent(a in arb_vec(), b in arb_vec()) {
        let d = (a - b).clamp_non_negative();
        prop_assert_eq!(d.clamp_non_negative(), d);
        prop_assert!(d.min_component() >= 0.0);
    }

    #[test]
    fn dominant_share_bounded_by_max_ratio(a in arb_vec(), cap in arb_capacity()) {
        let all = Resource::ALL;
        let ds = a.dominant_share(&cap, &all);
        let max_ratio = a.normalized_by(&cap).max_component();
        prop_assert!((ds - max_ratio).abs() <= 1e-9 * max_ratio.abs().max(1.0));
    }

    #[test]
    fn projection_fits_within_original(a in arb_vec()) {
        let p = a.project(&[Resource::Cpu, Resource::Mem]);
        prop_assert!(p.fits_within(&a));
    }

    #[test]
    fn sum_matches_componentwise(a in arb_vec(), b in arb_vec(), c in arb_vec()) {
        let s: ResourceVec = vec![a, b, c].into_iter().sum();
        prop_assert_eq!(s, a + b + c);
    }

    #[test]
    fn scalar_mul_distributes(a in arb_vec(), b in arb_vec(), k in 0.0..1e3f64) {
        let lhs = (a + b) * k;
        let rhs = a * k + b * k;
        for i in 0..NUM_RESOURCES {
            let tol = 1e-6 * lhs.0[i].abs().max(1.0);
            prop_assert!((lhs.0[i] - rhs.0[i]).abs() <= tol);
        }
    }
}
