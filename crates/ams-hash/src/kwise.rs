//! Carter–Wegman polynomial hash families: k-wise independence from
//! degree-(k−1) polynomials over GF(2⁶¹−1).
//!
//! A uniformly random polynomial `h(x) = c_{k−1}·x^{k−1} + … + c_1·x + c_0`
//! over a field is a k-wise independent function: for any k distinct keys
//! the k hash values are independent and uniform. Evaluation is Horner's
//! rule — (k−1) multiply-adds per key — which for k = 4 is three widening
//! multiplies, cheap enough to sit on the sketch update hot path.

use crate::field;
use crate::rng::SplitMix64;

/// A hash function drawn from a k-wise independent polynomial family over
/// GF(2⁶¹−1). `K` is the independence level (polynomial degree + 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyHash<const K: usize> {
    /// Coefficients `c_0 … c_{K−1}`, each uniform in `[0, P)`.
    coeffs: [u64; K],
}

/// A pairwise (2-wise) independent polynomial hash.
pub type TwoWisePoly = PolyHash<2>;
/// A 4-wise independent polynomial hash — the independence level required
/// by the tug-of-war variance analysis (Theorem 2.2 / Lemma 4.4).
pub type FourWisePoly = PolyHash<4>;

impl<const K: usize> PolyHash<K> {
    /// Draws a function from the family using `seed` for the coefficients.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        Self::from_rng(&mut rng)
    }

    /// Draws a function using an existing generator (for batch construction
    /// of many independent functions from one master seed).
    pub fn from_rng(rng: &mut SplitMix64) -> Self {
        let mut coeffs = [0u64; K];
        for c in &mut coeffs {
            *c = rng.next_below(field::P);
        }
        Self { coeffs }
    }

    /// Constructs from explicit coefficients (reduced into the field).
    /// Mostly useful in tests that need a known polynomial.
    pub fn from_coeffs(raw: [u64; K]) -> Self {
        let mut coeffs = [0u64; K];
        for (c, &r) in coeffs.iter_mut().zip(raw.iter()) {
            *c = field::reduce64(r);
        }
        Self { coeffs }
    }

    /// Evaluates the polynomial at `x` (reduced into the field), returning
    /// a value uniform in `[0, P)`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let x = field::reduce64(x);
        // Horner's rule, highest coefficient first.
        let mut acc = self.coeffs[K - 1];
        for i in (0..K - 1).rev() {
            acc = field::add(field::mul(acc, x), self.coeffs[i]);
        }
        acc
    }

    /// The coefficients defining this function.
    pub fn coeffs(&self) -> &[u64; K] {
        &self.coeffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn constant_polynomial_is_constant() {
        let h = PolyHash::<4>::from_coeffs([42, 0, 0, 0]);
        for x in 0..100 {
            assert_eq!(h.hash(x), 42);
        }
    }

    #[test]
    fn linear_polynomial_matches_direct_evaluation() {
        // h(x) = 3x + 5
        let h = PolyHash::<2>::from_coeffs([5, 3]);
        for x in [0u64, 1, 2, 1000, field::P - 1] {
            let expected = field::add(field::mul(3, field::reduce64(x)), 5);
            assert_eq!(h.hash(x), expected);
        }
    }

    #[test]
    fn cubic_polynomial_matches_direct_evaluation() {
        // h(x) = 2x^3 + 3x^2 + 5x + 7
        let h = PolyHash::<4>::from_coeffs([7, 5, 3, 2]);
        for x in [0u64, 1, 9, 12345, field::P - 2] {
            let xr = field::reduce64(x);
            let x2 = field::mul(xr, xr);
            let x3 = field::mul(x2, xr);
            let expected = field::add(
                field::add(field::mul(2, x3), field::mul(3, x2)),
                field::add(field::mul(5, xr), 7),
            );
            assert_eq!(h.hash(x), expected);
        }
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let a = FourWisePoly::from_seed(11);
        let b = FourWisePoly::from_seed(11);
        let c = FourWisePoly::from_seed(12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.hash(999), b.hash(999));
    }

    #[test]
    fn output_is_always_canonical() {
        let h = FourWisePoly::from_seed(5);
        for x in (0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            assert!(h.hash(x) < field::P);
        }
    }

    #[test]
    fn distribution_roughly_uniform_over_buckets() {
        // Chi-square style sanity check: hash 40_000 consecutive keys into
        // 16 buckets; each bucket should be near 2_500.
        let h = FourWisePoly::from_seed(77);
        let mut buckets = [0u32; 16];
        let n = 40_000u64;
        for x in 0..n {
            buckets[(h.hash(x) % 16) as usize] += 1;
        }
        let expect = n as f64 / 16.0;
        let chi2: f64 = buckets
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        // 15 degrees of freedom; 99.9th percentile ≈ 37.7.
        assert!(chi2 < 37.7, "chi2 = {chi2}, buckets = {buckets:?}");
    }

    #[test]
    fn pairwise_collision_rate_matches_universal_bound() {
        // For a 2-universal family, Pr[h(x)=h(y) mod m] ≤ ~1/m. Measure the
        // empirical collision rate of many random pairs across seeds.
        let mut rng = SplitMix64::new(123);
        let m = 64u64;
        let trials = 20_000;
        let mut collisions = 0u32;
        for _ in 0..trials {
            let h = TwoWisePoly::from_rng(&mut rng);
            let x = rng.next_u64();
            let mut y = rng.next_u64();
            while y == x {
                y = rng.next_u64();
            }
            if h.hash(x) % m == h.hash(y) % m {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        assert!(
            rate < 2.5 / m as f64,
            "collision rate {rate} vs 1/m = {}",
            1.0 / m as f64
        );
    }

    #[test]
    fn four_wise_joint_uniformity_on_fixed_keys() {
        // Empirically check 4-wise independence: over many random
        // polynomials, the parity bits of (h(0), h(1), h(2), h(3)) should be
        // close to jointly uniform over {0,1}^4.
        let mut rng = SplitMix64::new(2024);
        let trials = 40_000usize;
        let mut counts: HashMap<u8, u32> = HashMap::new();
        for _ in 0..trials {
            let h = FourWisePoly::from_rng(&mut rng);
            let mut pattern = 0u8;
            for (bit, key) in [0u64, 1, 2, 3].into_iter().enumerate() {
                pattern |= (((h.hash(key) >> 33) & 1) as u8) << bit;
            }
            *counts.entry(pattern).or_insert(0) += 1;
        }
        let expect = trials as f64 / 16.0;
        for pattern in 0u8..16 {
            let c = *counts.get(&pattern).unwrap_or(&0) as f64;
            assert!(
                (c - expect).abs() < 5.0 * expect.sqrt(),
                "pattern {pattern:04b}: count {c} vs expected {expect}"
            );
        }
    }
}
