//! The BCH-code construction of 4-wise independent ±1 random variables.
//!
//! This is the construction the original AMS paper alludes to ("known
//! constructions of small families of 4-wise independent random variables,
//! based on BCH codes", after Alon–Babai–Itai). Identify the key domain
//! with GF(2⁶⁴); draw a random bit `a0` and random field elements
//! `a1, a3`. For a key `v`, the variable is
//!
//! ```text
//! ε_v = (−1)^( a0 ⊕ ⟨a1, v⟩ ⊕ ⟨a3, v³⟩ )
//! ```
//!
//! where `⟨x, y⟩` is the GF(2) inner product (parity of `x & y`) and `v³`
//! is cubed in GF(2⁶⁴) ([`crate::gf2`]). The words
//! `( ⟨a1,v⟩ ⊕ ⟨a3,v³⟩ ⊕ a0 )_v` range over the dual of the
//! double-error-correcting (extended) BCH code, whose minimum-distance
//! properties make any four ε-coordinates jointly uniform — i.e. the family
//! is exactly 4-wise independent, with a 3-word seed.

use crate::gf2;
use crate::rng::SplitMix64;

/// A 4-wise independent ±1 function drawn from the BCH family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BchSign {
    a0: bool,
    a1: u64,
    a3: u64,
}

impl BchSign {
    /// Draws a function using `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        Self::from_rng(&mut rng)
    }

    /// Draws a function from an existing generator.
    pub fn from_rng(rng: &mut SplitMix64) -> Self {
        Self {
            a0: rng.next_u64() & 1 == 1,
            a1: rng.next_u64(),
            a3: rng.next_u64(),
        }
    }

    /// Evaluates ε_v ∈ {−1, +1}.
    #[inline]
    pub fn sign(&self, v: u64) -> i64 {
        let v3 = gf2::cube(v);
        let parity = ((self.a1 & v).count_ones() + (self.a3 & v3).count_ones()) & 1;
        let bit = (parity == 1) ^ self.a0;
        if bit {
            -1
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_signs() {
        let h = BchSign::from_seed(1);
        for v in 0..1000u64 {
            let s = h.sign(v);
            assert!(s == 1 || s == -1);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = BchSign::from_seed(9);
        let b = BchSign::from_seed(9);
        for v in [0u64, 1, 17, u64::MAX] {
            assert_eq!(a.sign(v), b.sign(v));
        }
    }

    #[test]
    fn single_coordinate_is_unbiased() {
        // For a fixed key, averaging over many functions must give ~0.
        let mut rng = SplitMix64::new(555);
        let trials = 20_000;
        for key in [0u64, 1, 12345, u64::MAX] {
            let mut sum = 0i64;
            for _ in 0..trials {
                sum += BchSign::from_rng(&mut rng).sign(key);
            }
            let mean = sum as f64 / trials as f64;
            assert!(mean.abs() < 0.03, "key {key}: mean {mean}");
        }
    }

    #[test]
    fn pairs_are_uncorrelated() {
        // E[ε_u ε_v] = 0 for u ≠ v under 2-wise (hence 4-wise) independence.
        let mut rng = SplitMix64::new(556);
        let trials = 20_000;
        let pairs = [(0u64, 1u64), (3, 9), (1, u64::MAX), (100, 101)];
        for (u, v) in pairs {
            let mut sum = 0i64;
            for _ in 0..trials {
                let h = BchSign::from_rng(&mut rng);
                sum += h.sign(u) * h.sign(v);
            }
            let mean = sum as f64 / trials as f64;
            assert!(mean.abs() < 0.03, "pair ({u},{v}): mean {mean}");
        }
    }

    #[test]
    fn quadruples_have_zero_third_and_fourth_mixed_moments() {
        // 4-wise independence implies E[ε_a ε_b ε_c] = 0 and
        // E[ε_a ε_b ε_c ε_d] = 0 for distinct keys.
        let mut rng = SplitMix64::new(557);
        let trials = 40_000;
        let (a, b, c, d) = (2u64, 5, 11, 900);
        let (mut m3, mut m4) = (0i64, 0i64);
        for _ in 0..trials {
            let h = BchSign::from_rng(&mut rng);
            let (sa, sb, sc, sd) = (h.sign(a), h.sign(b), h.sign(c), h.sign(d));
            m3 += sa * sb * sc;
            m4 += sa * sb * sc * sd;
        }
        let m3 = m3 as f64 / trials as f64;
        let m4 = m4 as f64 / trials as f64;
        assert!(m3.abs() < 0.025, "third mixed moment {m3}");
        assert!(m4.abs() < 0.025, "fourth mixed moment {m4}");
    }
}
