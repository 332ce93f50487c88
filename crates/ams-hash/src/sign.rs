//! ±1 "sign" hashes: the `v ↦ ε_v ∈ {−1, +1}` mappings consumed by
//! tug-of-war sketches and k-TW join signatures.
//!
//! The [`SignHash`] trait abstracts over constructions with different
//! independence levels so the sketch code is generic and the ablation
//! benches can swap families:
//!
//! | implementation      | independence | evaluation cost            |
//! |---------------------|--------------|----------------------------|
//! | [`PolySign`]        | 4-wise       | 3 widening multiplies      |
//! | [`BchSignHash`]     | 4-wise       | 2 carry-less multiplies    |
//! | [`TwoWiseSign`]     | 2-wise       | 1 widening multiply        |
//! | [`TabulationSign`]  | 3-wise       | 8 table lookups            |
//!
//! The paper's variance analysis (Theorem 2.2, Lemma 4.4) requires 4-wise
//! independence; the weaker families are provided to *demonstrate* that
//! requirement empirically, not as production defaults.

use crate::bch::BchSign;
use crate::kwise::{FourWisePoly, TwoWisePoly};
use crate::plane::{PolySignPlane, RowPlane, SignPlane, TwoWiseSignPlane};
use crate::rng::SplitMix64;
use crate::tabulation::TabulationHash;

/// A random mapping from 64-bit keys to {−1, +1}.
///
/// Implementations must be pure (same key ⇒ same sign for the lifetime of
/// the value) so that inserts and deletes cancel exactly.
pub trait SignHash {
    /// Evaluates the sign of `v`.
    fn sign(&self, v: u64) -> i64;

    /// Evaluates the signs of a whole block of keys into `out`.
    ///
    /// Semantically identical to calling [`Self::sign`] per key (a
    /// property the hash test-suite pins down); implementations override
    /// it to hoist per-function state out of the loop.
    ///
    /// # Panics
    /// Panics if `values.len() != out.len()`.
    fn sign_block(&self, values: &[u64], out: &mut [i64]) {
        assert_eq!(values.len(), out.len(), "sign_block shape mismatch");
        for (o, &v) in out.iter_mut().zip(values.iter()) {
            *o = self.sign(v);
        }
    }
}

/// Builder for sign-hash families: lets sketch constructors draw any number
/// of independent functions from a master generator.
pub trait SignFamily: SignHash + Sized {
    /// The columnar bank this family evaluates blocks with; drawing a
    /// plane of `n` rows consumes the generator exactly like `n`
    /// [`SignFamily::draw`] calls, so plane-backed and per-item sketches
    /// are bit-identical.
    type Plane: SignPlane;

    /// The family's persisted id. Serialized sketch state names the
    /// family it was drawn from, because only the seed and the counters
    /// are stored: decoding under another family would re-derive
    /// different functions from the same seed. Ids are never reused.
    const ID: u32;

    /// Draws one function from the family.
    fn draw(rng: &mut SplitMix64) -> Self;
}

/// 4-wise independent sign from a degree-3 polynomial over GF(2⁶¹−1).
///
/// The sign is the low bit of the field value. Because the field has odd
/// order `P`, the bit carries a bias of `1/P ≈ 4.3·10⁻¹⁹` — negligible
/// against the sketch's sampling error at any realistic size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolySign {
    poly: FourWisePoly,
}

impl PolySign {
    /// Draws a function using `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            poly: FourWisePoly::from_seed(seed),
        }
    }
}

impl SignHash for PolySign {
    #[inline]
    fn sign(&self, v: u64) -> i64 {
        if self.poly.hash(v) & 1 == 1 {
            -1
        } else {
            1
        }
    }

    fn sign_block(&self, values: &[u64], out: &mut [i64]) {
        // Coefficients in registers for the whole block; full lane
        // chunks run the split-limb tile kernel (data-parallel across
        // keys), the tail the scalar split-limb step — allocation-free
        // either way.
        crate::lanes::poly_sign_block::<4>(self.poly.coeffs(), values, out);
    }
}

impl SignFamily for PolySign {
    type Plane = PolySignPlane;
    const ID: u32 = 1;

    fn draw(rng: &mut SplitMix64) -> Self {
        Self {
            poly: FourWisePoly::from_rng(rng),
        }
    }
}

/// 2-wise independent sign (ablation backend — *violates* the paper's
/// 4-wise requirement; the fourth-moment bound no longer holds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoWiseSign {
    poly: TwoWisePoly,
}

impl TwoWiseSign {
    /// Draws a function using `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            poly: TwoWisePoly::from_seed(seed),
        }
    }
}

impl SignHash for TwoWiseSign {
    #[inline]
    fn sign(&self, v: u64) -> i64 {
        if self.poly.hash(v) & 1 == 1 {
            -1
        } else {
            1
        }
    }

    fn sign_block(&self, values: &[u64], out: &mut [i64]) {
        crate::lanes::poly_sign_block::<2>(self.poly.coeffs(), values, out);
    }
}

impl SignFamily for TwoWiseSign {
    type Plane = TwoWiseSignPlane;
    const ID: u32 = 2;

    fn draw(rng: &mut SplitMix64) -> Self {
        Self {
            poly: TwoWisePoly::from_rng(rng),
        }
    }
}

/// 4-wise independent sign from the BCH-code construction
/// ([`crate::bch`]): the family used in the original AMS paper, with a
/// 3-word seed per function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BchSignHash {
    inner: BchSign,
}

impl BchSignHash {
    /// Draws a function using `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            inner: BchSign::from_seed(seed),
        }
    }
}

impl SignHash for BchSignHash {
    #[inline]
    fn sign(&self, v: u64) -> i64 {
        self.inner.sign(v)
    }
}

impl SignFamily for BchSignHash {
    type Plane = RowPlane<Self>;
    const ID: u32 = 3;

    fn draw(rng: &mut SplitMix64) -> Self {
        Self {
            inner: BchSign::from_rng(rng),
        }
    }
}

/// 3-wise independent sign from simple tabulation hashing (ablation
/// backend; fastest evaluation, one independence level short of the
/// paper's requirement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabulationSign {
    table: TabulationHash,
}

impl TabulationSign {
    /// Draws a function using `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            table: TabulationHash::from_seed(seed),
        }
    }
}

impl SignHash for TabulationSign {
    #[inline]
    fn sign(&self, v: u64) -> i64 {
        if self.table.hash(v) & 1 == 1 {
            -1
        } else {
            1
        }
    }
}

impl SignFamily for TabulationSign {
    type Plane = RowPlane<Self>;
    const ID: u32 = 4;

    fn draw(rng: &mut SplitMix64) -> Self {
        Self {
            table: TabulationHash::from_rng(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_signs<H: SignFamily>(seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let h = H::draw(&mut rng);
        let mut plus = 0u32;
        for v in 0..2_000u64 {
            let s = h.sign(v);
            assert!(s == 1 || s == -1);
            if s == 1 {
                plus += 1;
            }
        }
        // Within any single function, signs over many keys should be
        // roughly balanced (not a formal guarantee, but a strong smoke
        // test for all these families on consecutive integers).
        assert!((800..1200).contains(&plus), "plus = {plus} for seed {seed}");
    }

    #[test]
    fn all_families_produce_balanced_signs() {
        check_signs::<PolySign>(1);
        check_signs::<TwoWiseSign>(2);
        check_signs::<BchSignHash>(3);
        check_signs::<TabulationSign>(4);
    }

    fn fourth_moment<H: SignFamily>(seed: u64, trials: u32) -> f64 {
        // E[ε_a ε_b ε_c ε_d] over random functions; 0 under 4-wise
        // independence.
        let mut rng = SplitMix64::new(seed);
        let (a, b, c, d) = (1u64, 7, 13, 500);
        let mut sum = 0i64;
        for _ in 0..trials {
            let h = H::draw(&mut rng);
            sum += h.sign(a) * h.sign(b) * h.sign(c) * h.sign(d);
        }
        sum as f64 / trials as f64
    }

    #[test]
    fn four_wise_families_kill_fourth_mixed_moment() {
        assert!(fourth_moment::<PolySign>(42, 40_000).abs() < 0.025);
        assert!(fourth_moment::<BchSignHash>(43, 40_000).abs() < 0.025);
    }

    #[test]
    fn pairwise_moment_vanishes_for_all_families() {
        fn second_moment<H: SignFamily>(seed: u64) -> f64 {
            let mut rng = SplitMix64::new(seed);
            let mut sum = 0i64;
            for _ in 0..20_000 {
                let h = H::draw(&mut rng);
                sum += h.sign(3) * h.sign(19);
            }
            sum as f64 / 20_000.0
        }
        assert!(second_moment::<PolySign>(7).abs() < 0.03);
        assert!(second_moment::<TwoWiseSign>(8).abs() < 0.03);
        assert!(second_moment::<BchSignHash>(9).abs() < 0.03);
        assert!(second_moment::<TabulationSign>(10).abs() < 0.03);
    }

    #[test]
    fn family_ids_are_distinct() {
        let ids = [
            PolySign::ID,
            TwoWiseSign::ID,
            BchSignHash::ID,
            TabulationSign::ID,
        ];
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "family id {id} reused");
        }
    }

    #[test]
    fn sign_is_stable_across_calls() {
        let h = PolySign::from_seed(77);
        for v in [0u64, 5, 123_456_789] {
            assert_eq!(h.sign(v), h.sign(v));
        }
    }
}
