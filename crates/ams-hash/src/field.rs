//! Arithmetic in the Mersenne-prime field GF(p) with p = 2⁶¹ − 1.
//!
//! Mersenne primes admit a branch-light modular reduction: for
//! `x < p²`, writing `x = hi·2⁶¹ + lo` gives `x ≡ hi + lo (mod p)`,
//! so a 122-bit product folds to the field with two shifts and adds.
//! This makes GF(2⁶¹−1) the standard field for Carter–Wegman polynomial
//! hashing of 64-bit keys: the field is larger than any realistic value
//! domain while a multiplication costs a single widening `u128` multiply.
//!
//! Two multiply formulations coexist in this crate:
//!
//! * the **u128 widening** form here ([`mul`], [`lazy_mul_add`]) — one
//!   `mulx` per step, the cheapest *scalar* evaluation (the serial
//!   kernels), but opaque to vectorization (x86 has no packed 64×64
//!   multiply below AVX-512DQ);
//! * the **split-limb** form in [`crate::lanes`]
//!   ([`crate::lanes::split_mul_add`]) — both operands split into
//!   2×32-bit limbs so the three partial products and the Mersenne
//!   folds stay inside u64 lanes (`pmuludq` shapes). Slightly more ops
//!   per element, but data-parallel across a block (the AVX2 kernels);
//!   see the `lanes` module docs for the full bound analysis (redundant
//!   accumulators `< 2⁶²`, fold identity
//!   `v·2ᵏ ≡ (v ≫ (61−k)) + ((v ≪ k) & p)`).
//!
//! Both agree with canonical arithmetic modulo p on every input —
//! pinned by property tests — so kernels built on either produce
//! bit-identical sign planes.

/// The field modulus: the Mersenne prime 2⁶¹ − 1.
pub const P: u64 = (1 << 61) - 1;

/// Reduces an arbitrary `u64` into the canonical range `[0, P)`.
///
/// Values produced by [`add`]/[`mul`] are already canonical; this is for
/// bringing external 64-bit values (seeds, keys) into the field.
#[inline]
pub fn reduce64(x: u64) -> u64 {
    // x = hi·2^61 + lo with hi < 8, so one fold plus one conditional
    // subtraction suffices.
    let folded = (x >> 61) + (x & P);
    if folded >= P {
        folded - P
    } else {
        folded
    }
}

/// Reduces a 128-bit value into `[0, P)`.
///
/// Correct for any `x < 2¹²²` (in particular for products of two canonical
/// field elements, which are `< p² < 2¹²²`).
#[inline]
pub fn reduce128(x: u128) -> u64 {
    let lo = (x as u64) & P;
    let hi = (x >> 61) as u64;
    // hi < 2^61 and lo < 2^61, so lo + reduce64(hi) < 2^62: fold once more.
    let folded = lo + reduce64(hi);
    if folded >= P {
        folded - P
    } else {
        folded
    }
}

/// Field addition.
#[inline]
pub fn add(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    let s = a + b; // < 2^62: no overflow
    if s >= P {
        s - P
    } else {
        s
    }
}

/// Field subtraction.
#[inline]
pub fn sub(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    if a >= b {
        a - b
    } else {
        a + P - b
    }
}

/// Field multiplication via a widening 128-bit product.
#[inline]
pub fn mul(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    reduce128(a as u128 * b as u128)
}

/// One branch-free Horner step in a *redundant* representation:
/// returns a value `≡ acc·x + c (mod p)` that is `< 2⁶²` but not
/// necessarily canonical.
///
/// Chaining these steps keeps the whole polynomial evaluation free of
/// the data-dependent conditional subtractions in [`add`]/[`mul`]
/// (which random field values make unpredictable); callers canonicalize
/// once at the end with [`reduce64`]. This is the inner step of the
/// columnar sign-plane kernels.
///
/// Safety of the bounds (all checked in debug builds): with
/// `acc < 2⁶²`, `x < p < 2⁶¹` and `c < 2⁶¹`, the product term is
/// `< 2¹²³`, so `hi = t ≫ 61 < 2⁶²` and the folded result
/// `lo + (hi ≫ 61) + (hi & p) ≤ (2⁶¹−1) + 1 + (2⁶¹−1) < 2⁶²` —
/// the invariant is preserved.
#[inline]
pub fn lazy_mul_add(acc: u64, x: u64, c: u64) -> u64 {
    debug_assert!((acc as u128) < (1 << 62) && x < P && c < P);
    let t = acc as u128 * x as u128 + c as u128;
    let lo = (t as u64) & P;
    let hi = (t >> 61) as u64;
    lo + (hi >> 61) + (hi & P)
}

/// Field exponentiation by squaring.
pub fn pow(mut base: u64, mut exp: u64) -> u64 {
    debug_assert!(base < P);
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

/// Multiplicative inverse by Fermat's little theorem (`a^(p−2)`).
///
/// Returns `None` for the zero element, which has no inverse.
pub fn inv(a: u64) -> Option<u64> {
    if a == 0 {
        None
    } else {
        Some(pow(a, P - 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_is_mersenne_61() {
        assert_eq!(P, 2_305_843_009_213_693_951);
        assert_eq!(P, (1u64 << 61) - 1);
    }

    #[test]
    fn reduce64_canonicalizes() {
        assert_eq!(reduce64(0), 0);
        assert_eq!(reduce64(P), 0);
        assert_eq!(reduce64(P + 1), 1);
        assert_eq!(reduce64(u64::MAX), u64::MAX % P);
    }

    #[test]
    fn reduce128_matches_naive_modulo() {
        let cases: [u128; 6] = [
            0,
            P as u128,
            (P as u128) * (P as u128) - 1,
            (P as u128) * (P as u128),
            123_456_789_123_456_789_u128,
            (1u128 << 122) - 1,
        ];
        for &x in &cases {
            assert_eq!(reduce128(x) as u128, x % P as u128, "x = {x}");
        }
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = P - 3;
        let b = 7;
        assert_eq!(sub(add(a, b), b), a);
        assert_eq!(add(sub(a, b), b), a);
        assert_eq!(add(P - 1, 1), 0);
        assert_eq!(sub(0, 1), P - 1);
    }

    #[test]
    fn mul_matches_naive_modulo() {
        let xs = [0u64, 1, 2, P - 1, P / 2, 948_372_932_112, 3];
        for &a in &xs {
            for &b in &xs {
                let expected = ((a as u128 * b as u128) % P as u128) as u64;
                assert_eq!(mul(a, b), expected, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn lazy_mul_add_matches_canonical_arithmetic() {
        let cases = [0u64, 1, 2, P - 1, P / 2, 948_372_932_112, (1 << 61) - 7];
        for &a in &cases {
            for &x in &cases {
                for &c in &cases {
                    let (a, x, c) = (reduce64(a), reduce64(x), reduce64(c));
                    let lazy = lazy_mul_add(a, x, c);
                    assert!(lazy < (1 << 62), "redundant bound violated");
                    assert_eq!(reduce64(lazy), add(mul(a, x), c), "a={a} x={x} c={c}");
                }
            }
        }
        // Chained steps stay within the redundant bound and reduce to
        // the canonical Horner evaluation.
        let coeffs = [123u64, P - 5, 77, P - 1];
        for x in [0u64, 1, P - 2, 0x1234_5678_9ABC] {
            let x = reduce64(x);
            let mut lazy = coeffs[3];
            let mut canon = coeffs[3];
            for &c in coeffs[..3].iter().rev() {
                lazy = lazy_mul_add(lazy, x, c);
                canon = add(mul(canon, x), c);
                assert!(lazy < (1 << 62));
            }
            assert_eq!(reduce64(lazy), canon);
        }
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(pow(2, 10), 1024);
        assert_eq!(pow(5, 0), 1);
        assert_eq!(pow(0, 5), 0);
        assert_eq!(pow(0, 0), 1); // empty product convention
                                  // Fermat: a^(p-1) = 1 for a != 0.
        assert_eq!(pow(123_456_789, P - 1), 1);
    }

    #[test]
    fn inv_is_multiplicative_inverse() {
        for a in [1u64, 2, 3, P - 1, 987_654_321] {
            let ai = inv(a).expect("nonzero element");
            assert_eq!(mul(a, ai), 1, "a = {a}");
        }
        assert_eq!(inv(0), None);
    }
}
