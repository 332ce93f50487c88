//! Simple tabulation hashing.
//!
//! Splits a 64-bit key into eight bytes and XORs eight random 256-entry
//! tables: `h(v) = T_0[v_0] ⊕ … ⊕ T_7[v_7]`. Simple tabulation is exactly
//! 3-independent (and famously behaves better than its independence level
//! suggests — Pătraşcu–Thorup), with evaluations that are pure table
//! lookups. It is *not* 4-independent, which is precisely what makes it a
//! useful ablation backend for the tug-of-war sketch: the paper's variance
//! bound needs 4-wise independence, and benchmarking the sketch with a
//! 3-independent family probes how much that assumption matters in
//! practice.

use crate::rng::SplitMix64;

/// Number of byte positions in a 64-bit key.
const POSITIONS: usize = 8;
/// Entries per table: one per byte value.
const TABLE_SIZE: usize = 256;

/// A simple tabulation hash over 64-bit keys (3-independent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabulationHash {
    /// Eight tables of 256 random words, flattened for locality.
    tables: Box<[u64]>,
}

impl TabulationHash {
    /// Draws a tabulation hash using `seed` to fill the tables.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        Self::from_rng(&mut rng)
    }

    /// Draws a tabulation hash from an existing generator.
    pub fn from_rng(rng: &mut SplitMix64) -> Self {
        let mut tables = vec![0u64; POSITIONS * TABLE_SIZE].into_boxed_slice();
        for slot in tables.iter_mut() {
            *slot = rng.next_u64();
        }
        Self { tables }
    }

    /// Hashes a 64-bit key.
    #[inline]
    pub fn hash(&self, v: u64) -> u64 {
        let mut acc = 0u64;
        let mut v = v;
        for pos in 0..POSITIONS {
            let byte = (v & 0xFF) as usize;
            acc ^= self.tables[pos * TABLE_SIZE + byte];
            v >>= 8;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = TabulationHash::from_seed(4);
        let b = TabulationHash::from_seed(4);
        for v in [0u64, 1, 255, 256, u64::MAX] {
            assert_eq!(a.hash(v), b.hash(v));
        }
    }

    #[test]
    fn zero_key_hashes_to_xor_of_zero_rows() {
        let h = TabulationHash::from_seed(8);
        let expected = (0..POSITIONS).fold(0u64, |acc, pos| acc ^ h.tables[pos * TABLE_SIZE]);
        assert_eq!(h.hash(0), expected);
    }

    #[test]
    fn single_byte_change_changes_hash() {
        let h = TabulationHash::from_seed(15);
        // Two keys differing in one byte differ by an XOR of two distinct
        // table rows, which is nonzero with probability 1 − 2⁻⁶⁴ per seed.
        let a = h.hash(0x0000_0000_0000_00AA);
        let b = h.hash(0x0000_0000_0000_00AB);
        assert_ne!(a, b);
    }

    #[test]
    fn bucket_distribution_roughly_uniform() {
        let h = TabulationHash::from_seed(23);
        let mut buckets = [0u32; 16];
        let n = 40_000u64;
        for v in 0..n {
            buckets[(h.hash(v) % 16) as usize] += 1;
        }
        let expect = n as f64 / 16.0;
        let chi2: f64 = buckets
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        assert!(chi2 < 37.7, "chi2 = {chi2}");
    }

    #[test]
    fn three_wise_sign_moments_vanish() {
        // 3-independence ⇒ E over functions of ε_a ε_b ε_c = 0 for distinct
        // keys (signs from one output bit).
        let mut rng = SplitMix64::new(3131);
        let trials = 10_000;
        let (a, b, c) = (10u64, 20, 33);
        let mut m3 = 0i64;
        for _ in 0..trials {
            let h = TabulationHash::from_rng(&mut rng);
            let s = |v: u64| if h.hash(v) & 1 == 1 { -1i64 } else { 1 };
            m3 += s(a) * s(b) * s(c);
        }
        let m3 = m3 as f64 / trials as f64;
        assert!(m3.abs() < 0.05, "third mixed moment {m3}");
    }
}
