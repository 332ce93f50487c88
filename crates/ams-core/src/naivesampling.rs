//! Algorithm naive-sampling (§2.3): the standard sampling baseline.
//!
//! Keep a uniform random sample `S` of `s` stream elements (without
//! replacement, via reservoir sampling), compute the sample's self-join
//! size, and scale:
//!
//! ```text
//! X = n + (SJ(S) − s) · n(n−1) / (s(s−1))
//! ```
//!
//! which is unbiased because each of the `s(s−1)` ordered sample pairs
//! captures each of the `n(n−1)` ordered stream pairs with equal
//! probability, and a pair of *equal* values contributes 1 to `SJ − n`.
//! Lemma 2.3 shows this baseline needs `Ω(√n)` samples to avoid a factor-2
//! error — the separation the experiments confirm on low-skew data sets.
//!
//! Deletions: the paper analyzes naive-sampling for insert-only streams.
//! To let the tracker participate in mixed-stream experiments we apply the
//! standard correction (\[GMP97\]-style): a delete removes a sampled copy of
//! the value if one exists with probability `s_live/n` (matching the
//! chance the deleted element was sampled); this keeps the sample
//! approximately uniform but is *not* exactly uniform — documented, and
//! exercised by tests only under the paper's 1/5 deletion bound.

use ams_hash::rng::SplitMix64;
use ams_hash::FxHashMap;
use ams_stream::{SelfJoinEstimator, Value};

/// The naive-sampling tracker: one reservoir of `s` elements.
#[derive(Debug, Clone)]
pub struct NaiveSampling {
    capacity: usize,
    rng: SplitMix64,
    /// The reservoir (multiset of sampled elements, positional).
    sample: Vec<Value>,
    /// Elements currently in the multiset (n).
    n: u64,
    /// Inserts seen (reservoir denominator).
    inserts_seen: u64,
}

impl NaiveSampling {
    /// Creates a tracker sampling up to `capacity` elements.
    ///
    /// # Panics
    /// Panics if `capacity < 2` (the unbiased scaling needs `s ≥ 2`).
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity >= 2, "naive sampling needs capacity >= 2");
        Self {
            capacity,
            rng: SplitMix64::new(seed),
            sample: Vec::with_capacity(capacity),
            n: 0,
            inserts_seen: 0,
        }
    }

    /// The reservoir capacity s.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current multiset size n.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// `true` when the tracked multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current number of sampled elements.
    pub fn sample_size(&self) -> usize {
        self.sample.len()
    }

    /// The self-join size of the sample itself (Σ over sampled values of
    /// count²), via a transient histogram of at most s buckets.
    pub fn sample_self_join(&self) -> u64 {
        let mut hist: FxHashMap<Value, u64> =
            FxHashMap::with_capacity_and_hasher(self.sample.len(), Default::default());
        for &v in &self.sample {
            *hist.entry(v).or_insert(0) += 1;
        }
        hist.values().map(|&c| c * c).sum()
    }
}

impl SelfJoinEstimator for NaiveSampling {
    fn insert(&mut self, v: Value) {
        self.n += 1;
        self.inserts_seen += 1;
        if self.sample.len() < self.capacity {
            self.sample.push(v);
        } else {
            // Algorithm R: replace a random slot with probability s/k.
            let j = self.rng.next_below(self.inserts_seen);
            if (j as usize) < self.capacity {
                self.sample[j as usize] = v;
            }
        }
    }

    fn delete(&mut self, v: Value) {
        debug_assert!(self.n > 0, "delete from an empty multiset");
        if self.n == 0 {
            return;
        }
        // The deleted element is in the sample with probability
        // sample_size/n under uniformity; flip that coin, and if it says
        // "sampled", drop one sampled copy of v (if present).
        let p = self.sample.len() as f64 / self.n as f64;
        self.n -= 1;
        if self.rng.next_f64() < p {
            if let Some(idx) = self.sample.iter().position(|&x| x == v) {
                self.sample.swap_remove(idx);
            }
        }
    }

    /// The scaled estimator `X = n + (SJ(S) − s)·n(n−1)/(s(s−1))`. Exact
    /// when the whole stream fits in the reservoir (then `s = n` and `X`
    /// collapses to `SJ(S) = SJ(R)`); `0` for an empty multiset; `n` when
    /// only one element is sampled (no pair information).
    fn estimate(&self) -> f64 {
        let n = self.n as f64;
        if self.n == 0 {
            return 0.0;
        }
        let s = self.sample.len() as f64;
        if self.sample.len() < 2 {
            return n; // no pair information: SJ ≥ n is the floor
        }
        let sj_sample = self.sample_self_join() as f64;
        n + (sj_sample - s) * n * (n - 1.0) / (s * (s - 1.0))
    }

    fn memory_words(&self) -> usize {
        self.sample.len()
    }

    // `apply_block` is inherited: reservoir sampling draws one random
    // position per insert, so the default in-order expansion IS the
    // block path (bit-identical to the scalar stream on run-coalesced
    // blocks; pinned by the block≡scalar property tests).
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_stream::Multiset;

    #[test]
    fn exact_when_stream_fits_in_reservoir() {
        let values = [1u64, 1, 2, 3, 3, 3];
        let exact = Multiset::from_values(values).self_join_size() as f64;
        let mut ns = NaiveSampling::new(16, 1);
        ns.extend_values(values);
        assert_eq!(ns.estimate(), exact);
    }

    #[test]
    fn empty_and_singleton_conventions() {
        let mut ns = NaiveSampling::new(4, 2);
        assert_eq!(ns.estimate(), 0.0);
        ns.insert(9);
        assert_eq!(ns.estimate(), 1.0); // SJ of {9} is 1
    }

    #[test]
    fn reservoir_is_uniform() {
        // Stream of distinct values 0..10, capacity 2: each value should
        // be sampled with probability 2/10.
        let trials = 20_000;
        let mut counts = [0u32; 10];
        for seed in 0..trials {
            let mut ns = NaiveSampling::new(2, seed);
            ns.extend_values(0..10u64);
            for &v in &ns.sample {
                counts[v as usize] += 1;
            }
        }
        let expect = trials as f64 * 2.0 / 10.0;
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "value {v}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn estimate_unbiased_over_seeds() {
        let values: Vec<u64> = (0..400u64).map(|i| i % 50).collect();
        let exact = Multiset::from_values(values.iter().copied()).self_join_size() as f64;
        let trials = 500;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut ns = NaiveSampling::new(32, seed);
            ns.extend_values(values.iter().copied());
            sum += ns.estimate();
        }
        let mean = sum / trials as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.15, "mean {mean} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn lemma_2_3_failure_mode() {
        // R2 = n/2 pairs. With a sample ≪ √n, the sample almost surely
        // holds distinct values, so the estimator reports ≈ n although
        // SJ = 2n: the factor-2 failure of Lemma 2.3.
        let n = 10_000u64;
        let values: Vec<u64> = (0..n).map(|i| i / 2).collect(); // each value twice
        let exact = 2 * n; // n/2 values × f = 2 → Σf² = 2n
        assert_eq!(
            Multiset::from_values(values.iter().copied()).self_join_size(),
            exact as u128
        );
        let mut underestimates = 0;
        let trials = 40;
        for seed in 0..trials {
            let mut ns = NaiveSampling::new(8, seed); // 8 ≪ √10000 = 100
            ns.extend_values(values.iter().copied());
            if ns.estimate() < 1.5 * n as f64 {
                underestimates += 1;
            }
        }
        assert!(
            underestimates > trials * 3 / 4,
            "only {underestimates}/{trials} runs showed the failure"
        );
    }

    #[test]
    fn deletions_keep_estimates_centered() {
        // Insert 0..500 mod 20, delete the first 100 inserted; compare
        // mean estimate to the truth of the remaining multiset.
        let mut truth = Multiset::new();
        let inserts: Vec<u64> = (0..500u64).map(|i| i % 20).collect();
        for &v in &inserts {
            truth.insert(v);
        }
        for &v in &inserts[..100] {
            truth.delete(v);
        }
        let exact = truth.self_join_size() as f64;
        let trials = 400;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut ns = NaiveSampling::new(64, seed);
            ns.extend_values(inserts.iter().copied());
            for &v in &inserts[..100] {
                ns.delete(v);
            }
            sum += ns.estimate();
        }
        let mean = sum / trials as f64;
        let rel = (mean - exact).abs() / exact;
        // The delete correction is approximate; allow a wider band.
        assert!(rel < 0.3, "mean {mean} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn memory_is_reservoir_size() {
        let mut ns = NaiveSampling::new(8, 1);
        ns.extend_values(0..100u64);
        assert_eq!(ns.memory_words(), 8);
    }

    #[test]
    #[should_panic(expected = "capacity >= 2")]
    fn tiny_capacity_rejected() {
        let _ = NaiveSampling::new(1, 0);
    }
}
