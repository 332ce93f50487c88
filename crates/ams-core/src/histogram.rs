//! Compressed-histogram signatures: the \[Poo97\] baseline from the
//! paper's related work.
//!
//! Poosala proposed estimating join sizes from each relation's
//! *compressed histogram*: the `h` most frequent values kept exactly
//! (singleton buckets), the rest summarized by total count and distinct
//! count under a uniformity assumption. The paper's related-work section
//! notes that "there are no good guarantees on the accuracy of such
//! estimations" — this module implements the scheme so the experiments
//! can show exactly when it breaks (tail-dominated joins), completing
//! the baseline set alongside sampling and k-TW signatures.
//!
//! Unlike the sketch signatures, the compressed histogram supports
//! tracking only approximately: we maintain exact counts for *currently
//! hot* values via a space-bounded top-k structure (SpaceSaving-style
//! with `2h` counters), so heavy values are captured with bounded error
//! while the structure stays O(h) words.

use ams_hash::FxHashMap;
use ams_stream::Value;
use serde::{Deserialize, Serialize};

/// A compressed histogram of one relation's join attribute: top-`h`
/// values (approximately) exact, tail uniform.
///
/// ```
/// use ams_core::CompressedHistogram;
///
/// let mut a = CompressedHistogram::new(8);
/// let mut b = CompressedHistogram::new(8);
/// for i in 0..400u64 {
///     a.insert(i % 2); // two hot values
///     b.insert(i % 4); // four hot values
/// }
/// // Fully head-resident join: the estimate is essentially exact
/// // (2 shared values × 200 × 100 = 40 000).
/// let est = a.estimate_join(&b);
/// assert!((est - 40_000.0).abs() < 1_000.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompressedHistogram {
    /// Number of singleton buckets (h).
    capacity: usize,
    /// SpaceSaving-style counters over up to 2h candidate values.
    counters: FxHashMap<Value, u64>,
    /// Total elements n.
    n: u64,
    /// Distinct-count estimate for the tail: we track how many distinct
    /// values were ever evicted/unseen by a small HyperLogLog-free proxy —
    /// the count of values that passed through the counter set. This
    /// overestimates slightly under churn; documented accuracy is
    /// heuristic, which is the point of the baseline.
    seen_distinct: u64,
}

impl CompressedHistogram {
    /// Creates a histogram keeping `capacity` singleton buckets.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "need at least one singleton bucket");
        Self {
            capacity,
            counters: FxHashMap::with_capacity_and_hasher(2 * capacity, Default::default()),
            n: 0,
            seen_distinct: 0,
        }
    }

    /// Registers an inserted tuple.
    pub fn insert(&mut self, v: Value) {
        self.n += 1;
        if let Some(c) = self.counters.get_mut(&v) {
            *c += 1;
            return;
        }
        self.seen_distinct += 1;
        if self.counters.len() < 2 * self.capacity {
            self.counters.insert(v, 1);
        } else {
            // SpaceSaving: replace the minimum counter, inheriting its
            // count (+1). Heavy values are guaranteed to surface once
            // their true frequency exceeds n/(2h).
            let (&min_v, &min_c) = self
                .counters
                .iter()
                .min_by_key(|&(_, &c)| c)
                .expect("non-empty at capacity");
            self.counters.remove(&min_v);
            self.counters.insert(v, min_c + 1);
        }
    }

    /// Registers a deleted tuple (best-effort: decrements the counter if
    /// the value is tracked; the tail statistics absorb the rest).
    pub fn delete(&mut self, v: Value) {
        self.n = self.n.saturating_sub(1);
        if let Some(c) = self.counters.get_mut(&v) {
            *c -= 1;
            if *c == 0 {
                self.counters.remove(&v);
            }
        }
    }

    /// Total elements tracked.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// `true` when no elements are tracked.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The signature's memory footprint in words.
    pub fn memory_words(&self) -> usize {
        2 * self.counters.len() + 2
    }

    /// The top-`h` buckets by count: `(value, count)`, descending.
    fn top_buckets(&self) -> Vec<(Value, u64)> {
        let mut all: Vec<(Value, u64)> = self.counters.iter().map(|(&v, &c)| (v, c)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(self.capacity);
        all
    }

    /// Tail statistics: `(tail_count, tail_distinct_estimate)`.
    fn tail(&self) -> (f64, f64) {
        let top: Vec<(Value, u64)> = self.top_buckets();
        let top_count: u64 = top.iter().map(|&(_, c)| c).sum();
        let tail_count = self.n.saturating_sub(top_count) as f64;
        let tail_distinct = (self.seen_distinct.saturating_sub(top.len() as u64) as f64).max(1.0);
        (tail_count, tail_distinct)
    }

    /// Estimates the join size against another compressed histogram:
    /// exact products for values hot in both, uniform-tail cross terms
    /// for the rest (the \[Poo97\] combination rule).
    pub fn estimate_join(&self, other: &CompressedHistogram) -> f64 {
        if self.n == 0 || other.n == 0 {
            return 0.0;
        }
        let top_a = self.top_buckets();
        let top_b = other.top_buckets();
        let map_b: FxHashMap<Value, u64> = top_b.iter().copied().collect();
        let (tail_a_count, tail_a_distinct) = self.tail();
        let (tail_b_count, tail_b_distinct) = other.tail();
        // Average tail frequencies under the uniformity assumption.
        let tail_a_freq = tail_a_count / tail_a_distinct;
        let tail_b_freq = tail_b_count / tail_b_distinct;

        let mut join = 0.0;
        // Hot × hot: exact product where both track the value; hot-a ×
        // tail-b otherwise.
        for &(v, ca) in &top_a {
            match map_b.get(&v) {
                Some(&cb) => join += ca as f64 * cb as f64,
                None => join += ca as f64 * tail_b_freq * overlap_probability(other),
            }
        }
        // Hot-b × tail-a (values not already counted above).
        let map_a: FxHashMap<Value, u64> = top_a.iter().copied().collect();
        for &(v, cb) in &top_b {
            if !map_a.contains_key(&v) {
                join += cb as f64 * tail_a_freq * overlap_probability(self);
            }
        }
        // Tail × tail: assume the smaller distinct set is contained in
        // the larger (the standard containment heuristic).
        let shared_tail = tail_a_distinct.min(tail_b_distinct);
        join += shared_tail * tail_a_freq * tail_b_freq;
        join
    }

    /// Self-join estimate: exact squares for hot values + uniform tail.
    pub fn self_join_estimate(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let top: f64 = self
            .top_buckets()
            .iter()
            .map(|&(_, c)| (c as f64) * (c as f64))
            .sum();
        let (tail_count, tail_distinct) = self.tail();
        top + tail_count * (tail_count / tail_distinct)
    }
}

/// The probability a hot value of one relation appears in the other's
/// tail at all — the containment heuristic uses 1 (always), which is
/// what [Poo97]-style estimators effectively assume.
fn overlap_probability(_other: &CompressedHistogram) -> f64 {
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_stream::Multiset;

    #[test]
    fn hot_values_are_tracked_exactly_without_churn() {
        let mut h = CompressedHistogram::new(4);
        for _ in 0..100 {
            h.insert(1);
        }
        for _ in 0..50 {
            h.insert(2);
        }
        for v in 100..110 {
            h.insert(v);
        }
        let top = h.top_buckets();
        assert_eq!(top[0], (1, 100));
        assert_eq!(top[1], (2, 50));
    }

    #[test]
    fn self_join_exact_for_pure_hot_distributions() {
        let mut h = CompressedHistogram::new(8);
        // 4 values, all hot, no tail.
        for i in 0..400u64 {
            h.insert(i % 4);
        }
        let exact = 4.0 * 100.0 * 100.0;
        let est = h.self_join_estimate();
        assert!((est - exact).abs() / exact < 0.01, "est {est}");
    }

    #[test]
    fn join_exact_when_both_sides_fully_hot() {
        let mut a = CompressedHistogram::new(8);
        let mut b = CompressedHistogram::new(8);
        for i in 0..300u64 {
            a.insert(i % 3); // f = 100 each on {0,1,2}
            b.insert(i % 6); // g = 50 each on {0..5}
        }
        let exact = Multiset::from_values((0..300u64).map(|i| i % 3))
            .join_size(&Multiset::from_values((0..300u64).map(|i| i % 6)))
            as f64;
        let est = a.estimate_join(&b);
        assert!((est - exact).abs() / exact < 0.05, "est {est} vs {exact}");
    }

    /// The reason this baseline exists: on tail-dominated data (Lemma
    /// 2.3's pair construction) the uniform-tail containment heuristic is
    /// badly wrong, while k-TW handles it.
    #[test]
    fn tail_dominated_joins_mislead_the_histogram() {
        let mut a = CompressedHistogram::new(8);
        let mut b = CompressedHistogram::new(8);
        // Two relations over *disjoint* large tails.
        for v in 0..5_000u64 {
            a.insert(v);
            b.insert(v + 1_000_000);
        }
        let exact = 0.0;
        let est = a.estimate_join(&b);
        // Containment assumes the tails overlap: large positive estimate
        // where the truth is zero.
        assert!(est > 1_000.0, "histogram failed to fail: {est} vs {exact}");
    }

    #[test]
    fn delete_decrements_tracked_values() {
        let mut h = CompressedHistogram::new(4);
        for _ in 0..10 {
            h.insert(5);
        }
        for _ in 0..4 {
            h.delete(5);
        }
        assert_eq!(h.len(), 6);
        assert_eq!(h.top_buckets()[0], (5, 6));
    }

    #[test]
    fn memory_stays_bounded() {
        let mut h = CompressedHistogram::new(16);
        for v in 0..100_000u64 {
            h.insert(v);
        }
        assert!(h.memory_words() <= 2 * 2 * 16 + 2);
    }

    #[test]
    #[should_panic(expected = "at least one singleton bucket")]
    fn zero_capacity_rejected() {
        let _ = CompressedHistogram::new(0);
    }
}
