//! SpaceSaving heavy-key observation on the ingest path.
//!
//! The paper tracks second moments in limited storage; this module
//! applies the sibling limited-storage discipline to the *first*
//! moment's heavy hitters: a fixed-capacity SpaceSaving summary per
//! attribute, fed by the router with every accepted submission, whose
//! top-`k` keys are mirrored into `service_heavy_keys{attribute,rank}`
//! gauges so a metrics scrape (in process or over the wire) shows
//! which keys dominate the stream. Observation only: routing decisions
//! are untouched — this is the measurement a future skew-aware router
//! would act on.

use std::sync::{Arc, Mutex};

use ams_stream::OpBlock;
use ams_telemetry::{Gauge, MetricsRegistry};

/// One SpaceSaving entry: a monitored key, its estimated count, and
/// the overestimation bound inherited from the entry it evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyEntry {
    /// The monitored key.
    pub key: u64,
    /// Estimated occurrence count (`true count ≤ count`).
    pub count: u64,
    /// Maximum overestimation (`count - error ≤ true count`).
    pub error: u64,
}

/// The classic SpaceSaving summary (Metwally et al.): at most
/// `capacity` monitored keys in fixed memory. A hit increments its
/// entry; a miss at capacity *takes over* the minimum entry, keeping
/// the invariant that any key with true count above `min_count` is
/// monitored — which is exactly the top-k guarantee a skew router
/// needs.
#[derive(Debug)]
pub struct SpaceSaving {
    capacity: usize,
    entries: Vec<HeavyEntry>,
}

impl SpaceSaving {
    /// A summary monitoring at most `capacity` keys (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: Vec::with_capacity(capacity.max(1)),
        }
    }

    /// Observes `weight` occurrences of `key`.
    pub fn observe(&mut self, key: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        if let Some(entry) = self.entries.iter_mut().find(|e| e.key == key) {
            entry.count += weight;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(HeavyEntry {
                key,
                count: weight,
                error: 0,
            });
            return;
        }
        // Take over the minimum entry: the newcomer inherits its count
        // as the overestimation bound.
        let min = self
            .entries
            .iter_mut()
            .min_by_key(|e| e.count)
            .expect("capacity ≥ 1");
        *min = HeavyEntry {
            key,
            count: min.count + weight,
            error: min.count,
        };
    }

    /// The monitored entries, heaviest first (ties broken by key).
    pub fn top(&self) -> Vec<HeavyEntry> {
        let mut entries = self.entries.clone();
        entries.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        entries
    }

    /// Number of monitored keys (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fixed footprint in 64-bit words — the limited-storage witness.
    pub fn memory_words(&self) -> usize {
        self.capacity * 3 + 1
    }
}

/// One attribute's heavy-key observer: a locked [`SpaceSaving`]
/// summary plus the per-rank gauges it mirrors into the metrics
/// registry after every observation.
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `service_heavy_keys{attribute,rank}` | gauge | estimated count of the rank-th heaviest key |
/// | `service_heavy_key_value{attribute,rank}` | gauge | that key's value (as `i64`) |
#[derive(Debug)]
pub struct HeavyKeys {
    summary: Mutex<SpaceSaving>,
    /// `(count gauge, key gauge)` per rank, heaviest first.
    ranks: Vec<(Arc<Gauge>, Arc<Gauge>)>,
}

impl HeavyKeys {
    /// Registers the rank gauges for `attribute` and wraps a fresh
    /// summary of `capacity` keys.
    pub fn register(registry: &MetricsRegistry, attribute: &str, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let ranks = (0..capacity)
            .map(|rank| {
                let rank = rank.to_string();
                let labels: [(&str, &str); 2] = [("attribute", attribute), ("rank", rank.as_str())];
                (
                    registry.gauge("service_heavy_keys", &labels),
                    registry.gauge("service_heavy_key_value", &labels),
                )
            })
            .collect();
        Self {
            summary: Mutex::new(SpaceSaving::new(capacity)),
            ranks,
        }
    }

    /// Observes every insertion in `block` (deletions don't feed the
    /// heavy-hitter summary — SpaceSaving counts arrivals) and mirrors
    /// the refreshed top-k into the rank gauges.
    pub fn observe_block(&self, block: &OpBlock) {
        let mut summary = self.summary.lock().unwrap_or_else(|e| e.into_inner());
        for (value, delta) in block.entries() {
            if delta > 0 {
                summary.observe(value, delta as u64);
            }
        }
        let top = summary.top();
        for (rank, (count_gauge, key_gauge)) in self.ranks.iter().enumerate() {
            let (count, key) = top.get(rank).map_or((0, 0), |e| (e.count, e.key));
            count_gauge.set(count as i64);
            key_gauge.set(key as i64);
        }
    }

    /// The monitored entries, heaviest first.
    pub fn top(&self) -> Vec<HeavyEntry> {
        self.summary.lock().unwrap_or_else(|e| e.into_inner()).top()
    }

    /// Fixed footprint in 64-bit words (summary + gauge handles).
    pub fn memory_words(&self) -> usize {
        self.summary
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .memory_words()
            + self.ranks.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spacesaving_finds_the_heavy_keys_of_a_skewed_stream() {
        let mut s = SpaceSaving::new(4);
        // Key 7 appears 100 times, key 9 fifty, the rest once each.
        for i in 0..100u64 {
            s.observe(7, 1);
            if i < 50 {
                s.observe(9, 1);
            }
            s.observe(1000 + i, 1);
        }
        let top = s.top();
        assert_eq!(top[0].key, 7);
        assert!(top[0].count >= 100, "counts never underestimate");
        assert!(top[0].count - top[0].error <= 100, "error bound holds");
        assert_eq!(top[1].key, 9);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn spacesaving_memory_is_fixed() {
        let mut s = SpaceSaving::new(8);
        let words = s.memory_words();
        for i in 0..10_000u64 {
            s.observe(i, 1);
        }
        assert_eq!(s.memory_words(), words);
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn zero_weight_is_a_noop() {
        let mut s = SpaceSaving::new(2);
        s.observe(1, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn heavy_keys_mirror_ranks_into_gauges() {
        use ams_telemetry::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let heavy = HeavyKeys::register(&registry, "clicks", 3);
        let mut block = OpBlock::with_capacity(4);
        block.push(42, 5);
        block.push(7, 2);
        block.push(99, -1); // deletion: not observed
        heavy.observe_block(&block);
        let snap = registry.snapshot();
        assert_eq!(
            snap.gauge(
                "service_heavy_keys",
                &[("attribute", "clicks"), ("rank", "0")]
            ),
            Some(5)
        );
        assert_eq!(
            snap.gauge(
                "service_heavy_key_value",
                &[("attribute", "clicks"), ("rank", "0")]
            ),
            Some(42)
        );
        assert_eq!(
            snap.gauge(
                "service_heavy_key_value",
                &[("attribute", "clicks"), ("rank", "1")]
            ),
            Some(7)
        );
        // Unfilled ranks read zero.
        assert_eq!(
            snap.gauge(
                "service_heavy_keys",
                &[("attribute", "clicks"), ("rank", "2")]
            ),
            Some(0)
        );
        assert_eq!(heavy.top()[0].key, 42);
    }
}
