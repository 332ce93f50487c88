//! The hot-key sign cache: the sign bits of recurring keys, kept so a
//! skewed stream's hot keys are applied without evaluating the plane.
//!
//! A tug-of-war update evaluates one sign function per counter — s = 256
//! degree-3 polynomials at the default shape — and skewed streams send
//! the same hot keys through that kernel run after run. While the
//! sketch's coalescing gate is on (see [`crate::tugofwar`]), every run
//! of blocks is netted to one entry per value, and the netting reports
//! how many entries of the run carried each value. The cache sits
//! between that net block and the plane kernel:
//!
//! * a cached key is applied from its stored bits with
//!   [`apply_sign_bits`]: s branch-free adds and no row evaluation;
//! * an uncached key that occurred at least twice in the run is
//!   admitted: [`SignPlane::sign_bits`] computes its bits once, they are
//!   stored and applied;
//! * every other key goes to the plane kernel with the run's other
//!   misses, in one sweep, exactly as without the cache.
//!
//! The counters are integer sums, so every path adds the same integers
//! and the counters stay bit-identical to the plain plane's.
//!
//! Storage is a slab of entries — a key followed by its sign bits, in
//! admission order — indexed by a two-way set-associative table whose
//! ways hold slab positions, most recently used first. A key admitted
//! into a full set takes over the least recently used way's slab entry,
//! so every entry belongs to exactly one way. Keys, bits and ways never
//! exceed [`SIGN_CACHE_BYTES`]. Nothing is allocated before the first
//! admission; the index starts small and doubles while it is
//! three-quarters full, and the slab holds only the resident keys, so a
//! sketch that admits few keys stays small. A clone starts empty: the
//! cache is a transient accelerator, not sketch state.

use ams_hash::lanes::PlaneScratch;
use ams_hash::plane::{apply_sign_bits, sign_words, SignPlane};
use ams_stream::OpBlock;

/// Byte budget of one sketch's sign cache: its keys, sign bits and
/// index never exceed this. At s = 256 it holds 2,944 keys.
pub const SIGN_CACHE_BYTES: usize = 128 << 10;

/// The first index has between `MIN_SETS` and `2 · MIN_SETS` sets
/// (chosen so that doubling lands exactly on the budget).
const MIN_SETS: usize = 16;

/// What the sign cache did with the net entries of coalesced runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SignCacheStats {
    /// Net entries served from cached sign bits.
    pub hits: u64,
    /// Net entries whose key was admitted: its sign bits computed once,
    /// stored and applied.
    pub admissions: u64,
    /// Net entries sent to the plane kernel.
    pub misses: u64,
}

/// A bounded table of per-key sign bits (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct SignCache {
    /// `u64`s per slab entry: the key, then its sign words. Set at the
    /// first admission.
    stride: usize,
    /// Index sets at the byte budget.
    max_sets: usize,
    /// Two ways per set, most recently used first: a slab position + 1,
    /// or 0 for an empty way (way 1 is empty whenever way 0 is).
    ways: Vec<u32>,
    /// The resident keys' entries, `stride` words each.
    slab: Vec<u64>,
    /// The current run's entries bound for the plane kernel.
    miss_values: Vec<u64>,
    miss_deltas: Vec<i64>,
    /// Counts since the last [`Self::take_stats`].
    stats: SignCacheStats,
}

impl Clone for SignCache {
    /// An empty cache: copying a sketch (snapshot merges, query
    /// templates) never copies its cached bits.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl SignCache {
    /// The counts since the last call, resetting them.
    pub(crate) fn take_stats(&mut self) -> SignCacheStats {
        std::mem::take(&mut self.stats)
    }

    /// Applies one coalesced run — its net block plus each entry's
    /// occurrence count in the run — to `counters`: cached keys from
    /// their bits, recurring keys admitted and applied from fresh bits,
    /// every other key through one plane sweep.
    pub(crate) fn apply<P: SignPlane>(
        &mut self,
        plane: &P,
        net: &OpBlock,
        counts: &[u32],
        counters: &mut [i64],
        scratch: &mut PlaneScratch,
    ) {
        let (values, deltas) = (net.values(), net.deltas());
        debug_assert_eq!(values.len(), counts.len(), "one count per net entry");
        if self.slab.is_empty() && counts.iter().all(|&c| c < 2) {
            // Nothing cached and nothing to admit: the plain sweep.
            self.stats.misses += values.len() as u64;
            plane.accumulate_block_into(values, deltas, counters, scratch);
            return;
        }
        self.miss_values.clear();
        self.miss_deltas.clear();
        for ((&v, &d), &count) in values.iter().zip(deltas).zip(counts) {
            let entry = if let Some(entry) = self.lookup(v) {
                self.stats.hits += 1;
                entry
            } else if let Some(entry) = (count >= 2)
                .then(|| self.admit(v, counters.len()))
                .flatten()
            {
                let bits = &mut self.slab[entry * self.stride + 1..][..self.stride - 1];
                plane.sign_bits(v, bits);
                self.stats.admissions += 1;
                entry
            } else {
                self.miss_values.push(v);
                self.miss_deltas.push(d);
                continue;
            };
            let bits = &self.slab[entry * self.stride + 1..][..self.stride - 1];
            apply_sign_bits(bits, d, counters);
        }
        self.stats.misses += self.miss_values.len() as u64;
        if !self.miss_values.is_empty() {
            plane.accumulate_block_into(&self.miss_values, &self.miss_deltas, counters, scratch);
        }
    }

    fn sets(&self) -> usize {
        self.ways.len() / 2
    }

    fn resident(&self) -> usize {
        self.slab.len().checked_div(self.stride).unwrap_or(0)
    }

    /// The slab entry of `key`, which becomes its set's most recently
    /// used way.
    fn lookup(&mut self, key: u64) -> Option<usize> {
        if self.slab.is_empty() {
            return None;
        }
        let way = 2 * set_of(key, self.sets());
        for w in [way, way + 1] {
            let entry = (self.ways[w] as usize).checked_sub(1)?;
            if self.slab[entry * self.stride] == key {
                self.ways.swap(way, w);
                return Some(entry);
            }
        }
        None
    }

    /// Claims a slab entry for `key`, which is not resident: the first
    /// admission allocates the smallest index, an index three-quarters
    /// full doubles until it reaches the budget, and a full set hands
    /// its least recently used entry over. `None` only when one set of
    /// `rows`-wide entries would exceed the budget.
    fn admit(&mut self, key: u64, rows: usize) -> Option<usize> {
        if self.ways.is_empty() {
            self.stride = 1 + sign_words(rows);
            // Per set: two slab entries and two ways.
            let budget_sets = SIGN_CACHE_BYTES / (2 * (8 * self.stride + 4));
            if budget_sets == 0 {
                return None;
            }
            let mut first = budget_sets;
            let mut doublings = 0;
            while first >= 2 * MIN_SETS {
                first /= 2;
                doublings += 1;
            }
            self.max_sets = first << doublings;
            self.resize(first);
        } else if 4 * self.resident() >= 3 * self.ways.len() && self.sets() < self.max_sets {
            self.resize(2 * self.sets());
        }
        let way = 2 * set_of(key, self.sets());
        let entry = match self.ways[way + 1].checked_sub(1) {
            Some(lru) => lru as usize,
            None => {
                self.slab.resize(self.slab.len() + self.stride, 0);
                self.resident() - 1
            }
        };
        self.ways[way + 1] = self.ways[way];
        self.ways[way] = entry as u32 + 1;
        self.slab[entry * self.stride] = key;
        Some(entry)
    }

    /// Re-indexes every resident key into `sets` sets — from none, or
    /// twice the current count. A doubled index splits each set `i`
    /// into sets `2i` and `2i + 1` (see [`set_of`]), so a new set
    /// receives at most its parent's two keys. The slab grows with its
    /// keys, and at the budget's index it reserves exactly one entry per
    /// way, so its allocation never passes the budget.
    fn resize(&mut self, sets: usize) {
        self.ways = vec![0; 2 * sets];
        if sets == self.max_sets {
            self.slab
                .reserve_exact(2 * sets * self.stride - self.slab.len());
        }
        for entry in 0..self.resident() {
            let way = 2 * set_of(self.slab[entry * self.stride], sets);
            let free = way + usize::from(self.ways[way] != 0);
            debug_assert_eq!(self.ways[free], 0, "a split set overflowed");
            self.ways[free] = entry as u32 + 1;
        }
    }
}

/// The set of `key` in an index of `sets` sets: a Fibonacci hash scaled
/// into range by its high bits, so doubling `sets` sends every key of
/// set `i` to set `2i` or `2i + 1`.
fn set_of(key: u64, sets: usize) -> usize {
    let h = (key ^ (key >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((u128::from(h) * sets as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_hash::plane::PolySignPlane;
    use ams_hash::rng::SplitMix64;

    fn run(cache: &mut SignCache, plane: &PolySignPlane, values: &[u64], counters: &mut [i64]) {
        let net = OpBlock::from_columns_coalesced(values, &vec![1; values.len()]);
        let counts = vec![2; net.len()];
        cache.apply(plane, &net, &counts, counters, &mut PlaneScratch::new());
    }

    /// Bytes the cache holds at its budget geometry.
    fn full_bytes(cache: &SignCache) -> usize {
        2 * cache.max_sets * (8 * cache.stride + 4)
    }

    #[test]
    fn budget_geometry_at_the_default_shape() {
        let plane = PolySignPlane::draw(256, &mut SplitMix64::new(1));
        let mut cache = SignCache::default();
        let mut counters = vec![0i64; 256];
        run(&mut cache, &plane, &[7], &mut counters);
        assert_eq!(cache.sets(), 23, "the first index is small");
        assert_eq!(cache.resident(), 1);
        assert_eq!(2 * cache.max_sets, 2_944, "2,944 keys at s = 256");
        assert!(full_bytes(&cache) <= SIGN_CACHE_BYTES);
    }

    #[test]
    fn tables_grow_then_evict_and_stay_exact() {
        let plane = PolySignPlane::draw(64, &mut SplitMix64::new(3));
        let mut cache = SignCache::default();
        let mut counters = vec![0i64; 64];
        let mut reference = vec![0i64; 64];
        // Three passes over far more keys than the budget holds: the
        // index doubles to its cap, then evicts.
        for pass in 0..3u64 {
            let keys: Vec<u64> = (0..12_000u64).map(|k| k * 0x1234_5677 + pass % 2).collect();
            for chunk in keys.chunks(1_000) {
                run(&mut cache, &plane, chunk, &mut counters);
                plane.accumulate_block(chunk, &vec![1; chunk.len()], &mut reference);
            }
        }
        assert_eq!(counters, reference);
        assert_eq!(cache.sets(), cache.max_sets, "grew to the budget");
        assert!(cache.resident() <= 2 * cache.max_sets);
        assert!(cache.slab.capacity() * 8 + cache.ways.len() * 4 <= full_bytes(&cache));
        let stats = cache.take_stats();
        assert!(stats.admissions > 2 * cache.max_sets as u64, "evicted");
        assert_eq!(stats.hits + stats.admissions + stats.misses, 36_000);
        assert_eq!(cache.take_stats(), SignCacheStats::default());
        assert_eq!(cache.clone().sets(), 0, "a clone starts empty");
    }
}
