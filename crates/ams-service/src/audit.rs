//! The shadow-audit sampler: observed estimator error in limited storage.
//!
//! Theorem 2.2 gives an *a-priori* error bound (`4/√s1` with probability
//! `1 − 2^(−s2/2)`), but it says nothing about the error on *this*
//! stream. The sampler measures it: every `k`-th accepted block per
//! attribute also feeds a shadow tug-of-war sketch **and** an
//! [`ExactTracker`], both seeing exactly the same substream, so
//! `|shadow_estimate − exact| / exact` is a like-with-like observation
//! of the estimator's relative error. The substream is a deterministic
//! 1-in-`k` block sample, so the exact tracker's histogram stays small
//! while remaining representative of the stream's key distribution.
//!
//! Cost model: one relaxed counter increment per accepted block, plus
//! one sketch + exact application (under a per-attribute mutex, off the
//! shard workers' path — the sampler runs on the *producer* thread at
//! submission time) every `k` blocks: ≈ `1/k` of one shard's kernel
//! work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ams_core::{SelfJoinEstimator, SketchParams, TugOfWarSketch};
use ams_stream::{ExactTracker, OpBlock};

/// One attribute's audited reading: the shadow estimate against the
/// exact answer on the same sampled substream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditReading {
    /// Shadow-sketch estimate of the substream's self-join size.
    pub estimate: f64,
    /// Exact self-join size of the substream.
    pub exact: f64,
    /// `|estimate − exact| / exact` (0 when the substream is empty).
    pub rel_error: f64,
    /// Blocks sampled into the substream so far.
    pub sampled_blocks: u64,
}

/// Per-attribute shadow sketch + exact tracker pair fed every `k`-th
/// block.
#[derive(Debug)]
struct AuditCell {
    /// Blocks seen for this attribute (relaxed; the only hot-path cost).
    seen: AtomicU64,
    state: Mutex<AuditState>,
}

#[derive(Debug)]
struct AuditState {
    shadow: TugOfWarSketch,
    exact: ExactTracker,
    sampled_blocks: u64,
}

/// The service-wide sampler: one [`AuditCell`] per attribute.
#[derive(Debug)]
pub(crate) struct AuditSampler {
    every: u64,
    cells: Vec<AuditCell>,
}

impl AuditSampler {
    /// A sampler over `attrs` attributes taking every `every`-th block
    /// (`every ≥ 1`). Shadow sketches share the service's shape and
    /// seed so their error bound matches the production sketches.
    pub fn new(every: u64, attrs: usize, params: SketchParams, seed: u64) -> Self {
        let every = every.max(1);
        let cells = (0..attrs)
            .map(|_| AuditCell {
                seen: AtomicU64::new(0),
                state: Mutex::new(AuditState {
                    shadow: TugOfWarSketch::new(params, seed),
                    exact: ExactTracker::new(),
                    sampled_blocks: 0,
                }),
            })
            .collect();
        Self { every, cells }
    }

    /// Observes one accepted block for `attr`, given as the parts the
    /// router split it into, sampling it into the shadow pair when its
    /// index lands on the cadence.
    pub fn observe<'a>(&self, attr: usize, parts: impl IntoIterator<Item = &'a OpBlock>) {
        let cell = &self.cells[attr];
        let n = cell.seen.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.every) {
            return;
        }
        let mut state = cell.state.lock().unwrap_or_else(|e| e.into_inner());
        for part in parts {
            state.shadow.apply_block(part);
            state.exact.apply_block(part);
        }
        state.sampled_blocks += 1;
    }

    /// The current reading for `attr`, or `None` before any block has
    /// been sampled.
    pub fn reading(&self, attr: usize) -> Option<AuditReading> {
        let state = self.cells[attr]
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if state.sampled_blocks == 0 {
            return None;
        }
        let estimate = state.shadow.estimate();
        let exact = state.exact.estimate();
        let rel_error = if exact > 0.0 {
            (estimate - exact).abs() / exact
        } else {
            0.0
        };
        Some(AuditReading {
            estimate,
            exact,
            rel_error,
            sampled_blocks: state.sampled_blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_of(values: &[u64]) -> OpBlock {
        let mut block = OpBlock::with_capacity(values.len());
        for &v in values {
            block.push(v, 1);
        }
        block
    }

    #[test]
    fn samples_every_kth_block_per_attribute() {
        let params = SketchParams::new(16, 3).unwrap();
        let sampler = AuditSampler::new(3, 2, params, 7);
        // Blocks 0, 3, 6 are sampled for attribute 0: 3 of 8.
        for i in 0..8u64 {
            sampler.observe(0, [&block_of(&[i])]);
        }
        let reading = sampler.reading(0).unwrap();
        assert_eq!(reading.sampled_blocks, 3);
        // Each sampled block holds one distinct value: exact SJ = 3.
        assert_eq!(reading.exact, 3.0);
        // Attribute 1 never fed: no reading.
        assert!(sampler.reading(1).is_none());
    }

    #[test]
    fn rel_error_compares_like_with_like() {
        let params = SketchParams::new(64, 5).unwrap();
        let sampler = AuditSampler::new(1, 1, params, 42);
        // A skewed substream the shadow sketch should estimate well.
        for i in 0..200u64 {
            sampler.observe(0, [&block_of(&[i % 10, i % 3, 5])]);
        }
        let reading = sampler.reading(0).unwrap();
        assert_eq!(reading.sampled_blocks, 200);
        assert!(reading.exact > 0.0);
        let bound = params.error_bound();
        assert!(
            reading.rel_error <= bound,
            "observed error {} should be within the paper bound {bound}",
            reading.rel_error
        );
    }

    #[test]
    fn zero_cadence_clamps_to_every_block() {
        let params = SketchParams::new(8, 3).unwrap();
        let sampler = AuditSampler::new(0, 1, params, 1);
        sampler.observe(0, [&block_of(&[1, 2])]);
        assert_eq!(sampler.reading(0).unwrap().sampled_blocks, 1);
    }
}
