//! Join-size signature schemes (§4).
//!
//! The setting: maintain a small **signature** of each relation
//! *independently*, such that the join size `|F ⋈ G| = Σ_v f_v·g_v` of
//! any pair can be estimated from their signatures alone — no joint state
//! per pair, no disk access at estimation time.
//!
//! * [`TwJoinSignature`] / [`JoinSignatureFamily`] — the paper's k-TW
//!   scheme (§4.3): `k` tug-of-war counters per relation, sharing hash
//!   functions across relations via a family seed. The product of
//!   corresponding counters is an unbiased join-size estimator with
//!   variance ≤ 2·SJ(F)·SJ(G) (Lemma 4.4); averaging `k` gives
//!   Theorem 4.5.
//! * [`SampleJoinSignature`] — the §4.1 baseline: a Bernoulli(p) sample
//!   of each relation's join-attribute values; the join of the samples
//!   scaled by `p⁻²` (the classical `t_cross` estimator). Needs expected
//!   size Θ(n²/B) under a join-size sanity bound B (Lemma 4.2), which
//!   Theorem 4.3 proves is optimal among *all* signature schemes absent
//!   further assumptions.
//! * [`ThreeWaySignature`] — the §5 "future work" extension to three-way
//!   equality joins `Σ_v f_v·g_v·h_v`, via two independent sign families
//!   with role-dependent signatures.

use ams_hash::lanes::PlaneScratch;
use ams_hash::plane::{PolySignPlane, SignPlane};
use ams_hash::rng::SplitMix64;
use ams_hash::sign::PolySign;
use ams_hash::FxHashMap;
use serde::{Deserialize, Serialize};

use ams_stream::{OpBlock, Value};

use crate::error::SketchError;
use crate::params::SketchParams;
use crate::tugofwar::TugOfWarSketch;

// ---------------------------------------------------------------------
// k-TW signatures
// ---------------------------------------------------------------------

/// Factory fixing the shared randomness of a k-TW deployment: every
/// relation's signature must come from the same family for the pairwise
/// estimates to be meaningful.
///
/// ```
/// use ams_core::JoinSignatureFamily;
///
/// let family = JoinSignatureFamily::new(128, 9)?;
/// let mut f = family.signature();
/// let mut g = family.signature();
/// for v in 0..1_000u64 {
///     f.insert(v % 10);
///     g.insert(v % 20);
/// }
/// // Exact join: values 0..10 with f=100, g=50 → 10·100·50 = 50 000.
/// let est = f.estimate_join(&g)?;
/// assert!((est - 50_000.0).abs() / 50_000.0 < 0.5);
/// # Ok::<(), ams_core::SketchError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinSignatureFamily {
    params: SketchParams,
    seed: u64,
}

impl JoinSignatureFamily {
    /// A family of `k` plain-averaged counters (the paper's k-TW).
    ///
    /// # Errors
    /// [`SketchError::InvalidParams`] if `k` is 0.
    pub fn new(k: usize, seed: u64) -> Result<Self, SketchError> {
        Ok(Self {
            params: SketchParams::single_group(k)?,
            seed,
        })
    }

    /// A family with median-of-means aggregation (`s1` per group, `s2`
    /// groups) instead of a single mean — tighter tails for the same
    /// total space.
    pub fn with_groups(s1: usize, s2: usize, seed: u64) -> Result<Self, SketchError> {
        Ok(Self {
            params: SketchParams::new(s1, s2)?,
            seed,
        })
    }

    /// Signature size in counters (k).
    pub fn k(&self) -> usize {
        self.params.total()
    }

    /// Creates a fresh zero signature for one relation.
    pub fn signature(&self) -> TwJoinSignature {
        TwJoinSignature {
            sketch: TugOfWarSketch::new(self.params, self.seed),
        }
    }
}

/// The k-TW join signature of one relation: `k` tug-of-war counters
/// `S_m(F) = Σ_v f_v · ε_m(v)`, maintained under inserts and deletes of
/// join-attribute values.
#[derive(Debug, Clone)]
pub struct TwJoinSignature {
    sketch: TugOfWarSketch<PolySign>,
}

impl TwJoinSignature {
    /// Registers an inserted tuple's join-attribute value.
    #[inline]
    pub fn insert(&mut self, v: Value) {
        self.sketch.update(v, 1);
    }

    /// Registers a deleted tuple's join-attribute value.
    #[inline]
    pub fn delete(&mut self, v: Value) {
        self.sketch.update(v, -1);
    }

    /// Registers a batch of `count` tuples with the same value.
    #[inline]
    pub fn update(&mut self, v: Value, delta: i64) {
        self.sketch.update(v, delta);
    }

    /// Registers a columnar batch of tuples in one plane sweep per
    /// counter (linear, so any block ordering — including fully
    /// coalesced blocks — gives identical counters).
    pub fn update_block(&mut self, block: &OpBlock) {
        self.sketch.update_block(block);
    }

    /// Registers raw value/delta columns without building an [`OpBlock`].
    pub fn update_columns(&mut self, values: &[Value], deltas: &[i64]) {
        self.sketch.update_columns(values, deltas);
    }

    /// Estimates `|F ⋈ G|` from this signature and another of the same
    /// family (Theorem 4.5 estimator).
    ///
    /// # Errors
    /// [`SketchError::Incompatible`] if the signatures come from
    /// different families.
    pub fn estimate_join(&self, other: &TwJoinSignature) -> Result<f64, SketchError> {
        self.sketch.join_estimate(&other.sketch)
    }

    /// Estimates this relation's self-join size (the signature doubles as
    /// a tug-of-war sketch — "a better estimator for the self-join", §4.3).
    pub fn self_join_estimate(&self) -> f64 {
        use ams_stream::SelfJoinEstimator as _;
        self.sketch.estimate()
    }

    /// Merges a same-family signature (e.g. partitions of one relation
    /// tracked on different nodes).
    ///
    /// # Errors
    /// [`SketchError::Incompatible`] on family mismatch.
    pub fn merge_from(&mut self, other: &TwJoinSignature) -> Result<(), SketchError> {
        self.sketch.merge_from(&other.sketch)
    }

    /// Signature size in memory words.
    pub fn memory_words(&self) -> usize {
        use ams_stream::SelfJoinEstimator as _;
        self.sketch.memory_words()
    }

    /// The raw counters (for experiments studying the estimator spread).
    pub fn counters(&self) -> &[i64] {
        self.sketch.counters()
    }

    /// Encodes into the compact wire form of [`crate::codec`]
    /// (header + k counters — the catalog/shipping representation).
    pub fn to_bytes(&self) -> bytes::Bytes {
        crate::codec::encode(&self.sketch)
    }

    /// Decodes a signature from [`Self::to_bytes`] output.
    ///
    /// # Errors
    /// [`SketchError::Codec`] on malformed input.
    pub fn from_bytes(data: &[u8]) -> Result<Self, SketchError> {
        Ok(Self {
            sketch: crate::codec::decode(data)?,
        })
    }
}

// ---------------------------------------------------------------------
// Sampling signatures
// ---------------------------------------------------------------------

/// The §4.1 baseline: each tuple's join-attribute value is retained
/// independently with probability `p`; the join size is estimated as
/// `|sample(F) ⋈ sample(G)| / (p_F · p_G)`.
///
/// Deletions apply the probabilistic correction described in the module
/// docs of [`crate::naivesampling`]: the deleted element was sampled with
/// probability `p` independently of everything else, so an independent
/// `p`-coin decides whether to remove a sampled copy. Exact uniformity is
/// only guaranteed for insert-only streams (the setting of Lemma 4.1/4.2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleJoinSignature {
    p: f64,
    rng: SplitMix64,
    /// Sampled value → sampled multiplicity.
    counts: FxHashMap<Value, u32>,
}

impl SampleJoinSignature {
    /// Creates an empty signature sampling at rate `p`.
    ///
    /// # Panics
    /// Panics unless `0 < p ≤ 1`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "sampling rate must be in (0, 1]");
        Self {
            p,
            rng: SplitMix64::new(seed),
            counts: FxHashMap::default(),
        }
    }

    /// The sampling rate needed for constant relative error under join
    /// sanity bound `B` with per-relation size `n` (Lemma 4.2:
    /// sample size `c·n²/B`, i.e. `p = c·n/B`), clamped to (0, 1].
    pub fn rate_for_sanity_bound(n: u64, b: u64, c: f64) -> f64 {
        assert!(b > 0, "sanity bound must be positive");
        (c * n as f64 / b as f64).clamp(f64::MIN_POSITIVE, 1.0)
    }

    /// Registers an inserted tuple.
    pub fn insert(&mut self, v: Value) {
        if self.rng.next_f64() < self.p {
            *self.counts.entry(v).or_insert(0) += 1;
        }
    }

    /// Registers a deleted tuple (probabilistic correction; see type
    /// docs).
    pub fn delete(&mut self, v: Value) {
        if self.rng.next_f64() < self.p {
            if let Some(c) = self.counts.get_mut(&v) {
                *c -= 1;
                if *c == 0 {
                    self.counts.remove(&v);
                }
            }
        }
    }

    /// Registers a columnar batch. Bernoulli sampling consumes one coin
    /// per tuple, so the block is expanded entry by entry in order
    /// (the canonical [`OpBlock::for_each_op`] expansion) —
    /// bit-identical to the scalar stream on run-coalesced blocks.
    pub fn update_block(&mut self, block: &OpBlock) {
        block.for_each_op(|op| match op {
            ams_stream::Op::Insert(v) => self.insert(v),
            ams_stream::Op::Delete(v) => self.delete(v),
        });
    }

    /// The number of sampled tuples currently held.
    pub fn sample_size(&self) -> usize {
        self.counts.values().map(|&c| c as usize).sum()
    }

    /// Estimates `|F ⋈ G|` as the join size of the two samples scaled by
    /// `(p_F · p_G)⁻¹` (`t_cross`).
    pub fn estimate_join(&self, other: &SampleJoinSignature) -> f64 {
        let (small, large) = if self.counts.len() <= other.counts.len() {
            (self, other)
        } else {
            (other, self)
        };
        let raw: u64 = small
            .counts
            .iter()
            .map(|(v, &c)| c as u64 * large.counts.get(v).map_or(0, |&d| d as u64))
            .sum();
        raw as f64 / (self.p * other.p)
    }

    /// Signature size in memory words.
    pub fn memory_words(&self) -> usize {
        2 * self.counts.len()
    }
}

// ---------------------------------------------------------------------
// Three-way join signatures (§5 extension)
// ---------------------------------------------------------------------

/// Position of a relation in the three-way product estimator.
///
/// For `|F ⋈ G ⋈ H| = Σ_v f_v·g_v·h_v` with two independent 4-wise sign
/// families ξ and ψ, the center relation folds both signs and the outer
/// relations one each:
/// `S(F) = Σ f_v·ξ_v·ψ_v`, `S(G) = Σ g_v·ξ_v`, `S(H) = Σ h_v·ψ_v`, so
/// `E[S(F)·S(G)·S(H)] = Σ_v f_v·g_v·h_v` (cross terms vanish because each
/// surviving expectation needs ξ-indices and ψ-indices to pair up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreeWayRole {
    /// Folds ξ·ψ.
    Center,
    /// Folds ξ only.
    Left,
    /// Folds ψ only.
    Right,
}

/// Factory for compatible three-way signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreeWayFamily {
    k: usize,
    seed: u64,
}

impl ThreeWayFamily {
    /// A family averaging `k` independent product estimators.
    ///
    /// # Errors
    /// [`SketchError::InvalidParams`] if `k` is 0.
    pub fn new(k: usize, seed: u64) -> Result<Self, SketchError> {
        if k == 0 {
            return Err(SketchError::InvalidParams {
                reason: "k must be positive",
            });
        }
        Ok(Self { k, seed })
    }

    /// Creates a zero signature for a relation playing `role`.
    pub fn signature(&self, role: ThreeWayRole) -> ThreeWaySignature {
        let mut xi_rng = SplitMix64::new(self.seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut psi_rng = SplitMix64::new(self.seed.rotate_left(17) ^ 0xDEAD_BEEF_CAFE_F00D);
        ThreeWaySignature {
            family: *self,
            role,
            counters: vec![0; self.k],
            xi: PolySignPlane::draw(self.k, &mut xi_rng),
            psi: PolySignPlane::draw(self.k, &mut psi_rng),
            scratch: PlaneScratch::new(),
        }
    }

    /// Estimates `Σ_v f_v·g_v·h_v` from a center/left/right signature
    /// triple: the mean of the k counter products.
    ///
    /// # Errors
    /// [`SketchError::Incompatible`] if the signatures mix families or
    /// their roles are not exactly {Center, Left, Right}.
    pub fn estimate(
        &self,
        center: &ThreeWaySignature,
        left: &ThreeWaySignature,
        right: &ThreeWaySignature,
    ) -> Result<f64, SketchError> {
        for sig in [center, left, right] {
            if sig.family != *self {
                return Err(SketchError::Incompatible {
                    reason: "signature from a different family",
                });
            }
        }
        if center.role != ThreeWayRole::Center
            || left.role != ThreeWayRole::Left
            || right.role != ThreeWayRole::Right
        {
            return Err(SketchError::Incompatible {
                reason: "roles must be exactly center/left/right",
            });
        }
        let k = self.k as f64;
        Ok(center
            .counters
            .iter()
            .zip(left.counters.iter())
            .zip(right.counters.iter())
            .map(|((&a, &b), &c)| a as f64 * b as f64 * c as f64)
            .sum::<f64>()
            / k)
    }
}

/// A per-relation three-way join signature (k signed counters, sign
/// banks stored as columnar planes).
#[derive(Debug, Clone)]
pub struct ThreeWaySignature {
    family: ThreeWayFamily,
    role: ThreeWayRole,
    counters: Vec<i64>,
    xi: PolySignPlane,
    psi: PolySignPlane,
    /// Reusable kernel scratch (transient).
    scratch: PlaneScratch,
}

impl ThreeWaySignature {
    /// The role this signature was created for.
    pub fn role(&self) -> ThreeWayRole {
        self.role
    }

    /// Applies a signed multiplicity change.
    pub fn update(&mut self, v: Value, delta: i64) {
        for m in 0..self.counters.len() {
            let sign = match self.role {
                ThreeWayRole::Center => self.xi.sign(m, v) * self.psi.sign(m, v),
                ThreeWayRole::Left => self.xi.sign(m, v),
                ThreeWayRole::Right => self.psi.sign(m, v),
            };
            self.counters[m] += sign * delta;
        }
    }

    /// Applies a columnar batch. Outer relations sweep their single
    /// plane; the center relation folds both sign banks row-major over
    /// the block. Linear, so bit-identical to per-item updates under any
    /// block ordering.
    pub fn update_block(&mut self, block: &OpBlock) {
        let (values, deltas) = (block.values(), block.deltas());
        match self.role {
            ThreeWayRole::Left => {
                self.xi
                    .accumulate_block_into(values, deltas, &mut self.counters, &mut self.scratch)
            }
            ThreeWayRole::Right => self.psi.accumulate_block_into(
                values,
                deltas,
                &mut self.counters,
                &mut self.scratch,
            ),
            ThreeWayRole::Center => {
                // Fused two-plane kernel: keys reduced once, both sign
                // banks evaluated branch-free per row tile.
                self.xi.accumulate_block_signed_product_into(
                    &self.psi,
                    values,
                    deltas,
                    &mut self.counters,
                    &mut self.scratch,
                )
            }
        }
    }

    /// Registers an inserted tuple.
    #[inline]
    pub fn insert(&mut self, v: Value) {
        self.update(v, 1);
    }

    /// Registers a deleted tuple.
    #[inline]
    pub fn delete(&mut self, v: Value) {
        self.update(v, -1);
    }

    /// Signature size in memory words.
    pub fn memory_words(&self) -> usize {
        self.counters.len()
    }

    /// The raw counters (for experiments and equivalence tests).
    pub fn counters(&self) -> &[i64] {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_stream::Multiset;

    fn exact_join(f: &[u64], g: &[u64]) -> f64 {
        Multiset::from_values(f.iter().copied())
            .join_size(&Multiset::from_values(g.iter().copied())) as f64
    }

    #[test]
    fn ktw_unbiased_over_families() {
        let f: Vec<u64> = (0..400u64).map(|i| i % 25).collect();
        let g: Vec<u64> = (0..600u64).map(|i| (i * 3) % 40).collect();
        let exact = exact_join(&f, &g);
        let trials = 500;
        let mut sum = 0.0;
        for seed in 0..trials {
            let fam = JoinSignatureFamily::new(1, seed).unwrap();
            let mut sf = fam.signature();
            let mut sg = fam.signature();
            for &v in &f {
                sf.insert(v);
            }
            for &v in &g {
                sg.insert(v);
            }
            sum += sf.estimate_join(&sg).unwrap();
        }
        let mean = sum / trials as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.15, "mean {mean} vs exact {exact}");
    }

    #[test]
    fn ktw_variance_within_lemma_4_4_bound() {
        let f: Vec<u64> = (0..500u64).map(|i| i % 30).collect();
        let g: Vec<u64> = (0..500u64).map(|i| (i * 7) % 45).collect();
        let sjf = Multiset::from_values(f.iter().copied()).self_join_size() as f64;
        let sjg = Multiset::from_values(g.iter().copied()).self_join_size() as f64;
        let exact = exact_join(&f, &g);
        let bound = 2.0 * sjf * sjg;
        let trials = 2_000;
        let mut sq_err = 0.0;
        for seed in 0..trials {
            let fam = JoinSignatureFamily::new(1, seed).unwrap();
            let mut sf = fam.signature();
            let mut sg = fam.signature();
            for &v in &f {
                sf.insert(v);
            }
            for &v in &g {
                sg.insert(v);
            }
            let e = sf.estimate_join(&sg).unwrap();
            sq_err += (e - exact) * (e - exact);
        }
        let var = sq_err / trials as f64;
        // Allow sampling noise headroom above the analytic bound.
        assert!(
            var < 1.3 * bound,
            "empirical variance {var:e} vs bound {bound:e}"
        );
    }

    #[test]
    fn ktw_error_shrinks_with_k() {
        let f: Vec<u64> = (0..2_000u64).map(|i| i % 100).collect();
        let g: Vec<u64> = (0..2_000u64).map(|i| (i * 3) % 150).collect();
        let exact = exact_join(&f, &g);
        let mean_abs_err = |k: usize| {
            let trials = 60;
            let mut acc = 0.0;
            for seed in 0..trials {
                let fam = JoinSignatureFamily::new(k, 10_000 + seed).unwrap();
                let mut sf = fam.signature();
                let mut sg = fam.signature();
                for &v in &f {
                    sf.insert(v);
                }
                for &v in &g {
                    sg.insert(v);
                }
                acc += (sf.estimate_join(&sg).unwrap() - exact).abs();
            }
            acc / trials as f64
        };
        let e1 = mean_abs_err(1);
        let e64 = mean_abs_err(64);
        assert!(
            e64 < e1 / 3.0,
            "k=64 error {e64} not ≪ k=1 error {e1} (expected ≈ 1/8)"
        );
    }

    #[test]
    fn ktw_deletes_cancel() {
        let fam = JoinSignatureFamily::new(8, 3).unwrap();
        let mut sig = fam.signature();
        sig.insert(5);
        sig.insert(7);
        sig.delete(5);
        sig.delete(7);
        assert!(sig.counters().iter().all(|&c| c == 0));
    }

    #[test]
    fn ktw_cross_family_estimation_rejected() {
        let fam_a = JoinSignatureFamily::new(4, 1).unwrap();
        let fam_b = JoinSignatureFamily::new(4, 2).unwrap();
        let sa = fam_a.signature();
        let sb = fam_b.signature();
        assert!(sa.estimate_join(&sb).is_err());
    }

    #[test]
    fn ktw_merge_combines_partitions() {
        let fam = JoinSignatureFamily::new(16, 9).unwrap();
        let mut part1 = fam.signature();
        let mut part2 = fam.signature();
        let mut whole = fam.signature();
        for v in 0..100u64 {
            whole.insert(v % 10);
            if v % 2 == 0 {
                part1.insert(v % 10);
            } else {
                part2.insert(v % 10);
            }
        }
        part1.merge_from(&part2).unwrap();
        assert_eq!(part1.counters(), whole.counters());
    }

    #[test]
    fn sample_signature_exact_at_full_rate() {
        let f: Vec<u64> = (0..200u64).map(|i| i % 12).collect();
        let g: Vec<u64> = (0..300u64).map(|i| i % 18).collect();
        let mut sf = SampleJoinSignature::new(1.0, 1);
        let mut sg = SampleJoinSignature::new(1.0, 2);
        for &v in &f {
            sf.insert(v);
        }
        for &v in &g {
            sg.insert(v);
        }
        assert_eq!(sf.estimate_join(&sg), exact_join(&f, &g));
    }

    #[test]
    fn sample_signature_unbiased_at_partial_rate() {
        let f: Vec<u64> = (0..800u64).map(|i| i % 40).collect();
        let g: Vec<u64> = (0..800u64).map(|i| (i * 3) % 60).collect();
        let exact = exact_join(&f, &g);
        let trials = 300;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut sf = SampleJoinSignature::new(0.3, seed);
            let mut sg = SampleJoinSignature::new(0.3, seed + 100_000);
            for &v in &f {
                sf.insert(v);
            }
            for &v in &g {
                sg.insert(v);
            }
            sum += sf.estimate_join(&sg);
        }
        let mean = sum / trials as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.15, "mean {mean} vs exact {exact}");
    }

    #[test]
    fn sample_rate_for_sanity_bound() {
        // n = 1000, B = n²/2 ⇒ p = c·n/B = 2c/n: tiny samples suffice for
        // huge joins.
        let p = SampleJoinSignature::rate_for_sanity_bound(1_000, 500_000, 3.0);
        assert!((p - 0.006).abs() < 1e-12);
        // Clamped at 1.
        assert_eq!(
            SampleJoinSignature::rate_for_sanity_bound(1_000, 10, 3.0),
            1.0
        );
    }

    #[test]
    fn three_way_unbiased() {
        let f: Vec<u64> = (0..150u64).map(|i| i % 10).collect();
        let g: Vec<u64> = (0..150u64).map(|i| i % 15).collect();
        let h: Vec<u64> = (0..150u64).map(|i| i % 6).collect();
        // Exact three-way join size.
        let mf = Multiset::from_values(f.iter().copied());
        let mg = Multiset::from_values(g.iter().copied());
        let mh = Multiset::from_values(h.iter().copied());
        let exact: f64 = (0..20u64)
            .map(|v| (mf.frequency(v) * mg.frequency(v) * mh.frequency(v)) as f64)
            .sum();
        assert!(exact > 0.0);

        let trials = 600;
        let mut sum = 0.0;
        for seed in 0..trials {
            let fam = ThreeWayFamily::new(1, seed).unwrap();
            let mut sf = fam.signature(ThreeWayRole::Center);
            let mut sg = fam.signature(ThreeWayRole::Left);
            let mut sh = fam.signature(ThreeWayRole::Right);
            for &v in &f {
                sf.insert(v);
            }
            for &v in &g {
                sg.insert(v);
            }
            for &v in &h {
                sh.insert(v);
            }
            sum += fam.estimate(&sf, &sg, &sh).unwrap();
        }
        let mean = sum / trials as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.25, "mean {mean} vs exact {exact}");
    }

    #[test]
    fn three_way_role_checks() {
        let fam = ThreeWayFamily::new(4, 1).unwrap();
        let c = fam.signature(ThreeWayRole::Center);
        let l = fam.signature(ThreeWayRole::Left);
        let r = fam.signature(ThreeWayRole::Right);
        assert!(fam.estimate(&c, &l, &r).is_ok());
        // Swapped roles rejected.
        assert!(fam.estimate(&l, &c, &r).is_err());
        // Foreign family rejected.
        let other = ThreeWayFamily::new(4, 2).unwrap();
        assert!(other.estimate(&c, &l, &r).is_err());
    }

    #[test]
    fn three_way_deletes_cancel() {
        let fam = ThreeWayFamily::new(8, 5).unwrap();
        let mut sig = fam.signature(ThreeWayRole::Center);
        sig.insert(3);
        sig.insert(9);
        sig.delete(3);
        sig.delete(9);
        assert!(sig.counters.iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn zero_rate_rejected() {
        let _ = SampleJoinSignature::new(0.0, 1);
    }

    #[test]
    fn signature_bytes_roundtrip_preserves_estimates() {
        let fam = JoinSignatureFamily::new(32, 0xBEEF).unwrap();
        let mut f = fam.signature();
        let mut g = fam.signature();
        for v in 0..500u64 {
            f.insert(v % 21);
            g.insert(v % 13);
        }
        let wire_f = f.to_bytes();
        let wire_g = g.to_bytes();
        // Compact: header (24 bytes) + k counters.
        assert_eq!(wire_f.len(), 24 + 32 * 8);
        let f2 = TwJoinSignature::from_bytes(&wire_f).unwrap();
        let g2 = TwJoinSignature::from_bytes(&wire_g).unwrap();
        assert_eq!(f.estimate_join(&g).unwrap(), f2.estimate_join(&g2).unwrap());
        assert!(TwJoinSignature::from_bytes(&wire_f[..10]).is_err());
    }
}
