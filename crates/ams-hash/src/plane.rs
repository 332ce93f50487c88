//! Columnar banks of sign functions: the structure-of-arrays layout
//! behind block-at-a-time sketch ingestion.
//!
//! A tug-of-war sketch owns `s = s1·s2` independent ±1 hash functions.
//! Stored as a `Vec` of hash structs (array-of-structs), every per-item
//! update walks `s` scattered 32-byte structs — the hot path is bound on
//! memory traffic for hash-function state, not on the O(s) arithmetic the
//! paper's analysis counts. A [`SignPlane`] flips the layout: the
//! coefficients of all drawn functions live in contiguous per-coefficient
//! columns, and evaluation is *counter-row-major over a block* — for each
//! function row, a tight loop sweeps the whole block of values with the
//! row's coefficients held in registers. One memory pass per row per
//! block instead of one struct load per row per item.
//!
//! Two implementations:
//!
//! * [`PolyPlane`] — the SoA fast path for polynomial families
//!   ([`PolySign`](crate::sign::PolySign)/[`TwoWiseSign`](crate::sign::TwoWiseSign)):
//!   `K` coefficient columns over GF(2⁶¹−1), swept by the kernels of
//!   [`crate::lanes`] — the AVX2 split-limb tiles where the CPU has
//!   AVX2, chosen at run time, and the serial u128 Horner chain
//!   everywhere else. [`PolyPlane::accumulate_block_serial`] calls the
//!   serial kernel directly on any CPU: the equivalence-test and
//!   benchmark reference.
//! * [`RowPlane`] — the generic fallback for any [`SignFamily`]: keeps
//!   the AoS struct per row but still gains the inverted loop nest (each
//!   hash struct is loaded once per block, not once per item).
//!
//! Beside the row-major block sweep, every plane has a *key-major* path:
//! [`SignPlane::sign_bits`] writes all rows' signs of one key as a bit
//! vector and [`apply_sign_bits`] adds a key's delta into the counters
//! from those bits. It serves the per-item update
//! ([`SignPlane::accumulate_one`]) and lets a caller keep the bits of a
//! recurring key and apply it again without evaluating any row (the
//! tug-of-war sketch's sign cache).
//!
//! Every block kernel has two entry points: `accumulate_block`
//! (self-contained, allocates a transient scratch) and the
//! `*_into` variant taking a caller-owned [`PlaneScratch`] — the
//! zero-allocation path sketches use for steady-state ingestion.
//!
//! Drawing a plane consumes the seed stream *identically* to drawing the
//! same number of individual functions with [`SignFamily::draw`], so a
//! plane-backed sketch is bit-compatible with the per-item
//! implementation — a property the block/scalar equivalence property
//! tests pin down.

use crate::field;
use crate::lanes::{self, PlaneScratch};
use crate::rng::SplitMix64;
use crate::sign::SignFamily;

/// A bank of independently drawn ±1 hash functions ("rows") with a
/// columnar block-evaluation kernel.
pub trait SignPlane: std::fmt::Debug + Clone {
    /// Draws `rows` functions from the family, consuming the generator
    /// exactly as `rows` successive [`SignFamily::draw`] calls would.
    fn draw(rows: usize, rng: &mut SplitMix64) -> Self;

    /// Number of functions in the bank.
    fn rows(&self) -> usize;

    /// Evaluates one function on one key (the scalar path).
    fn sign(&self, row: usize, v: u64) -> i64;

    /// Key-major evaluation: every row's sign at one key, as bits. Bit
    /// `r % 64` of `bits[r / 64]` is set iff row `r` maps `v` to −1;
    /// bits past the last row are zero. This default, the per-row
    /// [`Self::sign`] loop, is the reference; planes override it to
    /// evaluate many rows per step. [`apply_sign_bits`] adds the result
    /// into counters, so a caller that keeps the bits of a recurring key
    /// applies it again without evaluating a single row.
    ///
    /// # Panics
    /// Panics if `bits.len() != sign_words(self.rows())`.
    fn sign_bits(&self, v: u64, bits: &mut [u64]) {
        assert_eq!(
            bits.len(),
            sign_words(self.rows()),
            "sign-bit/plane shape mismatch"
        );
        bits.fill(0);
        for row in 0..self.rows() {
            if self.sign(row, v) < 0 {
                bits[row / 64] |= 1 << (row % 64);
            }
        }
    }

    /// Scalar update: adds `ε_row(v) · delta` to every counter.
    ///
    /// # Panics
    /// Panics if `counters.len() != self.rows()`.
    fn accumulate_one(&self, v: u64, delta: i64, counters: &mut [i64]) {
        assert_eq!(counters.len(), self.rows(), "counter/plane shape mismatch");
        for (row, z) in counters.iter_mut().enumerate() {
            *z += self.sign(row, v) * delta;
        }
    }

    /// Block update: adds `Σ_j ε_row(values[j]) · deltas[j]` to each
    /// counter, sweeping the block once per row. Convenience wrapper
    /// around [`Self::accumulate_block_into`] with a transient scratch;
    /// steady-state callers should hold a scratch and use the `_into`
    /// variant to keep ingestion allocation-free.
    ///
    /// # Panics
    /// Panics if the slice lengths disagree with the plane shape.
    fn accumulate_block(&self, values: &[u64], deltas: &[i64], counters: &mut [i64]) {
        self.accumulate_block_into(values, deltas, counters, &mut PlaneScratch::new());
    }

    /// Block update through a caller-provided reusable scratch: the
    /// zero-allocation form of [`Self::accumulate_block`].
    ///
    /// # Panics
    /// Panics if the slice lengths disagree with the plane shape.
    fn accumulate_block_into(
        &self,
        values: &[u64],
        deltas: &[i64],
        counters: &mut [i64],
        scratch: &mut PlaneScratch,
    );
}

/// Number of `u64` words that hold one sign bit per row for `rows` rows
/// (the length [`SignPlane::sign_bits`] fills).
pub const fn sign_words(rows: usize) -> usize {
    rows.div_ceil(64)
}

/// Adds `ε_r · delta` to `counters[r]` for every row, reading each sign
/// from the bits [`SignPlane::sign_bits`] wrote (a set bit is −1).
/// Branch-free: one mask, one xor and two adds per counter, on AVX2
/// where the CPU has it.
///
/// # Panics
/// Panics if `bits.len() != sign_words(counters.len())`.
pub fn apply_sign_bits(bits: &[u64], delta: i64, counters: &mut [i64]) {
    assert_eq!(
        bits.len(),
        sign_words(counters.len()),
        "sign-bit/counter shape mismatch"
    );
    lanes::apply_sign_bits(bits, delta, counters);
}

// ---------------------------------------------------------------------
// polynomial SoA plane
// ---------------------------------------------------------------------

/// Structure-of-arrays bank of degree-(K−1) polynomial sign functions
/// over GF(2⁶¹−1): column `c` holds coefficient `c` of every row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyPlane<const K: usize> {
    /// `cols[c][row]` is coefficient `c` of function `row`.
    cols: [Vec<u64>; K],
    rows: usize,
}

/// The plane of 4-wise independent polynomial sign functions
/// ([`crate::sign::PolySign`]'s columnar form).
pub type PolySignPlane = PolyPlane<4>;

/// The plane of 2-wise polynomial sign functions
/// ([`crate::sign::TwoWiseSign`]'s columnar form).
pub type TwoWiseSignPlane = PolyPlane<2>;

impl<const K: usize> PolyPlane<K> {
    /// Evaluates the raw polynomial hash of row `row` at a pre-reduced
    /// key `x` (Horner, highest coefficient first — identical to
    /// [`crate::kwise::PolyHash::hash`]).
    #[inline]
    fn hash_reduced(&self, row: usize, x: u64) -> u64 {
        let mut acc = self.cols[K - 1][row];
        for c in (0..K - 1).rev() {
            acc = field::add(field::mul(acc, x), self.cols[c][row]);
        }
        acc
    }

    /// Accumulates the *product* of two planes' signs over a block:
    /// `counters[row] += Σ_j ξ_row(values[j]) · ψ_row(values[j]) ·
    /// deltas[j]` with `self` as ξ and `other` as ψ — the center-role
    /// kernel of three-way join signatures. Convenience wrapper around
    /// [`Self::accumulate_block_signed_product_into`] with a transient
    /// scratch.
    ///
    /// # Panics
    /// Panics if the plane or column shapes disagree.
    pub fn accumulate_block_signed_product(
        &self,
        other: &Self,
        values: &[u64],
        deltas: &[i64],
        counters: &mut [i64],
    ) {
        self.accumulate_block_signed_product_into(
            other,
            values,
            deltas,
            counters,
            &mut PlaneScratch::new(),
        );
    }

    /// The zero-allocation form of
    /// [`Self::accumulate_block_signed_product`]: keys are reduced once
    /// into the caller's scratch and each row runs the two planes'
    /// Horner chains side by side (the sign product is `−1` iff the two
    /// parities differ).
    ///
    /// # Panics
    /// Panics if the plane or column shapes disagree.
    pub fn accumulate_block_signed_product_into(
        &self,
        other: &Self,
        values: &[u64],
        deltas: &[i64],
        counters: &mut [i64],
        scratch: &mut PlaneScratch,
    ) {
        assert_eq!(self.rows, other.rows, "plane shape mismatch");
        assert_eq!(counters.len(), self.rows, "counter/plane shape mismatch");
        scratch.load(values, deltas);
        lanes::product_sweep::<K>(
            &self.cols,
            &other.cols,
            self.rows,
            scratch.xs(),
            scratch.ds(),
            counters,
        );
    }

    /// [`SignPlane::accumulate_block`] on the serial u128 Horner kernel
    /// whatever the CPU: the kernel a CPU without AVX2 runs, and the
    /// bit-for-bit reference the AVX2 kernels are tested and benchmarked
    /// against.
    ///
    /// # Panics
    /// Panics if the slice lengths disagree with the plane shape.
    pub fn accumulate_block_serial(&self, values: &[u64], deltas: &[i64], counters: &mut [i64]) {
        assert_eq!(counters.len(), self.rows, "counter/plane shape mismatch");
        let mut scratch = PlaneScratch::new();
        scratch.load(values, deltas);
        lanes::serial::poly_sweep::<K>(&self.cols, self.rows, scratch.xs(), scratch.ds(), counters);
    }

    /// Serial u128 reference for the fused two-plane product kernel
    /// (see [`Self::accumulate_block_serial`]).
    ///
    /// # Panics
    /// Panics if the plane or column shapes disagree.
    pub fn accumulate_block_signed_product_serial(
        &self,
        other: &Self,
        values: &[u64],
        deltas: &[i64],
        counters: &mut [i64],
    ) {
        assert_eq!(self.rows, other.rows, "plane shape mismatch");
        assert_eq!(counters.len(), self.rows, "counter/plane shape mismatch");
        let mut scratch = PlaneScratch::new();
        scratch.load(values, deltas);
        lanes::serial::product_sweep::<K>(
            &self.cols,
            &other.cols,
            self.rows,
            scratch.xs(),
            scratch.ds(),
            counters,
        );
    }
}

impl<const K: usize> SignPlane for PolyPlane<K> {
    fn draw(rows: usize, rng: &mut SplitMix64) -> Self {
        let mut cols: [Vec<u64>; K] = std::array::from_fn(|_| Vec::with_capacity(rows));
        for _ in 0..rows {
            // Same draw order as PolyHash::from_rng: c_0 … c_{K−1}.
            for col in cols.iter_mut() {
                col.push(rng.next_below(field::P));
            }
        }
        Self { cols, rows }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    fn sign(&self, row: usize, v: u64) -> i64 {
        if self.hash_reduced(row, field::reduce64(v)) & 1 == 1 {
            -1
        } else {
            1
        }
    }

    fn sign_bits(&self, v: u64, bits: &mut [u64]) {
        assert_eq!(
            bits.len(),
            sign_words(self.rows),
            "sign-bit/plane shape mismatch"
        );
        lanes::poly_sign_bits::<K>(&self.cols, 0, field::reduce64(v), bits);
    }

    /// The key-major kernel of [`Self::sign_bits`] and
    /// [`apply_sign_bits`], 64 rows at a time from one stack word.
    fn accumulate_one(&self, v: u64, delta: i64, counters: &mut [i64]) {
        assert_eq!(counters.len(), self.rows, "counter/plane shape mismatch");
        let x = field::reduce64(v);
        for (w, chunk) in counters.chunks_mut(64).enumerate() {
            let mut word = [0u64];
            lanes::poly_sign_bits::<K>(&self.cols, 64 * w, x, &mut word);
            lanes::apply_sign_bits(&word, delta, chunk);
        }
    }

    fn accumulate_block_into(
        &self,
        values: &[u64],
        deltas: &[i64],
        counters: &mut [i64],
        scratch: &mut PlaneScratch,
    ) {
        assert_eq!(counters.len(), self.rows, "counter/plane shape mismatch");
        // Keys are reduced into the field once for the whole plane (and
        // padded to a lane multiple) by the scratch load; both kernels
        // then sweep those columns.
        scratch.load(values, deltas);
        lanes::poly_sweep::<K>(&self.cols, self.rows, scratch.xs(), scratch.ds(), counters);
    }
}

// ---------------------------------------------------------------------
// generic AoS fallback plane
// ---------------------------------------------------------------------

/// The generic plane: one hash struct per row (array-of-structs), with
/// the block kernel's inverted loop nest but no layout change. Used by
/// families without a dedicated columnar form (BCH, tabulation).
#[derive(Debug, Clone)]
pub struct RowPlane<H> {
    rows: Vec<H>,
}

impl<H> SignPlane for RowPlane<H>
where
    H: SignFamily + std::fmt::Debug + Clone,
{
    fn draw(rows: usize, rng: &mut SplitMix64) -> Self {
        Self {
            rows: (0..rows).map(|_| H::draw(rng)).collect(),
        }
    }

    fn rows(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    fn sign(&self, row: usize, v: u64) -> i64 {
        self.rows[row].sign(v)
    }

    /// Needs no scratch: each row's hash struct is loaded once and
    /// swept over the raw keys.
    fn accumulate_block_into(
        &self,
        values: &[u64],
        deltas: &[i64],
        counters: &mut [i64],
        _scratch: &mut PlaneScratch,
    ) {
        assert_eq!(values.len(), deltas.len(), "values/deltas length mismatch");
        assert_eq!(
            counters.len(),
            self.rows.len(),
            "counter/plane shape mismatch"
        );
        for (h, z) in self.rows.iter().zip(counters.iter_mut()) {
            *z += values
                .iter()
                .zip(deltas)
                .map(|(&v, &d)| h.sign(v) * d)
                .sum::<i64>();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sign::{BchSignHash, PolySign, TabulationSign, TwoWiseSign};

    fn plane_matches_family<H: SignFamily>(seed: u64)
    where
        H::Plane: SignPlane,
    {
        let rows = 17;
        let mut plane_rng = SplitMix64::new(seed);
        let plane = H::Plane::draw(rows, &mut plane_rng);
        let mut item_rng = SplitMix64::new(seed);
        let hashes: Vec<H> = (0..rows).map(|_| H::draw(&mut item_rng)).collect();
        assert_eq!(plane.rows(), rows);
        for (row, h) in hashes.iter().enumerate() {
            for v in [0u64, 1, 42, 1 << 40, u64::MAX] {
                assert_eq!(plane.sign(row, v), h.sign(v), "row {row}, key {v}");
            }
        }
    }

    #[test]
    fn planes_draw_identically_to_per_item_families() {
        plane_matches_family::<PolySign>(1);
        plane_matches_family::<TwoWiseSign>(2);
        plane_matches_family::<BchSignHash>(3);
        plane_matches_family::<TabulationSign>(4);
    }

    #[test]
    fn accumulate_block_equals_scalar_loop() {
        let mut rng = SplitMix64::new(99);
        let plane = PolySignPlane::draw(8, &mut rng);
        let values: Vec<u64> = (0..100).map(|i| i * 0x9E37_79B9u64).collect();
        let deltas: Vec<i64> = (0..100).map(|i| (i % 7) as i64 - 3).collect();
        let mut block = vec![0i64; 8];
        plane.accumulate_block(&values, &deltas, &mut block);
        let mut scalar = vec![0i64; 8];
        for (&v, &d) in values.iter().zip(deltas.iter()) {
            plane.accumulate_one(v, d, &mut scalar);
        }
        assert_eq!(block, scalar);
    }

    #[test]
    fn row_plane_block_kernel_matches_scalar() {
        let mut rng = SplitMix64::new(5);
        let plane = RowPlane::<BchSignHash>::draw(6, &mut rng);
        let values: Vec<u64> = (0..64).map(|i| i * 31 + 7).collect();
        let deltas = vec![1i64; 64];
        let mut block = vec![0i64; 6];
        plane.accumulate_block(&values, &deltas, &mut block);
        let mut scalar = vec![0i64; 6];
        for &v in &values {
            plane.accumulate_one(v, 1, &mut scalar);
        }
        assert_eq!(block, scalar);
    }

    /// The lane/tile kernel must match the serial u128 reference for
    /// every block/row alignment: block lengths around the LANES
    /// boundary and row counts hitting every tile-tail case.
    #[test]
    fn lane_kernel_equals_serial_kernel_for_all_alignments() {
        use crate::lanes::{LANES, TILE_ROWS};
        let mut rng = SplitMix64::new(4242);
        let lens = [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 5, 257];
        for rows in 1..=2 * TILE_ROWS + 1 {
            let plane = PolySignPlane::draw(rows, &mut rng);
            let two = TwoWiseSignPlane::draw(rows, &mut rng);
            for &len in &lens {
                let values: Vec<u64> = (0..len as u64).map(|i| rng.next_u64() ^ i).collect();
                let deltas: Vec<i64> = (0..len).map(|i| (i % 11) as i64 - 5).collect();
                let mut lane = vec![3i64; rows];
                let mut serial = vec![3i64; rows];
                plane.accumulate_block(&values, &deltas, &mut lane);
                plane.accumulate_block_serial(&values, &deltas, &mut serial);
                assert_eq!(lane, serial, "poly rows={rows} len={len}");
                let mut lane2 = vec![-1i64; rows];
                let mut serial2 = vec![-1i64; rows];
                two.accumulate_block(&values, &deltas, &mut lane2);
                two.accumulate_block_serial(&values, &deltas, &mut serial2);
                assert_eq!(lane2, serial2, "twowise rows={rows} len={len}");
            }
        }
    }

    #[test]
    fn product_lane_kernel_equals_serial_for_all_alignments() {
        use crate::lanes::{LANES, TILE_ROWS};
        let mut rng = SplitMix64::new(77);
        for rows in 1..=2 * TILE_ROWS + 1 {
            let xi = PolySignPlane::draw(rows, &mut rng);
            let psi = PolySignPlane::draw(rows, &mut rng);
            for len in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3, 100] {
                let values: Vec<u64> = (0..len as u64).map(|i| rng.next_u64() ^ i).collect();
                let deltas: Vec<i64> = (0..len).map(|i| 2 - (i % 5) as i64).collect();
                let mut lane = vec![0i64; rows];
                let mut serial = vec![0i64; rows];
                xi.accumulate_block_signed_product(&psi, &values, &deltas, &mut lane);
                xi.accumulate_block_signed_product_serial(&psi, &values, &deltas, &mut serial);
                assert_eq!(lane, serial, "rows={rows} len={len}");
            }
        }
    }

    #[test]
    fn scratch_reuse_across_blocks_is_bit_identical() {
        let mut rng = SplitMix64::new(9);
        let plane = PolySignPlane::draw(6, &mut rng);
        let mut scratch = crate::lanes::PlaneScratch::new();
        let mut reused = vec![0i64; 6];
        let mut fresh = vec![0i64; 6];
        // Shrinking then growing block sizes exercise the pad/clear
        // logic on a dirty scratch.
        for len in [40usize, 7, 0, 13, 64] {
            let values: Vec<u64> = (0..len as u64).map(|i| rng.next_u64() ^ i).collect();
            let deltas: Vec<i64> = (0..len).map(|i| 1 - (i % 3) as i64).collect();
            plane.accumulate_block_into(&values, &deltas, &mut reused, &mut scratch);
            plane.accumulate_block(&values, &deltas, &mut fresh);
        }
        assert_eq!(reused, fresh);
    }
}
