//! The sign-plane kernels. Each has exactly two implementations: an
//! explicit `std::arch` AVX2 split-limb tile kernel, compiled into every
//! x86_64 build and chosen at run time ([`uses_avx2`]), and the serial
//! u128 Horner kernel that every other CPU runs.
//!
//! The serial kernels evaluate each Horner step with
//! [`crate::field::lazy_mul_add`] — a widening `u64 × u64 → u128`
//! multiply. That is the cheapest *scalar* formulation, but LLVM cannot
//! vectorize a loop of 128-bit multiplies: x86 has no packed 64×64
//! multiply below AVX-512DQ. The AVX2 kernels reformulate the Horner
//! step so every intermediate fits a **u64 lane**, making the sweep
//! data-parallel across block elements. Without AVX2 that buys nothing:
//! a lane-parallel version at the baseline x86-64 instruction set
//! measured no faster than the serial chain.
//!
//! # Split-limb multiply-add in GF(2⁶¹−1)
//!
//! Keep the accumulator in the *redundant* range `acc < 2⁶²` (the same
//! representation `lazy_mul_add` uses) and split both operands into
//! 32-bit limbs: `acc = a₁·2³² + a₀`, `x = x₁·2³² + x₀` with `a₀, x₀ <
//! 2³²`, `a₁ < 2³⁰`, `x₁ < 2²⁹` (since `x < p < 2⁶¹`). Then
//!
//! ```text
//! acc·x = a₁x₁·2⁶⁴ + (a₁x₀ + a₀x₁)·2³² + a₀x₀
//! ```
//!
//! and each partial product fits u64: `a₀x₀ < 2⁶⁴`, `a₁x₀ + a₀x₁ <
//! 2⁶² + 2⁶¹ < 2⁶³`, `a₁x₁ < 2⁵⁹`. Because `2⁶¹ ≡ 1 (mod p)`, a shifted
//! term folds with the identity `v·2ᵏ ≡ (v ≫ (61−k)) + ((v ≪ k) & p)`:
//! the `2³²` term folds with `k = 32`, the `2⁶⁴ = 2³·2⁶¹ ≡ 2³` term with
//! `k = 3`, and `a₀x₀` directly with `k = 0`. Summing the three folded
//! terms and the next coefficient `c < p` gives
//!
//! ```text
//! t  <  (2⁶¹+8) + (2⁶¹+2³⁴) + (2⁶¹+2) + 2⁶¹  <  2⁶³⁺ᵋ  <  2⁶⁴,
//! ```
//!
//! and one more fold `(t ≫ 61) + (t & p) < 2⁶¹ + 8 < 2⁶²` restores the
//! redundant-range invariant for the next step. Three 32×32→64
//! multiplies plus shifts/masks/adds per step — exactly the operations
//! AVX2 provides per 64-bit lane (`vpmuludq`). [`split_mul_add`] is that
//! step on one lane, property-tested against the field; the AVX2
//! kernels perform it four lanes at a time.
//!
//! # Tile kernel
//!
//! The AVX2 block sweep is register-blocked: each tile evaluates
//! [`TILE_ROWS`] plane rows over [`LANES`] keys at once, so a loaded key
//! vector is reused across all rows of the tile before the next vector
//! is touched. Tails are masked, not branched: the key/delta columns
//! live in a [`PlaneScratch`] padded to a `LANES` multiple with
//! zero-delta entries (a zero delta contributes nothing regardless of
//! the padded key's sign), and row counts that are not a multiple of
//! `TILE_ROWS` finish with single-row tiles. Loading the scratch also
//! reduces every key into the field **once per block** instead of once
//! per row, and reusing one scratch across blocks makes steady-state
//! ingestion allocation-free on both paths (the serial sweep reads the
//! same columns).
//!
//! Equivalence of the two paths is pinned down by unit and property
//! tests over all alignments: both formulations agree with the true
//! polynomial modulo p, and the sign bit is read from the *canonical*
//! value, so counters match bit for bit. The dispatchers reach only one
//! kernel set per CPU, so this module's
//! `both_kernel_sets_match_the_u128_reference` test runs the serial set
//! directly and the AVX2 set through the dispatchers, in one test run.

use crate::field::{self, P};

/// Number of u64 lanes a tile sweeps per step (two AVX2 vectors).
pub const LANES: usize = 8;

/// Number of plane rows evaluated per register-blocked tile.
pub const TILE_ROWS: usize = 4;

const MASK32: u64 = 0xFFFF_FFFF;

/// One split-limb Horner step: returns a value `≡ acc·x + c (mod p)` in
/// the redundant range `< 2⁶²`, using only u64 arithmetic (three
/// 32×32→64 multiplies — the lane-parallel formulation of
/// [`field::lazy_mul_add`]; see the module docs for the bound analysis).
///
/// Accepts any `acc < 2⁶²` (canonical or redundant), `x < p`, `c < p`.
#[inline]
pub fn split_mul_add(acc: u64, x: u64, c: u64) -> u64 {
    debug_assert!((acc as u128) < (1 << 62) && x < P && c < P);
    let a0 = acc & MASK32;
    let a1 = acc >> 32; // < 2^30
    let x0 = x & MASK32;
    let x1 = x >> 32; // < 2^29
    let p00 = a0 * x0; // < 2^64
    let pmid = a1 * x0 + a0 * x1; // < 2^62 + 2^61 < 2^63
    let p11 = a1 * x1; // < 2^59
    let t = (p00 >> 61)
        + (p00 & P)
        + (pmid >> 29)
        + ((pmid << 32) & P)
        + (p11 >> 58)
        + ((p11 << 3) & P)
        + c; // < 2^64 (see module docs)
    (t >> 61) + (t & P) // < 2^61 + 8 < 2^62
}

/// Reusable block-ingestion scratch: the padded key/delta columns that
/// every polynomial block kernel sweeps.
///
/// Holding one `PlaneScratch` per sketch (what
/// `ams-core::TugOfWarSketch` and the join signatures do) makes
/// steady-state block ingestion perform **zero heap allocations**: the
/// vectors grow to the high-water block size once and are reused.
#[derive(Debug, Clone, Default)]
pub struct PlaneScratch {
    /// Keys reduced into `[0, p)`, padded to a `LANES` multiple with 0.
    xs: Vec<u64>,
    /// Deltas, padded to the same length with 0 (the tail mask: a zero
    /// delta contributes nothing whatever the padded key hashes to).
    ds: Vec<i64>,
}

impl PlaneScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a block: reduces every key into the field once and pads
    /// both columns to a `LANES` multiple with zero-delta entries.
    ///
    /// # Panics
    /// Panics if the column lengths differ.
    pub fn load(&mut self, values: &[u64], deltas: &[i64]) {
        assert_eq!(values.len(), deltas.len(), "values/deltas length mismatch");
        let padded = values.len().div_ceil(LANES) * LANES;
        self.xs.clear();
        self.xs.reserve(padded);
        self.xs.extend(values.iter().map(|&v| field::reduce64(v)));
        self.xs.resize(padded, 0);
        self.ds.clear();
        self.ds.reserve(padded);
        self.ds.extend_from_slice(deltas);
        self.ds.resize(padded, 0);
    }

    /// The padded reduced-key column of the loaded block.
    pub fn xs(&self) -> &[u64] {
        &self.xs
    }

    /// The padded delta column of the loaded block.
    pub fn ds(&self) -> &[i64] {
        &self.ds
    }
}

// ---------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------

/// Whether the kernels below run their AVX2 path: true on an x86_64
/// CPU with AVX2, checked at run time (`std` caches the answer). The
/// four dispatchers branch on it, and nothing else selects a kernel.
#[inline]
pub fn uses_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    avx2
}

/// Sweeps every row of a polynomial plane over a loaded scratch block:
/// `counters[row] += Σ_j sign_row(xs[j]) · ds[j]`.
///
/// Columns must be padded to a `LANES` multiple (what
/// [`PlaneScratch::load`] produces). Runs the AVX2 path when
/// [`uses_avx2`] holds and the bit-identical serial u128 path otherwise.
#[inline]
pub(crate) fn poly_sweep<const K: usize>(
    cols: &[Vec<u64>; K],
    rows: usize,
    xs: &[u64],
    ds: &[i64],
    counters: &mut [i64],
) {
    #[cfg(target_arch = "x86_64")]
    if uses_avx2() {
        // SAFETY: the CPU supports AVX2, checked at run time just above.
        #[allow(unsafe_code)]
        unsafe {
            avx2::poly_sweep::<K>(cols, rows, xs, ds, counters)
        };
        return;
    }
    serial::poly_sweep::<K>(cols, rows, xs, ds, counters);
}

/// Sweeps every row of a *pair* of polynomial planes over a loaded
/// scratch block, folding the product of their signs:
/// `counters[row] += Σ_j ξ_row(xs[j]) · ψ_row(xs[j]) · ds[j]`.
#[inline]
pub(crate) fn product_sweep<const K: usize>(
    xi: &[Vec<u64>; K],
    psi: &[Vec<u64>; K],
    rows: usize,
    xs: &[u64],
    ds: &[i64],
    counters: &mut [i64],
) {
    #[cfg(target_arch = "x86_64")]
    if uses_avx2() {
        // SAFETY: the CPU supports AVX2, checked at run time just above.
        #[allow(unsafe_code)]
        unsafe {
            avx2::product_sweep::<K>(xi, psi, rows, xs, ds, counters)
        };
        return;
    }
    serial::product_sweep::<K>(xi, psi, rows, xs, ds, counters);
}

/// Key-major evaluation of a polynomial plane: the signs of rows
/// `first_row, first_row + 1, …` at one key `x` (already reduced into
/// the field), 64 rows per output word, bit `r % 64` set iff that row
/// maps the key to −1. Rows past the plane's end leave zero bits. On
/// the AVX2 path the rows sit in the lanes and the key is broadcast —
/// the transpose of [`poly_sweep`]; the serial path runs each row's
/// chain in turn. Both read the canonical parity, so every bit equals
/// the block kernel's sign.
#[inline]
pub(crate) fn poly_sign_bits<const K: usize>(
    cols: &[Vec<u64>; K],
    first_row: usize,
    x: u64,
    bits: &mut [u64],
) {
    #[cfg(target_arch = "x86_64")]
    if uses_avx2() {
        // SAFETY: the CPU supports AVX2, checked at run time just above.
        #[allow(unsafe_code)]
        unsafe {
            avx2::poly_sign_bits::<K>(cols, first_row, x, bits)
        };
        return;
    }
    serial::poly_sign_bits::<K>(cols, first_row, x, bits);
}

/// Adds `delta` to each counter whose sign bit is clear and subtracts
/// it from each whose bit is set (bit `r % 64` of `bits[r / 64]` for
/// counter `r`), branch-free.
#[inline]
pub(crate) fn apply_sign_bits(bits: &[u64], delta: i64, counters: &mut [i64]) {
    #[cfg(target_arch = "x86_64")]
    if uses_avx2() {
        // SAFETY: the CPU supports AVX2, checked at run time just above.
        #[allow(unsafe_code)]
        unsafe {
            avx2::apply_sign_bits(bits, delta, counters)
        };
        return;
    }
    serial::apply_sign_bits(bits, delta, counters);
}

// ---------------------------------------------------------------------
// serial u128 fallback (any CPU)
// ---------------------------------------------------------------------

/// The serial kernels: one [`field::lazy_mul_add`] widening multiply per
/// Horner step, one row and one key at a time. They run wherever the
/// AVX2 path cannot, and [`crate::plane::PolyPlane`]'s `_serial` methods
/// call them directly as the bit-for-bit reference.
pub(crate) mod serial {
    use super::field;

    /// Row `row`'s coefficients, lowest degree first.
    #[inline(always)]
    fn row_coeffs<const K: usize>(cols: &[Vec<u64>; K], row: usize) -> [u64; K] {
        std::array::from_fn(|c| cols[c][row])
    }

    /// One Horner chain at one reduced key, in the redundant
    /// representation, with one canonicalization for the parity.
    #[inline(always)]
    fn parity<const K: usize>(coeffs: &[u64; K], x: u64) -> u64 {
        let mut h = coeffs[K - 1];
        for &c in coeffs[..K - 1].iter().rev() {
            h = field::lazy_mul_add(h, x, c);
        }
        field::reduce64(h) & 1
    }

    /// Row `row`'s sign parity at the reduced key `x`.
    #[inline(always)]
    pub(crate) fn row_parity<const K: usize>(cols: &[Vec<u64>; K], row: usize, x: u64) -> u64 {
        parity(&row_coeffs(cols, row), x)
    }

    /// `delta` signed by a parity bit (set = −1), branch-free.
    #[inline(always)]
    fn signed(parity: u64, delta: i64) -> i64 {
        let mask = (parity as i64).wrapping_neg();
        (delta ^ mask) - mask
    }

    pub(crate) fn poly_sweep<const K: usize>(
        cols: &[Vec<u64>; K],
        rows: usize,
        xs: &[u64],
        ds: &[i64],
        counters: &mut [i64],
    ) {
        for (row, z) in counters[..rows].iter_mut().enumerate() {
            // The row's coefficients stay in registers for the block.
            let c = row_coeffs(cols, row);
            *z += xs
                .iter()
                .zip(ds)
                .map(|(&x, &d)| signed(parity(&c, x), d))
                .sum::<i64>();
        }
    }

    pub(crate) fn product_sweep<const K: usize>(
        xi: &[Vec<u64>; K],
        psi: &[Vec<u64>; K],
        rows: usize,
        xs: &[u64],
        ds: &[i64],
        counters: &mut [i64],
    ) {
        for (row, z) in counters[..rows].iter_mut().enumerate() {
            let (cx, cp) = (row_coeffs(xi, row), row_coeffs(psi, row));
            // Product sign: −1 iff exactly one parity is odd.
            *z += xs
                .iter()
                .zip(ds)
                .map(|(&x, &d)| signed(parity(&cx, x) ^ parity(&cp, x), d))
                .sum::<i64>();
        }
    }

    pub(crate) fn poly_sign_bits<const K: usize>(
        cols: &[Vec<u64>; K],
        first_row: usize,
        x: u64,
        bits: &mut [u64],
    ) {
        let rows = cols[0].len();
        for (w, word) in bits.iter_mut().enumerate() {
            let start = (first_row + 64 * w).min(rows);
            let end = (start + 64).min(rows);
            *word = (start..end).fold(0, |out, r| out | row_parity(cols, r, x) << (r - start));
        }
    }

    #[inline(always)]
    pub(crate) fn apply_sign_bits(bits: &[u64], delta: i64, counters: &mut [i64]) {
        for (&word, chunk) in bits.iter().zip(counters.chunks_mut(64)) {
            for (j, z) in chunk.iter_mut().enumerate() {
                *z += signed((word >> j) & 1, delta);
            }
        }
    }
}

// ---------------------------------------------------------------------
// explicit AVX2 path (every x86_64 build, chosen at run time)
// ---------------------------------------------------------------------

/// `std::arch` AVX2 kernels: the split-limb tile sweep with the partial
/// products on `_mm256_mul_epu32` (packed 32×32→64) and the folds on
/// packed shifts/masks — four keys per vector, two vectors per `LANES`
/// step. Each lane computes [`super::split_mul_add`]; the canonical
/// parity makes the counters bit-identical to the serial path.
/// Compiled on every x86_64 build; only the four
/// dispatchers above call into it, each behind its [`uses_avx2`]
/// check, so this module and those call sites hold the crate's only
/// `unsafe` code.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{LANES, P, TILE_ROWS};
    use core::arch::x86_64::*;

    /// One split-limb Horner step on four u64 lanes. `x`/`xhi` are the
    /// key vector and its high limbs (hoisted per chunk); `c` is the
    /// broadcast coefficient; `pv` the broadcast modulus.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_add4(acc: __m256i, x: __m256i, xhi: __m256i, c: __m256i, pv: __m256i) -> __m256i {
        let ahi = _mm256_srli_epi64::<32>(acc);
        // mul_epu32 reads only the low 32 bits of each lane: exactly the
        // a₀x₀ / a₁x₀ / a₀x₁ / a₁x₁ limb products.
        let p00 = _mm256_mul_epu32(acc, x);
        let pmid = _mm256_add_epi64(_mm256_mul_epu32(ahi, x), _mm256_mul_epu32(acc, xhi));
        let p11 = _mm256_mul_epu32(ahi, xhi);
        let t00 = _mm256_add_epi64(_mm256_srli_epi64::<61>(p00), _mm256_and_si256(p00, pv));
        let tmid = _mm256_add_epi64(
            _mm256_srli_epi64::<29>(pmid),
            _mm256_and_si256(_mm256_slli_epi64::<32>(pmid), pv),
        );
        let t11 = _mm256_add_epi64(
            _mm256_srli_epi64::<58>(p11),
            _mm256_and_si256(_mm256_slli_epi64::<3>(p11), pv),
        );
        let t = _mm256_add_epi64(_mm256_add_epi64(t00, tmid), _mm256_add_epi64(t11, c));
        _mm256_add_epi64(_mm256_srli_epi64::<61>(t), _mm256_and_si256(t, pv))
    }

    /// `-(parity of canonical value)` per lane: all-ones for −1, zero
    /// for +1. `acc < 2⁶²` folds to `folded ≤ 2⁶¹`; subtracting p (odd)
    /// when `folded ≥ p` flips the low bit, so the canonical parity is
    /// `(folded & 1) ^ (folded ≥ p)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sign_mask4(acc: __m256i, pv: __m256i, pm1: __m256i, one: __m256i) -> __m256i {
        let folded = _mm256_add_epi64(_mm256_srli_epi64::<61>(acc), _mm256_and_si256(acc, pv));
        // Both operands are < 2⁶², so the signed compare is exact.
        let ge = _mm256_cmpgt_epi64(folded, pm1);
        let parity = _mm256_and_si256(_mm256_xor_si256(folded, ge), one);
        _mm256_sub_epi64(_mm256_setzero_si256(), parity)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horizontal_sum(v: [__m256i; 2]) -> i64 {
        let mut lanes = [0i64; LANES];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v[0]);
        _mm256_storeu_si256(lanes[4..].as_mut_ptr().cast(), v[1]);
        lanes.iter().sum()
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_tile<const K: usize, const R: usize>(
        cols: &[Vec<u64>; K],
        row0: usize,
        xs: &[u64],
        ds: &[i64],
        out: &mut [i64; R],
    ) {
        let pv = _mm256_set1_epi64x(P as i64);
        let pm1 = _mm256_set1_epi64x((P - 1) as i64);
        let one = _mm256_set1_epi64x(1);
        let mut sums = [[_mm256_setzero_si256(); 2]; R];
        for (xc, dc) in xs.chunks_exact(LANES).zip(ds.chunks_exact(LANES)) {
            for h in 0..2 {
                let x = _mm256_loadu_si256(xc[4 * h..].as_ptr().cast());
                let xhi = _mm256_srli_epi64::<32>(x);
                let d = _mm256_loadu_si256(dc[4 * h..].as_ptr().cast());
                for (r, sum) in sums.iter_mut().enumerate() {
                    let mut acc = _mm256_set1_epi64x(cols[K - 1][row0 + r] as i64);
                    for c in (0..K - 1).rev() {
                        let cv = _mm256_set1_epi64x(cols[c][row0 + r] as i64);
                        acc = mul_add4(acc, x, xhi, cv, pv);
                    }
                    let mask = sign_mask4(acc, pv, pm1, one);
                    let contrib = _mm256_sub_epi64(_mm256_xor_si256(d, mask), mask);
                    sum[h] = _mm256_add_epi64(sum[h], contrib);
                }
            }
        }
        for (o, sum) in out.iter_mut().zip(sums) {
            *o = horizontal_sum(sum);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_product_tile<const K: usize, const R: usize>(
        xi: &[Vec<u64>; K],
        psi: &[Vec<u64>; K],
        row0: usize,
        xs: &[u64],
        ds: &[i64],
        out: &mut [i64; R],
    ) {
        let pv = _mm256_set1_epi64x(P as i64);
        let pm1 = _mm256_set1_epi64x((P - 1) as i64);
        let one = _mm256_set1_epi64x(1);
        let mut sums = [[_mm256_setzero_si256(); 2]; R];
        for (xc, dc) in xs.chunks_exact(LANES).zip(ds.chunks_exact(LANES)) {
            for h in 0..2 {
                let x = _mm256_loadu_si256(xc[4 * h..].as_ptr().cast());
                let xhi = _mm256_srli_epi64::<32>(x);
                let d = _mm256_loadu_si256(dc[4 * h..].as_ptr().cast());
                for (r, sum) in sums.iter_mut().enumerate() {
                    let mut ax = _mm256_set1_epi64x(xi[K - 1][row0 + r] as i64);
                    let mut ap = _mm256_set1_epi64x(psi[K - 1][row0 + r] as i64);
                    for c in (0..K - 1).rev() {
                        let cx = _mm256_set1_epi64x(xi[c][row0 + r] as i64);
                        let cp = _mm256_set1_epi64x(psi[c][row0 + r] as i64);
                        ax = mul_add4(ax, x, xhi, cx, pv);
                        ap = mul_add4(ap, x, xhi, cp, pv);
                    }
                    // Product sign: −1 iff exactly one parity is odd —
                    // XOR of the two sign masks.
                    let mask = _mm256_xor_si256(
                        sign_mask4(ax, pv, pm1, one),
                        sign_mask4(ap, pv, pm1, one),
                    );
                    let contrib = _mm256_sub_epi64(_mm256_xor_si256(d, mask), mask);
                    sum[h] = _mm256_add_epi64(sum[h], contrib);
                }
            }
        }
        for (o, sum) in out.iter_mut().zip(sums) {
            *o = horizontal_sum(sum);
        }
    }

    /// Row-major block sweep: [`TILE_ROWS`]-row tiles, then single rows.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn poly_sweep<const K: usize>(
        cols: &[Vec<u64>; K],
        rows: usize,
        xs: &[u64],
        ds: &[i64],
        counters: &mut [i64],
    ) {
        let mut row = 0;
        while row + TILE_ROWS <= rows {
            let mut out = [0i64; TILE_ROWS];
            sweep_tile::<K, TILE_ROWS>(cols, row, xs, ds, &mut out);
            for (z, o) in counters[row..row + TILE_ROWS].iter_mut().zip(out) {
                *z += o;
            }
            row += TILE_ROWS;
        }
        while row < rows {
            let mut out = [0i64; 1];
            sweep_tile::<K, 1>(cols, row, xs, ds, &mut out);
            counters[row] += out[0];
            row += 1;
        }
    }

    /// Key-major sign bits: four rows per vector against the broadcast
    /// key, each vector's four sign masks packed by `movemask`.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn poly_sign_bits<const K: usize>(
        cols: &[Vec<u64>; K],
        first_row: usize,
        x: u64,
        bits: &mut [u64],
    ) {
        let pv = _mm256_set1_epi64x(P as i64);
        let pm1 = _mm256_set1_epi64x((P - 1) as i64);
        let one = _mm256_set1_epi64x(1);
        let xv = _mm256_set1_epi64x(x as i64);
        let xhi = _mm256_srli_epi64::<32>(xv);
        let rows = cols[0].len();
        for (w, word) in bits.iter_mut().enumerate() {
            let start = (first_row + 64 * w).min(rows);
            let end = (start + 64).min(rows);
            let mut out = 0u64;
            let mut row = start;
            while row + 4 <= end {
                let mut acc = _mm256_loadu_si256(cols[K - 1][row..row + 4].as_ptr().cast());
                for col in cols[..K - 1].iter().rev() {
                    let cv = _mm256_loadu_si256(col[row..row + 4].as_ptr().cast());
                    acc = mul_add4(acc, xv, xhi, cv, pv);
                }
                let mask = sign_mask4(acc, pv, pm1, one);
                let nibble = _mm256_movemask_pd(_mm256_castsi256_pd(mask)) as u64;
                out |= nibble << (row - start);
                row += 4;
            }
            for r in row..end {
                out |= super::serial::row_parity(cols, r, x) << (r - start);
            }
            *word = out;
        }
    }

    /// `±delta` into four counters per vector, each lane's mask taken
    /// from its bit by a variable shift.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn apply_sign_bits(bits: &[u64], delta: i64, counters: &mut [i64]) {
        let d = _mm256_set1_epi64x(delta);
        let one = _mm256_set1_epi64x(1);
        let zero = _mm256_setzero_si256();
        for (&word, chunk) in bits.iter().zip(counters.chunks_mut(64)) {
            // Lane i holds the word shifted right by i; every step
            // moves all four lanes on by four bits.
            let mut shifted = _mm256_srlv_epi64(
                _mm256_set1_epi64x(word as i64),
                _mm256_setr_epi64x(0, 1, 2, 3),
            );
            let len = chunk.len();
            let mut quads = chunk.chunks_exact_mut(4);
            for quad in &mut quads {
                let mask = _mm256_sub_epi64(zero, _mm256_and_si256(shifted, one));
                let contrib = _mm256_sub_epi64(_mm256_xor_si256(d, mask), mask);
                let z = _mm256_loadu_si256(quad.as_ptr().cast());
                _mm256_storeu_si256(quad.as_mut_ptr().cast(), _mm256_add_epi64(z, contrib));
                shifted = _mm256_srli_epi64::<4>(shifted);
            }
            let tail = quads.into_remainder();
            if !tail.is_empty() {
                let done = len - tail.len();
                super::serial::apply_sign_bits(&[word >> done], delta, tail);
            }
        }
    }

    /// Two-plane product sweep: half-height tiles, then single rows.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn product_sweep<const K: usize>(
        xi: &[Vec<u64>; K],
        psi: &[Vec<u64>; K],
        rows: usize,
        xs: &[u64],
        ds: &[i64],
        counters: &mut [i64],
    ) {
        const R: usize = TILE_ROWS / 2;
        let mut row = 0;
        while row + R <= rows {
            let mut out = [0i64; R];
            sweep_product_tile::<K, R>(xi, psi, row, xs, ds, &mut out);
            for (z, o) in counters[row..row + R].iter_mut().zip(out) {
                *z += o;
            }
            row += R;
        }
        while row < rows {
            let mut out = [0i64; 1];
            sweep_product_tile::<K, 1>(xi, psi, row, xs, ds, &mut out);
            counters[row] += out[0];
            row += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field;
    use crate::rng::SplitMix64;

    #[test]
    fn split_mul_add_matches_canonical_field_arithmetic() {
        let cases = [0u64, 1, 2, P - 1, P / 2, 948_372_932_112, (1 << 61) - 7];
        for &a in &cases {
            for &x in &cases {
                for &c in &cases {
                    let (a, x, c) = (field::reduce64(a), field::reduce64(x), field::reduce64(c));
                    let split = split_mul_add(a, x, c);
                    assert!((split as u128) < (1 << 62), "redundant bound violated");
                    assert_eq!(
                        field::reduce64(split),
                        field::add(field::mul(a, x), c),
                        "a={a} x={x} c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_mul_add_accepts_redundant_accumulators() {
        // The chain invariant admits any acc < 2^62, not just canonical
        // values; feed it the extremes.
        let mut rng = SplitMix64::new(7);
        for _ in 0..2_000 {
            let acc = rng.next_u64() & ((1 << 62) - 1);
            let x = rng.next_below(P);
            let c = rng.next_below(P);
            let split = split_mul_add(acc, x, c);
            assert!((split as u128) < (1 << 62));
            let expected = field::add(field::mul(field::reduce64(acc), x), c);
            assert_eq!(field::reduce64(split), expected);
        }
        for acc in [(1u64 << 62) - 1, (1 << 62) - 2, 1 << 61, P, P + 1] {
            let split = split_mul_add(acc, P - 3, P - 9);
            assert_eq!(
                field::reduce64(split),
                field::add(field::mul(field::reduce64(acc), P - 3), P - 9)
            );
        }
    }

    #[test]
    fn split_chain_matches_lazy_u128_chain() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..500 {
            let coeffs: [u64; 4] = std::array::from_fn(|_| rng.next_below(P));
            let x = field::reduce64(rng.next_u64());
            let mut lazy = coeffs[3];
            let mut split = coeffs[3];
            for &c in coeffs[..3].iter().rev() {
                lazy = field::lazy_mul_add(lazy, x, c);
                split = split_mul_add(split, x, c);
            }
            assert_eq!(field::reduce64(split), field::reduce64(lazy));
        }
    }

    #[test]
    fn scratch_pads_to_lane_multiple_with_zero_deltas() {
        let mut scratch = PlaneScratch::new();
        scratch.load(&[u64::MAX, 5, P + 1], &[1, -2, 3]);
        assert_eq!(scratch.xs().len(), LANES);
        assert_eq!(scratch.ds().len(), LANES);
        assert_eq!(scratch.xs()[..3], [field::reduce64(u64::MAX), 5, 1]);
        assert!(scratch.xs()[3..].iter().all(|&x| x == 0));
        assert_eq!(scratch.ds()[..3], [1, -2, 3]);
        assert!(scratch.ds()[3..].iter().all(|&d| d == 0));
        // Reload with an exact multiple: no padding.
        let values: Vec<u64> = (0..2 * LANES as u64).collect();
        let deltas = vec![1i64; 2 * LANES];
        scratch.load(&values, &deltas);
        assert_eq!(scratch.xs().len(), 2 * LANES);
    }

    #[test]
    fn empty_block_loads_empty() {
        let mut scratch = PlaneScratch::new();
        scratch.load(&[], &[]);
        assert!(scratch.xs().is_empty() && scratch.ds().is_empty());
    }

    type Sweep<const K: usize> = fn(&[Vec<u64>; K], usize, &[u64], &[i64], &mut [i64]);
    type ProductSweep<const K: usize> =
        fn(&[Vec<u64>; K], &[Vec<u64>; K], usize, &[u64], &[i64], &mut [i64]);

    /// One kernel set as plain function pointers.
    struct Kernels<const K: usize> {
        name: &'static str,
        sweep: Sweep<K>,
        product: ProductSweep<K>,
        sign_bits: fn(&[Vec<u64>; K], usize, u64, &mut [u64]),
        apply: fn(&[u64], i64, &mut [i64]),
    }

    /// The serial fallback, called directly, and the dispatchers, which
    /// are the only way into the AVX2 kernels (so the `unsafe` stays at
    /// the dispatch sites). On a CPU without AVX2 the second set is the
    /// serial path again.
    fn kernel_sets<const K: usize>() -> [Kernels<K>; 2] {
        [
            Kernels {
                name: "serial",
                sweep: serial::poly_sweep::<K>,
                product: serial::product_sweep::<K>,
                sign_bits: serial::poly_sign_bits::<K>,
                apply: serial::apply_sign_bits,
            },
            Kernels {
                name: if uses_avx2() {
                    "avx2"
                } else {
                    "dispatched serial"
                },
                sweep: poly_sweep::<K>,
                product: product_sweep::<K>,
                sign_bits: poly_sign_bits::<K>,
                apply: apply_sign_bits,
            },
        ]
    }

    /// Row `row`'s sign parity at the reduced key `x`, by the serial
    /// u128 Horner chain.
    fn reference_parity<const K: usize>(cols: &[Vec<u64>; K], row: usize, x: u64) -> u64 {
        let mut h = cols[K - 1][row];
        for col in cols[..K - 1].iter().rev() {
            h = field::lazy_mul_add(h, x, col[row]);
        }
        field::reduce64(h) & 1
    }

    /// `delta` signed by a parity bit (set = −1).
    fn signed(parity: u64, delta: i64) -> i64 {
        if parity == 1 {
            -delta
        } else {
            delta
        }
    }

    fn draw_plane<const K: usize>(rows: usize, rng: &mut SplitMix64) -> [Vec<u64>; K] {
        std::array::from_fn(|_| (0..rows).map(|_| rng.next_below(P)).collect())
    }

    fn draw_counters(rows: usize, rng: &mut SplitMix64) -> Vec<i64> {
        (0..rows)
            .map(|_| rng.next_below(1_000) as i64 - 500)
            .collect()
    }

    fn check_kernel_sets<const K: usize>() {
        let sets = kernel_sets::<K>();
        let mut rng = SplitMix64::new(0x5EED + K as u64);
        // The longest block first, so every later load reuses a dirty
        // scratch.
        let lengths = [257, 0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 5];
        let mut scratch = PlaneScratch::new();
        for len in lengths {
            let mut values: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            if let Some(v) = values.first_mut() {
                *v = u64::MAX; // a key above p
            }
            let deltas: Vec<i64> = (0..len).map(|_| rng.next_below(7) as i64 - 3).collect();
            scratch.load(&values, &deltas);
            let keys = &scratch.xs()[..len];

            // Row-major block sweeps, one plane and a product pair.
            for rows in 1..=2 * TILE_ROWS + 1 {
                let xi = draw_plane::<K>(rows, &mut rng);
                let psi = draw_plane::<K>(rows, &mut rng);
                let start = draw_counters(rows, &mut rng);
                let (mut want, mut want_product) = (start.clone(), start.clone());
                for r in 0..rows {
                    for (&x, &d) in keys.iter().zip(&deltas) {
                        let (a, b) = (reference_parity(&xi, r, x), reference_parity(&psi, r, x));
                        want[r] += signed(a, d);
                        want_product[r] += signed(a ^ b, d);
                    }
                }
                for set in &sets {
                    let what = format!("{} K={K} len={len} rows={rows}", set.name);
                    let mut got = start.clone();
                    (set.sweep)(&xi, rows, scratch.xs(), scratch.ds(), &mut got);
                    assert_eq!(got, want, "poly_sweep {what}");
                    let mut got = start.clone();
                    (set.product)(&xi, &psi, rows, scratch.xs(), scratch.ds(), &mut got);
                    assert_eq!(got, want_product, "product_sweep {what}");
                }
            }

            // Key-major: each key's bits, then its delta applied from them.
            for rows in (1..=2 * TILE_ROWS + 1).chain([63, 64, 65, 256]) {
                let cols = draw_plane::<K>(rows, &mut rng);
                let start = draw_counters(rows, &mut rng);
                let words = rows.div_ceil(64);
                let mut want = start.clone();
                let want_bits: Vec<Vec<u64>> = keys
                    .iter()
                    .zip(&deltas)
                    .map(|(&x, &d)| {
                        let mut bits = vec![0u64; words];
                        for (r, z) in want.iter_mut().enumerate() {
                            let parity = reference_parity(&cols, r, x);
                            bits[r / 64] |= parity << (r % 64);
                            *z += signed(parity, d);
                        }
                        bits
                    })
                    .collect();
                for set in &sets {
                    let what = format!("{} K={K} len={len} rows={rows}", set.name);
                    let mut got = start.clone();
                    for ((&x, &d), want_bits) in keys.iter().zip(&deltas).zip(&want_bits) {
                        // Dirty words, one past the plane's end that must
                        // come back zero.
                        let mut bits = vec![u64::MAX; words + 1];
                        (set.sign_bits)(&cols, 0, x, &mut bits);
                        assert_eq!(bits[..words], want_bits[..], "poly_sign_bits {what}");
                        assert_eq!(bits[words], 0, "poly_sign_bits past the end {what}");
                        for (w, &want_word) in want_bits.iter().enumerate() {
                            let mut word = [u64::MAX];
                            (set.sign_bits)(&cols, 64 * w, x, &mut word);
                            assert_eq!(word[0], want_word, "poly_sign_bits word {w} {what}");
                        }
                        (set.apply)(&bits[..words], d, &mut got);
                    }
                    assert_eq!(got, want, "apply_sign_bits {what}");
                }
            }
        }
    }

    #[test]
    fn both_kernel_sets_match_the_u128_reference() {
        check_kernel_sets::<2>();
        check_kernel_sets::<4>();
    }

    /// The kernel choice is the CPU's alone: no cargo feature or build
    /// option turns the AVX2 path on or off.
    #[test]
    fn dispatch_follows_the_cpu_in_every_build() {
        #[cfg(target_arch = "x86_64")]
        let cpu = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let cpu = false;
        assert_eq!(uses_avx2(), cpu);
    }
}
