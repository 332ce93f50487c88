//! Property-based tests for the hashing substrate.

use ams_hash::field;
use ams_hash::gf2;
use ams_hash::kwise::{FourWisePoly, TwoWisePoly};
use ams_hash::lanes::{self, PlaneScratch, LANES};
use ams_hash::plane::{apply_sign_bits, sign_words, PolySignPlane, SignPlane, TwoWiseSignPlane};
use ams_hash::rng::SplitMix64;
use ams_hash::sign::{BchSignHash, PolySign, SignFamily, SignHash, TabulationSign, TwoWiseSign};
use proptest::prelude::*;

fn field_elem() -> impl Strategy<Value = u64> {
    (0..field::P).prop_map(|x| x)
}

/// A plane drawn from a seed must evaluate every row exactly like the
/// corresponding per-item function drawn from the same seed stream, via
/// both its scalar and its block kernel.
fn plane_matches_per_item<H: SignFamily>(seed: u64, rows: usize, keys: &[u64]) -> bool {
    let mut plane_rng = SplitMix64::new(seed);
    let plane = H::Plane::draw(rows, &mut plane_rng);
    let mut item_rng = SplitMix64::new(seed);
    let hashes: Vec<H> = (0..rows).map(|_| H::draw(&mut item_rng)).collect();

    let scalar_ok = hashes
        .iter()
        .enumerate()
        .all(|(row, h)| keys.iter().all(|&k| plane.sign(row, k) == h.sign(k)));

    let deltas = vec![1i64; keys.len()];
    let mut block_counters = vec![0i64; rows];
    plane.accumulate_block(keys, &deltas, &mut block_counters);
    let item_counters: Vec<i64> = hashes
        .iter()
        .map(|h| keys.iter().map(|&k| h.sign(k)).sum())
        .collect();

    scalar_ok && block_counters == item_counters
}

/// A plane's key-major `sign_bits` must equal its per-row `sign` on
/// every row, leave the bits past the last row clear, and — through
/// `apply_sign_bits` — move the counters exactly like `accumulate_one`.
fn sign_bits_match_per_row_sign<H: SignFamily>(seed: u64, rows: usize, keys: &[u64]) -> bool {
    let plane = H::Plane::draw(rows, &mut SplitMix64::new(seed));
    let mut bits = vec![u64::MAX; sign_words(rows)];
    let mut via_bits = vec![0i64; rows];
    let mut via_one = vec![0i64; rows];
    keys.iter().enumerate().all(|(i, &key)| {
        plane.sign_bits(key, &mut bits);
        let rows_ok = (0..rows).all(|r| {
            let negative = bits[r / 64] >> (r % 64) & 1 == 1;
            negative == (plane.sign(r, key) == -1)
        });
        let tail_ok = rows.is_multiple_of(64) || bits[rows / 64] >> (rows % 64) == 0;
        let delta = i as i64 % 7 - 3;
        apply_sign_bits(&bits, delta, &mut via_bits);
        plane.accumulate_one(key, delta, &mut via_one);
        rows_ok && tail_ok && via_bits == via_one
    })
}

proptest! {
    /// Key-major sign bits ≡ per-row signs for every plane, at row
    /// counts around the 64-bit word boundary and at s = 256, always
    /// including the keys 0 and `u64::MAX`.
    #[test]
    fn sign_bits_equal_per_row_sign_for_all_planes(
        seed in any::<u64>(),
        rows in (0usize..5).prop_map(|i| [1, 63, 64, 65, 256][i]),
        drawn in proptest::collection::vec(any::<u64>(), 0..16),
    ) {
        let keys: Vec<u64> = [0, u64::MAX].into_iter().chain(drawn).collect();
        prop_assert!(sign_bits_match_per_row_sign::<PolySign>(seed, rows, &keys), "PolySignPlane");
        prop_assert!(sign_bits_match_per_row_sign::<TwoWiseSign>(seed, rows, &keys), "TwoWiseSignPlane");
        prop_assert!(sign_bits_match_per_row_sign::<BchSignHash>(seed, rows, &keys), "RowPlane<BchSignHash>");
        prop_assert!(sign_bits_match_per_row_sign::<TabulationSign>(seed, rows, &keys), "RowPlane<TabulationSign>");
    }

    #[test]
    fn field_add_commutes(a in field_elem(), b in field_elem()) {
        prop_assert_eq!(field::add(a, b), field::add(b, a));
    }

    #[test]
    fn field_mul_commutes(a in field_elem(), b in field_elem()) {
        prop_assert_eq!(field::mul(a, b), field::mul(b, a));
    }

    #[test]
    fn field_mul_matches_u128_modulo(a in field_elem(), b in field_elem()) {
        let expected = ((a as u128 * b as u128) % field::P as u128) as u64;
        prop_assert_eq!(field::mul(a, b), expected);
    }

    #[test]
    fn field_distributes(a in field_elem(), b in field_elem(), c in field_elem()) {
        let lhs = field::mul(a, field::add(b, c));
        let rhs = field::add(field::mul(a, b), field::mul(a, c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn field_inverse_cancels(a in 1..field::P) {
        let ai = field::inv(a).unwrap();
        prop_assert_eq!(field::mul(a, ai), 1);
    }

    #[test]
    fn reduce64_idempotent(x in any::<u64>()) {
        let r = field::reduce64(x);
        prop_assert!(r < field::P);
        prop_assert_eq!(field::reduce64(r), r);
    }

    #[test]
    fn gf2_mul_commutes_and_distributes(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        prop_assert_eq!(gf2::mul(a, b), gf2::mul(b, a));
        prop_assert_eq!(gf2::mul(a, b ^ c), gf2::mul(a, b) ^ gf2::mul(a, c));
    }

    #[test]
    fn gf2_frobenius(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(gf2::square(a ^ b), gf2::square(a) ^ gf2::square(b));
    }

    #[test]
    fn poly_hash_deterministic(seed in any::<u64>(), key in any::<u64>()) {
        let h1 = FourWisePoly::from_seed(seed);
        let h2 = FourWisePoly::from_seed(seed);
        prop_assert_eq!(h1.hash(key), h2.hash(key));
        prop_assert!(h1.hash(key) < field::P);
    }

    #[test]
    fn two_wise_affine_structure(seed in any::<u64>(), x in field_elem(), y in field_elem()) {
        // h(x) − h(y) = a·(x − y) for the linear family: difference of
        // hashes is independent of the offset coefficient.
        let h = TwoWisePoly::from_seed(seed);
        let a = h.coeffs()[1];
        let diff = field::sub(h.hash(x), h.hash(y));
        prop_assert_eq!(diff, field::mul(a, field::sub(x, y)));
    }

    #[test]
    fn sign_hash_in_domain(seed in any::<u64>(), key in any::<u64>()) {
        let h = PolySign::from_seed(seed);
        let s = h.sign(key);
        prop_assert!(s == 1 || s == -1);
    }

    #[test]
    fn sign_planes_equal_per_item_families(
        seed in any::<u64>(),
        rows in 1usize..24,
        keys in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        prop_assert!(plane_matches_per_item::<PolySign>(seed, rows, &keys), "PolySign");
        prop_assert!(plane_matches_per_item::<TwoWiseSign>(seed, rows, &keys), "TwoWiseSign");
        prop_assert!(plane_matches_per_item::<BchSignHash>(seed, rows, &keys), "BchSignHash");
        prop_assert!(plane_matches_per_item::<TabulationSign>(seed, rows, &keys), "TabulationSign");
    }

    #[test]
    fn lazy_reduction_chain_matches_canonical_horner(
        coeffs in (0..field::P, 0..field::P, 0..field::P, 0..field::P),
        key in any::<u64>(),
    ) {
        // The branch-free redundant-representation kernel must agree
        // with the canonical field arithmetic on arbitrary polynomials.
        let (c0, c1, c2, c3) = coeffs;
        let x = field::reduce64(key);
        let lazy = field::reduce64(field::lazy_mul_add(
            field::lazy_mul_add(field::lazy_mul_add(c3, x, c2), x, c1),
            x,
            c0,
        ));
        let canon = field::add(
            field::mul(field::add(field::mul(field::add(field::mul(c3, x), c2), x), c1), x),
            c0,
        );
        prop_assert_eq!(lazy, canon);
    }

    /// The split-limb lane step must agree with canonical field
    /// arithmetic on arbitrary *canonical* operands.
    #[test]
    fn split_mul_add_matches_field_on_canonical_inputs(
        a in field_elem(), x in field_elem(), c in field_elem(),
    ) {
        let split = lanes::split_mul_add(a, x, c);
        prop_assert!((split as u128) < (1 << 62), "redundant bound violated");
        prop_assert_eq!(field::reduce64(split), field::add(field::mul(a, x), c));
    }

    /// …and on arbitrary *redundant-representation* accumulators (any
    /// value < 2⁶², the chain invariant), including chained steps.
    #[test]
    fn split_mul_add_matches_field_on_redundant_inputs(
        raw_acc in any::<u64>(), x in field_elem(), c in field_elem(), c2 in field_elem(),
    ) {
        let acc = raw_acc & ((1u64 << 62) - 1);
        let split = lanes::split_mul_add(acc, x, c);
        prop_assert!((split as u128) < (1 << 62));
        let canon = field::add(field::mul(field::reduce64(acc), x), c);
        prop_assert_eq!(field::reduce64(split), canon);
        // One more chained step from the redundant output.
        let split2 = lanes::split_mul_add(split, x, c2);
        prop_assert_eq!(field::reduce64(split2), field::add(field::mul(canon, x), c2));
    }

    /// The lane/tile kernel must produce bit-identical counters to the
    /// serial u128 reference kernel for arbitrary shapes (the generated
    /// lengths straddle the LANES boundary and the row counts every
    /// tile-tail case), through a dirty reused scratch.
    #[test]
    fn lane_tile_kernel_equals_serial_kernel(
        seed in any::<u64>(),
        rows in 1usize..24,
        keys in proptest::collection::vec(any::<u64>(), 0..3 * LANES + 2),
        raw_deltas in proptest::collection::vec(-4i64..5, 0..3 * LANES + 2),
    ) {
        let len = keys.len().min(raw_deltas.len());
        let (keys, deltas) = (&keys[..len], &raw_deltas[..len]);
        let mut rng = SplitMix64::new(seed);
        let plane = PolySignPlane::draw(rows, &mut rng);
        let two = TwoWiseSignPlane::draw(rows, &mut rng);
        let mut scratch = PlaneScratch::new();
        // Dirty the scratch with an unrelated block first.
        plane.accumulate_block_into(&[7, 7, 9], &[1, -1, 2], &mut vec![0; rows], &mut scratch);

        let mut lane = vec![1i64; rows];
        let mut serial = vec![1i64; rows];
        plane.accumulate_block_into(keys, deltas, &mut lane, &mut scratch);
        plane.accumulate_block_serial(keys, deltas, &mut serial);
        prop_assert_eq!(&lane, &serial, "PolySignPlane rows={} len={}", rows, len);

        let mut lane2 = vec![-2i64; rows];
        let mut serial2 = vec![-2i64; rows];
        two.accumulate_block_into(keys, deltas, &mut lane2, &mut scratch);
        two.accumulate_block_serial(keys, deltas, &mut serial2);
        prop_assert_eq!(&lane2, &serial2, "TwoWiseSignPlane rows={} len={}", rows, len);
    }

    /// Same equivalence for the fused two-plane signed-product kernel.
    #[test]
    fn product_tile_kernel_equals_serial_kernel(
        seed in any::<u64>(),
        rows in 1usize..12,
        keys in proptest::collection::vec(any::<u64>(), 0..2 * LANES + 2),
    ) {
        let mut rng = SplitMix64::new(seed);
        let xi = PolySignPlane::draw(rows, &mut rng);
        let psi = PolySignPlane::draw(rows, &mut rng);
        let deltas: Vec<i64> = (0..keys.len()).map(|i| (i % 9) as i64 - 4).collect();
        let mut scratch = PlaneScratch::new();
        let mut lane = vec![0i64; rows];
        let mut serial = vec![0i64; rows];
        xi.accumulate_block_signed_product_into(&psi, &keys, &deltas, &mut lane, &mut scratch);
        xi.accumulate_block_signed_product_serial(&psi, &keys, &deltas, &mut serial);
        prop_assert_eq!(&lane, &serial, "rows={} len={}", rows, keys.len());
    }

    #[test]
    fn splitmix_below_bound(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut g = SplitMix64::new(seed);
        prop_assert!(g.next_below(bound) < bound);
    }
}
