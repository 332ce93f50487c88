//! k-wise independent hash families and ±1 "sign" hashes for AMS sketching.
//!
//! The tug-of-war sketch of Alon, Matias and Szegedy requires, for each
//! atomic estimator, a *4-wise independent* mapping `v ↦ ε_v ∈ {−1, +1}`
//! over the value domain. This crate provides several interchangeable
//! constructions of such mappings, together with the supporting machinery
//! (prime-field arithmetic, carry-less GF(2) arithmetic, deterministic seed
//! expansion) — all built from scratch so the repository has no external
//! sketching dependencies.
//!
//! # Families provided
//!
//! * [`kwise::PolyHash`] — Carter–Wegman polynomial hashing over the
//!   Mersenne-prime field GF(2⁶¹−1). A degree-(k−1) polynomial with
//!   uniformly random coefficients is a k-wise independent function; this is
//!   the default backend for tug-of-war sketches (`k = 4`).
//! * [`bch::BchSign`] — the classical BCH-code based construction of 4-wise
//!   independent ±1 variables used in the original AMS paper, built on
//!   carry-less GF(2⁶⁴) arithmetic ([`gf2`]).
//! * [`tabulation::TabulationHash`] — simple tabulation hashing
//!   (3-independent, fastest per evaluation); useful for ablations that show
//!   what independence level the sketch guarantees actually need.
//! * [`universal::BucketHash`] — a 2-universal bucket hash for hash-table
//!   style partitioning.
//! * [`fast::FxHasher`] — a fast non-cryptographic `std::hash::Hasher` used
//!   for the internal integer-keyed lookup tables of the sample-count
//!   algorithm (the standard-library SipHash default would dominate its
//!   running time).
//!
//! # Example
//!
//! ```
//! use ams_hash::{kwise::FourWisePoly, sign::{SignHash, PolySign}};
//!
//! let h = PolySign::from_seed(42);
//! let s = h.sign(17);
//! assert!(s == 1 || s == -1);
//! // Deterministic for a fixed seed:
//! assert_eq!(s, PolySign::from_seed(42).sign(17));
//! # let _ = FourWisePoly::from_seed(1);
//! ```

// The only unsafe in this crate is the runtime-dispatched `std::arch`
// AVX2 kernel path of `lanes`, which exists only under the `simd`
// feature; without it the whole crate is forbidden from unsafe.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![cfg_attr(feature = "simd", deny(unsafe_code))]
#![deny(missing_docs)]

pub mod bch;
pub mod fast;
pub mod field;
pub mod gf2;
pub mod kwise;
pub mod lanes;
pub mod plane;
pub mod rng;
pub mod sign;
pub mod tabulation;
pub mod universal;

pub use fast::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use kwise::{FourWisePoly, PolyHash, TwoWisePoly};
pub use lanes::PlaneScratch;
pub use plane::{
    apply_sign_bits, sign_words, PolyPlane, PolySignPlane, RowPlane, SignPlane, TwoWiseSignPlane,
};
pub use rng::SplitMix64;
pub use sign::{BchSignHash, PolySign, SignFamily, SignHash, TabulationSign, TwoWiseSign};
