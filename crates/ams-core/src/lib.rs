//! Tracking join and self-join sizes in limited storage.
//!
//! A from-scratch Rust implementation of Alon, Gibbons, Matias &
//! Szegedy, *"Tracking Join and Self-Join Sizes in Limited Storage"*
//! (PODS 1999 / JCSS 64, 2002): small synopses of dynamic relations that
//! answer self-join size (= second frequency moment F₂, the standard skew
//! measure) and join size queries at any time, under both insertions and
//! deletions, in space far below a full histogram.
//!
//! # The four self-join trackers
//!
//! The paper describes three algorithms; sample-count ships in two
//! interchangeable variants (trade update cost against query cost), so
//! this crate provides four tracker types:
//!
//! | algorithm | type | update | query | space guarantee |
//! |---|---|---|---|---|
//! | tug-of-war | [`TugOfWarSketch`] | O(s) | O(s) | O(1) words for constant error (Thm 2.2) |
//! | sample-count | [`SampleCount`] | **O(1) amortized** | O(s) | Θ(√t) worst case (Thm 2.1) |
//! | sample-count (fast query) | [`SampleCountFastQuery`] | O(s2) | O(s2) | as above |
//! | naive-sampling | [`NaiveSampling`] | O(1) | O(s) | Ω(√n) lower bound (Lemma 2.3) |
//!
//! All four implement [`SelfJoinEstimator`] (re-exported from
//! `ams-stream`), so they are interchangeable in streams, experiments
//! and applications — including the columnar
//! [`apply_block`](SelfJoinEstimator::apply_block) ingestion path, which
//! the linear tug-of-war sketch serves with a structure-of-arrays hash
//! plane (one sweep per counter row per block) and the order-sensitive
//! sampling trackers serve by faithful in-order expansion.
//!
//! # Join signatures
//!
//! [`join::JoinSignatureFamily`] builds k-TW signatures
//! ([`join::TwJoinSignature`]): per-relation synopses of k words whose
//! pairwise products estimate join sizes with error
//! `≈ √(2·SJ(F)·SJ(G)/k)` (Lemma 4.4 / Theorem 4.5) — compare
//! [`join::SampleJoinSignature`] (the sampling baseline needing Θ(n²/B)
//! space under a join sanity bound B, which Theorem 4.3 proves optimal
//! without self-join assumptions). [`join::ThreeWaySignature`] extends
//! the scheme to three-way equality joins (the paper's future-work item).
//!
//! # Quickstart
//!
//! ```
//! use ams_core::{SelfJoinEstimator, SketchError, SketchParams, TugOfWarSketch};
//!
//! // 64 estimators averaged per group, median over 5 groups.
//! // `SketchParams::new` returns `Result<SketchParams, SketchError>`:
//! // a zero dimension is rejected as `SketchError::InvalidParams`.
//! let params = SketchParams::new(64, 5)?;
//! assert!(matches!(
//!     SketchParams::new(0, 5),
//!     Err(SketchError::InvalidParams { .. })
//! ));
//! let mut sketch: TugOfWarSketch = TugOfWarSketch::new(params, 42);
//!
//! for value in [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5] {
//!     sketch.insert(value);
//! }
//! sketch.delete(9); // deletions are first-class
//!
//! let estimate = sketch.estimate();
//! // Exact SJ of {3,1,4,1,5,2,6,5,3,5} is 4+4+1+9+1+1 = 20.
//! assert!(estimate > 0.0);
//! # Ok::<(), SketchError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod delta;
pub mod error;
pub mod estimator;
pub mod histogram;
pub mod join;
pub mod lowerbound;
pub mod naivesampling;
pub mod params;
pub mod samplecount;
pub mod signcache;
pub mod tugofwar;

pub use ams_stream::SelfJoinEstimator;
pub use delta::DeltaTracker;
pub use error::SketchError;
pub use estimator::{interval_from_group_means, EstimateInterval};
pub use histogram::CompressedHistogram;
pub use join::{
    JoinSignatureFamily, SampleJoinSignature, ThreeWayFamily, ThreeWayRole, ThreeWaySignature,
    TwJoinSignature,
};
pub use naivesampling::NaiveSampling;
pub use params::SketchParams;
pub use samplecount::{SampleCount, SampleCountFastQuery};
pub use signcache::{SignCacheStats, SIGN_CACHE_BYTES};
pub use tugofwar::TugOfWarSketch;
