//! The experimental study the paper leaves as future work (§5):
//! tug-of-war join signatures vs sampling signatures, empirically.
//!
//! For pairs of Table 1 data sets joined on their value attribute, sweep
//! the signature budget k and compare (a) the k-TW estimator's observed
//! relative error against its Theorem 4.5 prediction
//! `√(2·SJ(F)·SJ(G)/k) / |F ⋈ G|`, and (b) a sampling signature given
//! the *same number of memory words* (rate p = k/n).

use std::thread;

use ams_core::{CompressedHistogram, JoinSignatureFamily, SampleJoinSignature};
use ams_datagen::DatasetId;
use ams_stream::Multiset;

use crate::report::{fmt_ratio, fmt_sci, Table};

/// A pair of relations to join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinCase {
    /// Left relation's data set.
    pub left: DatasetId,
    /// Right relation's data set.
    pub right: DatasetId,
}

/// The default study pairs: self-join-heavy, mixed, and uniform cases,
/// plus the paper's two projections of one spatial point set.
pub const DEFAULT_CASES: [JoinCase; 4] = [
    JoinCase {
        left: DatasetId::Zipf10,
        right: DatasetId::Zipf15,
    },
    JoinCase {
        left: DatasetId::Uniform,
        right: DatasetId::Zipf10,
    },
    JoinCase {
        left: DatasetId::Xout1,
        right: DatasetId::Yout1,
    },
    JoinCase {
        left: DatasetId::Mf2,
        right: DatasetId::Mf3,
    },
];

/// One (pair, k) measurement.
#[derive(Debug, Clone, Copy)]
pub struct JoinExpRow {
    /// The relation pair.
    pub case: JoinCase,
    /// Signature budget in memory words.
    pub k: usize,
    /// Exact join size.
    pub exact_join: f64,
    /// Mean relative error of k-TW over the trials.
    pub ktw_error: f64,
    /// Theorem 4.5 predicted error `√(2·SJ(F)·SJ(G)/k)/J`.
    pub ktw_predicted: f64,
    /// Mean relative error of an equal-words sampling signature.
    pub sampling_error: f64,
    /// Relative error of an equal-words compressed histogram (\[Poo97\]
    /// baseline; deterministic, so a single run).
    pub histogram_error: f64,
}

/// Runs the study.
pub fn run(cases: &[JoinCase], ks: &[usize], trials: u32, seed: u64) -> Vec<JoinExpRow> {
    thread::scope(|scope| {
        let handles: Vec<_> = cases
            .iter()
            .map(|&case| scope.spawn(move || run_case(case, ks, trials, seed)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("join case"))
            .collect()
    })
}

fn run_case(case: JoinCase, ks: &[usize], trials: u32, seed: u64) -> Vec<JoinExpRow> {
    let left_values = case.left.generate(case.left.default_seed());
    let right_values = case.right.generate(case.right.default_seed());
    let left = Multiset::from_values(left_values.iter().copied());
    let right = Multiset::from_values(right_values.iter().copied());
    let exact = left.join_size(&right) as f64;
    let sj_product = left.self_join_size() as f64 * right.self_join_size() as f64;
    let n_mean = (left.len() + right.len()) as f64 / 2.0;

    ks.iter()
        .map(|&k| {
            // Equal-words compressed histogram: 2 words per singleton
            // bucket ⇒ k/2 buckets (at least 1).
            let hist_err = {
                let mut ha = CompressedHistogram::new((k / 2).max(1));
                let mut hb = CompressedHistogram::new((k / 2).max(1));
                for &v in &left_values {
                    ha.insert(v);
                }
                for &v in &right_values {
                    hb.insert(v);
                }
                (ha.estimate_join(&hb) - exact).abs() / exact
            };
            let mut ktw_err = 0.0;
            let mut sam_err = 0.0;
            let left_block = ams_stream::OpBlock::from_histogram(&left);
            let right_block = ams_stream::OpBlock::from_histogram(&right);
            for trial in 0..trials {
                let t_seed = seed
                    .wrapping_add((trial as u64) << 20)
                    .wrapping_add(k as u64)
                    .wrapping_add((case.left as u64) << 40)
                    .wrapping_add((case.right as u64) << 48);
                // k-TW: bulk-load signatures from histogram blocks.
                let fam = JoinSignatureFamily::new(k, t_seed).expect("k >= 1");
                let mut sig_l = fam.signature();
                let mut sig_r = fam.signature();
                sig_l.update_block(&left_block);
                sig_r.update_block(&right_block);
                let est = sig_l.estimate_join(&sig_r).expect("same family");
                ktw_err += (est - exact).abs() / exact;

                // Sampling signature with the same word budget: expected
                // k sampled values per relation.
                let p = (k as f64 / n_mean).clamp(1e-9, 1.0);
                let mut sam_l = SampleJoinSignature::new(p, t_seed ^ 0xAAAA);
                let mut sam_r = SampleJoinSignature::new(p, t_seed ^ 0xBBBB);
                for &v in &left_values {
                    sam_l.insert(v);
                }
                for &v in &right_values {
                    sam_r.insert(v);
                }
                let est = sam_l.estimate_join(&sam_r);
                sam_err += (est - exact).abs() / exact;
            }
            JoinExpRow {
                case,
                k,
                exact_join: exact,
                ktw_error: ktw_err / trials as f64,
                ktw_predicted: (2.0 * sj_product / k as f64).sqrt() / exact,
                sampling_error: sam_err / trials as f64,
                histogram_error: hist_err,
            }
        })
        .collect()
}

/// Renders the study.
pub fn table(rows: &[JoinExpRow]) -> Table {
    let mut t = Table::new(
        "Join signatures: k-TW observed/predicted error vs equal-words sampling and compressed histogram",
        &[
            "pair",
            "k (words)",
            "|F join G|",
            "k-TW err",
            "k-TW bound",
            "sampling err",
            "histogram err",
        ],
    );
    for r in rows {
        t.push_row(vec![
            format!("{}·{}", r.case.left.spec().name, r.case.right.spec().name),
            r.k.to_string(),
            fmt_sci(r.exact_join),
            fmt_ratio(r.ktw_error),
            fmt_ratio(r.ktw_predicted),
            fmt_ratio(r.sampling_error),
            fmt_ratio(r.histogram_error),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ktw_error_within_bound_and_shrinking() {
        // One cheap pair, small trials.
        let cases = [JoinCase {
            left: DatasetId::Mf2,
            right: DatasetId::Mf3,
        }];
        let rows = run(&cases, &[16, 256], 5, 11);
        assert_eq!(rows.len(), 2);
        // Mean |error| should respect the standard-deviation-scale bound
        // within a small constant (E|X−μ| ≤ σ).
        for r in &rows {
            assert!(
                r.ktw_error < 2.0 * r.ktw_predicted + 0.05,
                "k={}: err {} vs bound {}",
                r.k,
                r.ktw_error,
                r.ktw_predicted
            );
        }
        assert!(
            rows[1].ktw_error < rows[0].ktw_error + 0.02,
            "error should shrink with k: {} -> {}",
            rows[0].ktw_error,
            rows[1].ktw_error
        );
    }
}
