//! Figures 2–14: normalized estimate vs sample size for the three
//! algorithms, one figure per Table 1 data set.
//!
//! Axes exactly as in the paper: x = log₂(sample size), sample sizes
//! 2⁰ … 2¹⁴; y = estimate / exact self-join size (the exact size is the
//! horizontal line y = 1). Each plotted point is one run ("this seemed
//! appropriate because each estimator is already based on the aggregation
//! of many independent experiments", §3) — a `trials > 1` option reports
//! the median of several runs instead for noise-controlled regression
//! checks.

use std::thread;

use ams_datagen::DatasetId;
use ams_stream::Multiset;

use crate::algorithms::{run, Algorithm};
use crate::metric::convergence_size_15;
use crate::report::{fmt_ratio, Table};

/// Sweep configuration.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Largest sample size as a power of two (paper: 14 → 16 384).
    pub max_log2_s: u32,
    /// Base seed; every (algorithm, sample size, trial) derives its own.
    pub seed: u64,
    /// Runs per point; 1 reproduces the paper's single-run plots, larger
    /// values report the per-point median.
    pub trials: u32,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            max_log2_s: 14,
            seed: 0xA35_2002,
            trials: 1,
        }
    }
}

/// One x-position of a figure: the three normalized estimates at one
/// sample size.
#[derive(Debug, Clone, Copy)]
pub struct FigurePoint {
    /// log₂ of the sample size (the paper's x-axis label).
    pub log2_s: u32,
    /// The sample size itself.
    pub s: usize,
    /// Tug-of-war estimate / exact.
    pub tw: f64,
    /// Sample-count estimate / exact.
    pub sc: f64,
    /// Naive-sampling estimate / exact.
    pub ns: f64,
}

/// A regenerated figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Paper figure number (2–14).
    pub figure: u32,
    /// The data set depicted.
    pub dataset: DatasetId,
    /// Stream length of the generated data.
    pub n: u64,
    /// Observed distinct values.
    pub t: usize,
    /// Exact self-join size of the generated data.
    pub exact_sj: f64,
    /// One entry per sample size, ascending.
    pub points: Vec<FigurePoint>,
    /// §3.1 convergence metric per algorithm (minimum s within 15 % from
    /// there on).
    pub converge_tw: Option<usize>,
    /// Sample-count convergence size.
    pub converge_sc: Option<usize>,
    /// Naive-sampling convergence size.
    pub converge_ns: Option<usize>,
}

impl FigureResult {
    /// Renders the figure as a table (one row per sample size).
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            format!(
                "Figure {}: {} (n={}, t={}, SJ={:.3e})",
                self.figure,
                self.dataset.spec().name,
                self.n,
                self.t,
                self.exact_sj
            ),
            &[
                "log2(s)",
                "s",
                "tug-of-war",
                "sample-count",
                "naive-sampling",
            ],
        );
        for p in &self.points {
            table.push_row(vec![
                p.log2_s.to_string(),
                p.s.to_string(),
                fmt_ratio(p.tw),
                fmt_ratio(p.sc),
                fmt_ratio(p.ns),
            ]);
        }
        table
    }

    /// The convergence metric for a given algorithm.
    pub fn convergence(&self, algorithm: Algorithm) -> Option<usize> {
        match algorithm {
            Algorithm::TugOfWar => self.converge_tw,
            Algorithm::SampleCount => self.converge_sc,
            Algorithm::NaiveSampling => self.converge_ns,
        }
    }
}

/// Median of a small, freshly-computed sample.
fn median_inplace(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Regenerates one figure (2–14).
///
/// # Panics
/// Panics if `figure` is not in 2..=14.
pub fn run_figure(figure: u32, cfg: &SweepConfig) -> FigureResult {
    let dataset =
        DatasetId::by_figure(figure).unwrap_or_else(|| panic!("figure {figure} has no data set"));
    run_dataset_sweep(figure, dataset, cfg)
}

/// Regenerates the sweep for a specific data set (used by figures and by
/// benches that want reduced sweeps).
pub fn run_dataset_sweep(figure: u32, dataset: DatasetId, cfg: &SweepConfig) -> FigureResult {
    let values = dataset.generate(dataset.default_seed());
    let histogram = Multiset::from_values(values.iter().copied());
    let points = sweep_points(&values, &histogram, cfg);
    let n = values.len() as u64;
    let t = histogram.distinct();
    let exact = histogram.self_join_size() as f64;
    finish_result(figure, dataset, n, t, exact, points)
}

/// Runs the three-algorithm sweep over an arbitrary value stream (the
/// `external` command's path for user-supplied data) and returns the
/// per-size normalized estimates.
pub fn sweep_points(values: &[u64], histogram: &Multiset, cfg: &SweepConfig) -> Vec<FigurePoint> {
    let exact = histogram.self_join_size() as f64;
    assert!(exact > 0.0, "degenerate (empty) data set");

    let sizes: Vec<(u32, usize)> = (0..=cfg.max_log2_s).map(|l| (l, 1usize << l)).collect();

    // One task per (sample size, algorithm): coarse but plenty to fill
    // cores, and keeps each task independent.
    let mut points: Vec<FigurePoint> = thread::scope(|scope| {
        let handles: Vec<_> = sizes
            .iter()
            .map(|&(log2_s, s)| {
                scope.spawn(move || {
                    let mut ratios = [0.0f64; 3];
                    for (slot, alg) in Algorithm::ALL.iter().enumerate() {
                        let estimates: Vec<f64> = (0..cfg.trials)
                            .map(|trial| {
                                // Decorrelate: distinct seed per cell.
                                let seed = cfg
                                    .seed
                                    .wrapping_add((log2_s as u64) << 32)
                                    .wrapping_add((slot as u64) << 24)
                                    .wrapping_add(trial as u64)
                                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                                run(*alg, values, histogram, s, seed)
                            })
                            .collect();
                        ratios[slot] = median_inplace(estimates) / exact;
                    }
                    FigurePoint {
                        log2_s,
                        s,
                        tw: ratios[0],
                        sc: ratios[1],
                        ns: ratios[2],
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep task"))
            .collect()
    });

    points.sort_by_key(|p| p.s);
    points
}

fn finish_result(
    figure: u32,
    dataset: DatasetId,
    n: u64,
    t: usize,
    exact: f64,
    points: Vec<FigurePoint>,
) -> FigureResult {
    let series = |f: fn(&FigurePoint) -> f64| -> Vec<(usize, f64)> {
        points.iter().map(|p| (p.s, f(p))).collect()
    };
    FigureResult {
        figure,
        dataset,
        n,
        t,
        exact_sj: exact,
        converge_tw: convergence_size_15(&series(|p| p.tw)),
        converge_sc: convergence_size_15(&series(|p| p.sc)),
        converge_ns: convergence_size_15(&series(|p| p.ns)),
        points,
    }
}

/// Runs the sweep over user-supplied values and renders it as a table
/// plus the per-algorithm convergence sizes.
pub fn external_sweep(
    name: &str,
    values: &[u64],
    cfg: &SweepConfig,
) -> (Table, [Option<usize>; 3]) {
    let histogram = Multiset::from_values(values.iter().copied());
    let points = sweep_points(values, &histogram, cfg);
    let series = |f: fn(&FigurePoint) -> f64| -> Vec<(usize, f64)> {
        points.iter().map(|p| (p.s, f(p))).collect()
    };
    let convergences = [
        convergence_size_15(&series(|p| p.tw)),
        convergence_size_15(&series(|p| p.sc)),
        convergence_size_15(&series(|p| p.ns)),
    ];
    let mut table = Table::new(
        format!(
            "External data set {name}: n={}, t={}, SJ={:.4e}",
            values.len(),
            histogram.distinct(),
            histogram.self_join_size() as f64
        ),
        &[
            "log2(s)",
            "s",
            "tug-of-war",
            "sample-count",
            "naive-sampling",
        ],
    );
    for p in &points {
        table.push_row(vec![
            p.log2_s.to_string(),
            p.s.to_string(),
            fmt_ratio(p.tw),
            fmt_ratio(p.sc),
            fmt_ratio(p.ns),
        ]);
    }
    (table, convergences)
}

/// The summary row the paper's §3.1 derives across data sets: per-figure
/// convergence sizes for all three algorithms.
pub fn summary_table(results: &[FigureResult]) -> Table {
    let mut table = Table::new(
        "Convergence to within 15% relative error (minimum sample size)",
        &[
            "figure",
            "dataset",
            "tug-of-war",
            "sample-count",
            "naive-sampling",
        ],
    );
    let fmt = |c: Option<usize>| c.map_or("-".to_string(), |s| s.to_string());
    for r in results {
        table.push_row(vec![
            r.figure.to_string(),
            r.dataset.spec().name.to_string(),
            fmt(r.converge_tw),
            fmt(r.converge_sc),
            fmt(r.converge_ns),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced sweep on the pathological set: cheap (n = 40 800) and
    /// with a known outcome — tug-of-war converges quickly while
    /// sample-count needs a large sample (§3.2).
    #[test]
    fn path_figure_separates_tugofwar_from_samplecount() {
        let cfg = SweepConfig {
            max_log2_s: 10,
            seed: 7,
            trials: 3,
        };
        let result = run_figure(14, &cfg);
        assert_eq!(result.dataset, DatasetId::Path);
        assert_eq!(result.points.len(), 11);
        assert_eq!(result.exact_sj, 680_000.0);
        // Tug-of-war must converge within the sweep...
        let tw = result.converge_tw.expect("tug-of-war converges");
        // ...while sample-count needs more than the full sweep (its
        // theoretical need is Θ(√t) ≈ 200+, and empirically far more on
        // this set) — allow either no convergence or late convergence.
        match result.converge_sc {
            None => {}
            Some(sc) => assert!(sc > tw, "sample-count {sc} not worse than tug-of-war {tw}"),
        }
    }

    #[test]
    fn ratios_tend_to_one_for_large_samples() {
        let cfg = SweepConfig {
            max_log2_s: 9,
            seed: 11,
            trials: 3,
        };
        let result = run_dataset_sweep(0, DatasetId::Mf3, &cfg);
        let last = result.points.last().unwrap();
        assert!((last.tw - 1.0).abs() < 0.3, "tw ratio {}", last.tw);
        assert!((last.sc - 1.0).abs() < 0.3, "sc ratio {}", last.sc);
    }

    #[test]
    fn table_rendering_includes_all_points() {
        let cfg = SweepConfig {
            max_log2_s: 3,
            seed: 1,
            trials: 1,
        };
        let result = run_figure(14, &cfg);
        let rendered = result.table().render();
        for l in 0..=3 {
            assert!(rendered.contains(&format!("\n{l} ")) || rendered.contains(&format!(" {l} ")));
        }
        let summary = summary_table(&[result]);
        assert_eq!(summary.len(), 1);
    }
}
