//! Table 1: data sets and their characteristics, regenerated.
//!
//! For each of the thirteen data sets: the paper-reported length, domain
//! size and self-join size next to those of our (substituted, calibrated)
//! generators — the reproduction's "is the workload right?" gate.

use std::thread;

use ams_datagen::DatasetId;
use ams_stream::Multiset;

use crate::report::{fmt_ratio, fmt_sci, Table};

/// One regenerated Table 1 row.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Which data set.
    pub dataset: DatasetId,
    /// Generated stream length (always equals the paper's by design).
    pub n: u64,
    /// Observed distinct values in the generated stream.
    pub t: usize,
    /// Exact self-join size of the generated stream.
    pub sj: f64,
}

/// Regenerates every data set and measures its characteristics.
pub fn run(seed_offset: u64) -> Vec<Table1Row> {
    thread::scope(|scope| {
        let handles: Vec<_> = DatasetId::ALL
            .iter()
            .map(|&dataset| {
                scope.spawn(move || {
                    let values = dataset.generate(dataset.default_seed().wrapping_add(seed_offset));
                    let ms = Multiset::from_values(values.iter().copied());
                    Table1Row {
                        dataset,
                        n: ms.len(),
                        t: ms.distinct(),
                        sj: ms.self_join_size() as f64,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("table1 task"))
            .collect()
    })
}

/// Renders the paper-vs-generated comparison.
pub fn table(rows: &[Table1Row]) -> Table {
    let mut t = Table::new(
        "Table 1: data sets and their characteristics (paper vs generated)",
        &[
            "dataset",
            "type",
            "figure",
            "n",
            "t(paper)",
            "t(gen)",
            "SJ(paper)",
            "SJ(gen)",
            "SJ ratio",
        ],
    );
    for row in rows {
        let spec = row.dataset.spec();
        t.push_row(vec![
            spec.name.to_string(),
            spec.kind.to_string(),
            spec.figures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join(","),
            row.n.to_string(),
            spec.domain_size.to_string(),
            row.t.to_string(),
            fmt_sci(spec.self_join),
            fmt_sci(row.sj),
            fmt_ratio(row.sj / spec.self_join),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regenerates_all_rows_with_exact_lengths() {
        let rows = run(0);
        assert_eq!(rows.len(), 13);
        for row in &rows {
            assert_eq!(row.n, row.dataset.spec().length, "{}", row.dataset);
            let ratio = row.sj / row.dataset.spec().self_join;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{}: SJ ratio {ratio}",
                row.dataset
            );
        }
    }

    #[test]
    fn table_renders_thirteen_rows() {
        let rows = run(0);
        let t = table(&rows);
        assert_eq!(t.len(), 13);
        assert!(t.render().contains("zipf1.0"));
        assert!(t.to_csv().lines().count() == 14);
    }
}
