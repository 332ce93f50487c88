//! Windowed health derivation: thresholds, the scrape-to-scrape
//! window, and the load-imbalance rule.
//!
//! [`crate::AmsService::health`] turns raw telemetry into graded
//! signals. The *window* is the span since the same scraper's previous
//! health scrape (its first window starts at service start): rates and
//! the imbalance ratio are computed over counter **deltas** inside that
//! window, so a long-running service reports current behaviour, not
//! lifetime averages. Each scraper owns its [`HealthWindow`], so one
//! scraper's cadence never moves another's baseline. This module owns
//! the pieces that are pure data plumbing — the baselines, the
//! thresholds, and the imbalance rule — so they can be tested without
//! spinning up a service.

/// Grading thresholds for the derived health signals. Every signal is
/// oriented so *higher is worse*; a value `>=` the degraded/unhealthy
/// threshold crosses into that status (see
/// `ams_telemetry::HealthSignal`).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthThresholds {
    /// Queue saturation (max shard queue depth / capacity): degraded at.
    pub queue_saturation_degraded: f64,
    /// Queue saturation: unhealthy at.
    pub queue_saturation_unhealthy: f64,
    /// Shard imbalance ratio (see [`imbalance_ratio`]): degraded at.
    pub imbalance_degraded: f64,
    /// Shard imbalance ratio: unhealthy at.
    pub imbalance_unhealthy: f64,
    /// Minimum routed ops in the window before the imbalance signal is
    /// graded at all — tiny windows are all noise.
    pub imbalance_min_ops: u64,
    /// WAL fsync p99 budget in nanoseconds; the signal value is
    /// `p99 / budget`.
    pub fsync_budget_ns: u64,
    /// Fsync p99/budget ratio: degraded at.
    pub fsync_degraded: f64,
    /// Fsync p99/budget ratio: unhealthy at.
    pub fsync_unhealthy: f64,
    /// Observed audit relative error, as a multiple of the sketch's
    /// a-priori `error_bound()`: degraded at.
    pub rel_error_degraded_bounds: f64,
    /// Observed audit relative error (multiple of the bound): unhealthy at.
    pub rel_error_unhealthy_bounds: f64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        Self {
            queue_saturation_degraded: 0.75,
            queue_saturation_unhealthy: 0.95,
            imbalance_degraded: 4.0,
            imbalance_unhealthy: 16.0,
            imbalance_min_ops: 256,
            fsync_budget_ns: 50_000_000,
            fsync_degraded: 1.0,
            fsync_unhealthy: 10.0,
            rel_error_degraded_bounds: 1.0,
            rel_error_unhealthy_bounds: 2.0,
        }
    }
}

/// Max/min load-imbalance over per-shard routed-op deltas.
///
/// The rule, chosen so the ratio is always finite and hand-computable:
/// `max / min` when every shard saw work; when some shard saw **zero**
/// ops the ratio is `max` itself (as if the starved shard had seen one
/// op), and an entirely idle window is perfectly balanced (`1.0`).
pub fn imbalance_ratio(deltas: &[u64]) -> f64 {
    let max = deltas.iter().copied().max().unwrap_or(0);
    let min = deltas.iter().copied().min().unwrap_or(0);
    if max == 0 {
        1.0
    } else if min == 0 {
        max as f64
    } else {
        max as f64 / min as f64
    }
}

/// The window counters: routed ops per shard and ops applied by the
/// workers. As one scraper's baseline they hold the cumulative values
/// at its previous health scrape; each health scrape grades the same
/// counters accrued since then and moves the baseline. A wire connection keeps one
/// baseline; an in-process caller of [`crate::AmsService::health`] or
/// [`crate::AmsService::scrape`] keeps its own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthWindow {
    pub(crate) routed: Vec<u64>,
    pub(crate) ingested_ops: u64,
}

impl HealthWindow {
    /// Makes the cumulative counters `now` the baseline and returns the
    /// deltas since the previous one (the first window starts at zero).
    /// Counters are monotone; `saturating_sub` guards the (restart)
    /// edge anyway.
    pub(crate) fn advance(&mut self, now: Self) -> Self {
        let then = std::mem::replace(self, now);
        Self {
            routed: self
                .routed
                .iter()
                .zip(then.routed.iter().chain(std::iter::repeat(&0)))
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            ingested_ops: self.ingested_ops.saturating_sub(then.ingested_ops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_rule_is_total_and_hand_computable() {
        assert_eq!(imbalance_ratio(&[]), 1.0, "no shards: balanced");
        assert_eq!(imbalance_ratio(&[0, 0, 0]), 1.0, "idle window: balanced");
        assert_eq!(imbalance_ratio(&[100, 100]), 1.0);
        assert_eq!(imbalance_ratio(&[300, 100]), 3.0);
        assert_eq!(
            imbalance_ratio(&[40, 0]),
            40.0,
            "starved shard counts as one op"
        );
        assert_eq!(imbalance_ratio(&[9, 3, 6]), 3.0);
    }

    #[test]
    fn window_advances_and_deltas_are_per_scrape() {
        let counters = |routed: &[u64], ingested_ops| HealthWindow {
            routed: routed.to_vec(),
            ingested_ops,
        };
        let mut window = HealthWindow::default();
        let first = window.advance(counters(&[10, 20], 25));
        assert_eq!(
            first,
            counters(&[10, 20], 25),
            "first window starts at zero"
        );
        let second = window.advance(counters(&[15, 30], 40));
        assert_eq!(second, counters(&[5, 10], 15));
    }

    #[test]
    fn default_thresholds_are_ordered() {
        let t = HealthThresholds::default();
        assert!(t.queue_saturation_degraded < t.queue_saturation_unhealthy);
        assert!(t.imbalance_degraded < t.imbalance_unhealthy);
        assert!(t.fsync_degraded < t.fsync_unhealthy);
        assert!(t.rel_error_degraded_bounds < t.rel_error_unhealthy_bounds);
    }
}
