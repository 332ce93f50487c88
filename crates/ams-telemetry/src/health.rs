//! Windowed health signals and verdicts.
//!
//! The registry prices what the service *did*; this module grades what
//! those numbers *mean*. A [`HealthSignal`] is one derived, windowed
//! observation (queue saturation, ingest stalls, shard imbalance, fsync
//! p99, estimator error) compared against a pair of thresholds; a set
//! of signals folds into one [`HealthVerdict`] — `Healthy`, or
//! `Degraded`/`Unhealthy` with the precise reasons attached. The
//! companion [`AccuracyReport`] carries the *statistical* side of
//! health: per-attribute estimates with the confidence interval the
//! median-of-means machinery implies, the relative error observed by a
//! sampled shadow audit, and the heavy-key skew score — because for an
//! AMS estimator, "healthy" must mean "the estimates are good", not
//! just "the process is up".
//!
//! The types here are service-agnostic wire/grading machinery; the
//! service layer assembles the signals from its registry snapshot.

use serde::{Deserialize, Serialize};

/// One graded signal's standing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SignalStatus {
    /// Below the degraded threshold.
    Ok,
    /// At or above the degraded threshold, below unhealthy.
    Degraded,
    /// At or above the unhealthy threshold.
    Unhealthy,
}

/// One windowed derived observation graded against its thresholds.
/// Signals grade "higher is worse": a signal whose healthy direction
/// is downward (e.g. a rate) is already oriented that way by the
/// assembler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSignal {
    /// Signal name (snake_case, stable on the wire).
    pub name: String,
    /// The windowed value.
    pub value: f64,
    /// Degraded at or above this value.
    pub degraded_above: f64,
    /// Unhealthy at or above this value.
    pub unhealthy_above: f64,
    /// The resulting grade.
    pub status: SignalStatus,
}

impl HealthSignal {
    /// Grades `value` against the threshold pair
    /// (`degraded_above ≤ unhealthy_above` expected).
    pub fn grade(name: &str, value: f64, degraded_above: f64, unhealthy_above: f64) -> Self {
        let status = if value >= unhealthy_above {
            SignalStatus::Unhealthy
        } else if value >= degraded_above {
            SignalStatus::Degraded
        } else {
            SignalStatus::Ok
        };
        Self {
            name: name.to_string(),
            value,
            degraded_above,
            unhealthy_above,
            status,
        }
    }

    fn reason(&self) -> String {
        let threshold = match self.status {
            SignalStatus::Unhealthy => self.unhealthy_above,
            _ => self.degraded_above,
        };
        format!("{} {:.4} >= {:.4}", self.name, self.value, threshold)
    }
}

/// The folded verdict over every signal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HealthVerdict {
    /// Every signal is below its degraded threshold.
    Healthy,
    /// At least one signal is degraded, none unhealthy; carries
    /// `name value >= threshold` for each degraded signal.
    Degraded(Vec<String>),
    /// At least one signal crossed its unhealthy threshold; carries
    /// the reasons (degraded stragglers included for context).
    Unhealthy(Vec<String>),
}

impl HealthVerdict {
    /// Folds graded signals into one verdict, collecting the reasons.
    pub fn from_signals(signals: &[HealthSignal]) -> Self {
        let unhealthy = signals.iter().any(|s| s.status == SignalStatus::Unhealthy);
        let reasons: Vec<String> = signals
            .iter()
            .filter(|s| s.status != SignalStatus::Ok)
            .map(HealthSignal::reason)
            .collect();
        if unhealthy {
            HealthVerdict::Unhealthy(reasons)
        } else if !reasons.is_empty() {
            HealthVerdict::Degraded(reasons)
        } else {
            HealthVerdict::Healthy
        }
    }

    /// The reasons attached to a degraded/unhealthy verdict (empty for
    /// a healthy one).
    pub fn reasons(&self) -> &[String] {
        match self {
            HealthVerdict::Healthy => &[],
            HealthVerdict::Degraded(reasons) | HealthVerdict::Unhealthy(reasons) => reasons,
        }
    }

    /// The verdict's exposition name.
    pub fn name(&self) -> &'static str {
        match self {
            HealthVerdict::Healthy => "Healthy",
            HealthVerdict::Degraded(_) => "Degraded",
            HealthVerdict::Unhealthy(_) => "Unhealthy",
        }
    }

    /// The verdict as a gauge level: 0 healthy, 1 degraded,
    /// 2 unhealthy (the `service_health_status` exposition value).
    pub fn code(&self) -> i64 {
        match self {
            HealthVerdict::Healthy => 0,
            HealthVerdict::Degraded(_) => 1,
            HealthVerdict::Unhealthy(_) => 2,
        }
    }
}

/// Per-attribute estimator accuracy: the estimate with its
/// median-of-means confidence interval, the shadow audit's observed
/// error (when the audit sampler is on), and the workload's skew.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// The tracked attribute's name.
    pub attribute: String,
    /// The merged sketch's self-join estimate.
    pub estimate: f64,
    /// Confidence interval lower bound (clamped at 0).
    pub ci_lower: f64,
    /// Confidence interval upper bound.
    pub ci_upper: f64,
    /// The paper's relative error bound `4/√s1` the interval is at
    /// least as wide as.
    pub error_bound: f64,
    /// The audit substream's exact self-join size (audit sampler on
    /// and at least one block sampled).
    pub audited_exact: Option<f64>,
    /// `|shadow estimate − exact| / exact` on the audited substream.
    pub observed_rel_error: Option<f64>,
    /// Heavy-key skew: the heaviest key's observed share of all
    /// observed ops, in `[0, 1]` (0 when no heavy-key observer runs).
    pub skew_score: f64,
}

impl AccuracyReport {
    /// Whether the reported interval contains `exact`.
    pub fn covers(&self, exact: f64) -> bool {
        self.ci_lower <= exact && exact <= self.ci_upper
    }
}

/// The full health scrape: the verdict, every graded signal behind
/// it, and the per-attribute accuracy reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// The folded verdict.
    pub verdict: HealthVerdict,
    /// Every graded signal, in assembly order.
    pub signals: Vec<HealthSignal>,
    /// One accuracy report per tracked attribute.
    pub accuracy: Vec<AccuracyReport>,
}

impl HealthReport {
    /// The named signal, if assembled.
    pub fn signal(&self, name: &str) -> Option<&HealthSignal> {
        self.signals.iter().find(|s| s.name == name)
    }

    /// The named attribute's accuracy report, if assembled.
    pub fn accuracy_for(&self, attribute: &str) -> Option<&AccuracyReport> {
        self.accuracy.iter().find(|a| a.attribute == attribute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grading_respects_both_thresholds() {
        let ok = HealthSignal::grade("queue_saturation", 0.01, 0.05, 0.25);
        assert_eq!(ok.status, SignalStatus::Ok);
        let degraded = HealthSignal::grade("queue_saturation", 0.05, 0.05, 0.25);
        assert_eq!(degraded.status, SignalStatus::Degraded);
        let unhealthy = HealthSignal::grade("queue_saturation", 0.30, 0.05, 0.25);
        assert_eq!(unhealthy.status, SignalStatus::Unhealthy);
    }

    #[test]
    fn verdict_transitions_follow_the_worst_signal() {
        let ok = HealthSignal::grade("a", 0.0, 1.0, 2.0);
        let degraded = HealthSignal::grade("b", 1.5, 1.0, 2.0);
        let unhealthy = HealthSignal::grade("c", 2.5, 1.0, 2.0);

        assert_eq!(
            HealthVerdict::from_signals(std::slice::from_ref(&ok)),
            HealthVerdict::Healthy
        );
        assert_eq!(HealthVerdict::from_signals(&[]), HealthVerdict::Healthy);

        let v = HealthVerdict::from_signals(&[ok.clone(), degraded.clone()]);
        match &v {
            HealthVerdict::Degraded(reasons) => {
                assert_eq!(reasons.len(), 1);
                assert!(reasons[0].starts_with("b "), "{reasons:?}");
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(v.name(), "Degraded");
        assert_eq!(v.code(), 1);

        let v = HealthVerdict::from_signals(&[ok, degraded, unhealthy]);
        match &v {
            HealthVerdict::Unhealthy(reasons) => {
                // Both the unhealthy trigger and the degraded
                // straggler are listed.
                assert_eq!(reasons.len(), 2);
            }
            other => panic!("expected Unhealthy, got {other:?}"),
        }
        assert_eq!(v.code(), 2);
        assert_eq!(v.reasons().len(), 2);
        assert!(HealthVerdict::Healthy.reasons().is_empty());
    }

    #[test]
    fn reasons_name_the_crossed_threshold() {
        let s = HealthSignal::grade("imbalance", 5.0, 2.0, 4.0);
        let v = HealthVerdict::from_signals(&[s]);
        match v {
            HealthVerdict::Unhealthy(reasons) => {
                assert_eq!(reasons, vec!["imbalance 5.0000 >= 4.0000".to_string()]);
            }
            other => panic!("expected Unhealthy, got {other:?}"),
        }
    }

    #[test]
    fn accuracy_coverage_check() {
        let report = AccuracyReport {
            attribute: "clicks".into(),
            estimate: 100.0,
            ci_lower: 50.0,
            ci_upper: 150.0,
            error_bound: 0.5,
            audited_exact: Some(98.0),
            observed_rel_error: Some(0.02),
            skew_score: 0.4,
        };
        assert!(report.covers(98.0));
        assert!(report.covers(50.0));
        assert!(!report.covers(151.0));
    }

    #[test]
    fn report_lookup_and_serde_roundtrip() {
        let report = HealthReport {
            verdict: HealthVerdict::Degraded(vec!["queue_saturation 0.9000 >= 0.8000".into()]),
            signals: vec![HealthSignal::grade("queue_saturation", 0.9, 0.8, 1.0)],
            accuracy: vec![AccuracyReport {
                attribute: "a".into(),
                estimate: 10.0,
                ci_lower: 5.0,
                ci_upper: 15.0,
                error_bound: 0.5,
                audited_exact: None,
                observed_rel_error: None,
                skew_score: 0.0,
            }],
        };
        assert_eq!(report.signal("queue_saturation").unwrap().value, 0.9);
        assert!(report.signal("nope").is_none());
        assert_eq!(report.accuracy_for("a").unwrap().estimate, 10.0);
        let json = serde_json::to_string(&report).unwrap();
        let back: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
