//! The scrape document: one answer to how fast each layer is, how
//! accurate each estimate is, and what is broken, built by
//! [`crate::AmsService::scrape`] from one registry read.

use serde::{Deserialize, Serialize};

use ams_telemetry::{AssembledTrace, HealthReport, MetricsSnapshot, ServiceEvent};

use crate::stats::ServiceStats;

/// One scrape: the instant it was taken plus the sections the scraper
/// asked for. A section not asked for is `None` and absent from the
/// JSON form. Sections are named by a `u8` bit set of the associated
/// constants, e.g. `Scrape::STATS | Scrape::HEALTH`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Scrape {
    /// When the scrape was taken (right after its registry read, when
    /// metrics or health were asked for), on the process trace clock
    /// that also stamps events and spans
    /// (`ams_telemetry::trace_clock_ns`).
    pub at_ns: u64,
    /// Per-shard queue and progress statistics ([`Self::STATS`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub stats: Option<ServiceStats>,
    /// Every registered counter, gauge and histogram, service and
    /// front-end series alike ([`Self::METRICS`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub metrics: Option<MetricsSnapshot>,
    /// The tail-sampled traces of the current window, slowest first
    /// ([`Self::TRACES`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub traces: Option<Vec<AssembledTrace>>,
    /// The structured events resident in every ring, oldest first
    /// ([`Self::EVENTS`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub events: Option<Vec<ServiceEvent>>,
    /// Events the rings have overwritten so far, an exact count
    /// (with [`Self::EVENTS`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub events_dropped: Option<u64>,
    /// Signals graded over the scraper's window, per-attribute accuracy
    /// and the folded verdict ([`Self::HEALTH`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub health: Option<HealthReport>,
}

impl Scrape {
    /// Section bit of [`Self::stats`].
    pub const STATS: u8 = 0x01;
    /// Section bit of [`Self::metrics`].
    pub const METRICS: u8 = 0x02;
    /// Section bit of [`Self::traces`].
    pub const TRACES: u8 = 0x04;
    /// Section bit of [`Self::events`] and [`Self::events_dropped`].
    pub const EVENTS: u8 = 0x08;
    /// Section bit of [`Self::health`].
    pub const HEALTH: u8 = 0x10;
    /// Every section.
    pub const ALL: u8 = 0x1F;
}
