//! Lock-free-on-the-hot-path metrics kernel for the AMS service stack.
//!
//! The sketches this workspace reproduces answer "what is this stream
//! doing?" in constant memory; this crate applies the same discipline
//! to the system that serves them. Every instrument is a small,
//! fixed-size structure updated with relaxed atomic operations — no
//! locks, no allocation, no syscalls on the hot path — and every
//! instrument is *mergeable counter-wise*, exactly like the sketches:
//!
//! * [`Counter`] — monotone `u64` event count on one relaxed atomic.
//! * [`Gauge`] — signed instantaneous level (queue depth, memory
//!   words) on one relaxed atomic.
//! * [`LatencyHistogram`] — constant-memory log₂-bucketed latency
//!   distribution (power-of-two nanosecond buckets, `u64` atomics,
//!   saturating top bucket) answering p50/p90/p99/max at snapshot
//!   time. Two histograms of disjoint streams merge bucket-wise into
//!   the histogram of the concatenated stream (pinned by property
//!   tests, like the sketch linearity suite).
//! * [`ScopedTimer`] — a span guard recording its elapsed nanoseconds
//!   into a histogram on drop.
//! * [`MemoryTracker`] — a start/stop/delta guard that keeps a gauge
//!   in sync with a component's reported memory footprint and
//!   debug-asserts balanced tracking at drop.
//! * [`MetricsRegistry`] — cold-path registration returning shared
//!   handles; [`MetricsRegistry::snapshot`] produces a serializable
//!   [`MetricsSnapshot`] with Prometheus-style
//!   `name{label="v"} value` text exposition.
//! * [`noop`] — API-identical zero-cost twins, the baseline a bench
//!   harness compares against to price the instrumentation itself.
//! * [`ring`] — the bounded single-writer ring both logs below store
//!   into: fixed four-word records, overwrite-oldest, an exact drop
//!   counter and a fixed footprint, handed out one per thread by a
//!   [`RingHub`].
//! * [`trace`] — per-request tracing: per-thread span rings
//!   ([`SpanRing`]), a completion-time tail sampler keeping the
//!   slowest-N requests per window, and scrape-time assembly of
//!   complete stage-by-stage traces ([`TraceHub::assemble`]).
//! * [`event`] — the structured event log: per-thread event rings
//!   ([`EventRing`]: level, code, timestamp, key/value payload)
//!   collected into timestamp order at scrape time
//!   ([`EventHub::collect`]).
//! * [`health`] — windowed health grading: derived signals compared
//!   against degraded/unhealthy thresholds, folded into a
//!   [`HealthVerdict`] with reasons, alongside per-attribute
//!   [`AccuracyReport`]s (confidence interval, shadow-audit error,
//!   skew score) — the statistical half of "is the service healthy?".
//!
//! The registry lock is touched only at registration and snapshot
//! time; handles returned by registration are plain `Arc`s over the
//! atomic instruments, so concurrent recorders never contend on
//! anything wider than a cache line.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod counter;
pub mod event;
pub mod health;
pub mod histogram;
pub mod memory;
pub mod noop;
pub mod registry;
pub mod ring;
pub mod timer;
pub mod trace;

pub use counter::{Counter, Gauge};
pub use event::{
    EventCode, EventHub, EventLevel, EventRecord, EventRecorder, EventRing, ServiceEvent,
    EVENT_CODES,
};
pub use health::{AccuracyReport, HealthReport, HealthSignal, HealthVerdict, SignalStatus};
pub use histogram::{HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use memory::MemoryTracker;
pub use registry::{MetricSample, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use ring::{Recorder, Ring, RingHub, RingRecord};
pub use timer::ScopedTimer;
pub use trace::{
    trace_clock_ns, AssembledTrace, SpanRecord, SpanRing, TailSampler, TraceCtx, TraceHub,
    TraceRecorder, TraceSpan, TraceStage,
};
