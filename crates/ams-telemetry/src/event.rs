//! Structured service events: bounded per-thread event rings and
//! scrape-time collection.
//!
//! Metrics answer "how much"; traces answer "where did this request
//! go"; the event log answers "**what happened**" — shard lifecycle,
//! publishes, checkpoints, recovery, WAL rotation, read gates — as a
//! bounded stream of structured records (level, code, timestamp, and a
//! two-word key/value payload). The storage is the span rings' own
//! [`crate::ring`]: each emitting thread owns one single-writer
//! [`EventRing`] — lock-free on the hot path, fixed
//! [`EventHub::memory_words`], overwrite-oldest on overflow with an
//! exact drop counter — and a disabled hub turns every emission into
//! one relaxed load + branch (the noop twin used to price the
//! instrumentation).
//!
//! Timestamps ride the same process-wide monotonic clock as traces
//! ([`crate::trace_clock_ns`]), so events emitted by different threads
//! interleave in true order at collection time.

use serde::{Deserialize, Serialize};

use crate::ring::{Recorder, Ring, RingHub, RingRecord};
use crate::trace::trace_clock_ns;

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventLevel {
    /// Expected lifecycle progress.
    Info,
    /// Backpressure or degraded operation worth attention.
    Warn,
    /// A failure the service observed and survived.
    Error,
}

impl EventLevel {
    /// The level's wire/exposition name.
    pub fn name(self) -> &'static str {
        match self {
            EventLevel::Info => "info",
            EventLevel::Warn => "warn",
            EventLevel::Error => "error",
        }
    }
}

/// What happened, as a closed vocabulary (the wire carries the name,
/// the ring stores the code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventCode {
    /// A shard worker thread entered its run loop (`key` = shard).
    ShardStart,
    /// A shard worker thread exited cleanly (`key` = shard).
    ShardStop,
    /// A shard replayed WAL state at startup (`key` = shard,
    /// `value` = blocks replayed).
    Recovery,
    /// A shard published its sketch cell (`key` = shard,
    /// `value` = blocks ingested so far).
    Publish,
    /// A shard wrote a durable checkpoint (`key` = shard,
    /// `value` = blocks covered).
    Checkpoint,
    /// The shard's WAL rolled to a new segment (`key` = shard,
    /// `value` = live segment count).
    WalRotate,
    /// Checkpointing truncated WAL segments (`key` = shard,
    /// `value` = live segment count after truncation).
    WalTruncate,
    /// A WAL operation failed and wedged the shard's writer; the shard
    /// entered its failed state (`key` = shard, `value` = the failed
    /// operation's index in `ams_durable::WalOp::ALL`: append, fsync,
    /// fsync_dir, rotation, checkpoint).
    WalFailed,
    /// An exactly-once duplicate block was skipped (`key` = shard,
    /// `value` = block sequence number).
    DedupSkip,
    /// A reactor stopped reading a connection over backpressure
    /// (`key` = reactor).
    ReadGate,
    /// A reactor thread entered its event loop (`key` = reactor).
    ReactorStart,
    /// A reactor thread quiesced and exited (`key` = reactor).
    ReactorStop,
    /// A client re-established its connection (`key` = attempt count).
    Reconnect,
}

/// Every event code, in declaration order (the code ↔ u64 mapping).
pub const EVENT_CODES: [EventCode; 13] = [
    EventCode::ShardStart,
    EventCode::ShardStop,
    EventCode::Recovery,
    EventCode::Publish,
    EventCode::Checkpoint,
    EventCode::WalRotate,
    EventCode::WalTruncate,
    EventCode::WalFailed,
    EventCode::DedupSkip,
    EventCode::ReadGate,
    EventCode::ReactorStart,
    EventCode::ReactorStop,
    EventCode::Reconnect,
];

impl EventCode {
    /// The code's wire/exposition name.
    pub fn name(self) -> &'static str {
        match self {
            EventCode::ShardStart => "shard_start",
            EventCode::ShardStop => "shard_stop",
            EventCode::Recovery => "recovery",
            EventCode::Publish => "publish",
            EventCode::Checkpoint => "checkpoint",
            EventCode::WalRotate => "wal_rotate",
            EventCode::WalTruncate => "wal_truncate",
            EventCode::WalFailed => "wal_failed",
            EventCode::DedupSkip => "dedup_skip",
            EventCode::ReadGate => "read_gate",
            EventCode::ReactorStart => "reactor_start",
            EventCode::ReactorStop => "reactor_stop",
            EventCode::Reconnect => "reconnect",
        }
    }

    /// The code's canonical severity.
    pub fn level(self) -> EventLevel {
        match self {
            EventCode::WalFailed => EventLevel::Error,
            EventCode::ReadGate | EventCode::Reconnect => EventLevel::Warn,
            _ => EventLevel::Info,
        }
    }

    fn code(self) -> u64 {
        EVENT_CODES.iter().position(|&c| c == self).unwrap() as u64
    }

    fn from_code(code: u64) -> Option<EventCode> {
        EVENT_CODES.get(code as usize).copied()
    }
}

/// One event as stored in a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// What happened.
    pub code: EventCode,
    /// When, on the process trace clock ([`trace_clock_ns`]), ns.
    pub at_ns: u64,
    /// Code-specific subject (shard index, reactor index, attempt).
    pub key: u64,
    /// Code-specific magnitude (blocks, segments, sequence number).
    pub value: u64,
}

impl RingRecord for EventRecord {
    fn to_words(self) -> [u64; 4] {
        [self.code.code(), self.at_ns, self.key, self.value]
    }

    fn from_words([code, at_ns, key, value]: [u64; 4]) -> Option<Self> {
        Some(EventRecord {
            code: EventCode::from_code(code)?,
            at_ns,
            key,
            value,
        })
    }
}

/// A bounded single-writer event ring (see [`crate::ring`]).
pub type EventRing = Ring<EventRecord>;

/// A cloneable handle emitting events into one [`EventRing`]; each
/// emitting thread holds its own, taken from [`EventHub::recorder`].
pub type EventRecorder = Recorder<EventRecord>;

impl Recorder<EventRecord> {
    /// Emits one event stamped now (no-op when the hub is disabled —
    /// the disabled hot path is one relaxed load + branch, before the
    /// clock read).
    #[inline]
    pub fn emit(&self, code: EventCode, key: u64, value: u64) {
        if !self.armed() {
            return;
        }
        self.ring.push(EventRecord {
            code,
            at_ns: trace_clock_ns(),
            key,
            value,
        });
    }
}

/// One event in wire/JSON form (an entry of a scrape's events section).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceEvent {
    /// Severity name ([`EventLevel::name`]).
    pub level: String,
    /// Code name ([`EventCode::name`]).
    pub code: String,
    /// Emission time on the emitting process's trace clock, ns.
    pub at_ns: u64,
    /// Code-specific subject (shard index, reactor index, attempt).
    pub key: u64,
    /// Code-specific magnitude (blocks, segments, sequence number).
    pub value: u64,
}

impl From<EventRecord> for ServiceEvent {
    fn from(r: EventRecord) -> Self {
        ServiceEvent {
            level: r.code.level().name().to_string(),
            code: r.code.name().to_string(),
            at_ns: r.at_ns,
            key: r.key,
            value: r.value,
        }
    }
}

/// The per-process event directory: hands out per-thread event rings
/// and collects every resident event at scrape time. Registration and
/// collection take a mutex; emission never does (the hub's hot-path
/// surface is exactly [`EventRecorder::emit`]).
pub type EventHub = RingHub<EventRecord>;

/// Default events per ring.
pub const DEFAULT_EVENT_RING_CAPACITY: usize = 256;

impl Default for RingHub<EventRecord> {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_EVENT_RING_CAPACITY)
    }
}

impl RingHub<EventRecord> {
    /// A hub with the default ring capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events lost to ring overwrite, summed over recorders.
    pub fn dropped_events(&self) -> u64 {
        self.dropped()
    }

    /// Every resident event across every ring, in timestamp order
    /// (ties broken by code for determinism).
    pub fn collect(&self) -> Vec<EventRecord> {
        let mut events = self.records();
        events.sort_by_key(|e| (e.at_ns, e.code.code(), e.key));
        events
    }

    /// [`Self::collect`] in wire form.
    pub fn collect_wire(&self) -> Vec<ServiceEvent> {
        self.collect().into_iter().map(ServiceEvent::from).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn event(code: EventCode, at: u64, key: u64, value: u64) -> EventRecord {
        EventRecord {
            code,
            at_ns: at,
            key,
            value,
        }
    }

    #[test]
    fn event_codes_roundtrip() {
        for code in EVENT_CODES {
            assert_eq!(EventCode::from_code(code.code()), Some(code));
        }
        assert_eq!(EventCode::from_code(EVENT_CODES.len() as u64), None);
    }

    #[test]
    fn levels_follow_severity() {
        assert_eq!(EventCode::WalFailed.level(), EventLevel::Error);
        assert_eq!(EventCode::ReadGate.level(), EventLevel::Warn);
        assert_eq!(EventCode::Reconnect.level(), EventLevel::Warn);
        assert_eq!(EventCode::Publish.level(), EventLevel::Info);
        assert_eq!(EventLevel::Error.name(), "error");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = EventRing::new(4);
        for i in 0..10u64 {
            ring.push(event(EventCode::Publish, i * 10, 0, i));
        }
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.len(), 4);
        let mut resident: Vec<u64> = ring.snapshot().iter().map(|e| e.value).collect();
        resident.sort_unstable();
        assert_eq!(resident, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_timestamp_events_survive_snapshot() {
        // `at_ns == 0` is legal (process-start instant); presence is
        // tracked by the slot's sequence word, not by any field.
        let ring = EventRing::new(4);
        ring.push(event(EventCode::ShardStart, 0, 3, 0));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].code, EventCode::ShardStart);
        assert_eq!(snap[0].key, 3);
    }

    #[test]
    fn recorder_respects_disable() {
        let hub = EventHub::with_capacity(8);
        let rec = hub.recorder();
        hub.set_enabled(false);
        assert!(!rec.armed());
        rec.emit(EventCode::Publish, 0, 1); // disabled: noop twin
        assert!(rec.ring().is_empty());
        hub.set_enabled(true);
        rec.emit(EventCode::Publish, 0, 1);
        assert_eq!(rec.ring().len(), 1);
    }

    #[test]
    fn collect_orders_across_rings_by_timestamp() {
        let hub = EventHub::with_capacity(8);
        let a = hub.recorder();
        let b = hub.recorder();
        a.ring().push(event(EventCode::Checkpoint, 30, 0, 2));
        b.ring().push(event(EventCode::ShardStart, 10, 0, 0));
        a.ring().push(event(EventCode::Publish, 20, 0, 1));
        let codes: Vec<EventCode> = hub.collect().iter().map(|e| e.code).collect();
        assert_eq!(
            codes,
            vec![
                EventCode::ShardStart,
                EventCode::Publish,
                EventCode::Checkpoint
            ]
        );
    }

    #[test]
    fn wire_form_carries_names() {
        let hub = EventHub::with_capacity(4);
        let rec = hub.recorder();
        rec.ring().push(event(EventCode::ReadGate, 5, 1, 2));
        let wire = hub.collect_wire();
        assert_eq!(wire.len(), 1);
        assert_eq!(wire[0].level, "warn");
        assert_eq!(wire[0].code, "read_gate");
        assert_eq!(wire[0].key, 1);
        assert_eq!(wire[0].value, 2);
        let json = serde_json::to_string(&wire).unwrap();
        let back: Vec<ServiceEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, wire);
    }

    #[test]
    fn hub_memory_is_fixed_once_recorders_exist() {
        let hub = EventHub::with_capacity(16);
        let rec = hub.recorder();
        let _rec2 = hub.recorder();
        let before = hub.memory_words();
        for i in 0..10_000u64 {
            rec.emit(EventCode::Publish, 0, i);
        }
        assert_eq!(hub.memory_words(), before);
        assert_eq!(hub.dropped_events(), 10_000 - 16);
    }

    proptest! {
        /// Overflow never panics, the drop counter is exact, residency
        /// is capped at capacity, the footprint never moves, and every
        /// resident event decodes to exactly the event that was pushed.
        #[test]
        fn event_ring_overflow_is_exact(
            capacity in 1usize..32,
            pushes in 0u64..2000,
        ) {
            let ring = EventRing::new(capacity);
            let words = ring.memory_words();
            for i in 0..pushes {
                let code = EVENT_CODES[i as usize % EVENT_CODES.len()];
                ring.push(event(code, i, i ^ 0x5a, i + 1));
            }
            prop_assert_eq!(ring.pushed(), pushes);
            prop_assert_eq!(ring.dropped(), pushes.saturating_sub(capacity as u64));
            prop_assert_eq!(ring.len() as u64, pushes.min(capacity as u64));
            prop_assert_eq!(ring.memory_words(), words);
            for e in ring.snapshot() {
                prop_assert!(e.value >= 1 && e.value <= pushes);
                let i = e.value - 1;
                let code = EVENT_CODES[i as usize % EVENT_CODES.len()];
                prop_assert_eq!(e, event(code, i, i ^ 0x5a, i + 1));
            }
        }
    }
}
