//! Per-request tracing: bounded span rings, tail sampling, and
//! scrape-time trace assembly.
//!
//! The metrics kernel prices every stage of the request path in
//! aggregate; this module connects the stages back into individual
//! requests. A traced request carries a nonzero `trace_id` from the
//! client through decode, routing, the shard queue, the ingest kernel,
//! the WAL, and the ack, and every stage stamps a [`TraceStage`] span
//! into a bounded per-thread [`SpanRing`] (a [`crate::ring`], shared
//! with the event log) — lock-free on the hot path, fixed
//! [`TraceHub::memory_words`], overwrite-oldest on overflow with an
//! exact drop counter, the same constant-memory discipline as the log₂
//! histograms. Nothing is correlated while the request is in
//! flight; complete traces are assembled only at scrape time
//! ([`TraceHub::assemble`]), and a **tail sampler** keeps the ids of
//! the slowest-N requests per window so the interesting traces survive
//! the ring.
//!
//! All span timestamps are nanoseconds on one process-wide monotonic
//! clock ([`trace_clock_ns`]), so spans recorded by different threads
//! order correctly within a trace.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::ring::{Recorder, Ring, RingHub, RingRecord};

/// The process-wide monotonic clock every span is stamped against:
/// nanoseconds since the first call in this process.
pub fn trace_clock_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The stage of the request path a span covers, in path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceStage {
    /// Client-side frame encode (client's local ring only).
    ClientEncode,
    /// Reactor frame decode.
    Decode,
    /// Router partition + shard-queue enqueue.
    Route,
    /// Shard-queue residency (enqueue → dequeue).
    Queue,
    /// Block-apply ingest kernel.
    Kernel,
    /// WAL record append (durability on).
    WalAppend,
    /// WAL fsync the request's sync point rode (durability on).
    Fsync,
    /// Ack parked on the durable watermark (AckMode::Fsync).
    DurableWait,
    /// Response frame encode.
    Ack,
    /// Client-side response receive (client's local ring only).
    ClientRecv,
}

/// Every stage, in request-path order.
pub const STAGES: [TraceStage; 10] = [
    TraceStage::ClientEncode,
    TraceStage::Decode,
    TraceStage::Route,
    TraceStage::Queue,
    TraceStage::Kernel,
    TraceStage::WalAppend,
    TraceStage::Fsync,
    TraceStage::DurableWait,
    TraceStage::Ack,
    TraceStage::ClientRecv,
];

impl TraceStage {
    /// The stage's wire/exposition name.
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::ClientEncode => "client_encode",
            TraceStage::Decode => "decode",
            TraceStage::Route => "route",
            TraceStage::Queue => "queue",
            TraceStage::Kernel => "kernel",
            TraceStage::WalAppend => "wal_append",
            TraceStage::Fsync => "fsync",
            TraceStage::DurableWait => "durable_wait",
            TraceStage::Ack => "ack",
            TraceStage::ClientRecv => "client_recv",
        }
    }

    fn code(self) -> u64 {
        STAGES.iter().position(|&s| s == self).unwrap() as u64
    }

    fn from_code(code: u64) -> Option<TraceStage> {
        STAGES.get(code as usize).copied()
    }
}

/// A small copyable trace context: the request's id plus the
/// clock reading when the server first saw it. `id == 0` means the
/// request is untraced and every recording call is a no-op branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// The request's trace id (0 = untraced).
    pub id: u64,
    /// [`trace_clock_ns`] when the request entered this side of the
    /// wire — the end-to-end latency anchor the tail sampler prices.
    pub begin_ns: u64,
}

impl TraceCtx {
    /// The untraced context.
    pub fn none() -> Self {
        Self::default()
    }

    /// A context for `id`, anchored now. Untraced when `id == 0`.
    pub fn begin(id: u64) -> Self {
        Self {
            id,
            begin_ns: if id == 0 { 0 } else { trace_clock_ns() },
        }
    }

    /// Whether this request is traced.
    pub fn active(&self) -> bool {
        self.id != 0
    }
}

/// One span as stored in a ring: which request, which stage, when,
/// how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The owning request's trace id (nonzero).
    pub trace_id: u64,
    /// The stage the span covers.
    pub stage: TraceStage,
    /// Span start on the process trace clock, ns.
    pub start_ns: u64,
    /// Span duration, ns.
    pub dur_ns: u64,
}

impl RingRecord for SpanRecord {
    fn to_words(self) -> [u64; 4] {
        [self.trace_id, self.stage.code(), self.start_ns, self.dur_ns]
    }

    fn from_words([trace_id, stage, start_ns, dur_ns]: [u64; 4]) -> Option<Self> {
        Some(SpanRecord {
            trace_id,
            stage: TraceStage::from_code(stage)?,
            start_ns,
            dur_ns,
        })
    }
}

/// A bounded single-writer span ring (see [`crate::ring`]).
pub type SpanRing = Ring<SpanRecord>;

/// A cloneable handle recording spans into one [`SpanRing`]; each
/// recording thread holds its own, taken from [`TraceHub::recorder`].
pub type TraceRecorder = Recorder<SpanRecord>;

impl Recorder<SpanRecord> {
    /// Records a span for `trace_id` (no-op when the id is 0 or the
    /// hub is disabled — the untraced hot path is one branch).
    #[inline]
    pub fn record(&self, trace_id: u64, stage: TraceStage, start_ns: u64, dur_ns: u64) {
        if trace_id == 0 || !self.armed() {
            return;
        }
        self.ring.push(SpanRecord {
            trace_id,
            stage,
            start_ns,
            dur_ns,
        });
    }

    /// Records the span from `start` to now.
    #[inline]
    pub fn record_since(&self, trace_id: u64, stage: TraceStage, start_ns: u64) {
        let now = trace_clock_ns();
        self.record(trace_id, stage, start_ns, now.saturating_sub(start_ns));
    }

    /// Records a span that ends now and lasted `dur_ns`.
    #[inline]
    pub fn record_ending_now(&self, trace_id: u64, stage: TraceStage, dur_ns: u64) {
        let now = trace_clock_ns();
        self.record(trace_id, stage, now.saturating_sub(dur_ns), dur_ns);
    }
}

/// The tail sampler: keeps the ids of the slowest-`keep` completed
/// requests per window of `window` completions, so scrape-time
/// assembly spends its bounded output on the requests that explain the
/// tail. Offers are made only for *traced* requests — the untraced hot
/// path never reaches it.
#[derive(Debug)]
pub struct TailSampler {
    keep: usize,
    window: u64,
    state: Mutex<TailState>,
}

#[derive(Debug, Default)]
struct TailState {
    /// `(trace_id, total_ns)`, unordered, at most `keep` entries.
    entries: Vec<(u64, u64)>,
    offers_in_window: u64,
    total_offers: u64,
}

impl TailSampler {
    /// A sampler keeping the slowest `keep` ids per `window` offers.
    pub fn new(keep: usize, window: u64) -> Self {
        Self {
            keep: keep.max(1),
            window: window.max(1),
            state: Mutex::new(TailState::default()),
        }
    }

    /// Offers a completed request; it survives the window if it is
    /// among the `keep` slowest seen so far.
    pub fn offer(&self, trace_id: u64, total_ns: u64) {
        if trace_id == 0 {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.offers_in_window >= self.window {
            state.entries.clear();
            state.offers_in_window = 0;
        }
        state.offers_in_window += 1;
        state.total_offers += 1;
        if let Some(entry) = state.entries.iter_mut().find(|(id, _)| *id == trace_id) {
            entry.1 = entry.1.max(total_ns);
        } else if state.entries.len() < self.keep {
            state.entries.push((trace_id, total_ns));
        } else if let Some(min) = state
            .entries
            .iter_mut()
            .min_by_key(|(_, total)| *total)
            .filter(|(_, total)| *total < total_ns)
        {
            *min = (trace_id, total_ns);
        }
    }

    /// The surviving `(trace_id, total_ns)` set, slowest first.
    pub fn slowest(&self) -> Vec<(u64, u64)> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut entries = state.entries.clone();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries
    }

    /// Lifetime offers (traced completions observed).
    pub fn offers(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .total_offers
    }

    /// Fixed footprint in 64-bit words.
    pub fn memory_words(&self) -> usize {
        self.keep * 2 + 2
    }
}

/// One stage span of an assembled trace, in wire/JSON form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Stage name ([`TraceStage::name`]).
    pub stage: String,
    /// Span start on the recording process's trace clock, ns.
    pub start_ns: u64,
    /// Span duration, ns.
    pub dur_ns: u64,
}

/// A complete request trace assembled at scrape time: every span
/// recorded for one `trace_id`, in start order, plus the end-to-end
/// latency the tail sampler priced it at.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssembledTrace {
    /// The request's trace id.
    pub trace_id: u64,
    /// End-to-end latency as priced at completion (ack for the server
    /// hub, receive for the client hub), ns.
    pub total_ns: u64,
    /// Stage spans, sorted by `start_ns`.
    pub spans: Vec<TraceSpan>,
}

impl AssembledTrace {
    /// The duration of the named stage's span, summed over occurrences
    /// (0 when absent).
    pub fn stage_ns(&self, stage: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Sum of every span duration — at most `total_ns` plus clock
    /// granularity when stages don't overlap.
    pub fn span_sum_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.dur_ns).sum()
    }
}

/// The per-process trace directory: hands out per-thread span rings,
/// owns the tail sampler, and assembles complete traces at scrape
/// time. Registration and assembly take a mutex; recording never does
/// (the hub's hot-path surface is exactly [`TraceRecorder::record`]).
#[derive(Debug)]
pub struct TraceHub {
    rings: RingHub<SpanRecord>,
    sampler: TailSampler,
}

/// Default spans per ring.
pub const DEFAULT_RING_CAPACITY: usize = 1024;
/// Default slowest-N traces kept per sampling window.
pub const DEFAULT_TAIL_KEEP: usize = 32;
/// Default completions per sampling window.
pub const DEFAULT_TAIL_WINDOW: u64 = 4096;

impl Default for TraceHub {
    fn default() -> Self {
        Self::with_shape(
            DEFAULT_RING_CAPACITY,
            DEFAULT_TAIL_KEEP,
            DEFAULT_TAIL_WINDOW,
        )
    }
}

impl TraceHub {
    /// A hub with the default ring and sampler shape.
    pub fn new() -> Self {
        Self::default()
    }

    /// A hub with explicit bounds: `ring_capacity` spans per recorder
    /// ring, the slowest `keep` traces kept per `window` completions.
    pub fn with_shape(ring_capacity: usize, keep: usize, window: u64) -> Self {
        Self {
            rings: RingHub::with_capacity(ring_capacity),
            sampler: TailSampler::new(keep, window),
        }
    }

    /// Creates and registers a new single-writer recorder; each
    /// recording thread should take exactly one.
    pub fn recorder(&self) -> TraceRecorder {
        self.rings.recorder()
    }

    /// Globally arms or disarms recording (the noop twin for overhead
    /// pricing: a disabled hub turns every record into one relaxed
    /// load + branch).
    pub fn set_enabled(&self, enabled: bool) {
        self.rings.set_enabled(enabled);
    }

    /// Whether recording is armed.
    pub fn enabled(&self) -> bool {
        self.rings.enabled()
    }

    /// The completion-time tail sampler.
    pub fn sampler(&self) -> &TailSampler {
        &self.sampler
    }

    /// Spans lost to ring overwrite, summed over recorders.
    pub fn dropped_spans(&self) -> u64 {
        self.rings.dropped()
    }

    /// Total footprint in 64-bit words: every ring plus the sampler —
    /// fixed once every recording thread has registered, independent
    /// of traffic.
    pub fn memory_words(&self) -> usize {
        self.rings.memory_words() + self.sampler.memory_words()
    }

    fn assemble_ids(&self, ids: &[(u64, u64)]) -> Vec<AssembledTrace> {
        let spans = self.rings.records();
        let mut out = Vec::with_capacity(ids.len());
        for &(trace_id, total_ns) in ids {
            let mut trace_spans: Vec<TraceSpan> = spans
                .iter()
                .filter(|s| s.trace_id == trace_id)
                .map(|s| TraceSpan {
                    stage: s.stage.name().to_string(),
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                })
                .collect();
            if trace_spans.is_empty() {
                continue;
            }
            trace_spans.sort_by_key(|s| (s.start_ns, s.dur_ns));
            out.push(AssembledTrace {
                trace_id,
                total_ns,
                spans: trace_spans,
            });
        }
        out
    }

    /// Assembles the tail-sampled traces (slowest first): every span
    /// still resident for each surviving trace id.
    pub fn assemble(&self) -> Vec<AssembledTrace> {
        self.assemble_ids(&self.sampler.slowest())
    }

    /// Assembles **every** trace with resident spans (tests and local
    /// client rings; end-to-end from span extents when the sampler
    /// never priced the id).
    pub fn assemble_all(&self) -> Vec<AssembledTrace> {
        let spans = self.rings.records();
        let mut ids: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        let priced: Vec<(u64, u64)> = self.sampler.slowest();
        let ids: Vec<(u64, u64)> = ids
            .into_iter()
            .map(|id| {
                let total = priced
                    .iter()
                    .find(|(pid, _)| *pid == id)
                    .map(|(_, t)| *t)
                    .unwrap_or_else(|| {
                        let mine: Vec<&SpanRecord> =
                            spans.iter().filter(|s| s.trace_id == id).collect();
                        let start = mine.iter().map(|s| s.start_ns).min().unwrap_or(0);
                        let end = mine
                            .iter()
                            .map(|s| s.start_ns + s.dur_ns)
                            .max()
                            .unwrap_or(0);
                        end.saturating_sub(start)
                    });
                (id, total)
            })
            .collect();
        self.assemble_ids(&ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn span(id: u64, stage: TraceStage, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            trace_id: id,
            stage,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn stage_codes_roundtrip() {
        for stage in STAGES {
            assert_eq!(TraceStage::from_code(stage.code()), Some(stage));
        }
        assert_eq!(TraceStage::from_code(STAGES.len() as u64), None);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = SpanRing::new(4);
        for i in 0..10u64 {
            ring.push(span(i + 1, TraceStage::Kernel, i * 10, 5));
        }
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.len(), 4);
        let resident: Vec<u64> = ring.snapshot().iter().map(|s| s.trace_id).collect();
        // Slots hold the newest 4 spans (ids 7..=10 in ring order).
        let mut sorted = resident.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![7, 8, 9, 10]);
    }

    #[test]
    fn ring_memory_is_fixed() {
        let ring = SpanRing::new(8);
        let before = ring.memory_words();
        for i in 0..1000u64 {
            ring.push(span(1, TraceStage::Queue, i, 1));
        }
        assert_eq!(ring.memory_words(), before);
    }

    #[test]
    fn recorder_skips_untraced_and_disabled() {
        let hub = TraceHub::with_shape(8, 4, 100);
        let rec = hub.recorder();
        rec.record(0, TraceStage::Kernel, 0, 1); // untraced: dropped
        assert!(rec.ring().is_empty());
        hub.set_enabled(false);
        rec.record(7, TraceStage::Kernel, 0, 1); // disabled: noop twin
        assert!(rec.ring().is_empty());
        hub.set_enabled(true);
        rec.record(7, TraceStage::Kernel, 0, 1);
        assert_eq!(rec.ring().len(), 1);
    }

    #[test]
    fn tail_sampler_keeps_slowest_per_window() {
        let sampler = TailSampler::new(2, 100);
        sampler.offer(1, 10);
        sampler.offer(2, 50);
        sampler.offer(3, 30); // evicts id 1 (10 < 30)
        sampler.offer(4, 5); // too fast, not kept
        let slowest = sampler.slowest();
        assert_eq!(slowest, vec![(2, 50), (3, 30)]);
        assert_eq!(sampler.offers(), 4);
    }

    #[test]
    fn tail_sampler_window_resets() {
        let sampler = TailSampler::new(2, 3);
        sampler.offer(1, 100);
        sampler.offer(2, 90);
        sampler.offer(3, 80);
        // Window of 3 exhausted: the next offer starts fresh, so a
        // modest latecomer survives even though the old window was
        // slower.
        sampler.offer(4, 10);
        assert_eq!(sampler.slowest(), vec![(4, 10)]);
    }

    #[test]
    fn assembly_groups_and_orders_spans() {
        let hub = TraceHub::with_shape(64, 4, 1000);
        let rec_a = hub.recorder();
        let rec_b = hub.recorder();
        rec_a.record(9, TraceStage::Decode, 100, 10);
        rec_b.record(9, TraceStage::Kernel, 150, 30);
        rec_a.record(9, TraceStage::Ack, 200, 5);
        rec_b.record(8, TraceStage::Decode, 90, 2);
        hub.sampler().offer(9, 120);
        let traces = hub.assemble();
        assert_eq!(traces.len(), 1, "only the sampled id assembles");
        let t = &traces[0];
        assert_eq!(t.trace_id, 9);
        assert_eq!(t.total_ns, 120);
        let stages: Vec<&str> = t.spans.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, vec!["decode", "kernel", "ack"]);
        assert_eq!(t.stage_ns("kernel"), 30);
        assert_eq!(t.span_sum_ns(), 45);
        // assemble_all also surfaces the unsampled trace.
        let all = hub.assemble_all();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn hub_memory_is_fixed_once_recorders_exist() {
        let hub = TraceHub::with_shape(16, 4, 100);
        let rec = hub.recorder();
        let _rec2 = hub.recorder();
        let before = hub.memory_words();
        for i in 0..10_000u64 {
            rec.record(i + 1, TraceStage::Queue, i, 1);
            hub.sampler().offer(i + 1, i);
        }
        assert_eq!(hub.memory_words(), before);
    }

    #[test]
    fn trace_ctx_begin_anchors_nonzero() {
        assert!(!TraceCtx::none().active());
        let ctx = TraceCtx::begin(42);
        assert!(ctx.active());
        assert!(trace_clock_ns() >= ctx.begin_ns);
        assert_eq!(TraceCtx::begin(0), TraceCtx::none());
    }

    proptest! {
        /// Overflow never panics, the drop counter is exact, residency
        /// is capped at capacity, the footprint never moves, and every
        /// resident span decodes to exactly the span that was pushed.
        #[test]
        fn ring_overflow_is_exact(
            capacity in 1usize..32,
            pushes in 0u64..2000,
        ) {
            let ring = SpanRing::new(capacity);
            let words = ring.memory_words();
            for i in 0..pushes {
                ring.push(span(i + 1, STAGES[i as usize % STAGES.len()], i, 1));
            }
            prop_assert_eq!(ring.pushed(), pushes);
            prop_assert_eq!(ring.dropped(), pushes.saturating_sub(capacity as u64));
            prop_assert_eq!(ring.len() as u64, pushes.min(capacity as u64));
            prop_assert_eq!(ring.memory_words(), words);
            for s in ring.snapshot() {
                prop_assert!(s.trace_id >= 1 && s.trace_id <= pushes);
                let i = s.trace_id - 1;
                prop_assert_eq!(s, span(s.trace_id, STAGES[i as usize % STAGES.len()], i, 1));
            }
        }

        /// The sampler keeps exactly the slowest ids of each window.
        #[test]
        fn sampler_keeps_the_slowest(
            keep in 1usize..8,
            totals in proptest::collection::vec(0u64..10_000, 0..64),
        ) {
            let sampler = TailSampler::new(keep, u64::MAX);
            for (i, &t) in totals.iter().enumerate() {
                sampler.offer(i as u64 + 1, t);
            }
            let kept = sampler.slowest();
            prop_assert_eq!(kept.len(), totals.len().min(keep));
            // No unkept offer is strictly slower than a kept one.
            let floor = kept.iter().map(|(_, t)| *t).min().unwrap_or(0);
            let slower = totals.iter().filter(|&&t| t > floor).count();
            prop_assert!(slower <= keep);
        }
    }
}
