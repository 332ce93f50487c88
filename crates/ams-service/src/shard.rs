//! The shard worker loop: drain the shard's bounded queue through the
//! zero-allocation block kernels, publish snapshots on a cadence —
//! and, when durability is configured, recover the shard's log before
//! the first pop, write-ahead-log every block before applying it,
//! advance the shard's durable watermark on fsync, and checkpoint the
//! sketch state on a block cadence.
//!
//! A pop takes one of two paths. The per-task path logs, applies and
//! settles one block. The batch path runs only when the popped block's
//! sketch currently coalesces (its duplicate-ratio gate is on) and more
//! tasks are queued: it takes the queued tasks under one lock, logs
//! each exactly as the per-task path does, folds each applied block
//! into its attribute's coalescing scratch and drops it, then sweeps
//! each attribute's net deltas once and settles once. Counters are
//! integer sums, so both paths leave bit-identical counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use ams_core::{SelfJoinEstimator, SignCacheStats, SketchParams, TugOfWarSketch};
use ams_durable::{
    DurabilityConfig, DurableError, ShardDurable, ShardRecovery, ShardShape, WalInstruments,
};
use ams_stream::OpBlock;
use ams_telemetry::{
    trace_clock_ns, EventCode, EventRecorder, Gauge, MemoryTracker, TraceRecorder, TraceStage,
};

use crate::queue::{BlockQueue, ShardTask};
use crate::snapshot::{ShardCell, ShardSnapshot};
use crate::telemetry::ShardInstruments;
use crate::wake::WakeHook;

/// What a shard worker needs to open its own log. The worker recovers
/// its shard (checkpoint load and log replay) before its first pop and
/// sends the recovery report, or the error, back to
/// [`AmsService::start`](crate::AmsService::start), which waits for
/// every shard's.
pub(crate) struct DurableSetup {
    pub config: DurabilityConfig,
    pub shape: ShardShape,
    pub instruments: WalInstruments,
    pub watermark: Arc<AtomicU64>,
    pub wake: Arc<WakeHook>,
    pub report: SyncSender<Result<ShardRecovery, DurableError>>,
}

/// The durability half of a running shard worker.
struct DurableShardState {
    /// The shard's WAL + checkpoint writer, positioned at the log end.
    /// Once it wedges (any WAL operation failed) the shard stops
    /// logging, applying, publishing, and checkpointing (an
    /// inconsistent log must not grow, and unlogged state must not leak
    /// into checkpoints), but keeps draining its queue so producers do
    /// not block. The watermark freezes — durable acks stall exactly
    /// like a crashed server's.
    wal: ShardDurable,
    /// Checkpoint cadence in applied blocks.
    checkpoint_every: u64,
    /// Blocks covered by the newest on-disk checkpoint; the worker
    /// checkpoints again once `blocks - checkpointed_blocks` reaches
    /// the cadence, and once more at clean shutdown so restart replays
    /// nothing.
    checkpointed_blocks: u64,
    /// This-lifetime count of popped blocks whose effects are durable;
    /// shared with [`AmsService::poll_durable`](crate::AmsService::poll_durable).
    /// The worker stores it only through [`Self::advance`], so every
    /// advance rings the wake hook.
    watermark: Arc<AtomicU64>,
    /// Rung after every watermark advance, for durable acks parked
    /// without a thread.
    wake: Arc<WakeHook>,
}

impl DurableShardState {
    /// Publishes that the first `popped` blocks are durable.
    fn advance(&self, popped: u64) {
        self.watermark.store(popped, Ordering::Release);
        self.wake.wake();
    }
}

/// Everything one worker thread needs; constructed by the service,
/// consumed by [`run`](ShardWorker::run).
pub(crate) struct ShardWorker {
    pub queue: Arc<BlockQueue>,
    pub cell: Arc<ShardCell>,
    pub params: SketchParams,
    pub seed: u64,
    /// This shard's index — the `key` of every event it emits.
    pub shard: u64,
    pub attrs: usize,
    pub publish_every: u64,
    /// This shard's counters and histograms (shared atomics).
    pub instruments: ShardInstruments,
    /// Per-attribute sketch-memory gauges, shared across all shards:
    /// each worker contributes its sketches' words through a
    /// [`MemoryTracker`] and returns them at exit.
    pub sketch_memory: Vec<Arc<Gauge>>,
    /// The shard's log to open, when the service config enables
    /// durability.
    pub durable: Option<DurableSetup>,
    /// This worker's span recorder (one per thread: single-writer by
    /// construction). Untraced tasks cost one relaxed load + branch.
    pub recorder: TraceRecorder,
    /// This worker's structured-event recorder (one per thread,
    /// single-writer like the span ring). Lifecycle-only emission:
    /// nothing fires on the per-block hot path except dedup skips and
    /// WAL failures, which are already off the fast path.
    pub events: EventRecorder,
}

/// What the worker loop carries from one pop to the next.
struct ShardState {
    /// One sketch per attribute. They live on the worker's stack: the
    /// hot path touches no shared state, and the reusable ingest
    /// scratch inside each sketch makes steady-state application
    /// allocation-free.
    sketches: Vec<TugOfWarSketch>,
    /// Applied blocks and ops, recovered ones included.
    blocks: u64,
    ops: u64,
    epoch: u64,
    /// Per-producer sequence high-water marks (the dedup table).
    producers: HashMap<u64, u64>,
    /// This-lifetime popped blocks, the durable watermark's unit: the
    /// queue is FIFO, so "the first `n` pops are durable" maps 1:1 onto
    /// "the first `n` submissions are durable".
    popped: u64,
    published_blocks: u64,
    published_processed: u64,
    /// Segment count last seen: moves across appends and checkpoints
    /// are emitted as `WalRotate` / `WalTruncate`.
    wal_segments: u64,
    durable: Option<DurableShardState>,
}

/// One block folded into a batch, remembered after the block itself is
/// dropped so the sweep's cost and spans can be attributed to it.
struct Folded {
    attr: usize,
    entries: usize,
    /// Trace id when the block is traced and the recorder armed, else 0.
    trace: u64,
}

impl ShardWorker {
    /// The worker loop: pop → (log →) apply → publish every
    /// `publish_every` blocks and whenever the queue momentarily
    /// drains, with a final publish — and, when durable, a final
    /// checkpoint — after the queue closes. Returns when the queue is
    /// closed and fully drained.
    pub(crate) fn run(mut self) {
        let _close_on_unwind = CloseOnUnwind(Arc::clone(&self.queue));
        self.events.emit(EventCode::ShardStart, self.shard, 0);
        let mut durable = None;
        let mut recovered = None;
        let mut ready = None;
        if let Some(setup) = self.durable.take() {
            let DurableSetup {
                config,
                shape,
                instruments,
                watermark,
                wake,
                report,
            } = setup;
            match ShardDurable::open(&config, self.shard as usize, &shape, instruments) {
                Ok((wal, state, recovery)) => {
                    durable = Some(DurableShardState {
                        wal,
                        checkpoint_every: config.checkpoint_every_blocks,
                        checkpointed_blocks: recovery.checkpoint_blocks,
                        watermark,
                        wake,
                    });
                    recovered = Some(state);
                    ready = Some((report, recovery));
                }
                Err(error) => {
                    // `start` then stops every worker and returns the
                    // first error.
                    let _ = report.send(Err(error));
                    return;
                }
            }
        }
        let wal_segments = durable.as_ref().map_or(0, |d| d.wal.segment_count());
        let (mut sketches, blocks, ops, epoch, producers) = match recovered {
            Some(r) => (r.sketches, r.blocks, r.ops, r.epoch, r.producers),
            None => (
                (0..self.attrs)
                    .map(|_| TugOfWarSketch::new(self.params, self.seed))
                    .collect(),
                0,
                0,
                0,
                HashMap::new(),
            ),
        };
        // Counts from recovery's replay are not this worker's.
        for sketch in &mut sketches {
            sketch.take_sign_cache_stats();
        }
        let mut state = ShardState {
            sketches,
            blocks,
            ops,
            epoch,
            producers,
            popped: 0,
            published_blocks: 0,
            published_processed: 0,
            wal_segments,
            durable,
        };
        // Each sketch's footprint is accounted to its attribute's
        // memory gauge for as long as the worker lives.
        let mut trackers: Vec<MemoryTracker> = self
            .sketch_memory
            .iter()
            .map(|gauge| MemoryTracker::new(Arc::clone(gauge)))
            .collect();
        for (attr, sketch) in state.sketches.iter().enumerate() {
            trackers[attr].start(0);
            trackers[attr].stop(sketch.memory_words());
        }
        // A recovered shard publishes immediately, so queries reflect
        // the recovered counters before any new traffic arrives.
        if state.blocks > 0 {
            self.events
                .emit(EventCode::Recovery, self.shard, state.blocks);
            self.publish(&mut state);
        }
        // Report only now, so a restarted service serves its recovered
        // state as soon as `start` returns.
        if let Some((report, recovery)) = ready {
            let _ = report.send(Ok(recovery));
        }
        // Reused across batches: the taken tasks (each dropped once
        // folded) and their bookkeeping.
        let mut taken: Vec<ShardTask> = Vec::new();
        let mut batch: Vec<Folded> = Vec::new();
        while let Some(task) = self.queue.pop() {
            #[cfg(test)]
            fault::inject(&task);
            if state.sketches[task.attr].coalesces()
                && self.queue.take_queued(batch_room(&state), &mut taken) > 0
            {
                self.run_batch(&mut state, task, &mut taken, &mut batch);
            } else {
                self.run_task(&mut state, task);
            }
        }
        // Clean shutdown: make everything appended durable and let the
        // watermark catch up before the final publish.
        if let Some(d) = state.durable.as_mut().filter(|d| !d.wal.failed()) {
            match d.wal.maybe_sync(true) {
                Ok(_) => d.advance(state.popped),
                Err(_) => self.wal_failed(&d.wal),
            }
        }
        if state.published_blocks < state.blocks
            || state.published_processed < state.popped
            || state.epoch == 0
        {
            self.publish(&mut state);
        }
        // Final checkpoint at the log end: the next start recovers with
        // zero replay, and segments every retained checkpoint covers
        // are pruned.
        if state
            .durable
            .as_ref()
            .is_some_and(|d| !d.wal.failed() && state.blocks > d.checkpointed_blocks)
        {
            self.checkpoint(&mut state);
        }
        // The sketches die with the worker: hand their words back so
        // the memory gauges return to zero (the trackers' drop asserts
        // would trip otherwise).
        for tracker in &mut trackers {
            tracker.release_all();
        }
        self.events
            .emit(EventCode::ShardStop, self.shard, state.blocks);
    }

    /// The per-task path: log, apply, settle.
    fn run_task(&self, state: &mut ShardState, task: ShardTask) {
        // Span sites are guarded so untraced tasks (the vast majority
        // under sampling) never read the trace clock.
        let trace = self.trace_of(&task);
        if self.log(state, &task, trace) {
            {
                let _span = self.instruments.ingest_ns.time();
                let t0 = if trace != 0 { trace_clock_ns() } else { 0 };
                state.sketches[task.attr].apply_block(&task.block);
                if trace != 0 {
                    self.recorder.record_since(trace, TraceStage::Kernel, t0);
                }
            }
            self.count_sign_cache(&mut state.sketches[task.attr]);
            self.count_applied(state, &task.block);
        }
        if let Some((t0, dur)) = self.settle(state, trace != 0) {
            self.recorder.record(trace, TraceStage::Fsync, t0, dur);
        }
    }

    /// The batch path: `first` plus the tasks already moved into
    /// `taken`, logged in order, folded per attribute, swept once per
    /// attribute and settled once. Each applied block records its
    /// entry-weighted share of the batch's fold and sweep time in
    /// `service_ingest_ns`, so the histogram keeps one sample per
    /// applied block and its sum stays the shard's kernel time.
    fn run_batch(
        &self,
        state: &mut ShardState,
        first: ShardTask,
        taken: &mut Vec<ShardTask>,
        batch: &mut Vec<Folded>,
    ) {
        batch.clear();
        let mut kernel_ns = 0u64;
        for task in std::iter::once(first).chain(taken.drain(..)) {
            let trace = self.trace_of(&task);
            if self.log(state, &task, trace) {
                let t0 = trace_clock_ns();
                state.sketches[task.attr].fold_block(&task.block);
                kernel_ns += trace_clock_ns().saturating_sub(t0);
                self.count_applied(state, &task.block);
                batch.push(Folded {
                    attr: task.attr,
                    entries: task.block.len(),
                    trace,
                });
            }
        }
        for (attr, sketch) in state.sketches.iter_mut().enumerate() {
            let folded = || batch.iter().filter(|t| t.attr == attr);
            let blocks = folded().count() as u64;
            if blocks == 0 {
                continue;
            }
            let t0 = trace_clock_ns();
            sketch.sweep_folded();
            let sweep_ns = trace_clock_ns().saturating_sub(t0);
            kernel_ns += sweep_ns;
            self.count_sign_cache(sketch);
            for t in folded() {
                self.recorder
                    .record(t.trace, TraceStage::Kernel, t0, sweep_ns);
            }
            if blocks > 1 {
                self.instruments.batched_blocks.add(blocks);
            }
        }
        let entries = batch.iter().map(|t| t.entries).sum::<usize>().max(1) as u128;
        for t in batch.iter() {
            let share = u128::from(kernel_ns) * t.entries as u128 / entries;
            self.instruments
                .ingest_ns
                .record(u64::try_from(share).unwrap_or(u64::MAX));
        }
        let traced = batch.iter().any(|t| t.trace != 0);
        if let Some((t0, dur)) = self.settle(state, traced) {
            for t in batch.iter() {
                self.recorder.record(t.trace, TraceStage::Fsync, t0, dur);
            }
        }
    }

    /// The task's trace id when it is traced and the recorder armed,
    /// else 0.
    fn trace_of(&self, task: &ShardTask) -> u64 {
        if task.trace != 0 && self.recorder.armed() {
            task.trace
        } else {
            0
        }
    }

    /// Per-task bookkeeping shared by both paths: the queue-wait
    /// sample, then the durability front half — dedup, then the
    /// write-ahead log. Returns whether the block is to be applied.
    fn log(&self, state: &mut ShardState, task: &ShardTask, trace: u64) -> bool {
        let wait = task.enqueued_at.elapsed();
        self.instruments.queue_wait_ns.record_duration(wait);
        if trace != 0 {
            self.recorder.record_ending_now(
                trace,
                TraceStage::Queue,
                u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX),
            );
        }
        state.popped += 1;
        let Some(d) = state.durable.as_mut() else {
            return true;
        };
        if d.wal.failed() {
            // Drain-and-discard so producers don't block.
            return false;
        }
        let (producer, seq) = match task.tag {
            Some(tag) => (tag.producer, tag.seq),
            None => (0, 0),
        };
        if producer != 0
            && state
                .producers
                .get(&producer)
                .is_some_and(|&max| seq <= max)
        {
            // Already logged and applied in some lifetime: skip, but
            // still advance the watermark — its effects are durable by
            // definition.
            self.events.emit(EventCode::DedupSkip, self.shard, seq);
            return false;
        }
        let t0 = if trace != 0 { trace_clock_ns() } else { 0 };
        let appended = d.wal.append(task.attr as u32, producer, seq, &task.block);
        if trace != 0 {
            self.recorder.record_since(trace, TraceStage::WalAppend, t0);
        }
        if appended.is_err() {
            self.wal_failed(&d.wal);
            return false;
        }
        if producer != 0 {
            state.producers.insert(producer, seq);
        }
        let segments = d.wal.segment_count();
        if segments > state.wal_segments {
            self.events.emit(EventCode::WalRotate, self.shard, segments);
        }
        state.wal_segments = segments;
        true
    }

    /// Moves a sketch's sign-cache counts into the shard's counters.
    fn count_sign_cache(&self, sketch: &mut TugOfWarSketch) {
        let stats = sketch.take_sign_cache_stats();
        if stats != SignCacheStats::default() {
            let i = &self.instruments;
            i.sign_cache_hits.add(stats.hits);
            i.sign_cache_admissions.add(stats.admissions);
            i.sign_cache_misses.add(stats.misses);
        }
    }

    /// Counts one applied block.
    fn count_applied(&self, state: &mut ShardState, block: &OpBlock) {
        let ops = block.ops();
        state.blocks += 1;
        state.ops += ops;
        self.instruments.blocks_ingested.inc();
        self.instruments.ops_ingested.add(ops);
    }

    /// The step after a task or a batch: publish on the gate, then —
    /// when durable — the fsync policy with the watermark, then the
    /// checkpoint cadence. When `traced`, returns the trace-clock start
    /// and duration of a sync that advanced the watermark, for the
    /// caller's fsync spans.
    fn settle(&self, state: &mut ShardState, traced: bool) -> Option<(u64, u64)> {
        // Publish on cadence, opportunistically whenever the queue
        // drains (so an idle service converges to fresh snapshots
        // without waiting out the cadence), and on demand when a
        // drainer asked (so `drain()` never waits out a large cadence
        // behind a busy producer). Skipped pops — dedup hits and a
        // wedged writer's discards — publish through the same gate:
        // drains wait on *processed*, not applied, so progress must
        // cover every pop.
        if state.blocks - state.published_blocks >= self.publish_every
            || self.queue.depth() == 0
            || self.cell.take_publish_request()
        {
            self.publish(state);
        }
        let d = state.durable.as_mut()?;
        let mut synced = None;
        if !d.wal.failed() {
            // Force a sync whenever the queue drains, so the worst-case
            // ack-after-fsync latency under light load is one pop, not
            // one group-commit interval.
            let force = self.queue.depth() == 0;
            let t0 = if traced { trace_clock_ns() } else { 0 };
            match d.wal.maybe_sync(force) {
                Ok(true) => {
                    if traced {
                        synced = Some((t0, trace_clock_ns().saturating_sub(t0)));
                    }
                    d.advance(state.popped);
                }
                Ok(false) => {}
                Err(_) => self.wal_failed(&d.wal),
            }
        }
        if !d.wal.failed() && state.blocks - d.checkpointed_blocks >= d.checkpoint_every {
            // Publish first so the checkpoint rides a fresh epoch (its
            // file stamp stays unique).
            self.publish(state);
            self.checkpoint(state);
        }
        synced
    }

    /// Publishes the counters under a fresh epoch. Only the counter
    /// columns travel — the hash planes are shard-invariant and live in
    /// the service's template — so a publish is one i64 column copy per
    /// attribute and can safely fire every time the queue drains.
    fn publish(&self, state: &mut ShardState) {
        state.epoch += 1;
        state.published_blocks = state.blocks;
        state.published_processed = state.popped;
        self.cell.publish(ShardSnapshot {
            epoch: state.epoch,
            blocks: state.blocks,
            ops: state.ops,
            processed: state.popped,
            counters: state
                .sketches
                .iter()
                .map(|s| s.counters().to_vec())
                .collect(),
        });
        self.instruments.publishes.inc();
        self.events
            .emit(EventCode::Publish, self.shard, state.blocks);
    }

    /// Emits the event for the WAL operation that just failed and
    /// wedged the shard's writer; `wal_failures` already counted it.
    fn wal_failed(&self, wal: &ShardDurable) {
        let op = wal.wedged_by().map_or(0, |op| op as u64);
        self.events.emit(EventCode::WalFailed, self.shard, op);
    }

    /// Writes a checkpoint of the current state; a failure wedges the
    /// durable writer.
    fn checkpoint(&self, state: &mut ShardState) {
        let Some(d) = state.durable.as_mut() else {
            return;
        };
        if d.wal
            .write_checkpoint(
                state.epoch,
                state.blocks,
                state.ops,
                &state.sketches,
                &state.producers,
            )
            .is_err()
        {
            self.wal_failed(&d.wal);
            return;
        }
        d.checkpointed_blocks = state.blocks;
        self.events
            .emit(EventCode::Checkpoint, self.shard, state.blocks);
        let segments = d.wal.segment_count();
        if segments < state.wal_segments {
            self.events
                .emit(EventCode::WalTruncate, self.shard, segments);
        }
        state.wal_segments = segments;
    }
}

/// Closes the shard's queue when the worker unwinds. Nothing else pops
/// that queue, so a worker that died with it open would leave every
/// producer waiting for room (`Wait::Block`) parked forever; closed,
/// they return `ServiceError::Closed`. The drop-time guard runs however
/// `run` is left and acts only on a panic: a clean exit follows the
/// queue's own close.
struct CloseOnUnwind(Arc<BlockQueue>);

impl Drop for CloseOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// Test-only fault injection: a worker that pops a task traced with
/// [`fault::POISON_TRACE`] waits until [`fault::RELEASE`] is set, then
/// panics.
#[cfg(test)]
pub(crate) mod fault {
    use std::sync::atomic::{AtomicBool, Ordering};

    use crate::queue::ShardTask;

    /// The trace id that poisons a task.
    pub(crate) const POISON_TRACE: u64 = 0xDEAD_0000_0000_0001;

    /// Lets the poisoned worker panic.
    pub(crate) static RELEASE: AtomicBool = AtomicBool::new(false);

    pub(super) fn inject(task: &ShardTask) {
        if task.trace == POISON_TRACE {
            while !RELEASE.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            panic!("injected shard worker panic");
        }
    }
}

/// How many queued tasks a batch may take besides the popped one: the
/// whole queue, except that a batch never crosses a checkpoint boundary
/// (so checkpoints land exactly on the block cadence) and a wedged
/// durable writer takes the per-task discard path.
fn batch_room(state: &ShardState) -> usize {
    match &state.durable {
        None => usize::MAX,
        Some(d) if d.wal.failed() => 0,
        Some(d) => {
            let since = state.blocks.saturating_sub(d.checkpointed_blocks);
            let left = d.checkpoint_every.saturating_sub(since);
            usize::try_from(left.saturating_sub(1)).unwrap_or(usize::MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Wait;
    use crate::telemetry::ServiceTelemetry;
    use ams_telemetry::{EventHub, TraceHub};

    #[test]
    fn a_backed_up_queue_is_swept_in_one_batch() {
        let params = SketchParams::new(64, 4).unwrap();
        let blocks: Vec<OpBlock> = (0..12u64)
            .map(|b| OpBlock::from_values((0..64).map(|i| (b + i * i) % 9)))
            .collect();
        // The whole stream is queued (and the queue closed) before the
        // worker runs, so its first pop finds the rest waiting.
        let queue = Arc::new(BlockQueue::new(blocks.len()));
        for (i, block) in blocks.iter().enumerate() {
            assert!(queue.try_reserve(Wait::Try));
            let trace = if i == 5 { 0x5EED } else { 0 };
            queue.push_reserved(ShardTask::new(0, block.clone(), None, trace));
        }
        queue.close();
        let telemetry = ServiceTelemetry::new(1, &["v".to_string()]);
        let cell = Arc::new(ShardCell::new(params.total(), 1, Arc::default()));
        let traces = TraceHub::new();
        let events = EventHub::new();
        ShardWorker {
            queue,
            cell: Arc::clone(&cell),
            params,
            seed: 5,
            shard: 0,
            attrs: 1,
            publish_every: 4,
            instruments: telemetry.shards[0].clone(),
            sketch_memory: telemetry.sketch_memory.clone(),
            durable: None,
            recorder: traces.recorder(),
            events: events.recorder(),
        }
        .run();

        let mut reference: TugOfWarSketch = TugOfWarSketch::new(params, 5);
        for block in &blocks {
            reference.apply_block(block);
        }
        let published = cell.read();
        assert_eq!(published.counters[0], reference.counters());
        assert_eq!(published.blocks, blocks.len() as u64);
        let metrics = telemetry.registry().snapshot();
        assert_eq!(
            metrics.counter_total("service_batched_blocks"),
            blocks.len() as u64,
            "one sweep took the whole backed-up queue"
        );
        assert_eq!(
            metrics.merged_histogram("service_ingest_ns").count,
            blocks.len() as u64,
            "one kernel sample per applied block"
        );
        assert_eq!(
            metrics.counter_total("service_publishes"),
            1,
            "one publish step per sweep"
        );
        // The sweep's nine recurring values were admitted to the sign
        // cache; nothing went to the plane kernel.
        assert_eq!(metrics.counter_total("service_sign_cache_admissions"), 9);
        assert_eq!(metrics.counter_total("service_sign_cache_hits"), 0);
        assert_eq!(metrics.counter_total("service_sign_cache_misses"), 0);
        let traced = traces.assemble_all();
        let trace = traced.iter().find(|t| t.trace_id == 0x5EED).unwrap();
        assert!(trace.spans.iter().any(|s| s.stage == "queue"));
        assert!(trace.spans.iter().any(|s| s.stage == "kernel"));
    }
}
