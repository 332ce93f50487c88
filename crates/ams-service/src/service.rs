//! The service façade: registration, routed ingestion, queries,
//! drain and shutdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::task::Waker;
use std::thread::JoinHandle;

use ams_core::{SelfJoinEstimator, TugOfWarSketch};
use ams_durable::{ShardRecovery, ShardShape, WalInstruments};
use ams_stream::OpBlock;
use ams_telemetry::{
    trace_clock_ns, AccuracyReport, AssembledTrace, EventHub, HealthReport, HealthSignal,
    HealthVerdict, MetricsRegistry, MetricsSnapshot, ServiceEvent, TraceHub,
};

use crate::audit::AuditSampler;
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::health::{imbalance_ratio, HealthThresholds, HealthWindow};
use crate::heavy::{HeavyEntry, HeavyKeys};
use crate::queue::{BlockQueue, IngestTag, ShardTask, Wait};
use crate::router::{RoutedBlocks, Router, RouterPolicy};
use crate::scrape::Scrape;
use crate::shard::{DurableSetup, ShardWorker};
use crate::snapshot::{ServiceSnapshot, ShardCell};
use crate::stats::{ServiceStats, ShardStats};
use crate::telemetry::ServiceTelemetry;
use crate::wake::WakeHook;

/// A recorded drain target: the per-shard block counts that had been
/// submitted when [`AmsService::drain_cut`] was called. Opaque — feed
/// it back to [`AmsService::poll_drained`] until the cut is reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainCut {
    /// Per-shard enqueue counts at cut time.
    targets: Vec<u64>,
}

/// A recorded durability target: the per-shard block counts that had
/// been submitted when [`AmsService::durability_cut`] was called. Feed
/// it back to [`AmsService::poll_durable`] until every one of those
/// submissions is durable — the primitive behind ack-after-fsync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableCut {
    /// Per-shard enqueue counts at cut time.
    targets: Vec<u64>,
}

/// A sharded parallel ingest service over tug-of-war sketches.
///
/// `N` ingest shards each own one sketch per registered attribute, all
/// seeded identically; submitted blocks are routed to shards through
/// **bounded** queues with real backpressure; one worker thread per
/// shard drains its queue with the zero-allocation block kernels; and
/// queries merge the shards' published snapshots on demand
/// (counter-wise sketch addition — exact by linearity).
///
/// ```
/// use ams_service::{AmsService, ServiceConfig};
/// use ams_stream::OpBlock;
///
/// let config = ServiceConfig::builder().shards(2).seed(7).build()?;
/// let service = AmsService::start(config, &["clicks"])?;
/// service.ingest_block("clicks", OpBlock::from_values([1, 2, 2, 3]))?;
/// service.drain();
/// let snapshot = service.snapshot();
/// assert!(snapshot.self_join("clicks")? > 0.0);
/// let (_final_snapshot, stats) = service.shutdown();
/// assert_eq!(stats.ops_ingested(), 4);
/// # Ok::<(), ams_service::ServiceError>(())
/// ```
#[derive(Debug)]
pub struct AmsService {
    config: ServiceConfig,
    attributes: Vec<String>,
    /// One zeroed sketch per attribute: snapshot merging clones these
    /// ready-made hash planes instead of re-deriving them per query.
    template: Vec<TugOfWarSketch>,
    router: Router,
    queues: Vec<Arc<BlockQueue>>,
    cells: Vec<Arc<ShardCell>>,
    workers: Vec<JoinHandle<()>>,
    telemetry: ServiceTelemetry,
    /// Per-shard durable watermarks (empty when durability is off):
    /// this-lifetime popped blocks whose effects have reached stable
    /// storage per the fsync policy.
    durable_watermarks: Vec<Arc<AtomicU64>>,
    /// What startup recovery did per shard (empty when durability is
    /// off).
    recovery: Vec<ShardRecovery>,
    /// The request-tracing hub: every shard worker records spans into
    /// its own ring here, the tail sampler keeps the slowest traces,
    /// and front-ends borrow recorders for their wire-side spans.
    trace_hub: Arc<TraceHub>,
    /// Per-attribute heavy-key observers (empty when
    /// [`ServiceConfig::heavy_keys`] is zero).
    heavy: Vec<HeavyKeys>,
    /// The structured event hub: shard workers record lifecycle events
    /// into bounded per-thread rings here, and front-ends borrow
    /// recorders for their own events (read gates, reconnects).
    event_hub: Arc<EventHub>,
    /// The shadow-audit sampler (`None` when
    /// [`ServiceConfig::audit_every`] is zero).
    audit: Option<AuditSampler>,
    /// Wakers of front-ends that park work without a thread, rung by
    /// the queues, the snapshot cells and the durable watermarks.
    wake: Arc<WakeHook>,
}

impl AmsService {
    /// Starts the service: validates the attribute registration, builds
    /// the shard queues and snapshot cells, and spawns one worker
    /// thread per shard. With durability on, each worker recovers its
    /// own shard from disk before its first pop, so the shards replay
    /// in parallel, and this returns once every shard has recovered and
    /// published its recovered state.
    ///
    /// # Errors
    /// [`ServiceError::DuplicateAttribute`] on repeated names,
    /// [`ServiceError::InvalidConfig`] if no attribute is registered,
    /// [`ServiceError::Durability`] if a shard cannot recover (the first
    /// failing shard's error, after every worker has stopped).
    pub fn start(config: ServiceConfig, attributes: &[&str]) -> Result<Self, ServiceError> {
        if attributes.is_empty() {
            return Err(ServiceError::InvalidConfig {
                reason: "at least one attribute must be registered",
            });
        }
        let mut names: Vec<String> = Vec::with_capacity(attributes.len());
        for &name in attributes {
            if names.iter().any(|n| n == name) {
                return Err(ServiceError::DuplicateAttribute {
                    name: name.to_string(),
                });
            }
            names.push(name.to_string());
        }
        let template: Vec<TugOfWarSketch> = (0..names.len())
            .map(|_| TugOfWarSketch::new(config.params(), config.seed()))
            .collect();
        let telemetry = ServiceTelemetry::new(config.shards(), &names);
        let trace_hub = Arc::new(TraceHub::new());
        let event_hub = Arc::new(EventHub::new());
        let audit = (config.audit_every() > 0).then(|| {
            AuditSampler::new(
                config.audit_every(),
                names.len(),
                config.params(),
                config.seed(),
            )
        });
        let heavy: Vec<HeavyKeys> = if config.heavy_keys() > 0 {
            names
                .iter()
                .map(|name| HeavyKeys::register(telemetry.registry(), name, config.heavy_keys()))
                .collect()
        } else {
            Vec::new()
        };
        let wake = Arc::new(WakeHook::default());
        let queues: Vec<Arc<BlockQueue>> = (0..config.shards())
            .map(|shard| {
                Arc::new(BlockQueue::with_depth_gauge(
                    config.queue_capacity(),
                    Arc::clone(&telemetry.shards[shard].queue_depth),
                    Arc::clone(&wake),
                ))
            })
            .collect();
        let cells: Vec<Arc<ShardCell>> = (0..config.shards())
            .map(|_| {
                Arc::new(ShardCell::new(
                    config.params().total(),
                    names.len(),
                    Arc::clone(&wake),
                ))
            })
            .collect();
        // Spawn the workers first: each opens its own shard's log
        // (newest valid checkpoint, then the log tail replayed) before
        // its first pop, so the shards recover in parallel.
        let shape = ShardShape {
            params: config.params(),
            seed: config.seed(),
            attributes: names.clone(),
        };
        let mut durable_watermarks = Vec::new();
        let mut reports = Vec::new();
        let mut workers = Vec::with_capacity(config.shards());
        for (shard, (queue, cell)) in queues.iter().zip(&cells).enumerate() {
            let durable = config.durability().map(|dcfg| {
                let watermark = Arc::new(AtomicU64::new(0));
                durable_watermarks.push(Arc::clone(&watermark));
                let (report, recovered) = mpsc::sync_channel(1);
                reports.push(recovered);
                DurableSetup {
                    config: dcfg.clone(),
                    shape: shape.clone(),
                    instruments: WalInstruments::register(telemetry.registry(), shard),
                    watermark,
                    wake: Arc::clone(&wake),
                    report,
                }
            });
            let worker = ShardWorker {
                queue: Arc::clone(queue),
                cell: Arc::clone(cell),
                params: config.params(),
                seed: config.seed(),
                attrs: names.len(),
                publish_every: config.publish_every(),
                instruments: telemetry.shards[shard].clone(),
                sketch_memory: telemetry.sketch_memory.clone(),
                durable,
                recorder: trace_hub.recorder(),
                shard: shard as u64,
                events: event_hub.recorder(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ams-shard-{shard}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard worker"),
            );
        }
        // Wait for every shard's recovery report, in shard order. On
        // any failure, stop every worker before returning the first
        // error, so no thread outlives a failed start.
        let mut recovery = Vec::with_capacity(reports.len());
        let mut failure = None;
        for (shard, ready) in reports.iter().enumerate() {
            match ready.recv() {
                Ok(Ok(report)) => recovery.push(report),
                Ok(Err(error)) => {
                    failure.get_or_insert(ServiceError::from(error));
                }
                Err(_) => {
                    failure.get_or_insert(ServiceError::Durability {
                        reason: format!("shard {shard} worker died during recovery"),
                    });
                }
            }
        }
        if let Some(error) = failure {
            for queue in &queues {
                queue.close();
            }
            for worker in workers {
                let _ = worker.join();
            }
            return Err(error);
        }
        Ok(Self {
            router: Router::new(config.router(), config.shards(), config.seed()),
            config,
            attributes: names,
            template,
            queues,
            cells,
            workers,
            telemetry,
            durable_watermarks,
            recovery,
            trace_hub,
            heavy,
            event_hub,
            audit,
            wake,
        })
    }

    /// The service configuration.
    pub fn config(&self) -> ServiceConfig {
        self.config.clone()
    }

    /// Whether this service runs with a durability layer.
    pub fn durability_enabled(&self) -> bool {
        !self.durable_watermarks.is_empty()
    }

    /// What startup recovery did, one report per shard — checkpoint
    /// loaded, blocks replayed, artifacts skipped. Empty when
    /// durability is off (or nothing was on disk… the reports then
    /// show zero replay).
    pub fn recovery(&self) -> &[ShardRecovery] {
        &self.recovery
    }

    /// Registered attribute names, in registration order.
    pub fn attributes(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(String::as_str)
    }

    fn attr_index(&self, attribute: &str) -> Result<usize, ServiceError> {
        self.attributes
            .iter()
            .position(|a| a == attribute)
            .ok_or_else(|| ServiceError::UnknownAttribute {
                name: attribute.to_string(),
            })
    }

    /// Submits a block of updates for one attribute — the one ingest
    /// entry point. A slot is reserved on every shard queue the router
    /// targets before anything is enqueued, so the block lands on all
    /// of its shards or on none. At a full queue, [`Wait::Block`]
    /// releases every reservation, waits for room there and tries
    /// again; [`Wait::Try`] fails with [`ServiceError::WouldBlock`].
    ///
    /// `tag` makes resubmission idempotent: shard workers skip any
    /// `(producer, seq)` at or below the producer's high-water mark, so
    /// a client that resubmits after a lost ack never double-counts.
    /// Dedup is only sound when routing is deterministic per value
    /// ([`RouterPolicy::HashPartition`]); under round-robin a
    /// resubmission may land on a *fresh* shard whose mark would falsely
    /// swallow it, so the tag is **dropped** (at-least-once).
    ///
    /// `trace` (`0` = untraced) rides the **first** placement only, so
    /// per-shard spans of one trace never overlap. On success the
    /// returned value is the trace-clock instant the traced placement
    /// entered its queue (`0` when untraced): callers end their `route`
    /// span there, because the shard worker may already be processing
    /// the task before this call returns.
    ///
    /// Only an accepted block feeds the heavy-key observer and the
    /// shadow-audit sampler, so a refused block that is retried counts
    /// once.
    ///
    /// # Errors
    /// [`ServiceError::UnknownAttribute`], [`ServiceError::Closed`]
    /// after shutdown began, or [`ServiceError::WouldBlock`] under
    /// [`Wait::Try`]. The block comes back with the error so a caller
    /// can retry without cloning; a split block comes back regrouped by
    /// shard (per-value order preserved, so it is update-equivalent).
    pub fn submit(
        &self,
        attribute: &str,
        block: OpBlock,
        tag: Option<IngestTag>,
        trace: u64,
        wait: Wait,
    ) -> Result<u64, (OpBlock, ServiceError)> {
        let attr = match self.attr_index(attribute) {
            Ok(attr) => attr,
            Err(error) => return Err((block, error)),
        };
        let tag = tag.filter(|_| self.config.router() == RouterPolicy::HashPartition);
        let routed = self.router.route(block);
        while let Err(shard) = self.reserve_all(&routed, wait) {
            let error = if self.queues[shard].is_closed() {
                ServiceError::Closed
            } else if wait == Wait::Try {
                ServiceError::WouldBlock { shard }
            } else {
                self.queues[shard].wait_for_room();
                continue;
            };
            return Err((reassemble(routed), error));
        }
        if let Some(heavy) = self.heavy.get(attr) {
            for (_, part) in &routed {
                heavy.observe_block(part);
            }
        }
        if let Some(audit) = &self.audit {
            audit.observe(attr, routed.iter().map(|(_, part)| part));
        }
        let mut handoff = 0;
        for (i, (shard, part)) in routed.into_iter().enumerate() {
            let part_ops = part.ops();
            let part_trace = if i == 0 { trace } else { 0 };
            if part_trace != 0 {
                handoff = trace_clock_ns();
            }
            self.queues[shard].push_reserved(ShardTask::new(attr, part, tag, part_trace));
            self.telemetry.shards[shard].routed_ops.add(part_ops);
        }
        Ok(handoff)
    }

    /// Reserves one slot on every queue `routed` targets. On a refusal,
    /// releases what it already holds and returns the refusing shard.
    fn reserve_all(&self, routed: &RoutedBlocks, wait: Wait) -> Result<(), usize> {
        for (i, &(shard, _)) in routed.iter().enumerate() {
            if !self.queues[shard].try_reserve(wait) {
                for &(held, _) in &routed[..i] {
                    self.queues[held].release_reserved();
                }
                return Err(shard);
            }
        }
        Ok(())
    }

    /// Submits a block of updates for one attribute, waiting while
    /// target shard queues are full: [`Self::submit`] untagged,
    /// untraced, under [`Wait::Block`].
    ///
    /// # Errors
    /// [`ServiceError::UnknownAttribute`] for unregistered names,
    /// [`ServiceError::Closed`] after shutdown began.
    pub fn ingest_block(&self, attribute: &str, block: OpBlock) -> Result<(), ServiceError> {
        self.submit(attribute, block, None, 0, Wait::Block)
            .map(drop)
            .map_err(|(_, error)| error)
    }

    /// Merge-on-query: merges every shard's latest published snapshot
    /// into one queryable [`ServiceSnapshot`]. Never blocks ingestion;
    /// the view may lag in-flight blocks by at most the publish cadence
    /// plus queue depth (call [`Self::drain`] first for an exact view).
    pub fn snapshot(&self) -> ServiceSnapshot {
        let shards: Vec<_> = self.cells.iter().map(|cell| cell.read()).collect();
        ServiceSnapshot::merge(&self.attributes, &self.template, &shards)
    }

    /// Merges the published shard counters of **one** attribute into a
    /// queryable sketch — `O(shards × counters)` instead of a full
    /// [`Self::snapshot`]'s every-attribute merge, which is what a
    /// point query (one self-join, one join side) actually needs.
    ///
    /// # Errors
    /// [`ServiceError::UnknownAttribute`] for unregistered names.
    pub fn merged_sketch(&self, attribute: &str) -> Result<TugOfWarSketch, ServiceError> {
        let attr = self.attr_index(attribute)?;
        let mut sum = vec![0i64; self.config.params().total()];
        for cell in &self.cells {
            cell.add_counters(attr, &mut sum);
        }
        let mut sketch = self.template[attr].clone();
        sketch.restore_counters(sum)?;
        Ok(sketch)
    }

    /// Point query: the self-join size estimate of one attribute,
    /// merged from the published shard counters of that attribute
    /// alone.
    ///
    /// # Errors
    /// [`ServiceError::UnknownAttribute`] for unregistered names.
    pub fn self_join(&self, attribute: &str) -> Result<f64, ServiceError> {
        Ok(self.merged_sketch(attribute)?.estimate())
    }

    /// Point query: the two-way equality-join size estimate between
    /// two attributes, merging only the two queried columns.
    ///
    /// # Errors
    /// [`ServiceError::UnknownAttribute`] for unregistered names.
    pub fn join(&self, attribute: &str, other: &str) -> Result<f64, ServiceError> {
        let a = self.merged_sketch(attribute)?;
        let b = self.merged_sketch(other)?;
        Ok(a.join_estimate(&b)?)
    }

    /// Waits until every block submitted **before this call** has been
    /// **processed** and published, so a subsequent [`Self::snapshot`]
    /// reflects them all. Processed means taken off the queue: applied,
    /// or skipped as a tagged duplicate, or discarded by a wedged
    /// durability writer — a drain is a *processing* barrier, not a
    /// durability one (durable acks still stall on a wedged shard via
    /// its frozen watermark; see [`Self::poll_durable`]). Concurrent
    /// producers may keep submitting; their later blocks are not waited
    /// for (each shard publishes on request after at most one more
    /// processed block, regardless of the configured cadence).
    ///
    /// Returns the epoch the drain reached: the **lowest** per-shard
    /// publish epoch observed once every shard had published its drain
    /// target. Per-shard epochs only move forward, so any snapshot
    /// taken after this call returns carries `epoch_min() >=` the
    /// returned value and reflects at least every block submitted
    /// before the drain — the consistent cut a caller (or a network
    /// front-end's Drain response) can hand to clients.
    pub fn drain(&self) -> u64 {
        let cut = self.drain_cut();
        // Request everywhere first, then wait: lagging shards publish
        // in parallel instead of one drain-wait at a time.
        for (cell, &target) in self.cells.iter().zip(&cut.targets) {
            if cell.progress().processed < target {
                cell.request_publish();
            }
        }
        self.cells
            .iter()
            .zip(cut.targets)
            .map(|(cell, target)| cell.wait_for_processed(target))
            .min()
            .expect("a service has at least one shard")
    }

    /// Records the drain target — everything submitted **before this
    /// call** — without waiting. Poll it to completion with
    /// [`Self::poll_drained`]: the non-blocking pair a reactor-style
    /// front-end uses so a Drain request never parks its event loop.
    pub fn drain_cut(&self) -> DrainCut {
        DrainCut {
            targets: self.queues.iter().map(|q| q.pushed()).collect(),
        }
    }

    /// Checks one recorded [`DrainCut`] for completion, without
    /// blocking. While any shard still lags its target, this re-arms
    /// that shard's publish request (the worker honours it after at
    /// most one more applied block) and returns `None`; once every
    /// shard has published its target, returns the cut's epoch with
    /// the same meaning as [`Self::drain`]'s return value.
    pub fn poll_drained(&self, cut: &DrainCut) -> Option<u64> {
        let mut epoch = u64::MAX;
        let mut reached = true;
        for (cell, &target) in self.cells.iter().zip(&cut.targets) {
            let progress = cell.progress();
            if progress.processed < target {
                cell.request_publish();
                reached = false;
            } else {
                epoch = epoch.min(progress.epoch);
            }
        }
        (reached && epoch != u64::MAX).then_some(epoch)
    }

    /// Records the durability target — everything submitted **before
    /// this call** — without waiting. Poll it to completion with
    /// [`Self::poll_durable`]: the primitive behind ack-after-fsync
    /// (`ams-net`'s durable ingest acks ride exactly this pair).
    pub fn durability_cut(&self) -> DurableCut {
        DurableCut {
            targets: self.queues.iter().map(|q| q.pushed()).collect(),
        }
    }

    /// Checks one recorded [`DurableCut`] for completion, without
    /// blocking: `true` once every block submitted before the cut has
    /// been appended to its shard's WAL **and** fsynced per the
    /// configured policy. The shard queues are FIFO, so the per-shard
    /// durable watermark (popped blocks whose effects are on stable
    /// storage) covering the cut's enqueue count covers every one of
    /// those submissions.
    ///
    /// With durability disabled there is no stable storage to wait
    /// for; the poll degrades to the [`Self::poll_drained`] condition
    /// (applied and published), so callers can use one code path for
    /// both configurations. A shard whose durability layer has failed
    /// freezes its watermark, and cuts past the failure point never
    /// complete — exactly like acks against a crashed server.
    pub fn poll_durable(&self, cut: &DurableCut) -> bool {
        if self.durable_watermarks.is_empty() {
            let drained = DrainCut {
                targets: cut.targets.clone(),
            };
            return self.poll_drained(&drained).is_some();
        }
        self.durable_watermarks
            .iter()
            .zip(&cut.targets)
            .all(|(watermark, &target)| watermark.load(Ordering::Acquire) >= target)
    }

    /// Registers a waker for a front-end that parks work without
    /// blocking a thread on it — a network reactor holding refused
    /// `Wait::Try` blocks, durable acks and drains. It is woken after
    /// each event such work waits on, once the event is visible to
    /// [`Self::submit`], [`Self::poll_drained`] and
    /// [`Self::poll_durable`]:
    /// - room freeing on a shard queue that refused a reservation since
    ///   its last such wake;
    /// - a shard queue closing (shutdown);
    /// - a shard publish;
    /// - a shard's durable watermark advancing.
    ///
    /// A waker is rung from shard worker threads and from submitting
    /// threads, so it must be cheap, and it must not register wakers
    /// itself. Wakers stay registered for the service's lifetime; one
    /// that re-checks its parked work after arming and before sleeping
    /// misses no event.
    pub fn add_waker(&self, waker: Waker) {
        self.wake.add(waker);
    }

    /// A point-in-time statistics view: queue depths and bounds,
    /// enqueue/ingest counters, backpressure events, publish epochs.
    pub fn stats(&self) -> ServiceStats {
        let shards = self
            .queues
            .iter()
            .zip(self.cells.iter())
            .enumerate()
            .map(|(shard, (queue, cell))| {
                // Progress scalars only — no counter columns cloned.
                let progress = cell.progress();
                ShardStats {
                    shard,
                    queue_depth: queue.depth(),
                    queue_capacity: queue.capacity(),
                    max_queue_depth: queue.max_depth(),
                    blocks_enqueued: queue.pushed(),
                    backpressure_events: queue.backpressure_events(),
                    queue_rejections: queue.rejections(),
                    blocks_ingested: progress.blocks,
                    ops_ingested: progress.ops,
                    epoch: progress.epoch,
                }
            })
            .collect();
        ServiceStats { shards }
    }

    /// The metrics registry behind this service's instruments. Other
    /// layers (e.g. a network front-end) register their own series
    /// here so one [`Self::metrics_snapshot`] covers the whole stack.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(self.telemetry.registry())
    }

    /// A point-in-time snapshot of every registered instrument —
    /// per-shard ingest counters and latency histograms, queue-depth
    /// and sketch-memory gauges, plus anything other layers registered
    /// via [`Self::registry`]. Serializable, and renderable as
    /// Prometheus-style text with
    /// [`MetricsSnapshot::render_text`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.registry().snapshot()
    }

    /// The request-tracing hub behind this service. Front-ends borrow
    /// per-thread recorders from it for their wire-side spans, offer
    /// completed requests to its tail sampler, and flip sampling with
    /// [`TraceHub::set_enabled`].
    pub fn trace_hub(&self) -> Arc<TraceHub> {
        Arc::clone(&self.trace_hub)
    }

    /// Assembles the tail-sampled traces — the slowest requests of the
    /// current window, each with its recorded stage spans grouped and
    /// ordered: a scrape's traces section.
    pub fn traces(&self) -> Vec<AssembledTrace> {
        self.trace_hub.assemble()
    }

    /// The structured event hub behind this service. Front-ends borrow
    /// per-thread recorders from it for their own lifecycle events
    /// (read-gate trips, reactor start/stop) and flip
    /// recording with `EventHub::set_enabled`.
    pub fn event_hub(&self) -> Arc<EventHub> {
        Arc::clone(&self.event_hub)
    }

    /// The resident structured events across every recorder ring, in
    /// timestamp order — shard lifecycle (start/stop), recovery,
    /// publishes, checkpoints, WAL rotation/truncation/failures, dedup
    /// skips, plus whatever events front-ends recorded. Rings are
    /// bounded and overwrite their oldest entries; the exact overwrite
    /// count is `EventHub::dropped_events`. A scrape's events section.
    pub fn events(&self) -> Vec<ServiceEvent> {
        self.event_hub.collect_wire()
    }

    /// One scrape in one pass: the sections `sections` names (a bit
    /// set of the [`Scrape`] constants; unknown bits are ignored), with
    /// metrics and health read from the same registry snapshot. The
    /// health section is graded against the default
    /// [`HealthThresholds`] over `window`, the caller's own baseline,
    /// which the scrape advances. A stats-only scrape reads no registry.
    pub fn scrape(&self, sections: u8, window: &mut HealthWindow) -> Scrape {
        let wants = |section: u8| sections & section != 0;
        let snap = wants(Scrape::METRICS | Scrape::HEALTH).then(|| self.metrics_snapshot());
        let at_ns = trace_clock_ns();
        let events = wants(Scrape::EVENTS).then(|| self.events());
        Scrape {
            at_ns,
            stats: wants(Scrape::STATS).then(|| self.stats()),
            traces: wants(Scrape::TRACES).then(|| self.traces()),
            events_dropped: events.as_ref().map(|_| self.event_hub.dropped_events()),
            events,
            health: snap
                .as_ref()
                .filter(|_| wants(Scrape::HEALTH))
                .map(|snap| self.grade(snap, &HealthThresholds::default(), window)),
            metrics: snap.filter(|_| wants(Scrape::METRICS)),
        }
    }

    /// One health scrape graded against `thresholds` over the caller's
    /// `window` (a scrape's health section is this under the default
    /// [`HealthThresholds`]): grades the windowed signals, assembles
    /// per-attribute accuracy reports and folds the verdict.
    ///
    /// The *window* for rates and the imbalance ratio is the span since
    /// the previous scrape through the same `window` (first scrape:
    /// since start); no scrape writes into the registry, so scrapes
    /// never change what another scraper sees. Signals, all oriented
    /// higher-is-worse:
    ///
    /// * `queue_saturation` — worst shard's queue depth / capacity.
    /// * `ingest_stall` — 1 when ops were routed this window but none
    ///   were applied (wedged workers).
    /// * `shard_imbalance_ratio` — max/min windowed routed ops (see
    ///   [`imbalance_ratio`]); only graded once the window carries at
    ///   least `imbalance_min_ops` ops.
    /// * `wal_fsync_p99_budget` — lifetime fsync p99 over the budget
    ///   (durability only, once any fsync happened).
    /// * `wal_failures` — WAL operations (append, fsync, directory
    ///   sync, rotation, checkpoint) whose failure wedged a shard's
    ///   writer over the service's lifetime (durability only; any
    ///   failure is Unhealthy).
    /// * `audit_rel_error_bounds` — worst observed audit relative error
    ///   as a multiple of the sketch's a-priori `error_bound()` (audit
    ///   sampler only).
    pub fn health(&self, thresholds: &HealthThresholds, window: &mut HealthWindow) -> HealthReport {
        self.grade(&self.metrics_snapshot(), thresholds, window)
    }

    /// The health report for one registry snapshot.
    fn grade(
        &self,
        snap: &MetricsSnapshot,
        thresholds: &HealthThresholds,
        window: &mut HealthWindow,
    ) -> HealthReport {
        let routed: Vec<u64> = (0..self.config.shards())
            .map(|shard| {
                let id = shard.to_string();
                snap.counter("service_routed_ops", &[("shard", id.as_str())])
                    .unwrap_or(0)
            })
            .collect();
        let deltas = window.advance(HealthWindow {
            routed,
            ingested_ops: snap.counter_total("service_ops_ingested"),
        });

        let mut signals = Vec::new();
        let saturation = self
            .queues
            .iter()
            .map(|q| q.depth() as f64 / q.capacity() as f64)
            .fold(0.0, f64::max);
        signals.push(HealthSignal::grade(
            "queue_saturation",
            saturation,
            thresholds.queue_saturation_degraded,
            thresholds.queue_saturation_unhealthy,
        ));
        let window_ops: u64 = deltas.routed.iter().sum();
        let stall = if window_ops > 0 && deltas.ingested_ops == 0 {
            1.0
        } else {
            0.0
        };
        signals.push(HealthSignal::grade("ingest_stall", stall, 1.0, 2.0));
        if window_ops >= thresholds.imbalance_min_ops {
            signals.push(HealthSignal::grade(
                "shard_imbalance_ratio",
                imbalance_ratio(&deltas.routed),
                thresholds.imbalance_degraded,
                thresholds.imbalance_unhealthy,
            ));
        }
        if self.durability_enabled() {
            let fsync = snap.merged_histogram("wal_fsync_ns");
            if fsync.count > 0 {
                signals.push(HealthSignal::grade(
                    "wal_fsync_p99_budget",
                    fsync.p99() as f64 / thresholds.fsync_budget_ns as f64,
                    thresholds.fsync_degraded,
                    thresholds.fsync_unhealthy,
                ));
            }
            signals.push(HealthSignal::grade(
                "wal_failures",
                snap.counter_total("wal_failures") as f64,
                1.0,
                1.0,
            ));
        }

        let error_bound = self.config.params().error_bound();
        let mut worst_rel_error: Option<f64> = None;
        let accuracy: Vec<AccuracyReport> = self
            .attributes
            .iter()
            .enumerate()
            .map(|(attr, name)| {
                let interval = self
                    .merged_sketch(name)
                    .expect("registered attribute")
                    .estimate_interval();
                let reading = self.audit.as_ref().and_then(|a| a.reading(attr));
                if let Some(r) = &reading {
                    worst_rel_error = Some(worst_rel_error.unwrap_or(0.0).max(r.rel_error));
                }
                // SpaceSaving counts sum to the total observed weight,
                // so the top entry's share is the heavy-key skew.
                let skew_score = self
                    .heavy
                    .get(attr)
                    .map(|h| {
                        let top = h.top();
                        let total: u64 = top.iter().map(|e| e.count).sum();
                        match top.first() {
                            Some(first) if total > 0 => first.count as f64 / total as f64,
                            _ => 0.0,
                        }
                    })
                    .unwrap_or(0.0);
                AccuracyReport {
                    attribute: name.clone(),
                    estimate: interval.estimate,
                    ci_lower: interval.lower,
                    ci_upper: interval.upper,
                    error_bound,
                    audited_exact: reading.as_ref().map(|r| r.exact),
                    observed_rel_error: reading.as_ref().map(|r| r.rel_error),
                    skew_score,
                }
            })
            .collect();
        if let Some(worst) = worst_rel_error {
            signals.push(HealthSignal::grade(
                "audit_rel_error_bounds",
                worst / error_bound,
                thresholds.rel_error_degraded_bounds,
                thresholds.rel_error_unhealthy_bounds,
            ));
        }

        HealthReport {
            verdict: HealthVerdict::from_signals(&signals),
            signals,
            accuracy,
        }
    }

    /// The heavy-key observer's current top entries for one attribute,
    /// heaviest first. Empty when [`ServiceConfig::heavy_keys`] is zero.
    ///
    /// # Errors
    /// [`ServiceError::UnknownAttribute`] for unregistered names.
    pub fn heavy_keys(&self, attribute: &str) -> Result<Vec<HeavyEntry>, ServiceError> {
        let attr = self.attr_index(attribute)?;
        Ok(self.heavy.get(attr).map(HeavyKeys::top).unwrap_or_default())
    }

    /// Graceful shutdown: closes the queues (rejecting further
    /// ingestion), lets every worker drain its remaining blocks and
    /// publish a final snapshot, joins the worker threads, and returns
    /// the final merged snapshot together with the lifetime statistics.
    pub fn shutdown(mut self) -> (ServiceSnapshot, ServiceStats) {
        self.close_and_join();
        (self.snapshot(), self.stats())
    }

    fn close_and_join(&mut self) {
        for queue in &self.queues {
            queue.close();
        }
        for worker in self.workers.drain(..) {
            if let Err(panic) = worker.join() {
                if std::thread::panicking() {
                    // Already unwinding (e.g. a failing test dropped
                    // the service): a second panic here would abort
                    // the process and swallow the original failure.
                    eprintln!("ams-service: shard worker panicked during teardown");
                } else {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

impl Drop for AmsService {
    /// Dropping without [`Self::shutdown`] still drains and joins the
    /// workers, so no thread outlives the service.
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Puts a refused submission's placements back together into one
/// block, update-equivalent to the one submitted.
fn reassemble(mut routed: RoutedBlocks) -> OpBlock {
    if routed.len() == 1 {
        return routed.pop().expect("one placement").1;
    }
    let mut block = OpBlock::with_capacity(routed.iter().map(|(_, part)| part.len()).sum());
    for (_, part) in &routed {
        for (v, d) in part.entries() {
            block.push(v, d);
        }
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_core::{SelfJoinEstimator, SketchError, SketchParams, TugOfWarSketch};
    use ams_stream::Multiset;

    /// Submits `values` as one block, waiting for room.
    fn ingest(service: &AmsService, attribute: &str, values: &[u64]) -> Result<(), ServiceError> {
        service.ingest_block(attribute, OpBlock::from_values(values.iter().copied()))
    }

    fn config(shards: usize) -> ServiceConfig {
        ServiceConfig::builder()
            .shards(shards)
            .sketch_params(SketchParams::new(64, 4).unwrap())
            .seed(0xC0FFEE)
            .build()
            .unwrap()
    }

    #[test]
    fn a_dead_worker_releases_producers_blocked_on_its_queue() {
        use crate::shard::fault;
        use std::sync::atomic::Ordering;
        use std::time::{Duration, Instant};

        let cfg = ServiceConfig::builder()
            .shards(1)
            .queue_capacity(1)
            .sketch_params(SketchParams::single_group(8).unwrap())
            .build()
            .unwrap();
        let service = Arc::new(AmsService::start(cfg, &["a"]).unwrap());
        let block = || OpBlock::from_values([1u64, 2, 3]);
        // The poisoned task holds the worker; the next one fills the
        // queue.
        service
            .submit("a", block(), None, fault::POISON_TRACE, Wait::Block)
            .unwrap();
        ingest(&service, "a", &[4, 5]).unwrap();
        let waits = service.stats().shards[0].backpressure_events;
        let (tx, rx) = std::sync::mpsc::channel();
        let producer = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || tx.send(ingest(&service, "a", &[6])).unwrap())
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.stats().shards[0].backpressure_events == waits {
            assert!(Instant::now() < deadline, "the producer never blocked");
            std::thread::sleep(Duration::from_millis(1));
        }
        fault::RELEASE.store(true, Ordering::Release);
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a producer blocked on a dead shard's queue must return");
        assert_eq!(outcome, Err(ServiceError::Closed));
        producer.join().unwrap();
        assert_eq!(
            ingest(&service, "a", &[7]),
            Err(ServiceError::Closed),
            "later submissions fail at once"
        );
        // Shutdown still reports the worker's death.
        let service = Arc::try_unwrap(service).expect("sole owner");
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(service)));
        assert!(joined.is_err(), "the worker panic surfaces at shutdown");
    }

    #[test]
    fn registration_validated() {
        assert!(matches!(
            AmsService::start(config(2), &[]),
            Err(ServiceError::InvalidConfig { .. })
        ));
        assert!(matches!(
            AmsService::start(config(2), &["a", "a"]),
            Err(ServiceError::DuplicateAttribute { .. })
        ));
        let service = AmsService::start(config(2), &["a"]).unwrap();
        assert!(matches!(
            ingest(&service, "zz", &[1]),
            Err(ServiceError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn sharded_ingest_matches_single_sketch_exactly() {
        let cfg = config(3);
        let service = AmsService::start(cfg.clone(), &["v"]).unwrap();
        let values: Vec<u64> = (0..5_000u64).map(|i| i * i % 257).collect();
        for chunk in values.chunks(128) {
            ingest(&service, "v", chunk).unwrap();
        }
        service.drain();
        let snapshot = service.snapshot();
        let mut single: TugOfWarSketch = TugOfWarSketch::new(cfg.params(), cfg.seed());
        single.extend_values(values.iter().copied());
        assert_eq!(snapshot.sketch("v").unwrap().counters(), single.counters());
        assert_eq!(snapshot.ops(), values.len() as u64);
        let (final_snapshot, stats) = service.shutdown();
        assert_eq!(
            final_snapshot.sketch("v").unwrap().counters(),
            single.counters()
        );
        assert_eq!(stats.ops_ingested(), values.len() as u64);
        assert_eq!(stats.blocks_ingested(), stats.blocks_enqueued());
    }

    #[test]
    fn join_across_attributes() {
        let service = AmsService::start(config(2), &["f", "g"]).unwrap();
        let f: Vec<u64> = (0..4_000).map(|i| i % 40).collect();
        let g: Vec<u64> = (0..4_000).map(|i| i % 60).collect();
        for (fc, gc) in f.chunks(256).zip(g.chunks(256)) {
            ingest(&service, "f", fc).unwrap();
            ingest(&service, "g", gc).unwrap();
        }
        service.drain();
        let snapshot = service.snapshot();
        let exact = Multiset::from_values(f.iter().copied())
            .join_size(&Multiset::from_values(g.iter().copied())) as f64;
        let est = snapshot.join("f", "g").unwrap();
        let rel = (est - exact).abs() / exact;
        assert!(rel < 0.5, "join estimate {est} vs exact {exact}");
        assert!(matches!(
            snapshot.join("f", "zz"),
            Err(ServiceError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn shutdown_rejects_further_ingestion_via_closed_queues() {
        let service = AmsService::start(config(1), &["a"]).unwrap();
        ingest(&service, "a", &[1, 2, 3]).unwrap();
        // Close the queue as shutdown would, without consuming the
        // service, to observe the error surface.
        service.queues[0].close();
        assert!(matches!(
            ingest(&service, "a", &[4]),
            Err(ServiceError::Closed)
        ));
        assert!(matches!(
            service.submit("a", OpBlock::from_values([4]), None, 0, Wait::Try),
            Err((_, ServiceError::Closed))
        ));
        let (snapshot, _) = service.shutdown();
        assert_eq!(snapshot.ops(), 3);
    }

    #[test]
    fn drain_returns_despite_busy_producer_and_large_cadence() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cfg = ServiceConfig::builder()
            .shards(1)
            .queue_capacity(4)
            .sketch_params(SketchParams::single_group(64).unwrap())
            // A cadence that never fires on its own: only the
            // drain-requested publish can satisfy the wait.
            .publish_every(u64::MAX / 2)
            .seed(1)
            .build()
            .unwrap();
        let service = AmsService::start(cfg, &["a"]).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let service_ref = &service;
            let stop_ref = &stop;
            scope.spawn(move || {
                while !stop_ref.load(Ordering::Acquire) {
                    ingest(service_ref, "a", &[1, 2, 3]).expect("service running");
                }
            });
            while service.stats().blocks_enqueued() < 16 {
                std::thread::yield_now();
            }
            let target = service.stats().blocks_enqueued();
            // Must return while the producer keeps the queue busy (the
            // test hangs here on regression).
            service.drain();
            assert!(service.snapshot().blocks() >= target);
            stop.store(true, Ordering::Release);
        });
    }

    #[test]
    fn epochs_advance_with_publishes() {
        let service = AmsService::start(config(1), &["a"]).unwrap();
        assert_eq!(service.snapshot().epoch_max(), 0);
        ingest(&service, "a", &[1, 2]).unwrap();
        let drained_to = service.drain();
        assert!(drained_to >= 1, "a non-empty drain reaches epoch >= 1");
        let snapshot = service.snapshot();
        assert!(snapshot.epoch_min() >= drained_to);
        assert_eq!(snapshot.blocks(), 1);
    }

    #[test]
    fn drain_epoch_is_a_consistent_cut_across_shards() {
        let service = AmsService::start(config(3), &["a"]).unwrap();
        for chunk in (0..900u64).collect::<Vec<_>>().chunks(30) {
            ingest(&service, "a", chunk).unwrap();
        }
        let drained_to = service.drain();
        assert!(drained_to >= 1);
        // Any later snapshot sits at or past the cut.
        let snapshot = service.snapshot();
        assert!(snapshot.epoch_min() >= drained_to);
        assert_eq!(snapshot.ops(), 900);
    }

    #[test]
    fn poll_drained_completes_without_blocking() {
        let service = AmsService::start(config(2), &["a"]).unwrap();
        // An empty cut is immediately reached.
        let empty = service.drain_cut();
        assert!(service.poll_drained(&empty).is_some());
        for chunk in (0..400u64).collect::<Vec<_>>().chunks(16) {
            ingest(&service, "a", chunk).unwrap();
        }
        let cut = service.drain_cut();
        let epoch = loop {
            if let Some(epoch) = service.poll_drained(&cut) {
                break epoch;
            }
            std::thread::yield_now();
        };
        assert!(epoch >= 1);
        assert_eq!(service.snapshot().ops(), 400);
        // The blocking drain agrees the cut is already reached.
        assert!(service.drain() >= epoch);
    }

    #[test]
    fn queue_depth_probe_and_rejection_counters() {
        let cfg = ServiceConfig::builder()
            .shards(1)
            .queue_capacity(1)
            .sketch_params(SketchParams::single_group(64).unwrap())
            .seed(3)
            .build()
            .unwrap();
        let service = AmsService::start(cfg, &["a"]).unwrap();
        // Saturate the cap-1 queue until a non-blocking submission is
        // rejected; the rejection shows up in the stats.
        let mut saw_rejection = false;
        for _ in 0..10_000 {
            if matches!(
                service.submit("a", OpBlock::from_values([1, 2, 3]), None, 0, Wait::Try),
                Err((_, ServiceError::WouldBlock { .. }))
            ) {
                saw_rejection = true;
                break;
            }
        }
        assert!(saw_rejection, "cap-1 queue never rejected a submission");
        let stats = service.stats();
        assert!(stats.queue_rejections() >= 1);
        assert!(stats.backpressure_events() >= stats.queue_rejections());
        assert!(stats.max_queue_depth() <= 1, "bounded by capacity");
    }

    #[test]
    fn try_ingest_returning_hands_back_an_equivalent_block() {
        let cfg = ServiceConfig::builder()
            .shards(2)
            .queue_capacity(1)
            .sketch_params(SketchParams::single_group(64).unwrap())
            .seed(5)
            .router(crate::RouterPolicy::HashPartition)
            .build()
            .unwrap();
        let service = AmsService::start(cfg.clone(), &["a"]).unwrap();
        // 64 distinct values spread over both shards, so a submission
        // exercises the multi-placement reservation path.
        let block = OpBlock::from_values(0..64u64);
        let mut accepted = 0u64;
        let mut handed_back = None;
        for _ in 0..10_000 {
            match service.submit("a", block.clone(), None, 0, Wait::Try) {
                Ok(_) => accepted += 1,
                Err((back, ServiceError::WouldBlock { .. })) => {
                    handed_back = Some(back);
                    break;
                }
                Err((_, other)) => panic!("unexpected failure: {other}"),
            }
        }
        let back = handed_back.expect("cap-1 queues must refuse eventually");
        // The handed-back block is update-equivalent to the submission
        // (entries may be regrouped by shard).
        assert_eq!(back.ops(), block.ops());
        let mut back_net: Vec<_> = back.coalesce().entries().collect();
        let mut block_net: Vec<_> = block.coalesce().entries().collect();
        back_net.sort_unstable();
        block_net.sort_unstable();
        assert_eq!(back_net, block_net);
        // Resubmitting it loses nothing: the final state equals the
        // accepted submissions plus the handed-back one.
        service.ingest_block("a", back).unwrap();
        service.drain();
        let snapshot = service.snapshot();
        assert_eq!(snapshot.ops(), (accepted + 1) * block.ops());
        let mut single: TugOfWarSketch = TugOfWarSketch::new(cfg.params(), cfg.seed());
        for _ in 0..accepted + 1 {
            single.apply_block(&block);
        }
        assert_eq!(snapshot.sketch("a").unwrap().counters(), single.counters());
    }

    #[test]
    fn refused_submissions_are_observed_once_on_acceptance() {
        const KEYS: u64 = 8;
        let cfg = ServiceConfig::builder()
            .shards(2)
            .queue_capacity(1)
            .sketch_params(SketchParams::single_group(1_024).unwrap())
            .router(crate::RouterPolicy::HashPartition)
            .heavy_keys(KEYS as usize)
            .audit_every(1)
            .seed(9)
            .build()
            .unwrap();
        let service = AmsService::start(cfg, &["a"]).unwrap();
        // At most `KEYS` distinct keys, so SpaceSaving counts are exact;
        // key `k` appears `k + 1` times per block.
        let block = OpBlock::from_values((0..KEYS).flat_map(|k| (0..=k).map(move |_| k)));
        let mut refusals = 0u64;
        let mut accepted = 0u64;
        for _ in 0..64 {
            let mut attempt = block.clone();
            loop {
                match service.submit("a", attempt, None, 0, Wait::Try) {
                    Ok(_) => break,
                    Err((back, ServiceError::WouldBlock { .. })) => {
                        refusals += 1;
                        attempt = back;
                        std::thread::yield_now();
                    }
                    Err((_, other)) => panic!("unexpected failure: {other}"),
                }
            }
            accepted += 1;
        }
        assert!(refusals > 0, "cap-1 queues must refuse part of the burst");
        let mut top = service.heavy_keys("a").unwrap();
        top.sort_by_key(|e| e.key);
        assert_eq!(top.len(), KEYS as usize);
        for entry in top {
            assert_eq!(entry.count, accepted * (entry.key + 1), "key {}", entry.key);
            assert_eq!(entry.error, 0);
        }
        let audited = service.audit.as_ref().unwrap().reading(0).unwrap();
        assert_eq!(audited.sampled_blocks, accepted);
    }

    #[test]
    fn point_queries_match_the_full_snapshot() {
        let service = AmsService::start(config(3), &["f", "g"]).unwrap();
        ingest(&service, "f", &[1, 2, 2, 3, 9, 9]).unwrap();
        ingest(&service, "g", &[2, 4, 4]).unwrap();
        service.drain();
        let snapshot = service.snapshot();
        assert_eq!(
            service.merged_sketch("f").unwrap().counters(),
            snapshot.sketch("f").unwrap().counters()
        );
        assert_eq!(
            service.self_join("g").unwrap(),
            snapshot.self_join("g").unwrap()
        );
        assert_eq!(
            service.join("f", "g").unwrap(),
            snapshot.join("f", "g").unwrap()
        );
        assert!(matches!(
            service.self_join("zz"),
            Err(ServiceError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn snapshot_codec_roundtrip_preserves_counters_and_queries() {
        let service = AmsService::start(config(2), &["f", "g"]).unwrap();
        ingest(&service, "f", &[1, 2, 2, 3, 9]).unwrap();
        ingest(&service, "g", &[2, 2, 4]).unwrap();
        service.drain();
        let snapshot = service.snapshot();
        let mut wire = Vec::new();
        snapshot.encode(&mut wire);
        let back = ServiceSnapshot::decode(&wire).unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(
            back.sketch("f").unwrap().counters(),
            snapshot.sketch("f").unwrap().counters()
        );
        assert_eq!(
            back.sketch("g").unwrap().counters(),
            snapshot.sketch("g").unwrap().counters()
        );
        assert_eq!(
            back.self_join("f").unwrap(),
            snapshot.self_join("f").unwrap()
        );
        assert_eq!(
            back.join("f", "g").unwrap(),
            snapshot.join("f", "g").unwrap()
        );
        assert_eq!(back.epoch_min(), snapshot.epoch_min());
        assert_eq!(back.epoch_max(), snapshot.epoch_max());
        assert_eq!(back.blocks(), snapshot.blocks());
        assert_eq!(back.ops(), snapshot.ops());
        assert_eq!(
            back.attributes().collect::<Vec<_>>(),
            snapshot.attributes().collect::<Vec<_>>()
        );
    }

    #[test]
    fn snapshot_deserialize_rejects_malformed_wire_forms() {
        use ams_core::codec::HEADER_LEN;
        let service = AmsService::start(config(1), &["f", "g"]).unwrap();
        ingest(&service, "f", &[1, 2]).unwrap();
        service.drain();
        let mut wire = Vec::new();
        service.snapshot().encode(&mut wire);
        let decode = ServiceSnapshot::decode;
        let rejected = |bytes: &[u8], why: &'static str| {
            assert_eq!(
                decode(bytes).unwrap_err(),
                SketchError::Codec { reason: why },
                "expected: {why}"
            );
        };
        // Layout: 32 bytes of stamps, the set header (family id at +4,
        // s1 at +8), the set count, then per attribute a 4-byte name
        // length, the name, and the counters.
        let set = 32;
        let count = set + HEADER_LEN;
        let counters = 8 * config(1).params().total();
        // The count disagrees with the entries that follow.
        let mut over = wire.clone();
        over[count..count + 4].copy_from_slice(&3u32.to_le_bytes());
        rejected(&over, "set count is zero or exceeds the payload");
        // A repeated attribute name ("g" → "f").
        let second_name = count + 4 + 4 + 1 + counters + 4;
        assert_eq!(wire[second_name], b'g');
        let mut repeated = wire.clone();
        repeated[second_name] = b'f';
        rejected(&repeated, "sketch set repeats a name");
        // Sketches of another sign family.
        let mut foreign = wire.clone();
        foreign[set + 4..set + 8].copy_from_slice(&2u32.to_le_bytes());
        rejected(&foreign, "encoded under another sign family");
        // Another shape than the counters that follow.
        let mut reshaped = wire.clone();
        reshaped[set + 8..set + 12].copy_from_slice(&7u32.to_le_bytes());
        assert!(
            decode(&reshaped).is_err(),
            "a reshaped header must be rejected"
        );
        // Sketches of mixed shape or seed cannot be expressed: a set
        // carries one header, and its encoder refuses such a set.
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut]).is_err(), "truncation at {cut}");
        }
        let mut long = wire.clone();
        long.push(0);
        rejected(&long, "trailing bytes after the snapshot");
    }

    #[test]
    fn metrics_cover_the_full_ingest_path() {
        let cfg = config(2);
        let service = AmsService::start(cfg.clone(), &["f", "g"]).unwrap();
        // Sketch memory is accounted the moment the workers build their
        // sketches: each of 2 shards holds one `params.total()`-word
        // sketch per attribute.
        let per_attr = (2 * cfg.params().total()) as i64;
        for chunk in (0..600u64).collect::<Vec<_>>().chunks(20) {
            ingest(&service, "f", chunk).unwrap();
        }
        ingest(&service, "g", &[1, 2, 3]).unwrap();
        service.drain();
        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter_total("service_ops_ingested"), 603);
        assert_eq!(
            snap.counter_total("service_routed_ops"),
            603,
            "routed ops count once per accepted submission"
        );
        assert_eq!(
            snap.counter_total("service_blocks_ingested"),
            service.stats().blocks_ingested()
        );
        assert!(snap.counter_total("service_publishes") >= 1);
        // Latency histograms saw every block, on both shards.
        let ingest = snap.merged_histogram("service_ingest_ns");
        assert_eq!(ingest.count, service.stats().blocks_ingested());
        assert!(ingest.p99() >= ingest.p50());
        let wait = snap.merged_histogram("service_queue_wait_ns");
        assert_eq!(wait.count, ingest.count);
        for shard in ["0", "1"] {
            let labels = [("shard", shard)];
            assert!(
                snap.histogram("service_ingest_ns", &labels).unwrap().count > 0,
                "shard {shard} ingested nothing"
            );
        }
        // Memory gauges: live sketches accounted per attribute.
        assert_eq!(
            snap.gauge("service_sketch_memory_words", &[("attribute", "f")]),
            Some(per_attr)
        );
        assert_eq!(
            snap.gauge("service_sketch_memory_words", &[("attribute", "g")]),
            Some(per_attr)
        );
        // Drained queues read zero depth.
        assert_eq!(
            snap.gauge("service_queue_depth", &[("shard", "0")]),
            Some(0)
        );
        // The text exposition carries the same series.
        let text = snap.render_text();
        assert!(text.contains("service_ops_ingested{shard=\"0\"}"), "{text}");
        assert!(
            text.contains("service_ingest_ns_p99_ns{shard=\"1\"}"),
            "{text}"
        );
        // After shutdown the workers hand their sketch words back.
        let registry = service.registry();
        drop(service);
        let after = registry.snapshot();
        assert_eq!(
            after.gauge("service_sketch_memory_words", &[("attribute", "f")]),
            Some(0),
            "workers release their memory accounting at exit"
        );
    }

    #[test]
    fn heavy_key_observer_surfaces_dominant_keys() {
        let cfg = ServiceConfig::builder()
            .shards(2)
            .sketch_params(SketchParams::single_group(64).unwrap())
            .heavy_keys(4)
            .seed(2)
            .build()
            .unwrap();
        let service = AmsService::start(cfg, &["a", "b"]).unwrap();
        // Key 7 dominates attribute "a"; attribute "b" stays untouched.
        let skewed: Vec<u64> = (0..300u64)
            .map(|i| if i % 3 == 0 { 99 } else { 7 })
            .collect();
        ingest(&service, "a", &skewed).unwrap();
        service.drain();
        let top = service.heavy_keys("a").unwrap();
        assert_eq!(top[0].key, 7);
        assert!(top[0].count >= 200);
        assert_eq!(top[1].key, 99);
        assert!(service.heavy_keys("b").unwrap().is_empty());
        assert!(service.heavy_keys("zz").is_err());
        // The top ranks surface as gauges in the metrics snapshot.
        let snap = service.metrics_snapshot();
        assert_eq!(
            snap.gauge(
                "service_heavy_key_value",
                &[("attribute", "a"), ("rank", "0")]
            ),
            Some(7)
        );
        assert_eq!(
            snap.gauge("service_heavy_keys", &[("attribute", "a"), ("rank", "0")]),
            Some(top[0].count as i64)
        );
    }

    #[test]
    fn heavy_keys_disabled_by_default() {
        let service = AmsService::start(config(1), &["a"]).unwrap();
        ingest(&service, "a", &[7, 7, 7]).unwrap();
        service.drain();
        assert!(service.heavy_keys("a").unwrap().is_empty());
        assert_eq!(
            service
                .metrics_snapshot()
                .gauge("service_heavy_keys", &[("attribute", "a"), ("rank", "0")]),
            None
        );
    }

    #[test]
    fn traced_ingest_records_queue_and_kernel_spans() {
        let service = AmsService::start(config(2), &["a"]).unwrap();
        let block = OpBlock::from_values(0..32u64);
        service.submit("a", block, None, 0xBEEF, Wait::Try).unwrap();
        service.drain();
        let traces = service.trace_hub().assemble_all();
        let trace = traces
            .iter()
            .find(|t| t.trace_id == 0xBEEF)
            .expect("traced request assembled");
        assert!(
            trace.spans.iter().any(|s| s.stage == "queue"),
            "queue span recorded"
        );
        assert!(
            trace.spans.iter().any(|s| s.stage == "kernel"),
            "kernel span recorded"
        );
        assert_eq!(trace.stage_ns("wal_append"), 0, "no WAL when in-memory");
        // Untraced ingest records nothing.
        ingest(&service, "a", &[1, 2, 3]).unwrap();
        service.drain();
        assert_eq!(service.trace_hub().assemble_all().len(), traces.len());
    }

    #[test]
    fn disabled_hub_records_no_spans_even_for_traced_requests() {
        let service = AmsService::start(config(1), &["a"]).unwrap();
        service.trace_hub().set_enabled(false);
        service
            .submit("a", OpBlock::from_values(0..8u64), None, 0xF00D, Wait::Try)
            .unwrap();
        service.drain();
        assert!(service.trace_hub().assemble_all().is_empty());
    }

    #[test]
    fn stats_serde_roundtrip() {
        let service = AmsService::start(config(2), &["a"]).unwrap();
        ingest(&service, "a", &[1, 2, 3]).unwrap();
        service.drain();
        let stats = service.stats();
        let json = serde_json::to_string(&stats).unwrap();
        let back: ServiceStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    /// A waker that counts its wakes, recording at each one what
    /// `read` observes then.
    struct CountingWaker {
        read: Box<dyn Fn() -> u64 + Send + Sync>,
        seen: std::sync::Mutex<Vec<u64>>,
        rang: std::sync::Condvar,
    }

    impl std::task::Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.seen.lock().unwrap().push((self.read)());
            self.rang.notify_all();
        }
    }

    impl CountingWaker {
        fn register(read: impl Fn() -> u64 + Send + Sync + 'static) -> (Arc<Self>, Waker) {
            let probe = Arc::new(Self {
                read: Box::new(read),
                seen: std::sync::Mutex::new(Vec::new()),
                rang: std::sync::Condvar::new(),
            });
            let waker = Waker::from(Arc::clone(&probe));
            (probe, waker)
        }

        fn wakes(&self) -> usize {
            self.seen.lock().unwrap().len()
        }

        /// Waits for a wake that observed at least `value`. The bound
        /// is a watchdog that turns a missing wake into a failure
        /// instead of a hang; no wake is timed.
        fn saw_at_least(&self, value: u64) -> bool {
            let seen = self.seen.lock().unwrap();
            let (seen, _) = self
                .rang
                .wait_timeout_while(seen, std::time::Duration::from_secs(30), |seen| {
                    !seen.iter().any(|&v| v >= value)
                })
                .unwrap();
            seen.iter().any(|&v| v >= value)
        }
    }

    #[test]
    fn wake_hook_rings_on_every_event_a_reactor_parks_on() {
        use crate::snapshot::ShardSnapshot;
        use ams_telemetry::Gauge;

        let (probe, waker) = CountingWaker::register(|| 0);
        let hook = Arc::new(WakeHook::default());
        hook.add(waker);
        let task = || ShardTask::new(0, OpBlock::from_values([1]), None, 0);
        let fill = |queue: &BlockQueue| {
            assert!(queue.try_reserve(Wait::Try));
            queue.push_reserved(task());
        };

        // Queue room: freed room rings only after a refusal, once.
        let queue = BlockQueue::with_depth_gauge(1, Arc::new(Gauge::new()), Arc::clone(&hook));
        fill(&queue);
        queue.pop().unwrap();
        assert_eq!(probe.wakes(), 0, "room nobody was refused wakes nobody");
        fill(&queue);
        assert!(!queue.try_reserve(Wait::Try));
        queue.pop().unwrap();
        assert_eq!(
            probe.wakes(),
            1,
            "a pop frees room for a refused reservation"
        );
        fill(&queue);
        assert!(!queue.try_reserve(Wait::Try));
        let mut taken = Vec::new();
        assert_eq!(queue.take_queued(4, &mut taken), 1);
        assert_eq!(probe.wakes(), 2, "take_queued frees room");
        assert!(queue.try_reserve(Wait::Try));
        assert!(!queue.try_reserve(Wait::Try));
        queue.release_reserved();
        assert_eq!(probe.wakes(), 3, "a released reservation frees room");
        queue.close();
        assert_eq!(probe.wakes(), 4, "close");

        // Publish.
        let cell = ShardCell::new(4, 1, Arc::clone(&hook));
        cell.publish(ShardSnapshot {
            epoch: 1,
            blocks: 1,
            ops: 1,
            processed: 1,
            counters: vec![vec![0; 4]],
        });
        assert_eq!(probe.wakes(), 5, "a publish");

        // A durable watermark advance. The worker publishes before it
        // syncs, so a wake that observes the advanced watermark came
        // from the advance (nothing else happens until shutdown).
        let dir = std::env::temp_dir().join(format!(
            "ams-service-wake-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let durable = ServiceConfig::builder()
            .shards(1)
            .sketch_params(SketchParams::new(16, 3).unwrap())
            .seed(0xC0FFEE)
            .durability(
                ams_durable::DurabilityConfig::new(&dir)
                    .with_fsync(ams_durable::FsyncPolicy::PerAppend),
            )
            .build()
            .unwrap();
        let service = AmsService::start(durable, &["a"]).unwrap();
        let watermark = Arc::clone(&service.durable_watermarks[0]);
        let (probe, waker) = CountingWaker::register(move || watermark.load(Ordering::Acquire));
        service.add_waker(waker);
        ingest(&service, "a", &[1, 2, 3]).unwrap();
        assert!(
            probe.saw_at_least(1),
            "a durable watermark advance rings the hook"
        );

        // Shutdown closes the queues.
        let before = probe.wakes();
        let (snapshot, _) = service.shutdown();
        assert_eq!(snapshot.ops(), 3);
        assert!(probe.wakes() > before, "shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
