//! End-to-end proofs for the estimator health observatory at service
//! level: lifecycle events land in order, the windowed health signals
//! are hand-computable from the routed ops, the per-attribute
//! confidence interval covers the exact answer on a seeded zipf
//! stream, and a wedged WAL (a failed append or checkpoint) turns the
//! verdict Unhealthy for good.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ams_core::SketchParams;
use ams_datagen::zipf::ZipfGenerator;
use ams_durable::WalOp;
use ams_service::{
    AmsService, DurabilityConfig, FaultPlan, FsyncPolicy, HealthThresholds, HealthVerdict,
    HealthWindow, MetricsSnapshot, Scrape, ServiceConfig, ServiceEvent, SignalStatus,
};
use ams_stream::{Multiset, OpBlock};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A self-cleaning temp dir (no tempfile crate in the workspace).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let path = std::env::temp_dir().join(format!(
            "ams-service-observatory-{tag}-{}-{}-{nanos}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn first_index(events: &[ServiceEvent], code: &str) -> Option<usize> {
    events.iter().position(|e| e.code == code)
}

/// Whether any health-derived series sits in the registry (grading
/// must write nothing there).
fn has_health_series(snap: &MetricsSnapshot) -> bool {
    snap.samples.iter().any(|s| {
        [
            "service_health",
            "service_estimate",
            "service_shard_imbalance",
        ]
        .iter()
        .any(|prefix| s.name.starts_with(prefix))
    })
}

#[test]
fn lifecycle_events_run_in_order_and_recovery_reports_blocks() {
    let dir = TempDir::new("lifecycle");
    let durability = || {
        DurabilityConfig::new(dir.path())
            .with_fsync(FsyncPolicy::PerAppend)
            .with_checkpoint_every(8)
    };
    let config = || {
        ServiceConfig::builder()
            .shards(1)
            .sketch_params(SketchParams::new(16, 3).unwrap())
            .seed(7)
            .publish_every(4)
            .durability(durability())
            .build()
            .unwrap()
    };
    let service = AmsService::start(config(), &["v"]).unwrap();
    let hub = service.event_hub();
    for i in 0..20u64 {
        service
            .ingest_block("v", OpBlock::from_values((0..8).map(|j| i * 131 + j)))
            .unwrap();
    }
    service.drain();

    // The cadence has fired by now: start, then publishes, then at
    // least one checkpoint, in timestamp order.
    let events = service.events();
    let start = first_index(&events, "shard_start").expect("shard_start");
    let publish = first_index(&events, "publish").expect("publish");
    let checkpoint = first_index(&events, "checkpoint").expect("checkpoint");
    assert!(start < publish, "start precedes first publish: {events:?}");
    assert!(
        publish < checkpoint,
        "a publish precedes the first checkpoint (cadence 4 vs 8): {events:?}"
    );
    let publish_event = &events[publish];
    assert_eq!(publish_event.key, 0, "single shard");
    assert!(publish_event.value > 0, "publish carries blocks so far");
    assert_eq!(publish_event.level, "info");
    let _ = service.shutdown();

    // The worker's exit event lands in the (service-outliving) hub.
    let after = hub.collect_wire();
    let stop = first_index(&after, "shard_stop").expect("shard_stop");
    assert_eq!(after[stop].value, 20, "stop carries final block count");
    assert!(first_index(&after, "checkpoint").is_some());

    // A restart over the same directory emits a recovery event before
    // its first publish.
    let restarted = AmsService::start(config(), &["v"]).unwrap();
    // The worker publishes the recovered state as its first act; wait
    // for that so the recovery + publish events have landed.
    while restarted.snapshot().blocks() < 20 {
        std::thread::yield_now();
    }
    let events = restarted.events();
    let recovery = first_index(&events, "recovery").expect("recovery event");
    assert_eq!(
        events[recovery].value, 20,
        "recovery reports the replayed+checkpointed block count"
    );
    let publish = first_index(&events, "publish").expect("recovered state publishes");
    assert!(recovery < publish);
    let _ = restarted.shutdown();
}

#[test]
fn imbalance_ratio_matches_hand_computed_routed_ops() {
    // Two shards, round-robin: three blocks of 30/10/10 ops land as
    // shard A = 30 + 10 = 40, shard B = 10, so the windowed ratio is
    // exactly 40 / 10 = 4.
    let config = ServiceConfig::builder()
        .shards(2)
        .sketch_params(SketchParams::new(16, 3).unwrap())
        .seed(1)
        .build()
        .unwrap();
    let service = AmsService::start(config, &["v"]).unwrap();
    for ops in [30u64, 10, 10] {
        service
            .ingest_block("v", OpBlock::from_values(0..ops))
            .unwrap();
    }
    service.drain();

    let snap = service.metrics_snapshot();
    let mut routed = [
        snap.counter("service_routed_ops", &[("shard", "0")])
            .unwrap(),
        snap.counter("service_routed_ops", &[("shard", "1")])
            .unwrap(),
    ];
    routed.sort_unstable();
    assert_eq!(routed, [10, 40], "hand-tallied round-robin placement");

    // Grade the tiny window too (the default floor would skip it).
    let thresholds = HealthThresholds {
        imbalance_min_ops: 0,
        ..HealthThresholds::default()
    };
    let mut window = HealthWindow::default();
    let report = service.health(&thresholds, &mut window);
    let signal = report.signal("shard_imbalance_ratio").expect("graded");
    assert_eq!(signal.value, 4.0, "max/min of the hand-computed deltas");
    assert_eq!(signal.status, SignalStatus::Degraded, "4.0 >= 4.0");
    assert!(
        !has_health_series(&service.metrics_snapshot()),
        "the ratio lives in the report, not in a mirrored gauge"
    );

    // The next scrape through the same window opens a fresh one:
    // nothing new was routed, so it is idle and perfectly balanced.
    let report = service.health(&thresholds, &mut window);
    assert_eq!(report.signal("shard_imbalance_ratio").unwrap().value, 1.0);
    // A scraper with its own window still sees everything since start.
    let report = service.health(&thresholds, &mut HealthWindow::default());
    assert_eq!(report.signal("shard_imbalance_ratio").unwrap().value, 4.0);
}

#[test]
fn health_interval_covers_exact_on_seeded_zipf_stream() {
    let n = 20_000usize;
    let values = ZipfGenerator::new(1_000, 1.0).generate(0xA5EED, n);
    let exact = Multiset::from_values(values.iter().copied()).self_join_size() as f64;

    let config = ServiceConfig::builder()
        .shards(4)
        .sketch_params(SketchParams::new(64, 5).unwrap())
        .seed(0xC0FFEE)
        .heavy_keys(8)
        .audit_every(4)
        .build()
        .unwrap();
    let service = AmsService::start(config, &["zipf"]).unwrap();
    for chunk in values.chunks(100) {
        service
            .ingest_block("zipf", OpBlock::from_values(chunk.iter().copied()))
            .unwrap();
    }
    service.drain();

    let scrape = service.scrape(
        Scrape::HEALTH | Scrape::METRICS,
        &mut HealthWindow::default(),
    );
    let report = scrape.health.expect("health section");
    assert_eq!(
        report.verdict,
        HealthVerdict::Healthy,
        "a drained balanced service is healthy: {report:?}"
    );
    let accuracy = report.accuracy_for("zipf").expect("tracked attribute");
    assert!(
        accuracy.covers(exact),
        "interval [{}, {}] must cover exact {exact}",
        accuracy.ci_lower,
        accuracy.ci_upper
    );
    assert!(accuracy.estimate > 0.0);
    assert_eq!(accuracy.error_bound, 0.5, "4/sqrt(64)");

    // The shadow audit saw every 4th block and compares like-with-like.
    let observed = accuracy.observed_rel_error.expect("audit sampler on");
    let audited_exact = accuracy.audited_exact.expect("audit sampler on");
    assert!(audited_exact > 0.0);
    assert!(
        observed < accuracy.error_bound,
        "seeded stream: observed error {observed} within the paper bound"
    );
    assert!(report.signal("audit_rel_error_bounds").is_some());

    // Zipf(1.0) over a 1k domain: the top key dominates visibly but
    // not absolutely.
    assert!(
        accuracy.skew_score > 0.05 && accuracy.skew_score < 0.9,
        "skew score {} out of range",
        accuracy.skew_score
    );

    // The interval, the audit error and the verdict live in the health
    // section alone: the same document's metrics section, read from
    // the same registry snapshot, carries no mirror of them.
    assert_eq!(report.verdict.code(), 0);
    assert!(!has_health_series(
        &scrape.metrics.expect("metrics section")
    ));
    assert!(!has_health_series(&service.metrics_snapshot()));
}

#[test]
fn audit_off_reports_no_observed_error_and_idle_service_is_healthy() {
    let config = ServiceConfig::builder()
        .shards(2)
        .sketch_params(SketchParams::new(16, 3).unwrap())
        .seed(2)
        .build()
        .unwrap();
    let service = AmsService::start(config, &["v"]).unwrap();
    let mut window = HealthWindow::default();
    let report = service.health(&HealthThresholds::default(), &mut window);
    assert_eq!(report.verdict, HealthVerdict::Healthy);
    let accuracy = report.accuracy_for("v").unwrap();
    assert!(accuracy.observed_rel_error.is_none());
    assert!(accuracy.audited_exact.is_none());
    assert_eq!(accuracy.skew_score, 0.0, "no heavy-key observer");
    assert!(report.signal("audit_rel_error_bounds").is_none());
    assert!(
        report.signal("shard_imbalance_ratio").is_none(),
        "idle window below the grading floor"
    );
    assert!(report.signal("wal_fsync_p99_budget").is_none());

    // Thresholds are caller-tunable: a floor-zero degraded threshold
    // turns the same scrape Degraded with the signal named.
    let strict = HealthThresholds {
        queue_saturation_degraded: 0.0,
        ..HealthThresholds::default()
    };
    let report = service.health(&strict, &mut window);
    match &report.verdict {
        HealthVerdict::Degraded(reasons) => {
            assert!(reasons.iter().any(|r| r.starts_with("queue_saturation")));
        }
        other => panic!("expected Degraded, got {other:?}"),
    }
}

#[test]
fn wedged_wal_turns_the_verdict_unhealthy() {
    let dir = TempDir::new("wedged");
    let config = ServiceConfig::builder()
        .shards(1)
        .sketch_params(SketchParams::new(16, 3).unwrap())
        .seed(3)
        .durability(
            DurabilityConfig::new(dir.path())
                .with_fsync(FsyncPolicy::PerAppend)
                .with_fault(FaultPlan {
                    fail_after_appends: Some(3),
                    ..FaultPlan::default()
                }),
        )
        .build()
        .unwrap();
    let service = AmsService::start(config, &["v"]).unwrap();
    for i in 0..8u64 {
        service
            .ingest_block("v", OpBlock::from_values((0..4).map(|j| i * 31 + j)))
            .unwrap();
    }
    // The worker wedges at the 4th append; wait until it has seen (and
    // discarded) everything, then scrape.
    while service.stats().blocks_ingested() + 5 < 8 {
        std::thread::yield_now();
    }
    let events = loop {
        let events = service.events();
        if first_index(&events, "wal_failed").is_some() {
            break events;
        }
        std::thread::yield_now();
    };
    assert_eq!(
        events[first_index(&events, "wal_failed").unwrap()].level,
        "error"
    );

    let report = service.health(&HealthThresholds::default(), &mut HealthWindow::default());
    let failures = report.signal("wal_failures").expect("durable service");
    assert!(failures.value >= 1.0);
    assert_eq!(
        failures.status,
        SignalStatus::Unhealthy,
        "any failure is unhealthy"
    );
    match &report.verdict {
        HealthVerdict::Unhealthy(reasons) => {
            assert!(
                reasons.iter().any(|r| r.starts_with("wal_failures")),
                "{reasons:?}"
            );
        }
        other => panic!("expected Unhealthy, got {other:?}"),
    }
    assert_eq!(report.verdict.code(), 2);
    assert_eq!(
        service.metrics_snapshot().counter_total("wal_failures"),
        1,
        "the writer wedged at its first failed append"
    );
    let _ = service.shutdown();
}

/// The event ring a WAL failure lands in holds 256 events and the shard
/// emits a `publish` on every queue drain, so the failure event is soon
/// overwritten. The verdict must not forget it: it reads a monotone
/// failure counter, not the ring.
#[test]
fn wedged_wal_verdict_holds_past_the_event_ring() {
    let dir = TempDir::new("wedged-ring");
    let config = ServiceConfig::builder()
        .shards(1)
        .sketch_params(SketchParams::new(16, 3).unwrap())
        .seed(3)
        .durability(
            DurabilityConfig::new(dir.path())
                .with_fsync(FsyncPolicy::PerAppend)
                .with_fault(FaultPlan {
                    fail_after_appends: Some(3),
                    ..FaultPlan::default()
                }),
        )
        .build()
        .unwrap();
    let service = AmsService::start(config, &["v"]).unwrap();
    let mut window = HealthWindow::default();
    let block = |i: u64| OpBlock::from_values((0..4).map(|j| i * 31 + j));
    for i in 0..4 {
        service.ingest_block("v", block(i)).unwrap();
    }
    service.drain();
    let report = service.health(&HealthThresholds::default(), &mut window);
    assert_eq!(report.verdict.code(), 2, "wedged: {report:?}");

    // Every later block is drained one at a time, so each pop empties
    // the queue and publishes; far more publishes than the ring holds.
    let publishes = |service: &AmsService| {
        service
            .metrics_snapshot()
            .counter_total("service_publishes")
    };
    let before = publishes(&service);
    for i in 4..400 {
        service.ingest_block("v", block(i)).unwrap();
        service.drain();
    }
    assert!(publishes(&service) - before >= 300);
    assert!(
        first_index(&service.events(), "wal_failed").is_none(),
        "the failure event was overwritten"
    );
    assert_eq!(service.stats().blocks_ingested(), 3, "only 3 blocks landed");

    let report = service.health(&HealthThresholds::default(), &mut window);
    let failures = report.signal("wal_failures").expect("durable");
    assert_eq!(failures.value, 1.0);
    match &report.verdict {
        HealthVerdict::Unhealthy(reasons) => {
            assert!(
                reasons.iter().any(|r| r.starts_with("wal_failures")),
                "{reasons:?}"
            );
        }
        other => panic!("the wedge was forgotten: {other:?}"),
    }
    let _ = service.shutdown();
}

/// A failed checkpoint wedges the writer like a failed append: the
/// shard discards every later block. The verdict must read Unhealthy
/// and name the failure on every scrape, though no append failed and
/// the window's applied ops keep `ingest_stall` at zero.
#[test]
fn wedged_checkpoint_turns_the_verdict_unhealthy() {
    let dir = TempDir::new("wedged-checkpoint");
    let config = ServiceConfig::builder()
        .shards(1)
        .sketch_params(SketchParams::new(16, 3).unwrap())
        .seed(3)
        .durability(
            DurabilityConfig::new(dir.path())
                .with_fsync(FsyncPolicy::PerAppend)
                .with_checkpoint_every(4)
                .with_fault(FaultPlan {
                    fail_on_checkpoint: Some(1),
                    ..FaultPlan::default()
                }),
        )
        .build()
        .unwrap();
    let service = AmsService::start(config, &["v"]).unwrap();
    let mut window = HealthWindow::default();
    for i in 0..8u64 {
        service
            .ingest_block("v", OpBlock::from_values((0..4).map(|j| i * 31 + j)))
            .unwrap();
    }
    service.drain();
    assert_eq!(
        service.stats().blocks_ingested(),
        4,
        "the first checkpoint wedged the shard"
    );
    for scrape in 0..2 {
        let report = service.health(&HealthThresholds::default(), &mut window);
        let failures = report.signal("wal_failures").expect("durable service");
        assert_eq!(failures.value, 1.0, "scrape {scrape}");
        match &report.verdict {
            HealthVerdict::Unhealthy(reasons) => {
                assert!(
                    reasons.iter().any(|r| r.starts_with("wal_failures")),
                    "scrape {scrape}: {reasons:?}"
                );
            }
            other => panic!("scrape {scrape}: expected Unhealthy, got {other:?}"),
        }
    }
    let metrics = service.metrics_snapshot();
    assert_eq!(
        metrics.counter("wal_failures", &[("shard", "0"), ("op", "checkpoint")]),
        Some(1)
    );
    assert_eq!(metrics.counter_total("wal_failures"), 1);
    let events = service.events();
    let failed = &events[first_index(&events, "wal_failed").expect("failure event")];
    assert_eq!(failed.level, "error");
    assert_eq!(failed.value, WalOp::Checkpoint as u64);
    let _ = service.shutdown();
}
