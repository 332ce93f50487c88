//! The one-scrape contract: a scrape document's sections read from one
//! registry snapshot, no scrape changes what a later one sees, and
//! every scraper's health window is its own.

use std::sync::atomic::{AtomicBool, Ordering};

use ams_core::SketchParams;
use ams_net::{AmsClient, NetServer, Scrape, ServerHandle};
use ams_service::{
    imbalance_ratio, AmsService, HealthWindow, MetricsSnapshot, ServiceConfig, SignalStatus,
};
use ams_stream::OpBlock;

/// Two shards under the default round-robin router: each block lands
/// whole on the next shard, so routed counts follow the block sizes.
fn config() -> ServiceConfig {
    ServiceConfig::builder()
        .shards(2)
        .queue_capacity(64)
        .sketch_params(SketchParams::new(16, 3).unwrap())
        .seed(11)
        .build()
        .unwrap()
}

fn spawn() -> ServerHandle {
    let service = AmsService::start(config(), &["v"]).unwrap();
    NetServer::bind("127.0.0.1:0").unwrap().spawn(service)
}

fn block(ops: u64) -> OpBlock {
    OpBlock::from_values(0..ops)
}

/// The per-shard routed ops and the applied ops: the cumulative
/// counters the windowed signals are deltas of.
fn window_counters(snap: &MetricsSnapshot) -> [u64; 3] {
    let routed = |shard| {
        snap.counter("service_routed_ops", &[("shard", shard)])
            .unwrap()
    };
    [
        routed("0"),
        routed("1"),
        snap.counter_total("service_ops_ingested"),
    ]
}

/// Raises the flag when dropped, so a failing assertion still stops the
/// producer thread and the scope can join it.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Under a concurrent producer, every windowed health signal of a
/// document equals what that same document's metrics section implies:
/// the deltas between consecutive documents' counters on one
/// connection. Health and metrics come from one registry read.
#[test]
fn one_document_reads_from_one_instant() {
    let handle = spawn();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut producer = AmsClient::connect(handle.addr()).unwrap();
        let stop = &stop;
        scope.spawn(move || {
            // Alternating sizes keep the shard ratio moving.
            let mut ops = [64, 192].into_iter().cycle();
            while !stop.load(Ordering::Acquire) {
                producer
                    .ingest_block("v", &block(ops.next().unwrap()))
                    .unwrap();
            }
        });
        let _stop = StopOnDrop(stop);
        let mut scraper = AmsClient::connect(handle.addr()).unwrap();
        let mut prev = [0u64; 3];
        let mut prev_at = 0;
        let mut graded = 0;
        for _ in 0..64 {
            let scrape = scraper.scrape(Scrape::METRICS | Scrape::HEALTH).unwrap();
            assert!(scrape.at_ns > prev_at, "documents are stamped in order");
            prev_at = scrape.at_ns;
            let now = window_counters(scrape.metrics.as_ref().unwrap());
            let d: Vec<u64> = now.iter().zip(prev).map(|(n, p)| n - p).collect();
            prev = now;
            let health = scrape.health.unwrap();
            let value = |name| health.signal(name).map(|s| s.value);
            let stalled = d[0] + d[1] > 0 && d[2] == 0;
            assert_eq!(value("ingest_stall"), Some(if stalled { 1.0 } else { 0.0 }));
            let ratio = (d[0] + d[1] >= 256).then(|| imbalance_ratio(&d[..2]));
            assert_eq!(value("shard_imbalance_ratio"), ratio, "deltas {d:?}");
            graded += usize::from(ratio.is_some());
        }
        assert!(graded > 0, "the producer never filled a window");
    });
    handle.stop();
}

/// Grading health writes nothing into the registry: a metrics section
/// reads the same before and after health scrapes, in-process and
/// through any window.
#[test]
fn metrics_section_does_not_depend_on_a_prior_health_scrape() {
    let config = ServiceConfig::builder()
        .shards(2)
        .sketch_params(SketchParams::new(16, 3).unwrap())
        .seed(11)
        .heavy_keys(4)
        .audit_every(2)
        .build()
        .unwrap();
    let service = AmsService::start(config, &["u", "v"]).unwrap();
    for i in 0..16u64 {
        service.ingest_block("u", block(8 + i)).unwrap();
        service.ingest_block("v", block(3 + i % 5)).unwrap();
    }
    service.drain();
    let mut window = HealthWindow::default();
    let before = service.scrape(Scrape::METRICS, &mut window).metrics;
    assert!(before.is_some());
    let graded = service.scrape(Scrape::HEALTH, &mut window);
    assert!(graded.health.is_some() && graded.metrics.is_none());
    service.scrape(Scrape::HEALTH, &mut HealthWindow::default());
    let after = service.scrape(Scrape::METRICS, &mut window).metrics;
    assert_eq!(before, after);
    assert_eq!(after, Some(service.metrics_snapshot()));
}

/// One connection's second health scrape, after the same ingest,
/// graded with and without a second connection's health scrape in
/// between.
fn second_window_signals(interloper: bool) -> Vec<(String, f64, SignalStatus)> {
    let handle = spawn();
    let mut client = AmsClient::connect(handle.addr()).unwrap();
    let mut other = AmsClient::connect(handle.addr()).unwrap();
    let phase = |client: &mut AmsClient, sizes: [u64; 2]| {
        for ops in sizes {
            client.ingest_block("v", &block(ops)).unwrap();
        }
        client.drain().unwrap();
    };
    // Round-robin: shard A takes 300, 500, 100 and shard B 100, 100,
    // 500, so the client's windows read 300/100 and then 600/600 —
    // but 100/500 from a baseline moved by the interloper.
    phase(&mut client, [300, 100]);
    let first = client.scrape(Scrape::HEALTH).unwrap().health.unwrap();
    let ratio = first.signal("shard_imbalance_ratio").unwrap().value;
    assert_eq!(ratio, 3.0);
    phase(&mut client, [500, 100]);
    if interloper {
        other.scrape(Scrape::HEALTH).unwrap();
    }
    phase(&mut client, [100, 500]);
    let second = client.scrape(Scrape::HEALTH).unwrap().health.unwrap();
    drop((client, other));
    handle.stop();
    second
        .signals
        .into_iter()
        .map(|s| (s.name, s.value, s.status))
        .collect()
}

#[test]
fn health_windows_belong_to_each_scraper() {
    let alone = second_window_signals(false);
    let ratio = alone
        .iter()
        .find(|(name, ..)| name == "shard_imbalance_ratio")
        .map(|(_, value, _)| *value);
    assert_eq!(ratio, Some(1.0), "{alone:?}");
    assert_eq!(second_window_signals(true), alone);
}
