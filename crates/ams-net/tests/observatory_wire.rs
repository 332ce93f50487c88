//! End-to-end observatory scrape over real sockets: one wire `Scrape`
//! request returns a health section whose per-attribute confidence
//! intervals cover the exact answer on a seeded zipf stream, and an
//! events section that shows the lifecycle (shard start → publish) plus
//! the reactor's own start event — the acceptance pins of the health
//! observatory at the network layer.

use ams_core::SketchParams;
use ams_datagen::zipf::ZipfGenerator;
use ams_net::{AmsClient, NetServer, Scrape};
use ams_service::{AmsService, HealthVerdict, ServiceConfig, SignalStatus};
use ams_stream::{value_blocks, Multiset, OpBlock};

#[test]
fn wire_health_scrape_covers_exact_and_events_show_lifecycle() {
    let n = 20_000usize;
    let values = ZipfGenerator::new(1_000, 1.0).generate(0x0B5E_871A, n);
    let exact = Multiset::from_values(values.iter().copied()).self_join_size() as f64;

    let config = ServiceConfig::builder()
        .shards(2)
        .sketch_params(SketchParams::new(64, 5).unwrap())
        .seed(0xC0FFEE)
        .heavy_keys(8)
        .audit_every(4)
        .build()
        .unwrap();
    let service = AmsService::start(config, &["zipf"]).unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service);

    let mut client = AmsClient::connect(addr).unwrap();
    let blocks: Vec<OpBlock> = value_blocks(&values, 100).collect();
    for block in &blocks {
        client.ingest_block("zipf", block).unwrap();
    }
    client.drain().unwrap();

    // One wire scrape: the interval must cover the exact answer, the
    // audit substream must be populated, and a drained balanced
    // service must grade Healthy.
    let scrape = client
        .scrape(Scrape::HEALTH | Scrape::EVENTS | Scrape::METRICS)
        .unwrap();
    assert!(scrape.stats.is_none() && scrape.traces.is_none());
    let health = scrape.health.expect("health section");
    assert_eq!(
        health.verdict,
        HealthVerdict::Healthy,
        "drained balanced service: {health:?}"
    );
    let accuracy = health.accuracy_for("zipf").expect("tracked attribute");
    assert!(
        accuracy.covers(exact),
        "wire interval [{}, {}] must cover exact {exact}",
        accuracy.ci_lower,
        accuracy.ci_upper
    );
    assert_eq!(accuracy.error_bound, 0.5, "4/sqrt(64)");
    let observed = accuracy.observed_rel_error.expect("audit sampler on");
    assert!(observed < accuracy.error_bound);
    assert!(accuracy.skew_score > 0.05 && accuracy.skew_score < 0.9);

    // 20k ops round-robin over 2 shards clears the grading floor and
    // is almost perfectly balanced.
    let imbalance = health.signal("shard_imbalance_ratio").expect("graded");
    assert_eq!(imbalance.status, SignalStatus::Ok);
    assert!(imbalance.value < 2.0, "round-robin: {}", imbalance.value);

    // The same document's events: shard lifecycle in timestamp order,
    // and the reactor's own start event sits in the same merged stream.
    let events = scrape.events.expect("events section");
    let position = |code: &str| events.iter().position(|e| e.code == code);
    let start = position("shard_start").expect("shard_start");
    let publish = position("publish").expect("publish (cadence 8 fired)");
    assert!(start < publish, "start precedes publish: {events:?}");
    assert!(position("reactor_start").is_some(), "{events:?}");

    // No reconnect happened, so the client's local hub is empty.
    assert!(client.local_events().is_empty());

    // The verdict and the interval live in the health section only:
    // grading writes nothing into the registry, so neither this
    // document's metrics section nor a later plain metrics scrape
    // carries a health series.
    assert_eq!(health.verdict.code(), 0);
    assert!(accuracy.ci_lower <= exact && exact <= accuracy.ci_upper);
    for metrics in [scrape.metrics.unwrap(), client.metrics().unwrap()] {
        assert!(
            metrics
                .samples
                .iter()
                .all(|s| !s.name.starts_with("service_health")
                    && !s.name.starts_with("service_estimate")),
            "health wrote into the registry"
        );
    }

    let _ = client.shutdown().unwrap();
    handle.join();
}
