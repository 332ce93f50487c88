//! Network tracking over loopback: the framed TCP front-end end to end
//! in one process.
//!
//! Spins up an [`AmsService`] behind a [`NetServer`] reactor on a
//! loopback port, then drives it with the blocking [`AmsClient`]: a
//! zipf stream is pushed through the wire in columnar blocks (pipelined
//! batches; a block a full shard queue refuses waits on the server
//! until it lands), live self-join
//! estimates are queried mid-stream, and at the end the **snapshot
//! fetched over the wire** is compared counter-for-counter against an
//! in-process sketch of the same stream — the network path changes
//! nothing about the mathematics. One wire `Scrape` returns metrics,
//! health and events as one document. A graceful wire `Shutdown` ships
//! the final snapshot and the per-shard saturation stats back to the
//! client.
//!
//! ```text
//! cargo run --release --example net_tracking
//! ```

use ams::net::{IngestOutcome, Scrape};
use ams::service::RouterPolicy;
use ams::stream::value_blocks;
use ams::{
    AmsClient, AmsService, DatasetId, Multiset, NetServer, SelfJoinEstimator, ServiceConfig,
    SketchParams, TugOfWarSketch,
};

const SHARDS: usize = 2;
/// Source values per wire frame.
const BLOCK: usize = 4096;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let values = DatasetId::Zipf10.generate(2026);
    let exact = Multiset::from_values(values.iter().copied());
    let exact_sj = exact.self_join_size() as f64;
    println!(
        "stream: n = {}, exact SJ = {:.4e}; {SHARDS}-shard service behind a TCP reactor\n",
        exact.len(),
        exact_sj
    );

    let config = ServiceConfig::builder()
        .shards(SHARDS)
        .queue_capacity(8)
        .sketch_params(SketchParams::new(64, 4)?)
        .seed(0xC0_FFEE)
        .router(RouterPolicy::RoundRobin)
        .heavy_keys(8)
        .audit_every(8)
        .build()?;
    let service = AmsService::start(config, &["v"])?;
    let server = NetServer::bind("127.0.0.1:0")?;
    let addr = server.local_addr();
    let handle = server.spawn(service);
    println!("reactor listening on {addr}");

    let mut client = AmsClient::connect(addr)?;
    let blocks: Vec<_> = value_blocks(&values, BLOCK).collect();
    for batch in blocks.chunks(AmsClient::INGEST_BATCH) {
        // Pipelined ingest; a full shard queue parks the refused block
        // on the server, which retries it without stalling the reactor
        // and acknowledges it once it lands.
        let outcomes = client.ingest_blocks("v", batch)?;
        assert!(outcomes.iter().all(|o| *o == IngestOutcome::Ingested));
        let est = client.self_join("v")?;
        println!(
            "  live estimate over the wire: {est:.4e}  ({:+6.2}% vs final exact)",
            100.0 * (est - exact_sj) / exact_sj
        );
    }

    // Drain to a consistent cut, then verify the wire-fetched snapshot
    // against in-process ingestion of the same stream.
    let epoch = client.drain()?;
    let snapshot = client.snapshot()?;
    assert!(snapshot.epoch_min() >= epoch);
    assert_eq!(snapshot.ops(), values.len() as u64);
    let mut single: TugOfWarSketch = TugOfWarSketch::new(SketchParams::new(64, 4)?, 0xC0_FFEE);
    single.extend_values(values.iter().copied());
    assert_eq!(single.counters(), snapshot.sketch("v")?.counters());
    println!(
        "verified: snapshot fetched over TCP == single-threaded in-process sketch, \
         counter for counter (drain cut at epoch {epoch})."
    );
    let est = snapshot.self_join("v")?;
    let rel = (est - exact_sj).abs() / exact_sj;
    assert!(rel < 0.25, "merged estimate off by {rel}");

    // Scrape the server over the wire: one frame returns a document
    // with every service_* and net_* series as a typed snapshot, the
    // health report and the structured events.
    let scrape = client.scrape(Scrape::METRICS | Scrape::HEALTH | Scrape::EVENTS)?;
    let metrics = scrape.metrics.expect("metrics section");
    assert_eq!(
        metrics.counter_total("service_routed_ops"),
        values.len() as u64,
        "every op was routed exactly once"
    );
    assert_eq!(
        metrics.counter_total("service_blocks_ingested"),
        blocks.len() as u64,
        "each block was ingested exactly once (a parked block lands once)"
    );
    let ingest = metrics.merged_histogram("service_ingest_ns");
    assert!(ingest.count > 0, "ingest latency was profiled");
    // Client-side coalescing ships each INGEST_BATCH-block chunk as one
    // Ingest frame, so the server decodes one frame per batch (plus
    // the live queries) — not one per block.
    let frames = metrics.counter_total("net_frames_decoded");
    let batch_frames = blocks.len().div_ceil(AmsClient::INGEST_BATCH) as u64;
    assert!(
        frames >= batch_frames,
        "at least one decoded frame per ingest batch ({frames} < {batch_frames})"
    );
    println!(
        "\nwire-scraped telemetry: ingest kernel p50 {} ns / p99 {} ns over {} blocks, \
         {} read-gated connection passes",
        ingest.p50(),
        ingest.p99(),
        ingest.count,
        metrics.counter_total("net_read_gated"),
    );
    println!("\nexposition-format scrape (service_* / net_* series):");
    for line in metrics.render_text().lines() {
        println!("  {line}");
    }

    // The health section folds windowed service signals and
    // per-attribute estimator accuracy (median-of-means confidence
    // interval, shadow audit, heavy-key skew) into a single verdict.
    let health = scrape.health.expect("health section");
    println!("\nhealth verdict: {}", health.verdict.name());
    for signal in &health.signals {
        println!(
            "  signal {}: {:.3} (degraded ≥ {}, unhealthy ≥ {}) — {:?}",
            signal.name, signal.value, signal.degraded_above, signal.unhealthy_above, signal.status
        );
    }
    let accuracy = health.accuracy_for("v").expect("tracked attribute");
    assert!(
        accuracy.covers(exact_sj),
        "confidence interval [{:.4e}, {:.4e}] must cover exact {exact_sj:.4e}",
        accuracy.ci_lower,
        accuracy.ci_upper
    );
    println!(
        "  accuracy v: estimate {:.4e} in [{:.4e}, {:.4e}] (bound ±{:.0}%), \
         audited rel error {}, skew score {:.3}",
        accuracy.estimate,
        accuracy.ci_lower,
        accuracy.ci_upper,
        100.0 * accuracy.error_bound,
        accuracy
            .observed_rel_error
            .map_or("n/a".into(), |e| format!("{:.4}", e)),
        accuracy.skew_score,
    );

    // The events section merges the per-thread event rings: shard
    // lifecycle, publishes, and the reactor's own events.
    let events = scrape.events.expect("events section");
    let publishes = events.iter().filter(|e| e.code == "publish").count();
    assert!(publishes > 0, "publish cadence fired during ingest");
    println!(
        "\nstructured events scraped over the wire ({} total):",
        events.len()
    );
    for event in events.iter().take(6) {
        println!(
            "  [{}] {} key={} value={}",
            event.level, event.code, event.key, event.value
        );
    }
    println!("  publish events: {publishes} (nonzero: the cadence ran)");

    // Request tracing, end to end: a second, durable service traced at
    // every submission. Each ingest carries a trace id on the wire;
    // the reactor, shard worker, and WAL stamp their stages into
    // bounded span rings; the slowest requests survive tail sampling
    // and come back fully assembled in a scrape's traces section.
    let trace_dir = std::env::temp_dir().join(format!("ams-net-tracking-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&trace_dir);
    let durable_config = ServiceConfig::builder()
        .shards(SHARDS)
        .queue_capacity(64)
        .sketch_params(SketchParams::new(64, 4)?)
        .seed(0xC0_FFEE)
        .router(RouterPolicy::HashPartition)
        .durability(ams::service::DurabilityConfig::new(&trace_dir))
        .build()?;
    let durable_service = AmsService::start(durable_config, &["v"])?;
    let durable_server = NetServer::bind("127.0.0.1:0")?;
    let durable_addr = durable_server.local_addr();
    let durable_handle = durable_server.spawn(durable_service);
    let mut traced = AmsClient::connect(durable_addr)?
        .with_ack_mode(ams::AckMode::Fsync)
        .with_tracing(1);
    for block in blocks.iter().take(8) {
        traced.ingest_block("v", block)?;
    }
    let traces = traced.scrape(Scrape::TRACES)?.traces.expect("traces");
    println!(
        "\nassembled traces from the tail sampler ({} kept), slowest first:",
        traces.len()
    );
    let slowest = traces
        .iter()
        .max_by_key(|t| t.total_ns)
        .expect("traced ingests were sampled");
    println!(
        "  trace {:#018x}: {} ns end to end on the server",
        slowest.trace_id, slowest.total_ns
    );
    for span in &slowest.spans {
        println!("    span {}: {} ns", span.stage, span.dur_ns);
    }
    assert!(
        slowest.stage_ns("wal_append") > 0,
        "a durable traced ingest must carry a WAL-append span"
    );
    assert!(
        slowest.stage_ns("durable_wait") > 0,
        "fsync acks wait on the durable watermark"
    );
    let local = traced.local_traces();
    println!(
        "  client-side legs (local hub): {} traces with encode/recv spans",
        local.len()
    );
    drop(traced);
    durable_handle.stop();

    // Restart over the same WAL directory: each shard replays its tail
    // on start and emits a structured `recovery` event, visible to a
    // wire scrape's events section before any new traffic arrives.
    let recovered_config = ServiceConfig::builder()
        .shards(SHARDS)
        .queue_capacity(64)
        .sketch_params(SketchParams::new(64, 4)?)
        .seed(0xC0_FFEE)
        .router(RouterPolicy::HashPartition)
        .durability(ams::service::DurabilityConfig::new(&trace_dir))
        .build()?;
    let recovered_service = AmsService::start(recovered_config, &["v"])?;
    let recovered_server = NetServer::bind("127.0.0.1:0")?;
    let recovered_addr = recovered_server.local_addr();
    let recovered_handle = recovered_server.spawn(recovered_service);
    let mut observer = AmsClient::connect(recovered_addr)?;
    let restart = observer.scrape(Scrape::EVENTS | Scrape::HEALTH)?;
    let restart_events = restart.events.expect("events section");
    let replayed: u64 = restart_events
        .iter()
        .filter(|e| e.code == "recovery")
        .map(|e| e.value)
        .sum();
    assert!(replayed > 0, "restart over a populated WAL replays blocks");
    println!("\nrecovery event after restart: replayed {replayed} blocks across shards");
    let restart_health = restart.health.expect("health section");
    println!(
        "restarted service health verdict: {}",
        restart_health.verdict.name()
    );
    let _ = observer.shutdown()?;
    recovered_handle.join();
    let _ = std::fs::remove_dir_all(&trace_dir);

    // Graceful shutdown over the wire: the Goodbye frame carries the
    // final snapshot and lifetime stats.
    let (final_snapshot, stats) = client.shutdown()?;
    assert_eq!(final_snapshot.ops(), values.len() as u64);
    println!("\nserver stats shipped with the Goodbye frame:");
    for shard in &stats.shards {
        println!(
            "  shard {}: {} blocks ingested, queue high-water {}/{}, \
             {} rejections ({} backpressure events), epoch {}",
            shard.shard,
            shard.blocks_ingested,
            shard.max_queue_depth,
            shard.queue_capacity,
            shard.queue_rejections,
            shard.backpressure_events,
            shard.epoch,
        );
    }
    assert!(stats.max_queue_depth() <= 8, "bounded queues held");
    let (joined_snapshot, _) = handle.join();
    assert_eq!(joined_snapshot.ops(), final_snapshot.ops());
    println!("\nreactor thread joined; final state consistent.");
    Ok(())
}
