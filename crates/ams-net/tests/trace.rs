//! End-to-end tracing over the loopback wire: a traced durable ingest
//! must come back from a scrape's traces section as one assembled trace whose
//! stage spans cover the whole server-side pipeline (decode → route →
//! queue → wal_append → kernel → durable_wait → ack), start in
//! pipeline order, and sum to no more than the latency the client
//! itself observed around the blocking call. The client's own
//! `client_encode`/`client_recv` legs land in its local hub.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ams_core::SketchParams;
use ams_net::{AckMode, AmsClient, AssembledTrace, NetServer, Scrape, ServerHandle};
use ams_service::{AmsService, DurabilityConfig, RouterPolicy, ServiceConfig};
use ams_stream::OpBlock;

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
            "ams-net-trace-{tag}-{}-{}-{nanos}",
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

fn params() -> SketchParams {
    SketchParams::new(16, 3).unwrap()
}

fn block(i: u64) -> OpBlock {
    OpBlock::from_values((0..64).map(|j| i * 1009 + j))
}

fn spawn_service(durable_dir: Option<&Path>) -> ServerHandle {
    let mut builder = ServiceConfig::builder()
        .shards(2)
        .queue_capacity(1024)
        .sketch_params(params())
        .seed(0xBEEF)
        .router(RouterPolicy::HashPartition);
    if let Some(dir) = durable_dir {
        builder = builder.durability(DurabilityConfig::new(dir));
    }
    let service = AmsService::start(builder.build().unwrap(), &["v"]).unwrap();
    NetServer::bind("127.0.0.1:0").unwrap().spawn(service)
}

/// The traces section of one wire scrape.
fn traces(client: &mut AmsClient) -> Vec<AssembledTrace> {
    let scrape = client.scrape(Scrape::TRACES).unwrap();
    scrape.traces.expect("the traces section was asked for")
}

/// Index of the first span of `stage`, by start time, or a panic
/// naming the stage the trace is missing.
fn first_start(trace: &AssembledTrace, stage: &str) -> u64 {
    trace
        .spans
        .iter()
        .filter(|s| s.stage == stage)
        .map(|s| s.start_ns)
        .min()
        .unwrap_or_else(|| panic!("trace is missing a `{stage}` span: {:?}", trace.spans))
}

/// The acceptance pin: one traced durable ingest, scraped back over
/// the wire, must carry every pipeline stage, in pipeline order, with
/// the span durations summing to at most the end-to-end latency the
/// client measured around its own blocking call.
#[test]
fn durable_traced_ingest_assembles_a_full_pipeline_trace() {
    let dir = TempDir::new("e2e");
    let handle = spawn_service(Some(dir.path()));
    let mut client = AmsClient::connect(handle.addr())
        .unwrap()
        .with_ack_mode(AckMode::Fsync)
        .with_tracing(1);

    let t0 = Instant::now();
    client.ingest_block("v", &block(1)).unwrap();
    let e2e_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap();

    let traces = traces(&mut client);
    assert_eq!(traces.len(), 1, "one traced ingest, one tail sample");
    let trace = &traces[0];
    assert_ne!(trace.trace_id, 0);

    // Every server-side stage of a durable ingest must be present.
    for stage in [
        "decode",
        "route",
        "queue",
        "kernel",
        "wal_append",
        "durable_wait",
        "ack",
    ] {
        assert!(
            trace.stage_ns(stage) > 0 || trace.spans.iter().any(|s| s.stage == stage),
            "missing `{stage}` span: {:?}",
            trace.spans
        );
    }

    // Spans start in pipeline order: the reactor decodes and routes,
    // the shard worker dequeues, logs, then applies, and the ack is
    // encoded only after the durable watermark is detected.
    let decode = first_start(trace, "decode");
    let route = first_start(trace, "route");
    let queue = first_start(trace, "queue");
    let wal = first_start(trace, "wal_append");
    let kernel = first_start(trace, "kernel");
    let wait = first_start(trace, "durable_wait");
    let ack = first_start(trace, "ack");
    assert!(decode <= route, "decode starts before routing");
    assert!(route <= queue, "routing precedes the queue wait");
    assert!(queue <= wal, "the WAL append follows the dequeue");
    assert!(wal <= kernel, "log-then-apply: WAL before the kernel");
    assert!(route <= wait, "the durable wait begins at acceptance");
    assert!(wait <= ack, "the ack is encoded after durability");

    // The attribution must be conservative: stage durations sum to no
    // more than the latency the client actually observed (wire
    // crossings and client work are the slack).
    assert!(
        trace.span_sum_ns() <= e2e_ns,
        "span sum {} must not exceed measured e2e {}: {:?}",
        trace.span_sum_ns(),
        e2e_ns,
        trace.spans
    );
    // And the server's own end-to-end figure is inside the client's.
    assert!(trace.total_ns <= e2e_ns);

    // The client's half of the lifecycle lands in its local hub.
    let local = client.local_traces();
    let mine = local
        .iter()
        .find(|t| t.trace_id == trace.trace_id)
        .expect("the client recorded its own legs for the same id");
    assert!(mine.spans.iter().any(|s| s.stage == "client_encode"));
    assert!(mine.spans.iter().any(|s| s.stage == "client_recv"));

    handle.stop();
}

/// Without durability the same scrape yields the in-memory pipeline
/// only: no WAL or durable-wait spans may appear.
#[test]
fn in_memory_traced_ingest_has_no_durability_spans() {
    let handle = spawn_service(None);
    let mut client = AmsClient::connect(handle.addr()).unwrap().with_tracing(1);

    let t0 = Instant::now();
    client.ingest_block("v", &block(2)).unwrap();
    let e2e_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap();

    // In-memory acks fire at acceptance, so the shard-side spans land
    // asynchronously; a drain is the barrier that makes them visible.
    client.drain().unwrap();
    let traces = traces(&mut client);
    assert_eq!(traces.len(), 1);
    let trace = &traces[0];
    for stage in ["decode", "route", "queue", "kernel", "ack"] {
        assert!(
            trace.spans.iter().any(|s| s.stage == stage),
            "missing `{stage}` span: {:?}",
            trace.spans
        );
    }
    assert_eq!(trace.stage_ns("wal_append"), 0, "no WAL without durability");
    assert_eq!(trace.stage_ns("durable_wait"), 0, "acks fire at acceptance");
    assert_eq!(trace.stage_ns("fsync"), 0);
    // The ack leaves at acceptance here, so only the reactor-side
    // stages are bounded by the client's observed latency (the shard
    // spans may land after the ack on this non-blocking path).
    let reactor_ns = trace.stage_ns("decode") + trace.stage_ns("route") + trace.stage_ns("ack");
    assert!(reactor_ns <= e2e_ns);

    handle.stop();
}

/// An untraced client (the default) must leave the server's tail
/// sampler empty: no ids on the wire, nothing to assemble, and the
/// ingest path pays nothing for the machinery.
#[test]
fn untraced_ingest_leaves_the_sampler_empty() {
    let handle = spawn_service(None);
    let mut client = AmsClient::connect(handle.addr()).unwrap();
    for i in 0..8 {
        client.ingest_block("v", &block(i)).unwrap();
    }
    assert!(traces(&mut client).is_empty());
    assert!(client.local_traces().is_empty());

    handle.stop();
}

/// Tracing every N-th submission samples exactly the expected count.
#[test]
fn sampled_tracing_traces_every_nth_ingest() {
    let handle = spawn_service(None);
    let mut client = AmsClient::connect(handle.addr()).unwrap().with_tracing(4);
    for i in 0..12 {
        client.ingest_block("v", &block(i)).unwrap();
    }
    client.drain().unwrap();
    let traces = traces(&mut client);
    assert_eq!(traces.len(), 3, "12 ingests at every=4 yield 3 traces");
    for trace in &traces {
        assert!(trace.spans.iter().any(|s| s.stage == "kernel"));
    }

    handle.stop();
}
