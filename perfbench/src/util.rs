//! Shared pieces: the service shape every workload uses, the loopback
//! stack, the in-memory span log, quantiles, and resident-set reads.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ams_core::SketchParams;
use ams_net::{AckMode, AmsClient, NetServer, NetServerConfig, ServerHandle};
use ams_service::{
    AmsService, DurabilityConfig, FaultPlan, FsyncPolicy, RouterPolicy, ServiceConfig,
};

/// Sketch counters per attribute (the committed BENCH shape).
pub const S: usize = 256;
/// Updates per block.
pub const BLOCK: usize = 256;
/// Ingest shards (the host has 2 cores).
pub const SHARDS: usize = 2;
/// The ladder's durable rung: group commit at 2 ms.
pub const GROUP_COMMIT: FsyncPolicy = FsyncPolicy::GroupCommit {
    interval: Duration::from_millis(2),
};

pub type BenchResult<T> = Result<T, String>;

pub fn params() -> SketchParams {
    SketchParams::single_group(S).expect("s = 256 is a valid single group")
}

/// The paper's relative error bound `4/√s1` for one group of `s1`
/// counters (Chebyshev: it holds with probability at least 7/8).
pub fn error_bound() -> f64 {
    4.0 / (params().s1() as f64).sqrt()
}

/// The service configuration shared by every workload and ladder leg:
/// 2 shards, hash partitioning, s = 256.
pub fn service_config(seed: u64, durability: Option<DurabilityConfig>) -> ServiceConfig {
    let mut builder = ServiceConfig::builder()
        .shards(SHARDS)
        .sketch_params(params())
        .seed(seed)
        .router(RouterPolicy::HashPartition);
    if let Some(d) = durability {
        builder = builder.durability(d);
    }
    builder.build().expect("benchmark service config is valid")
}

/// A WAL under `dir` with the given fsync policy. Only the shutdown
/// checkpoint is ever written, and with `crash` it tears, so a restart
/// replays the whole log.
pub fn durability(dir: &Path, fsync: FsyncPolicy, crash: bool) -> DurabilityConfig {
    let config = DurabilityConfig::new(dir)
        .with_fsync(fsync)
        .with_checkpoint_every(u64::MAX);
    if crash {
        config.with_fault(FaultPlan {
            fail_on_checkpoint: Some(1),
            ..FaultPlan::default()
        })
    } else {
        config
    }
}

/// A service behind a one-reactor loopback server, with connected
/// clients.
pub struct Stack {
    pub handle: ServerHandle,
    pub clients: Vec<AmsClient>,
}

/// Starts the service, binds the server, and connects `connections`
/// clients — the span `setup_s` measures.
pub fn start_stack(
    config: ServiceConfig,
    attributes: &[&str],
    connections: usize,
    ack: AckMode,
) -> BenchResult<Stack> {
    let service = AmsService::start(config, attributes).map_err(|e| format!("start: {e}"))?;
    let server = NetServer::bind_with(
        "127.0.0.1:0",
        NetServerConfig {
            reactors: 1,
            ..NetServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = server.spawn(service);
    let mut clients = Vec::with_capacity(connections);
    for _ in 0..connections {
        let client = AmsClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        clients.push(client.with_ack_mode(ack));
    }
    Ok(Stack { handle, clients })
}

/// One timed call, as written to `spans.jsonl`.
#[derive(Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span: its id and start time.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    parent: u64,
    start: Instant,
}

/// Per-thread span recorder. Spans stay in memory and are written
/// once, at the end of a traced run; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

/// Span-id lanes, one per tracer.
static LANES: AtomicU64 = AtomicU64::new(0);

impl Tracer {
    /// Each tracer draws span ids from a lane of its own, so ids stay
    /// unique across threads and rounds.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        let lane = LANES.fetch_add(1, Ordering::Relaxed);
        Self {
            enabled,
            epoch,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn child(&self) -> Self {
        Self::new(self.enabled, self.epoch)
    }

    pub fn open(&mut self, parent: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            start: Instant::now(),
        }
    }

    /// Closes `open` under `name`; returns the span's duration.
    pub fn close(&mut self, name: &'static str, open: Open) -> Duration {
        let end = Instant::now();
        let elapsed = end - open.start;
        if self.enabled {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name,
                start_ns: (open.start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
        elapsed
    }

    /// Times `f` as one span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.open(parent);
        let out = f();
        (out, self.close(name, open))
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Writes spans as one JSON record per line.
/// Span names are fixed identifiers, so they need no JSON escaping.
pub fn write_spans(path: &Path, spans: &[Span], workload: &str) -> BenchResult<()> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// Nearest-rank quantile of unsorted samples (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Resident set size of this process, in bytes (0 where `/proc` is
/// unavailable).
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Sleeps until `due` (returns at once when already late).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}
