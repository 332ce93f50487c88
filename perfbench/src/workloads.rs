//! The three workloads, each run as repeated rounds against a fresh
//! `AmsClient → NetServer → AmsService` stack on loopback until the
//! measuring time is up. Every round ends with the correctness gate.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ams_core::{SelfJoinEstimator, TugOfWarSketch};
use ams_hash::SplitMix64;
use ams_net::{AckMode, AmsClient, IngestOutcome};
use ams_service::{FsyncPolicy, ServiceSnapshot, ServiceStats};
use ams_stream::OpBlock;
use ams_telemetry::{HistogramSnapshot, MetricsSnapshot};

use crate::data::{self, Relation};
use crate::util::{
    durability, error_bound, micros, params, quantile, rss_bytes, service_config, sleep_until,
    start_stack, BenchResult, Stack, Tracer,
};

/// Blocks per pipelined `ingest_blocks` call in `ingest-zipf`: one
/// client pipeline window.
const CHUNK: usize = 64;
/// Closed-loop queries asked after each round's ingest has landed.
const QUERIES_PER_ROUND: usize = 128;
/// Rounds per run even when the measuring time is shorter.
const MIN_ROUNDS: u64 = 3;
/// `query-mix` ingest rate, blocks per second over both attributes:
/// about a third of the saturated `ingest-zipf` rate on a 2-core host.
const MIX_BLOCKS_PER_S: f64 = 1_800.0;
/// `query-mix` query rate, per second.
const MIX_QUERIES_PER_S: f64 = 1_000.0;
/// `stats()` round trips timed per traced round (`net.rtt_us`).
const RTT_PROBES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestZipf,
    DurableChurn,
    QueryMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IngestZipf,
        Workload::DurableChurn,
        Workload::QueryMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestZipf => "ingest-zipf",
            Workload::DurableChurn => "durable-churn",
            Workload::QueryMix => "query-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the full run, or a tiny smoke run for the tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    zipf_values: usize,
    churn_values: usize,
    mix_values: usize,
}

impl Size {
    pub fn full() -> Self {
        Self {
            zipf_values: 1 << 20,
            churn_values: 96 << 10,
            mix_values: 1 << 19,
        }
    }

    pub fn smoke() -> Self {
        Self {
            zipf_values: 4 << 10,
            churn_values: 2 << 10,
            mix_values: 4 << 10,
        }
    }
}

/// A final answer and its exact value. `scale` is what the paper's
/// bound is relative to: the exact size for a self-join, and
/// `√(SJ(r)·SJ(s))` for a join.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub estimate: f64,
    pub exact: f64,
    pub scale: f64,
}

impl Answer {
    pub fn rel_error(&self) -> f64 {
        (self.estimate - self.exact).abs() / self.exact
    }

    pub fn within_bound(&self) -> bool {
        (self.estimate - self.exact).abs() <= error_bound() * self.scale
    }
}

/// What the wire scrape of traced rounds adds up to (`net.*`).
#[derive(Debug, Default)]
pub struct WireScrape {
    pub submissions: u64,
    pub busy: u64,
    pub bytes_in: u64,
    pub ops: u64,
    pub tick: Option<HistogramSnapshot>,
    pub rtt_us: Vec<f64>,
    pub metrics: Vec<MetricsSnapshot>,
    pub stats: Vec<ServiceStats>,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub rounds: Vec<RoundSummary>,
    pub ack_us: Vec<f64>,
    pub query_us: Vec<f64>,
    /// How late the load generators ran (open loop), or the client's
    /// own gap between calls (closed loop), in µs.
    pub late_us: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub answers: Vec<Answer>,
    pub rss_growth: u64,
    pub wire: WireScrape,
    /// The workload's blocks per attribute, kept for the ladder.
    pub relations: Vec<Relation>,
    pub service_seed: u64,
}

/// One round's headline numbers, and whether it was traced.
#[derive(Debug, Clone, Copy)]
pub struct RoundSummary {
    pub traced: bool,
    pub ingest_melem_s: f64,
    pub query_p50_us: f64,
}

impl Run {
    /// Resident-set growth since `before`; the last round's reading
    /// stands for the end of the run.
    fn note_rss(&mut self, before: u64) {
        self.rss_growth = rss_bytes().saturating_sub(before);
    }

    /// Counts one checked outcome.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// The paper's bound holds per answer with probability ≥ 7/8, so the
    /// gate fails the run once more than that share of answers misses it.
    pub fn bound_failures(&self) -> u64 {
        let out = self.answers.iter().filter(|a| !a.within_bound()).count();
        if out > self.answers.len() / 8 {
            out as u64
        } else {
            0
        }
    }
}

/// Run-wide settings.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub out_dir: &'a Path,
}

fn mix(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

fn net(e: ams_net::NetError) -> String {
    e.to_string()
}

/// Runs `round` until the measuring time is up (at least
/// [`MIN_ROUNDS`]). In a traced run every other round is traced, so the
/// untraced rounds price the tracing.
fn rounds(
    ctx: &Ctx,
    run: &mut Run,
    tracer: &mut Tracer,
    mut round: impl FnMut(&mut Run, &mut Tracer, u64) -> BenchResult<f64>,
) -> BenchResult<()> {
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut n = 0u64;
    while n < MIN_ROUNDS || Instant::now() < deadline {
        let traced = ctx.trace && n.is_multiple_of(2);
        tracer.set_enabled(traced);
        let queries = run.query_us.len();
        let ingest_melem_s = round(run, tracer, n)?;
        run.rounds.push(RoundSummary {
            traced,
            ingest_melem_s,
            query_p50_us: quantile(&run.query_us[queries..], 0.5),
        });
        n += 1;
    }
    Ok(())
}

pub fn run(workload: Workload, ctx: &Ctx, tracer: &mut Tracer) -> BenchResult<Run> {
    match workload {
        Workload::IngestZipf => ingest_zipf(ctx, tracer),
        Workload::DurableChurn => durable_churn(ctx, tracer),
        Workload::QueryMix => query_mix(ctx, tracer),
    }
}

/// Timed closed-loop self-join queries after the ingest has landed;
/// returns the last answer.
fn closed_queries(
    client: &mut AmsClient,
    attr: &str,
    run: &mut Run,
    tracer: &mut Tracer,
    parent: u64,
) -> BenchResult<f64> {
    let mut estimate = 0.0;
    for _ in 0..QUERIES_PER_ROUND {
        let (answer, took) = tracer.time("client.self_join", parent, || client.self_join(attr));
        run.attempted += 1;
        estimate = answer.map_err(net)?;
        run.query_us.push(micros(took));
    }
    Ok(estimate)
}

/// Scrapes `metrics()` and `stats()` over the wire (traced rounds).
/// Every `Busy` answer was one more submission of one of the `blocks`.
fn scrape(
    clients: &mut [AmsClient],
    run: &mut Run,
    tracer: &mut Tracer,
    parent: u64,
    blocks: u64,
) -> BenchResult<()> {
    let busy: u64 = clients
        .iter()
        .map(|c| {
            c.local_metrics()
                .counter("client_busy_responses", &[])
                .unwrap_or(0)
        })
        .sum();
    let client = &mut clients[0];
    let (metrics, _) = tracer.time("client.metrics", parent, || client.metrics());
    let metrics = metrics.map_err(net)?;
    let mut stats = None;
    for _ in 0..RTT_PROBES {
        let (s, took) = tracer.time("client.stats", parent, || client.stats());
        stats = Some(s.map_err(net)?);
        run.wire.rtt_us.push(micros(took));
    }
    let stats = stats.expect("at least one stats probe");
    let wire = &mut run.wire;
    wire.submissions += blocks + busy;
    wire.busy += busy;
    wire.bytes_in += metrics.counter_total("net_bytes_in");
    wire.ops += stats.ops_ingested();
    let tick = metrics.merged_histogram("net_tick_ns");
    wire.tick
        .get_or_insert_with(HistogramSnapshot::empty)
        .merge_from(&tick);
    wire.metrics.push(metrics);
    wire.stats.push(stats);
    Ok(())
}

fn self_join_answer(estimate: f64, rel: &Relation) -> Answer {
    let exact = rel.exact.self_join_size() as f64;
    Answer {
        estimate,
        exact,
        scale: exact,
    }
}

fn check_snapshot_ops(run: &mut Run, snap: &ServiceSnapshot, want: u64) {
    let got = snap.ops();
    run.check(got == want, || {
        format!("snapshot holds {got} ops, {want} were acknowledged")
    });
}

// ---------------------------------------------------------------------
// ingest-zipf
// ---------------------------------------------------------------------

/// Pipelines `blocks`, resubmitting `Busy` ones after the server's
/// hint until every block has landed.
fn pipeline_until_landed(client: &mut AmsClient, blocks: &[OpBlock]) -> BenchResult<()> {
    let outcomes = client.ingest_blocks("v", blocks).map_err(net)?;
    let (mut pending, mut hint) = busy(blocks.iter().cloned(), &outcomes);
    while !pending.is_empty() {
        std::thread::sleep(hint);
        let outcomes = client.ingest_blocks("v", &pending).map_err(net)?;
        (pending, hint) = busy(pending.into_iter(), &outcomes);
    }
    Ok(())
}

/// The blocks answered `Busy`, and the shortest retry hint among them.
fn busy(
    blocks: impl Iterator<Item = OpBlock>,
    outcomes: &[IngestOutcome],
) -> (Vec<OpBlock>, Duration) {
    let mut hint = Duration::MAX;
    let pending = blocks
        .zip(outcomes)
        .filter_map(|(block, outcome)| match outcome {
            IngestOutcome::Busy { retry_hint, .. } => {
                hint = hint.min(*retry_hint);
                Some(block)
            }
            IngestOutcome::Ingested => None,
        })
        .collect();
    (pending, hint)
}

fn ingest_zipf(ctx: &Ctx, tracer: &mut Tracer) -> BenchResult<Run> {
    let rel = data::zipf_inserts(ctx.seed, ctx.size.zipf_values);
    let ops = rel.ops();
    let seed = mix(ctx.seed, 1);
    // The in-process reference the wire counters must equal bit for bit.
    let mut reference: TugOfWarSketch = TugOfWarSketch::new(params(), seed);
    for block in &rel.blocks {
        reference.apply_block(block);
    }
    let mut run = Run {
        service_seed: seed,
        ..Run::default()
    };
    let rss_before = rss_bytes();
    rounds(ctx, &mut run, tracer, |run, tracer, _| {
        let root = tracer.open(0);
        let (stack, setup) = tracer.time("setup", root.id, || {
            start_stack(service_config(seed, None), &["v"], 1, AckMode::Enqueue)
        });
        let Stack {
            handle,
            mut clients,
        } = stack?;
        run.setup_s.push(setup.as_secs_f64());
        let client = &mut clients[0];
        let t0 = Instant::now();
        let mut last = t0;
        for chunk in rel.blocks.chunks(CHUNK) {
            run.late_us.push(micros(last.elapsed()));
            let (landed, took) = tracer.time("client.ingest_blocks", root.id, || {
                pipeline_until_landed(client, chunk)
            });
            run.attempted += chunk.len() as u64;
            landed?;
            run.ack_us.push(micros(took));
            last = Instant::now();
        }
        let (drained, _) = tracer.time("client.drain", root.id, || client.drain());
        drained.map_err(net)?;
        let rate = ops as f64 / t0.elapsed().as_secs_f64() / 1e6;
        let estimate = closed_queries(client, "v", run, tracer, root.id)?;
        run.answers.push(self_join_answer(estimate, &rel));
        let (snap, _) = tracer.time("client.snapshot", root.id, || client.snapshot());
        let snap = snap.map_err(net)?;
        check_snapshot_ops(run, &snap, ops);
        let counters = snap.sketch("v").map_err(|e| e.to_string())?.counters();
        run.check(counters == reference.counters(), || {
            "wire counters differ from the in-process sketch fed the same blocks".into()
        });
        if tracer.enabled() {
            scrape(&mut clients, run, tracer, root.id, rel.blocks.len() as u64)?;
        }
        run.note_rss(rss_before);
        drop(clients);
        tracer.time("server.stop", root.id, || handle.stop());
        tracer.close("round", root);
        Ok(rate)
    })?;
    run.relations = vec![rel];
    Ok(run)
}

// ---------------------------------------------------------------------
// durable-churn
// ---------------------------------------------------------------------

/// One connection's closed loop: one outstanding block at a time, each
/// acknowledged once the WAL's durable cut covers it.
fn durable_loop(
    client: &mut AmsClient,
    blocks: &[&OpBlock],
    tracer: &mut Tracer,
    parent: u64,
) -> (Vec<f64>, Vec<f64>, BenchResult<()>) {
    let mut acks = Vec::with_capacity(blocks.len());
    let mut gaps = Vec::with_capacity(blocks.len());
    let mut last = Instant::now();
    for block in blocks {
        gaps.push(micros(last.elapsed()));
        let (result, took) = tracer.time("client.ingest_block", parent, || {
            client.ingest_block("v", block)
        });
        if let Err(e) = result {
            return (acks, gaps, Err(net(e)));
        }
        acks.push(micros(took));
        last = Instant::now();
    }
    (acks, gaps, Ok(()))
}

/// The WAL runs OS-buffered, so an ack waits for the append and the
/// reactor's durable-cut poll but not for the shared disk's fsync, whose
/// latency moves by more than any regression bound between runs; the
/// ladder's durable rung prices the fsync under group commit.
fn durable_churn(ctx: &Ctx, tracer: &mut Tracer) -> BenchResult<Run> {
    let rel = data::uniform_churn(ctx.seed, ctx.size.churn_values);
    let ops = rel.ops();
    let mut run = Run {
        service_seed: mix(ctx.seed, 2),
        ..Run::default()
    };
    let rss_before = rss_bytes();
    let pid = std::process::id();
    rounds(ctx, &mut run, tracer, |run, tracer, round| {
        // A fresh sketch seed per round makes each round's answer an
        // independent draw for the error-bound gate.
        let seed = mix(run.service_seed, round);
        let dir: PathBuf = ctx.out_dir.join(format!("wal-{pid}-{round}"));
        let _ = std::fs::remove_dir_all(&dir);
        let root = tracer.open(0);
        let (stack, setup) = tracer.time("setup", root.id, || {
            start_stack(
                service_config(seed, Some(durability(&dir, FsyncPolicy::OsBuffered, true))),
                &["v"],
                2,
                AckMode::Fsync,
            )
        });
        let Stack { handle, clients } = stack?;
        run.setup_s.push(setup.as_secs_f64());
        let t0 = Instant::now();
        let mut lanes: Vec<(AmsClient, Vec<&OpBlock>, Tracer)> = clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let part = rel.blocks.iter().skip(i).step_by(2).collect();
                (c, part, tracer.child())
            })
            .collect();
        let results: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = lanes
                .iter_mut()
                .map(|(client, part, lane_tracer)| {
                    scope.spawn(move || durable_loop(client, part, lane_tracer, root.id))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("ingest thread panicked"))
                .collect()
        });
        run.attempted += rel.blocks.len() as u64;
        for (acks, gaps, result) in results {
            result?;
            run.ack_us.extend(acks);
            run.late_us.extend(gaps);
        }
        let mut clients: Vec<AmsClient> = Vec::new();
        for (client, _, lane_tracer) in lanes {
            tracer.absorb(lane_tracer);
            clients.push(client);
        }
        let (drained, _) = tracer.time("client.drain", root.id, || clients[0].drain());
        drained.map_err(net)?;
        let rate = ops as f64 / t0.elapsed().as_secs_f64() / 1e6;
        let (pre, _) = tracer.time("client.snapshot", root.id, || clients[0].snapshot());
        let pre = pre.map_err(net)?;
        check_snapshot_ops(run, &pre, ops);
        if tracer.enabled() {
            scrape(&mut clients, run, tracer, root.id, rel.blocks.len() as u64)?;
        }
        run.note_rss(rss_before);
        drop(clients);
        // The crash: the shutdown checkpoint tears, so the restart must
        // rebuild the state from the log alone.
        tracer.time("server.stop.crash", root.id, || handle.stop());

        let recovering = tracer.open(root.id);
        let stack = start_stack(
            service_config(seed, Some(durability(&dir, FsyncPolicy::OsBuffered, false))),
            &["v"],
            1,
            AckMode::Enqueue,
        )?;
        let Stack {
            handle,
            mut clients,
        } = stack;
        let client = &mut clients[0];
        // A recovering start publishes the recovered state on its
        // workers' first turn; until then snapshots read empty.
        let recovered = loop {
            let snap = client.snapshot().map_err(net)?;
            if snap.blocks() >= pre.blocks() {
                break snap;
            }
            std::thread::sleep(Duration::from_micros(50));
        };
        client.self_join("v").map_err(net)?;
        run.recovery_s
            .push(tracer.close("recovery", recovering).as_secs_f64());
        let counters =
            |snap: &ServiceSnapshot| snap.sketch("v").ok().map(|s| s.counters().to_vec());
        let same = counters(&pre).is_some() && counters(&recovered) == counters(&pre);
        run.check(same, || {
            "recovered counters differ from the counters before the crash".into()
        });
        let estimate = closed_queries(client, "v", run, tracer, root.id)?;
        run.answers.push(self_join_answer(estimate, &rel));
        drop(clients);
        tracer.time("server.stop", root.id, || handle.stop());
        let _ = std::fs::remove_dir_all(&dir);
        tracer.close("round", root);
        Ok(rate)
    })?;
    run.relations = vec![rel];
    Ok(run)
}

// ---------------------------------------------------------------------
// query-mix
// ---------------------------------------------------------------------

/// Open-loop ingest at a fixed block rate, alternating attributes; each
/// block is timed from when it was due.
fn open_ingest(
    client: &mut AmsClient,
    schedule: &[(&str, &OpBlock)],
    t0: Instant,
    tracer: &mut Tracer,
    parent: u64,
) -> (Vec<f64>, Vec<f64>, BenchResult<()>) {
    let period = Duration::from_secs_f64(1.0 / MIX_BLOCKS_PER_S);
    let mut acks = Vec::with_capacity(schedule.len());
    let mut late = Vec::with_capacity(schedule.len());
    for (i, (attr, block)) in schedule.iter().enumerate() {
        let due = t0 + period * i as u32;
        sleep_until(due);
        late.push(micros(due.elapsed()));
        let open = tracer.open(parent);
        loop {
            match client.try_ingest_block(attr, block) {
                Ok(IngestOutcome::Ingested) => break,
                Ok(IngestOutcome::Busy { retry_hint, .. }) => std::thread::sleep(retry_hint),
                Err(e) => return (acks, late, Err(net(e))),
            }
        }
        tracer.close("client.try_ingest_block", open);
        acks.push(micros(due.elapsed()));
    }
    (acks, late, Ok(()))
}

/// Open-loop queries at a fixed rate until `done`, cycling
/// `self_join(r)`, `self_join(s)`, `join(r, s)`; timed from when due.
fn open_queries(
    client: &mut AmsClient,
    t0: Instant,
    done: &AtomicBool,
    tracer: &mut Tracer,
    parent: u64,
) -> (Vec<f64>, Vec<f64>, BenchResult<()>) {
    let period = Duration::from_secs_f64(1.0 / MIX_QUERIES_PER_S);
    let mut latencies = Vec::new();
    let mut late = Vec::new();
    let mut j = 0u32;
    while !done.load(Ordering::Acquire) {
        let due = t0 + period * j;
        sleep_until(due);
        late.push(micros(due.elapsed()));
        let (result, _) = match j % 3 {
            2 => tracer.time("client.join", parent, || client.join("r", "s")),
            k => {
                let attr = ["r", "s"][k as usize];
                tracer.time("client.self_join", parent, || client.self_join(attr))
            }
        };
        if let Err(e) = result {
            return (latencies, late, Err(net(e)));
        }
        latencies.push(micros(due.elapsed()));
        j += 1;
    }
    (latencies, late, Ok(()))
}

fn query_mix(ctx: &Ctx, tracer: &mut Tracer) -> BenchResult<Run> {
    let relations = data::zipf_pair_churn(ctx.seed, ctx.size.mix_values);
    let [r, s] = &relations;
    let ops = r.ops() + s.ops();
    let schedule: Vec<(&str, &OpBlock)> = data::interleave(&relations)
        .into_iter()
        .map(|(a, block)| (relations[a].name, block))
        .collect();
    let sj_r = r.exact.self_join_size() as f64;
    let sj_s = s.exact.self_join_size() as f64;
    let join = r.exact.join_size(&s.exact) as f64;
    let seed = mix(ctx.seed, 3);
    let mut run = Run {
        service_seed: seed,
        ..Run::default()
    };
    let rss_before = rss_bytes();
    rounds(ctx, &mut run, tracer, |run, tracer, _| {
        let root = tracer.open(0);
        let (stack, setup) = tracer.time("setup", root.id, || {
            start_stack(service_config(seed, None), &["r", "s"], 2, AckMode::Enqueue)
        });
        let Stack {
            handle,
            mut clients,
        } = stack?;
        run.setup_s.push(setup.as_secs_f64());
        let done = AtomicBool::new(false);
        let (ingest_client, query_client) = match &mut clients[..] {
            [a, b] => (a, b),
            _ => unreachable!("two connections were opened"),
        };
        let mut ingest_tracer = tracer.child();
        let mut query_tracer = tracer.child();
        let t0 = Instant::now() + Duration::from_millis(1);
        let (ingested, queried) = std::thread::scope(|scope| {
            let ingest = scope.spawn(|| {
                let out = open_ingest(ingest_client, &schedule, t0, &mut ingest_tracer, root.id);
                done.store(true, Ordering::Release);
                out
            });
            let queries =
                scope.spawn(|| open_queries(query_client, t0, &done, &mut query_tracer, root.id));
            (
                ingest.join().expect("ingest thread panicked"),
                queries.join().expect("query thread panicked"),
            )
        });
        tracer.absorb(ingest_tracer);
        tracer.absorb(query_tracer);
        let (acks, ingest_late, ingest_result) = ingested;
        let (latencies, query_late, query_result) = queried;
        run.attempted += (schedule.len() + latencies.len()) as u64;
        ingest_result?;
        query_result?;
        let client = &mut clients[0];
        let (drained, _) = tracer.time("client.drain", root.id, || client.drain());
        drained.map_err(net)?;
        let rate = ops as f64 / t0.elapsed().as_secs_f64() / 1e6;
        run.ack_us.extend(acks);
        run.late_us.extend(ingest_late);
        run.late_us.extend(query_late);
        run.query_us.extend(latencies);
        let finals = [
            (client.self_join("r"), sj_r, sj_r),
            (client.self_join("s"), sj_s, sj_s),
            (client.join("r", "s"), join, (sj_r * sj_s).sqrt()),
        ];
        for (estimate, exact, scale) in finals {
            run.attempted += 1;
            run.answers.push(Answer {
                estimate: estimate.map_err(net)?,
                exact,
                scale,
            });
        }
        let (snap, _) = tracer.time("client.snapshot", root.id, || client.snapshot());
        check_snapshot_ops(run, &snap.map_err(net)?, ops);
        if tracer.enabled() {
            scrape(&mut clients, run, tracer, root.id, schedule.len() as u64)?;
        }
        run.note_rss(rss_before);
        drop(clients);
        tracer.time("server.stop", root.id, || handle.stop());
        tracer.close("round", root);
        Ok(rate)
    })?;
    run.relations = relations.into();
    Ok(run)
}
