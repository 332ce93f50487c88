//! The per-layer ladder of a traced run: the workload's own blocks
//! replayed through each crate's public API in turn — `ams-hash` →
//! `ams-core` → `ams-stream` → `ams-service` in process → `ams-durable`
//! — so each layer's cost reads as its delta from the layer below. The
//! `ams-net` rung is the wire run itself. Every call is a span.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ams_core::{SelfJoinEstimator, TugOfWarSketch};
use ams_hash::plane::SignPlane;
use ams_hash::{PlaneScratch, PolySignPlane, SplitMix64};
use ams_service::{imbalance_ratio, AmsService, Router, RouterPolicy};
use ams_stream::{CoalesceBuffer, OpBlock};
use ams_telemetry::MetricsSnapshot;

use crate::data::{self, Relation};
use crate::util::{
    durability, micros, params, quantile, service_config, BenchResult, Tracer, GROUP_COMMIT, S,
    SHARDS,
};

/// Blocks replayed through the in-memory rungs.
const LADDER_BLOCKS: usize = 512;
/// Blocks acknowledged through the durable rung.
const DURABLE_BLOCKS: usize = 192;
/// Passes over the blocks per in-memory rung; the median pass counts.
const PASSES: usize = 3;
/// Repetitions of the merge and estimate calls.
const QUERY_REPS: usize = 200;

/// Fixed raw-kernel leg that records host speed, independent of the
/// workload: Melem/s of `accumulate_block_into` on one 256-key block.
pub fn calibrate() -> f64 {
    let plane = PolySignPlane::draw(S, &mut SplitMix64::new(11));
    let values: Vec<u64> = (0..256).collect();
    let deltas = vec![1i64; 256];
    let mut counters = vec![0i64; S];
    let mut scratch = PlaneScratch::new();
    const CALLS: usize = 48;
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                plane.accumulate_block_into(
                    std::hint::black_box(&values),
                    &deltas,
                    &mut counters,
                    &mut scratch,
                );
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    std::hint::black_box(&counters);
    (CALLS * values.len()) as f64 / samples[samples.len() / 2] / 1e6
}

/// The ladder's outputs: per-layer values plus the registry scrapes of
/// the in-process rungs, written next to the spans.
pub struct Ladder {
    pub values: BTreeMap<&'static str, f64>,
    pub scrapes: BTreeMap<&'static str, MetricsSnapshot>,
    /// The durable rung's recovered counters equal those before the
    /// crash.
    pub recovered_same: bool,
}

/// Times each call of `f` over `items` as a span; returns the total.
fn pass<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: u64,
    items: &[T],
    mut f: impl FnMut(&T),
) -> Duration {
    items
        .iter()
        .map(|item| tracer.time(name, parent, || f(item)).1)
        .sum()
}

/// The median over [`PASSES`] of `per_pass`, in ns per `units`.
fn ns_per(units: f64, mut per_pass: impl FnMut() -> Duration) -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| per_pass().as_secs_f64() * 1e9 / units)
        .collect();
    quantile(&passes, 0.5)
}

pub fn run(
    relations: &[Relation],
    seed: u64,
    tracer: &mut Tracer,
    out_dir: &Path,
) -> BenchResult<Ladder> {
    let mut blocks = data::interleave(relations);
    blocks.truncate(LADDER_BLOCKS);
    let names: Vec<&str> = relations.iter().map(|r| r.name).collect();
    let entries: f64 = blocks.iter().map(|(_, b)| b.len() as f64).sum();
    let ops: f64 = blocks.iter().map(|(_, b)| b.ops() as f64).sum();
    let mut values = BTreeMap::new();
    let mut scrapes = BTreeMap::new();
    let root = tracer.open(0);

    // ams-hash: the raw sign-plane kernel on the blocks' columns.
    let plane = PolySignPlane::draw(S, &mut SplitMix64::new(seed));
    let mut counters = vec![0i64; S];
    let mut scratch = PlaneScratch::new();
    let kernel = ns_per(entries, || {
        pass(
            tracer,
            "hash.accumulate_block_into",
            root.id,
            &blocks,
            |(_, b)| {
                plane.accumulate_block_into(b.values(), b.deltas(), &mut counters, &mut scratch)
            },
        )
    });
    values.insert("hash.kernel_ns_per_elem", kernel);

    // ams-core: block apply into one sketch per attribute.
    let mut sketches: Vec<TugOfWarSketch> = names
        .iter()
        .map(|_| TugOfWarSketch::new(params(), seed))
        .collect();
    let apply = ns_per(ops, || {
        pass(tracer, "core.apply_block", root.id, &blocks, |(a, b)| {
            sketches[*a].apply_block(b)
        })
    });
    values.insert("core.apply_ns_per_op", apply);

    // Per-shard sketches as the service holds them, then the query
    // path's merge and estimate.
    let router = Router::new(RouterPolicy::HashPartition, SHARDS, seed);
    let mut shards: Vec<Vec<TugOfWarSketch>> = (0..SHARDS)
        .map(|_| {
            names
                .iter()
                .map(|_| TugOfWarSketch::new(params(), seed))
                .collect()
        })
        .collect();
    for (a, b) in &blocks {
        for (shard, part) in router.route((*b).clone()) {
            shards[shard][*a].apply_block(&part);
        }
    }
    let mut merged = shards[0].clone();
    let merges: Vec<f64> = (0..QUERY_REPS)
        .map(|_| {
            let (m, took) = tracer.time("core.merge_from", root.id, || {
                let mut m = shards[0].clone();
                for shard in &shards[1..] {
                    for (into, from) in m.iter_mut().zip(shard) {
                        into.merge_from(from).expect("same-shape sketches merge");
                    }
                }
                m
            });
            merged = m;
            micros(took)
        })
        .collect();
    values.insert("core.merge_us", quantile(&merges, 0.5));
    let estimates: Vec<f64> = (0..QUERY_REPS)
        .flat_map(|i| {
            let sketch = &merged[i % merged.len()];
            let (_, took) = tracer.time("core.estimate", root.id, || {
                std::hint::black_box(sketch.estimate())
            });
            let mut out = vec![micros(took)];
            if merged.len() > 1 {
                let (_, took) = tracer.time("core.join_estimate", root.id, || {
                    std::hint::black_box(merged[0].join_estimate(&merged[1]))
                });
                out.push(micros(took));
            }
            out
        })
        .collect();
    values.insert("core.estimate_us", quantile(&estimates, 0.5));

    // ams-stream: net coalescing and the block wire codec.
    let mut buffer = CoalesceBuffer::new();
    let mut coalesced = 0usize;
    let coalesce = ns_per(entries, || {
        coalesced = 0;
        pass(tracer, "stream.coalesce", root.id, &blocks, |(_, b)| {
            coalesced += buffer.coalesce(b.values(), b.deltas()).len();
        })
    });
    values.insert("stream.coalesce_ns_per_op", coalesce);
    values.insert("stream.distinct_ratio", coalesced as f64 / ops);
    let mut wire = Vec::new();
    let codec = ns_per(blocks.len() as f64, || {
        pass(
            tracer,
            "stream.encode_decode_wire",
            root.id,
            &blocks,
            |(_, b)| {
                wire.clear();
                b.encode_wire(&mut wire);
                let decoded = OpBlock::decode_wire(&mut &wire[..]).expect("own encoding decodes");
                std::hint::black_box(decoded);
            },
        )
    });
    values.insert("stream.codec_ns_per_block", codec);

    service_rung(
        &names,
        &blocks,
        ops,
        seed,
        tracer,
        root.id,
        &mut values,
        &mut scrapes,
    )?;
    let recovered_same = durable_rung(
        &names,
        &blocks,
        seed,
        tracer,
        root.id,
        out_dir,
        &mut values,
        &mut scrapes,
    )?;
    tracer.close("ladder", root);
    Ok(Ladder {
        values,
        scrapes,
        recovered_same,
    })
}

/// `ams-service` in process: blocking ingest of the same blocks, the
/// median of [`PASSES`] passes, while a second thread asks queries.
#[allow(clippy::too_many_arguments)]
fn service_rung(
    names: &[&str],
    blocks: &[(usize, &OpBlock)],
    ops: f64,
    seed: u64,
    tracer: &mut Tracer,
    parent: u64,
    values: &mut BTreeMap<&'static str, f64>,
    scrapes: &mut BTreeMap<&'static str, MetricsSnapshot>,
) -> BenchResult<()> {
    let service =
        AmsService::start(service_config(seed, None), names).map_err(|e| e.to_string())?;
    let owned: Vec<(usize, OpBlock)> = blocks.iter().map(|(a, b)| (*a, (*b).clone())).collect();
    let done = AtomicBool::new(false);
    let mut query_tracer = tracer.child();
    let (pass_s, queries) = std::thread::scope(|scope| -> BenchResult<_> {
        let querier = scope.spawn(|| {
            let mut latencies = Vec::new();
            let mut i = 0usize;
            while !done.load(Ordering::Acquire) {
                let (_, took) = if names.len() > 1 && i % 3 == 2 {
                    query_tracer.time("service.join", parent, || service.join(names[0], names[1]))
                } else {
                    let name = names[i % names.len()];
                    query_tracer.time("service.self_join", parent, || service.self_join(name))
                };
                latencies.push(micros(took));
                i += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            latencies
        });
        let mut result = Ok(());
        let mut passes = Vec::with_capacity(PASSES);
        'passes: for _ in 0..PASSES {
            let start = Instant::now();
            for (a, block) in &owned {
                let (r, _) = tracer.time("service.ingest_block", parent, || {
                    service.ingest_block(names[*a], block.clone())
                });
                if let Err(e) = r {
                    result = Err(e.to_string());
                    break 'passes;
                }
            }
            tracer.time("service.drain", parent, || service.drain());
            passes.push(start.elapsed().as_secs_f64());
        }
        done.store(true, Ordering::Release);
        let queries = querier.join().expect("query thread panicked");
        result.map(|()| (quantile(&passes, 0.5), queries))
    })?;
    tracer.absorb(query_tracer);
    let snap = service.metrics_snapshot();
    let stats = service.stats();
    let routed: Vec<u64> = (0..SHARDS)
        .map(|shard| {
            snap.counter("service_routed_ops", &[("shard", &shard.to_string())])
                .unwrap_or(0)
        })
        .collect();
    values.insert("service.ingest_melem_s", ops / pass_s / 1e6);
    values.insert(
        "service.queue_wait_p99_us",
        snap.merged_histogram("service_queue_wait_ns").p99() as f64 / 1e3,
    );
    values.insert(
        "service.kernel_p99_us",
        snap.merged_histogram("service_ingest_ns").p99() as f64 / 1e3,
    );
    values.insert(
        "service.backpressure_frac",
        stats.backpressure_events() as f64 / stats.blocks_enqueued().max(1) as f64,
    );
    values.insert("service.imbalance_ratio", imbalance_ratio(&routed));
    values.insert("service.query_p50_us", quantile(&queries, 0.5));
    values.insert("service.query_p99_us", quantile(&queries, 0.99));
    scrapes.insert("service", snap);
    let _ = service.shutdown();
    Ok(())
}

/// `ams-durable` in process: blocks acknowledged after fsync
/// (`ingest_block` + `poll_durable`), then a crash at the shutdown
/// checkpoint and a timed recovery over the same directory. Returns
/// whether the recovered counters equal those before the crash.
#[allow(clippy::too_many_arguments)]
fn durable_rung(
    names: &[&str],
    blocks: &[(usize, &OpBlock)],
    seed: u64,
    tracer: &mut Tracer,
    parent: u64,
    out_dir: &Path,
    values: &mut BTreeMap<&'static str, f64>,
    scrapes: &mut BTreeMap<&'static str, MetricsSnapshot>,
) -> BenchResult<bool> {
    let dir = out_dir.join(format!("ladder-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let err = |e: ams_service::ServiceError| e.to_string();
    let service = AmsService::start(
        service_config(seed, Some(durability(&dir, GROUP_COMMIT, true))),
        names,
    )
    .map_err(err)?;
    let registry = service.registry();
    let durable: Vec<(usize, OpBlock)> = blocks
        .iter()
        .take(DURABLE_BLOCKS)
        .map(|(a, b)| (*a, (*b).clone()))
        .collect();
    let ops: f64 = durable.iter().map(|(_, b)| b.ops() as f64).sum();
    // Two blocks outstanding per durable cut, as `durable-churn`'s two
    // connections keep them, so group commit has something to batch.
    let mut acks = Vec::with_capacity(durable.len());
    for pair in durable.chunks(2) {
        let open = tracer.open(parent);
        for (a, block) in pair {
            service
                .ingest_block(names[*a], block.clone())
                .map_err(err)?;
        }
        let cut = service.durability_cut();
        while !service.poll_durable(&cut) {
            std::thread::yield_now();
        }
        acks.push(micros(
            tracer.close("durable.ingest_block_poll_durable", open),
        ));
    }
    service.drain();
    let snap = registry.snapshot();
    let fsync = snap.merged_histogram("wal_fsync_ns");
    let appends = snap.merged_histogram("wal_append_bytes");
    values.insert("durable.fsync_p50_us", fsync.p50() as f64 / 1e3);
    values.insert("durable.fsync_p99_us", fsync.p99() as f64 / 1e3);
    values.insert(
        "durable.appends_per_fsync",
        appends.count as f64 / fsync.count.max(1) as f64,
    );
    values.insert("durable.inproc_ack_p99_us", quantile(&acks, 0.99));
    values.insert("durable.wal_bytes_per_op", appends.sum as f64 / ops);
    let before = service.snapshot();
    let counters = |s: &ams_service::ServiceSnapshot| -> Vec<Vec<i64>> {
        names
            .iter()
            .map(|n| {
                s.sketch(n)
                    .map(|k| k.counters().to_vec())
                    .unwrap_or_default()
            })
            .collect()
    };
    scrapes.insert("durable", snap);
    // The crash: the shutdown checkpoint tears.
    tracer.time("durable.shutdown_crash", parent, || service.shutdown());

    let open = tracer.open(parent);
    let recovered = AmsService::start(
        service_config(seed, Some(durability(&dir, GROUP_COMMIT, false))),
        names,
    )
    .map_err(err)?;
    while recovered.snapshot().blocks() < before.blocks() {
        std::thread::yield_now();
    }
    let recovery = tracer.close("durable.recover", open);
    let replayed: u64 = recovered.recovery().iter().map(|r| r.replayed_blocks).sum();
    let same = counters(&recovered.snapshot()) == counters(&before);
    values.insert("durable.recovery_s", recovery.as_secs_f64());
    values.insert(
        "durable.replay_mb_s",
        appends.sum as f64 / 1e6 / recovery.as_secs_f64(),
    );
    values.insert("durable.replayed_blocks", replayed as f64);
    let registry = recovered.registry();
    tracer.time("durable.shutdown_checkpoint", parent, || {
        recovered.shutdown()
    });
    let after = registry.snapshot();
    values.insert(
        "durable.checkpoint_ms",
        after.merged_histogram("checkpoint_write_ns").mean() / 1e6,
    );
    scrapes.insert("durable_recovered", after);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(same)
}
