//! Update and query cost: the time side of Theorems 2.1 and 2.2.
//!
//! The paper claims sample-count processes updates in O(1) amortized
//! time *independent of s*, while tug-of-war pays O(s) per update; and
//! queries cost O(s) / O(s) / O(s2). These benches sweep s so the
//! scaling shapes are visible in the report.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use ams_bench::Workload;
use ams_core::{
    NaiveSampling, SampleCount, SampleCountFastQuery, SelfJoinEstimator, SketchParams,
    TugOfWarSketch,
};
use ams_datagen::DatasetId;
use ams_hash::lanes::{self, PlaneScratch};
use ams_hash::plane::SignPlane;
use ams_hash::{PolySignPlane, SplitMix64};
use ams_stream::{value_blocks, OpBlock};

const UPDATE_BATCH: usize = 10_000;

fn bench_updates(c: &mut Criterion) {
    let workload = Workload::from_dataset(DatasetId::Zipf10, Some(UPDATE_BATCH));
    let mut group = c.benchmark_group("updates");
    group.sample_size(10);
    group.throughput(Throughput::Elements(UPDATE_BATCH as u64));
    for s in [16usize, 256, 4_096] {
        let params = SketchParams::single_group(s).unwrap();
        group.bench_with_input(BenchmarkId::new("tug-of-war", s), &s, |b, _| {
            b.iter(|| {
                let mut tw: TugOfWarSketch = TugOfWarSketch::new(params, 1);
                for &v in &workload.values {
                    tw.insert(v);
                }
                tw
            });
        });
        group.bench_with_input(BenchmarkId::new("sample-count", s), &s, |b, _| {
            b.iter(|| {
                let mut sc = SampleCount::new(params, 1);
                for &v in &workload.values {
                    sc.insert(v);
                }
                sc
            });
        });
        group.bench_with_input(BenchmarkId::new("sample-count-fastq", s), &s, |b, _| {
            b.iter(|| {
                let mut sc = SampleCountFastQuery::new(params, 1);
                for &v in &workload.values {
                    sc.insert(v);
                }
                sc
            });
        });
        group.bench_with_input(BenchmarkId::new("naive-sampling", s), &s, |b, _| {
            b.iter(|| {
                let mut ns = NaiveSampling::new(s, 1);
                for &v in &workload.values {
                    ns.insert(v);
                }
                ns
            });
        });
    }
    group.finish();
}

fn bench_deletes(c: &mut Criterion) {
    let workload = Workload::from_dataset(DatasetId::Zipf10, Some(UPDATE_BATCH));
    let mut group = c.benchmark_group("deletes");
    group.sample_size(10);
    group.throughput(Throughput::Elements((UPDATE_BATCH / 2) as u64));
    let params = SketchParams::single_group(256).unwrap();
    group.bench_function("tug-of-war", |b| {
        b.iter_batched(
            || {
                let mut tw: TugOfWarSketch = TugOfWarSketch::new(params, 1);
                for &v in &workload.values {
                    tw.insert(v);
                }
                tw
            },
            |mut tw| {
                for &v in workload.values.iter().rev().take(UPDATE_BATCH / 2) {
                    tw.delete(v);
                }
                tw
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("sample-count", |b| {
        b.iter_batched(
            || {
                let mut sc = SampleCount::new(params, 1);
                for &v in &workload.values {
                    sc.insert(v);
                }
                sc
            },
            |mut sc| {
                for &v in workload.values.iter().rev().take(UPDATE_BATCH / 2) {
                    sc.delete(v);
                }
                sc
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let workload = Workload::from_dataset(DatasetId::Zipf10, Some(50_000));
    let mut group = c.benchmark_group("queries");
    group.sample_size(10);
    for s in [64usize, 1_024] {
        let params = SketchParams::new(s / 4, 4).unwrap();
        let tw = {
            let mut tw: TugOfWarSketch = TugOfWarSketch::new(params, 2);
            for (v, f) in workload.histogram.iter() {
                tw.update(v, f as i64);
            }
            tw
        };
        let sc = {
            let mut sc = SampleCount::new(params, 2);
            for &v in &workload.values {
                sc.insert(v);
            }
            sc
        };
        let fq = {
            let mut fq = SampleCountFastQuery::new(params, 2);
            for &v in &workload.values {
                fq.insert(v);
            }
            fq
        };
        group.bench_with_input(BenchmarkId::new("tug-of-war", s), &s, |b, _| {
            b.iter(|| tw.estimate());
        });
        group.bench_with_input(BenchmarkId::new("sample-count", s), &s, |b, _| {
            b.iter(|| sc.estimate());
        });
        group.bench_with_input(BenchmarkId::new("sample-count-fastq", s), &s, |b, _| {
            b.iter(|| fq.estimate());
        });
    }
    group.finish();
}

/// Scalar vs block ingestion: the same 10k-value Zipf stream pushed
/// through the per-item path and through pre-built columnar blocks of
/// 64 / 256 / 1024 source values. Sketch construction and block
/// building are outside the timed region, so the numbers compare the
/// update kernels themselves (AoS per-item dispatch vs the SoA plane
/// sweep).
fn bench_scalar_vs_block(c: &mut Criterion) {
    let workload = Workload::from_dataset(DatasetId::Zipf10, Some(UPDATE_BATCH));
    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(UPDATE_BATCH as u64));
    let params = SketchParams::single_group(256).unwrap();

    let mut tw: TugOfWarSketch = TugOfWarSketch::new(params, 1);
    group.bench_function("tug-of-war/scalar", |b| {
        b.iter(|| {
            for &v in &workload.values {
                tw.insert(v);
            }
            tw.counters()[0]
        });
    });
    for block_size in [64usize, 256, 1024] {
        let blocks: Vec<OpBlock> = value_blocks(&workload.values, block_size).collect();
        let mut tw: TugOfWarSketch = TugOfWarSketch::new(params, 1);
        group.bench_with_input(
            BenchmarkId::new("tug-of-war/block", block_size),
            &block_size,
            |b, _| {
                b.iter(|| {
                    for block in &blocks {
                        tw.apply_block(block);
                    }
                    tw.counters()[0]
                });
            },
        );
    }

    // Sample-count for contrast: its updates are O(1) amortized, so the
    // block path only trims dispatch — the interesting claim is that it
    // does not get *slower*.
    group.bench_function("sample-count/scalar", |b| {
        b.iter(|| {
            let mut sc = SampleCount::new(params, 1);
            for &v in &workload.values {
                sc.insert(v);
            }
            sc
        });
    });
    {
        let blocks: Vec<OpBlock> = value_blocks(&workload.values, 256).collect();
        group.bench_function("sample-count/block/256", |b| {
            b.iter(|| {
                let mut sc = SampleCount::new(params, 1);
                for block in &blocks {
                    sc.apply_block(block);
                }
                sc
            });
        });
    }
    group.finish();
}

/// The plane kernels head to head, outside the sketch machinery: the
/// serial u128 Horner kernel (`serial-u128`) vs the dispatched kernel,
/// which on a CPU with AVX2 is the `std::arch` split-limb tile kernel
/// (`lane-avx2`). A CPU without AVX2 dispatches to the serial kernel
/// itself, so there the dispatched series is skipped rather than timed
/// twice under two names. One 256-key block of Zipf keys, s ∈ {256,
/// 4096} plane rows.
fn bench_kernels(c: &mut Criterion) {
    const BLOCK: usize = 256;
    let workload = Workload::from_dataset(DatasetId::Zipf10, Some(BLOCK));
    let deltas = vec![1i64; workload.values.len()];
    let mut group = c.benchmark_group("kernels");
    group.sample_size(30);
    group.throughput(Throughput::Elements(BLOCK as u64));
    for s in [256usize, 4_096] {
        let mut rng = SplitMix64::new(11);
        let plane = PolySignPlane::draw(s, &mut rng);
        let mut counters = vec![0i64; s];
        group.bench_with_input(BenchmarkId::new("serial-u128", s), &s, |b, _| {
            b.iter(|| {
                plane.accumulate_block_serial(&workload.values, &deltas, &mut counters);
                black_box(counters[0])
            });
        });
        if !lanes::uses_avx2() {
            continue;
        }
        let mut scratch = PlaneScratch::new();
        group.bench_with_input(BenchmarkId::new("lane-avx2", s), &s, |b, _| {
            b.iter(|| {
                plane.accumulate_block_into(&workload.values, &deltas, &mut counters, &mut scratch);
                black_box(counters[0])
            });
        });
    }
    group.finish();
}

fn bench_crc(c: &mut Criterion) {
    use ams_stream::crc::{crc32, crc32_bytewise};
    // Frame-sized inputs: a small ack, a typical 256-entry ingest
    // block frame (~4 KiB), and a read-burst-sized buffer.
    let mut group = c.benchmark_group("crc");
    group.sample_size(30);
    for size in [64usize, 4_096, 65_536] {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let data: Vec<u8> = (0..size)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("bytewise", size), &data, |b, data| {
            b.iter(|| black_box(crc32_bytewise(black_box(data))));
        });
        group.bench_with_input(BenchmarkId::new("slice-by-8", size), &data, |b, data| {
            b.iter(|| black_box(crc32(black_box(data))));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_updates,
    bench_deletes,
    bench_queries,
    bench_scalar_vs_block,
    bench_kernels,
    bench_crc
);
criterion_main!(benches);
