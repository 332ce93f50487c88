//! End-to-end benchmark of the sketch service.
//!
//! ```text
//! perfbench --workload <ingest-zipf|durable-churn|query-mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Runs one workload against the real `AmsClient → NetServer →
//! AmsService` stack over loopback, checks every answer, and prints one
//! JSON object as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A traced run also replays the workload's blocks down the per-layer
//! ladder and writes its spans and scrapes under
//! `.bench_out/<workload>-<seed>/`. `--smoke` shrinks the inputs for
//! the benchmark's own tests. Exits non-zero when a check fails.

mod data;
mod ladder;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;

use util::{median, quantile, BenchResult, Tracer};
use workloads::{Ctx, Run, Size, Workload};

/// Where traced runs write their files and durable runs their WALs,
/// relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
    })
}

#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// The host facts every result is read against.
#[derive(Serialize)]
struct Host {
    cores: usize,
    simd_feature: bool,
    avx2: bool,
    calib_melem_s: f64,
}

fn host() -> Host {
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    Host {
        cores: std::thread::available_parallelism().map_or(1, usize::from),
        simd_feature: true,
        avx2,
        calib_melem_s: ladder::calibrate(),
    }
}

fn put(metrics: &mut BTreeMap<String, Metric>, name: &str, value: f64, unit: &str) {
    metrics.insert(
        name.to_string(),
        Metric {
            value,
            unit: unit.to_string(),
        },
    );
}

/// Ingest rate of the untraced rounds (all rounds of an untraced run).
fn untraced_rate(run: &Run) -> f64 {
    let rates: Vec<f64> = run
        .rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.ingest_melem_s)
        .collect();
    median(&rates)
}

fn end_to_end(run: &Run) -> BTreeMap<String, Metric> {
    let mut m = BTreeMap::new();
    put(&mut m, "ingest_melem_s", untraced_rate(run), "Melem/s");
    // Medians only: on a shared 2-core host the tails swing by more than
    // the largest allowed regression bound from run to run, so they are
    // per-layer (`client.*_p99_us`).
    put(&mut m, "ack_p50_us", quantile(&run.ack_us, 0.5), "us");
    put(&mut m, "query_p50_us", quantile(&run.query_us, 0.5), "us");
    put(&mut m, "setup_s", median(&run.setup_s), "s");
    put(
        &mut m,
        "mem_mb",
        run.rss_growth as f64 / (1 << 20) as f64,
        "MB",
    );
    m
}

fn per_layer(
    workload: Workload,
    run: &Run,
    ladder: &ladder::Ladder,
    host: &Host,
) -> BTreeMap<String, Metric> {
    let mut m = BTreeMap::new();
    for (name, value) in &ladder.values {
        put(&mut m, name, *value, unit_of(name));
    }
    put(&mut m, "hash.calib_melem_s", host.calib_melem_s, "Melem/s");
    let wire = &run.wire;
    put(
        &mut m,
        "net.busy_frac",
        wire.busy as f64 / wire.submissions.max(1) as f64,
        "ratio",
    );
    let service_rate = ladder.values["service.ingest_melem_s"];
    put(
        &mut m,
        "net.wire_tax_pct",
        (1.0 - untraced_rate(run) / service_rate) * 100.0,
        "%",
    );
    put(
        &mut m,
        "net.bytes_per_op",
        wire.bytes_in as f64 / wire.ops.max(1) as f64,
        "B/op",
    );
    put(&mut m, "net.rtt_us", median(&wire.rtt_us), "us");
    let tick_p99 = wire.tick.as_ref().map_or(0, |t| t.p99());
    put(&mut m, "net.tick_p99_us", tick_p99 as f64 / 1e3, "us");
    // Traced rounds against the untraced rounds of the same run, on the
    // workload's headline number.
    let side = |traced: bool, f: fn(&workloads::RoundSummary) -> f64| {
        let v: Vec<f64> = run
            .rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(f)
            .collect();
        median(&v)
    };
    let overhead = match workload {
        Workload::QueryMix => side(true, |r| r.query_p50_us) / side(false, |r| r.query_p50_us),
        _ => side(false, |r| r.ingest_melem_s) / side(true, |r| r.ingest_melem_s),
    };
    put(
        &mut m,
        "telemetry.trace_overhead_pct",
        (overhead - 1.0) * 100.0,
        "%",
    );
    let errors: Vec<f64> = run.answers.iter().map(|a| a.rel_error()).collect();
    put(&mut m, "accuracy.rel_error", median(&errors), "ratio");
    put(
        &mut m,
        "gen.late_p99_ms",
        quantile(&run.late_us, 0.99) / 1e3,
        "ms",
    );
    put(
        &mut m,
        "client.ack_p99_us",
        quantile(&run.ack_us, 0.99),
        "us",
    );
    put(
        &mut m,
        "client.query_p99_us",
        quantile(&run.query_us, 0.99),
        "us",
    );
    m
}

fn unit_of(name: &str) -> &'static str {
    let suffixes = [
        ("_ns_per_elem", "ns/elem"),
        ("_ns_per_op", "ns/op"),
        ("_ns_per_block", "ns/block"),
        ("_melem_s", "Melem/s"),
        ("_mb_s", "MB/s"),
        ("_us", "us"),
        ("_ms", "ms"),
        ("_s", "s"),
        ("_bytes_per_op", "B/op"),
        ("_blocks", "count"),
    ];
    suffixes
        .iter()
        .find(|(suffix, _)| name.ends_with(suffix))
        .map_or("ratio", |(_, unit)| unit)
}

fn write_traced(
    dir: &Path,
    workload: Workload,
    tracer: &Tracer,
    run: &Run,
    ladder: &ladder::Ladder,
    host: &Host,
    layer: &BTreeMap<String, Metric>,
) -> BenchResult<()> {
    #[derive(Serialize)]
    struct Scrapes<'a> {
        wire_metrics: &'a [ams_telemetry::MetricsSnapshot],
        wire_stats: &'a [ams_service::ServiceStats],
        ladder: &'a BTreeMap<&'static str, ams_telemetry::MetricsSnapshot>,
    }
    #[derive(Serialize)]
    struct Summary<'a> {
        workload: &'a str,
        host: &'a Host,
        per_layer: &'a BTreeMap<String, Metric>,
        /// Restart-until-served times over the wire (`durable-churn`).
        wire_recovery_s: &'a [f64],
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    util::write_spans(&dir.join("spans.jsonl"), &tracer.spans, workload.name())?;
    let write = |name: &str, json: Result<String, serde_json::Error>| {
        let json = json.map_err(|e| format!("{name}: {e}"))?;
        std::fs::write(dir.join(name), json).map_err(|e| format!("{name}: {e}"))
    };
    write(
        "scrapes.json",
        serde_json::to_string(&Scrapes {
            wire_metrics: &run.wire.metrics,
            wire_stats: &run.wire.stats,
            ladder: &ladder.scrapes,
        }),
    )?;
    write(
        "per_layer.json",
        serde_json::to_string(&Summary {
            workload: workload.name(),
            host,
            per_layer: layer,
            wire_recovery_s: &run.recovery_s,
        }),
    )
}

fn bench(args: &Args) -> BenchResult<(Output, Host)> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let host = host();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: if args.smoke {
            Size::smoke()
        } else {
            Size::full()
        },
        out_dir,
    };
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let run = workloads::run(args.workload, &ctx, &mut tracer)?;
    let mut failed = run.failed + run.bound_failures();
    let mut attempted = run.attempted;
    if !run.recovery_s.is_empty() {
        eprintln!(
            "wire recovery: median {:.4} s over {} restarts",
            median(&run.recovery_s),
            run.recovery_s.len()
        );
    }
    let metrics = if args.trace {
        tracer.set_enabled(true);
        let ladder = ladder::run(&run.relations, run.service_seed, &mut tracer, out_dir)?;
        attempted += 1;
        if !ladder.recovered_same {
            eprintln!("check failed: ladder recovery differs from the counters before the crash");
            failed += 1;
        }
        let layer = per_layer(args.workload, &run, &ladder, &host);
        let dir = out_dir.join(format!("{}-{}", args.workload.name(), args.seed));
        write_traced(&dir, args.workload, &tracer, &run, &ladder, &host, &layer)?;
        layer
    } else {
        end_to_end(&run)
    };
    Ok((
        Output {
            correct: failed == 0,
            attempted: attempted.max(1),
            failed,
            metrics,
        },
        host,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (output, host) = match bench(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for (name, metric) in &output.metrics {
        eprintln!("{name:>32} {:>14.4} {}", metric.value, metric.unit);
    }
    let host = serde_json::to_string(&host).expect("host facts serialize");
    println!("host {host}");
    println!(
        "{}",
        serde_json::to_string(&output).expect("benchmark output serializes")
    );
    if output.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
