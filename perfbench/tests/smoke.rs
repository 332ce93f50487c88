//! The benchmark's own checks: `BENCHMARK.json` and `ladder.json` agree
//! with each other and with the binary, and a tiny run of every
//! workload prints every declared metric with its declared unit.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

use serde::Deserialize;

const WORKLOADS: [&str; 3] = ["ingest-zipf", "durable-churn", "query-mix"];

#[derive(Deserialize)]
struct Bench {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<NamedWorkload>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

#[derive(Deserialize)]
struct NamedWorkload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct LadderMap {
    default_seed: u64,
    held_out_seed: u64,
    layers: Vec<LayerEntry>,
}

#[derive(Deserialize)]
struct LayerEntry {
    layer: String,
    metric: String,
    moves: Vec<Effect>,
    unchanged: Vec<Effect>,
}

#[derive(Deserialize)]
struct Effect {
    metric: String,
    workload: String,
}

#[derive(Deserialize)]
struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

fn read(relative: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn bench() -> Bench {
    serde_json::from_str(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn ladder_map() -> LadderMap {
    serde_json::from_str(&read("ladder.json")).expect("ladder.json parses")
}

#[test]
fn benchmark_json_declares_each_workload_with_a_reason() {
    let bench = bench();
    assert_eq!(bench.command[0], "cargo");
    assert_eq!(bench.paths, ["perfbench"]);
    assert!((1..=60).contains(&bench.run_seconds));
    let names: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    for w in &bench.workloads {
        assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
    }
    let mut seen = BTreeSet::new();
    let metric_names = bench
        .end_to_end
        .iter()
        .map(|m| (&m.name, &m.unit, &m.better))
        .chain(
            bench
                .per_layer
                .iter()
                .map(|m| (&m.name, &m.unit, &m.better)),
        );
    for (name, unit, better) in metric_names {
        assert!(seen.insert(name.clone()), "{name} declared twice");
        assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
        assert!(better == "higher" || better == "lower", "{name}: {better}");
    }
    let setup = bench
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    for m in &bench.end_to_end {
        assert!(m.bound > 0.0 && m.bound <= setup.bound && m.bound <= 0.25);
    }
}

#[test]
fn ladder_map_covers_every_per_layer_metric() {
    let bench = bench();
    let map = ladder_map();
    assert_ne!(map.default_seed, map.held_out_seed);
    let per_layer: BTreeSet<&str> = bench.per_layer.iter().map(|m| m.name.as_str()).collect();
    let mapped: Vec<&str> = map.layers.iter().map(|l| l.metric.as_str()).collect();
    assert_eq!(mapped.len(), per_layer.len(), "one map entry per metric");
    assert_eq!(mapped.iter().copied().collect::<BTreeSet<_>>(), per_layer);
    let known: BTreeSet<&str> = bench
        .end_to_end
        .iter()
        .map(|m| m.name.as_str())
        .chain(per_layer.iter().copied())
        .collect();
    for entry in &map.layers {
        assert!(!entry.layer.is_empty());
        for effect in entry.moves.iter().chain(&entry.unchanged) {
            assert!(known.contains(effect.metric.as_str()), "{}", effect.metric);
            assert!(
                WORKLOADS.contains(&effect.workload.as_str()),
                "{}",
                effect.workload
            );
        }
    }
}

/// Runs the binary in a scratch directory; returns exit success, the
/// parsed last stdout line (if JSON), and the directory.
fn run(args: &[&str], tag: &str) -> (bool, Option<Output>, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout
        .lines()
        .last()
        .and_then(|line| serde_json::from_str::<Output>(line).ok());
    (out.status.success(), parsed, dir)
}

#[test]
fn smoke_runs_print_every_declared_metric_with_its_unit() {
    let bench = bench();
    let seed = ladder_map().default_seed.to_string();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let args = [
                "--workload",
                workload,
                "--seed",
                &seed,
                "--seconds",
                "0.05",
                "--trace",
                trace,
                "--smoke",
            ];
            let (ok, output, dir) = run(&args, &format!("{workload}-{trace}"));
            let output = output.unwrap_or_else(|| panic!("{workload}/{trace}: no result line"));
            assert!(ok && output.correct, "{workload}/{trace} failed its checks");
            assert_eq!(output.failed, 0);
            assert!(output.attempted > 0);
            let declared: Vec<(&str, &str)> = if trace == "0" {
                let m = &bench.end_to_end;
                m.iter()
                    .map(|m| (m.name.as_str(), m.unit.as_str()))
                    .collect()
            } else {
                let m = &bench.per_layer;
                m.iter()
                    .map(|m| (m.name.as_str(), m.unit.as_str()))
                    .collect()
            };
            assert_eq!(output.metrics.len(), declared.len(), "{workload}/{trace}");
            for (name, unit) in declared {
                let metric = output
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}/{trace}: {name} missing"));
                assert_eq!(metric.unit, unit, "{workload}/{trace}: {name}");
                assert!(metric.value.is_finite(), "{workload}/{trace}: {name}");
            }
            if trace == "1" {
                let files = dir.join(".bench_out").join(format!("{workload}-{seed}"));
                for file in ["spans.jsonl", "scrapes.json", "per_layer.json"] {
                    assert!(files.join(file).is_file(), "{workload}: {file} not written");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "query-mix", "--seconds", "1", "--trace", "0"][..],
        &[
            "--workload",
            "query-mix",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let (ok, output, _) = run(args, "bad-args");
        assert!(!ok && output.is_none(), "{args:?} was accepted");
    }
}
