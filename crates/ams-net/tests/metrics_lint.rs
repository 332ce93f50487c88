//! Metrics-name lint: every family registered across the service,
//! durability, network, and client layers must be snake_case, carry a
//! `# HELP` / `# TYPE` header in the Prometheus exposition, and be
//! documented in the README's metric tables — so a renamed or
//! undocumented series fails the build instead of silently drifting.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ams_core::SketchParams;
use ams_net::{AmsClient, NetServer, Scrape};
use ams_service::{AmsService, DurabilityConfig, FsyncPolicy, MetricsSnapshot, ServiceConfig};
use ams_stream::OpBlock;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A self-cleaning temp dir (no tempfile crate in the workspace).
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let path = std::env::temp_dir().join(format!(
            "ams-net-metrics-lint-{}-{}-{nanos}",
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

fn family_names(snapshot: &MetricsSnapshot) -> BTreeSet<String> {
    snapshot.samples.iter().map(|s| s.name.clone()).collect()
}

fn is_snake_case(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Registers the full metric surface — service shards, WAL, reactors,
/// client — by actually running every layer once.
fn full_surface() -> (MetricsSnapshot, MetricsSnapshot) {
    let dir = TempDir::new();
    let config = ServiceConfig::builder()
        .shards(2)
        .sketch_params(SketchParams::new(16, 3).unwrap())
        .seed(5)
        .heavy_keys(4)
        .audit_every(2)
        .durability(DurabilityConfig::new(dir.path()).with_fsync(FsyncPolicy::PerAppend))
        .build()
        .unwrap();
    let service = AmsService::start(config, &["v"]).unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service);
    let mut client = AmsClient::connect(addr).unwrap();
    for i in 0..8u64 {
        client
            .ingest_block("v", &OpBlock::from_values((0..16).map(|j| i * 37 + j)))
            .unwrap();
    }
    client.drain().unwrap();
    // A full scrape; its health section registers nothing, so the
    // metrics section is the registration surface itself.
    let scrape = client.scrape(Scrape::ALL).unwrap();
    assert!(scrape.health.is_some());
    let server_side = scrape.metrics.unwrap();
    let client_side = client.local_metrics();
    let _ = client.shutdown().unwrap();
    handle.join();
    (server_side, client_side)
}

#[test]
fn every_metric_is_snake_case_documented_and_rendered_with_headers() {
    let (server_side, client_side) = full_surface();
    let mut families = family_names(&server_side);
    families.extend(family_names(&client_side));
    assert!(
        families.len() >= 20,
        "expected the full registration surface, got {families:?}"
    );

    // 1. Naming: snake_case only.
    for name in &families {
        assert!(is_snake_case(name), "metric `{name}` is not snake_case");
    }

    // 2. README membership: every family appears (backticked) in the
    //    README's metric tables, so docs cannot drift from the code.
    let readme_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = std::fs::read_to_string(&readme_path).expect("workspace README");
    for name in &families {
        assert!(
            readme.contains(&format!("`{name}")),
            "metric `{name}` is registered but missing from the README metric tables"
        );
    }

    // 3. Exposition headers: in the rendered text, every sample's
    //    rendered family (histograms expand into `_count`/`_p50_ns`/…)
    //    is introduced by a `# HELP` line immediately followed by its
    //    `# TYPE` line.
    for text in [server_side.render_text(), client_side.render_text()] {
        let lines: Vec<&str> = text.lines().collect();
        let mut headed: BTreeSet<&str> = BTreeSet::new();
        for pair in lines.windows(2) {
            if let (Some(help), Some(ty)) = (
                pair[0].strip_prefix("# HELP "),
                pair[1].strip_prefix("# TYPE "),
            ) {
                let help_family = help.split_whitespace().next().unwrap();
                let type_family = ty.split_whitespace().next().unwrap();
                assert_eq!(help_family, type_family, "HELP/TYPE pair mismatch");
                headed.insert(type_family);
            }
        }
        for line in lines
            .iter()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let rendered = line.split(['{', ' ']).next().unwrap();
            assert!(
                headed.contains(rendered),
                "sample `{rendered}` rendered without HELP/TYPE headers"
            );
        }
    }
}
