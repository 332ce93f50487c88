//! An idle server stays asleep: once the last request is answered, the
//! acceptor and the reactor block in their readiness waits and make no
//! voluntary context switches until something happens. A loop that
//! polled on a timer would switch thousands of times a second.
//!
//! Linux only (it reads `/proc`), and a single test, so the process
//! holds exactly one server's threads.

#![cfg(target_os = "linux")]

use std::time::Duration;

use ams_core::SketchParams;
use ams_net::{AmsClient, NetServer};
use ams_service::{AmsService, ServiceConfig};
use ams_stream::OpBlock;

/// `(total voluntary context switches, thread count)` over this
/// process's threads whose name starts with `ams-net-`; the kernel cuts
/// names to 15 bytes, so these read `ams-net-reactor` and
/// `ams-net-accepto`.
fn net_thread_switches() -> (u64, usize) {
    let mut switches = 0;
    let mut threads = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        // A thread that exited since the listing has no status left.
        let Ok(status) = std::fs::read_to_string(task.unwrap().path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(key))
                .map(str::trim)
        };
        if !field("Name:").is_some_and(|name| name.starts_with("ams-net-")) {
            continue;
        }
        threads += 1;
        switches += field("voluntary_ctxt_switches:")
            .and_then(|count| count.parse::<u64>().ok())
            .expect("a thread status reports its voluntary switches");
    }
    (switches, threads)
}

#[test]
fn an_idle_server_does_not_wake_up() {
    let config = ServiceConfig::builder()
        .shards(2)
        .sketch_params(SketchParams::new(16, 3).unwrap())
        .seed(7)
        .build()
        .unwrap();
    let handle = NetServer::bind("127.0.0.1:0")
        .unwrap()
        .spawn(AmsService::start(config, &["v"]).unwrap());
    let mut client = AmsClient::connect(handle.addr()).unwrap();
    client
        .ingest_block("v", &OpBlock::from_values([1, 2, 2, 9]))
        .unwrap();
    client.drain().unwrap();
    assert!(client.self_join("v").unwrap() > 0.0);

    let (before, threads) = net_thread_switches();
    assert_eq!(threads, 2, "one acceptor and one reactor");
    std::thread::sleep(Duration::from_millis(500));
    let (after, _) = net_thread_switches();
    assert!(
        after - before <= 10,
        "the idle acceptor and reactor switched {} times in 500 ms",
        after - before
    );
    drop(client);
    handle.stop();
}
