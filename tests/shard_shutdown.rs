//! `Router::shutdown` tears the whole fleet down before it returns.
//!
//! This file holds a single test on purpose: it inspects every thread
//! of the test process, so no other router may be running beside it.

use std::time::{Duration, Instant};

use live_rmi::router::{ClassSpec, Router, RouterConfig};
use live_rmi::sde::TransportKind;

fn counter_source(name: &str) -> String {
    format!(
        "class {name} {{ field int n; distributed int bump() {{ \
         this.n = this.n + 1; return this.n; }} }}"
    )
}

/// Names of this process's threads whose name starts with `prefix`.
fn threads_named(prefix: &str) -> Vec<String> {
    let mut names = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let comm = task.expect("task entry").path().join("comm");
        if let Ok(name) = std::fs::read_to_string(comm) {
            if name.starts_with(prefix) {
                names.push(name.trim_end().to_string());
            }
        }
    }
    names
}

#[test]
fn shutdown_joins_every_replication_thread_and_skips_the_probe_interval() {
    let wal_root = std::env::temp_dir().join(format!("live-rmi-rt-down-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);
    let mut cfg = RouterConfig::new(2, TransportKind::Mem, &wal_root, "rt-down");
    // Long enough that a shutdown waiting out the probe interval would
    // show.
    cfg.health_interval = Duration::from_secs(5);
    let specs = (0..4)
        .map(|i| {
            let name = format!("Down{i}");
            ClassSpec::soap(name.clone(), counter_source(&name))
        })
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));
    // A completed move leaves its catch-up stream on the source leader.
    let class = "Down0";
    let to = (router.shard_of(class) + 1) % 2;
    router.move_class(class, to).expect("move");
    assert!(!threads_named("wal-repl").is_empty());

    let started = Instant::now();
    router.shutdown();
    let took = started.elapsed();
    let left = threads_named("wal-repl");
    assert!(
        left.is_empty(),
        "replication threads alive after shutdown: {left:?}"
    );
    assert!(
        took < Duration::from_secs(2),
        "shutdown waited out the probe interval: {took:?}"
    );
    drop(router);
    let _ = std::fs::remove_dir_all(&wal_root);
}
