//! Planned operations through the sharded authority router: live class
//! migration, cancellation, failover fallback, and rolling restarts.
//!
//! Where `shard_failover.rs` proves the *unplanned* path (a kill mid-
//! workload loses nothing), these tests prove the same machinery run as
//! a *scheduled* event is strictly better: zero failed calls, instance
//! state and the exactly-once reply cache carried to the new shard (no
//! counter reset — the state survives, unlike a crash), document
//! versions monotonic across the move, and a bounded drain pause. A
//! migration interrupted by a real source death must degrade into the
//! existing failover path; a cancelled one must leave the source
//! byte-identical.

use std::time::{Duration, Instant};

use live_rmi::cde::{ClientEnvironment, ResiliencePolicy};
use live_rmi::router::{ClassSpec, HashRing, MoveOpts, Router, RouterConfig};
use live_rmi::sde::TransportKind;

fn counter_source(name: &str) -> String {
    format!(
        "class {name} {{ field int n; distributed int bump() {{ \
         this.n = this.n + 1; return this.n; }} }}"
    )
}

/// Class names covering every shard at least twice, mirroring the
/// router's ring so the test knows each class's home shard.
fn pick_classes(shards: usize, vnodes: usize, prefix: &str) -> Vec<(String, usize)> {
    let ring = HashRing::new(shards, vnodes);
    let mut per_shard = vec![0usize; shards];
    let mut picked = Vec::new();
    for i in 0.. {
        let name = format!("{prefix}{i}");
        let shard = ring.shard_for(&name);
        if per_shard[shard] < 2 {
            per_shard[shard] += 1;
            picked.push((name, shard));
        }
        if per_shard.iter().all(|&c| c >= 2) {
            break;
        }
    }
    picked
}

fn authority_of(url: &str) -> String {
    match url.find("://").map(|i| i + 3) {
        Some(rest) => match url[rest..].find('/') {
            Some(slash) => url[..rest + slash].to_string(),
            None => url.to_string(),
        },
        None => url.to_string(),
    }
}

fn resilient_env(seed: u64) -> ClientEnvironment {
    ClientEnvironment::with_policy(
        ResiliencePolicy::seeded(seed)
            .with_request_timeout(Duration::from_millis(250))
            .with_max_attempts(10)
            .with_deadline(Duration::from_secs(8))
            .with_breaker(256, Duration::from_millis(500)),
    )
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("live-rmi-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Every file under `dir`, concatenated in name order — the
/// byte-identity probe for "the source WAL was not touched".
fn dir_bytes(dir: &std::path::Path) -> Vec<u8> {
    let mut names: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    names.sort();
    let mut bytes = Vec::new();
    for path in names {
        if path.is_file() {
            bytes.extend(std::fs::read(&path).unwrap_or_default());
        }
    }
    bytes
}

/// SOAP workload at a 40 % injected fault rate with one class migrated
/// between shards mid-sweep: every call succeeds, fleet-wide effects
/// equal calls exactly (the live instance and reply cache move with
/// the class — no counter reset), the document version is monotonic
/// across the move, and the drain pause stays under the 2 s deadline.
#[test]
fn soap_migration_under_faults_is_loss_free_and_carries_state() {
    const SHARDS: usize = 3;
    const CALLS: usize = 60;
    const FAULT_RATE: f64 = 0.4;

    let wal_root = temp_root("rb-soap");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-soap");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbCounter");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let (victim, home) = classes[0].clone();
    let target = (home + 1) % SHARDS;

    let env = resilient_env(13);
    let stubs: Vec<(String, std::sync::Arc<live_rmi::cde::DynamicStub>)> = classes
        .iter()
        .map(|(name, _)| {
            let stub = env.connect_soap(&router.wsdl_url(name)).expect("stub");
            (name.clone(), stub)
        })
        .collect();
    for (_, stub) in &stubs {
        env.call(stub, "bump", &[]).expect("prime call");
        assert!(stub.server_caches());
    }
    let pre_version = router.doc_version(&victim).expect("version");

    let front = authority_of(&router.front_url());
    httpd::FaultPlan::seeded(13)
        .rule(httpd::FaultRule::delay(
            &front,
            FAULT_RATE * 0.20,
            Duration::from_millis(1),
            Duration::from_millis(1),
        ))
        .rule(httpd::FaultRule::truncate(&front, FAULT_RATE * 0.15, 40))
        .rule(httpd::FaultRule::corrupt(&front, FAULT_RATE * 0.15, 2))
        .rule(httpd::FaultRule::disconnect(&front, FAULT_RATE * 0.10, 10))
        .rule(httpd::FaultRule::refuse(&front, FAULT_RATE * 0.15))
        .rule(httpd::FaultRule::drop_reply(&front, FAULT_RATE * 0.25).on_accept())
        .install();

    let move_at = stubs.len() + CALLS / 3;
    let mut handle = None;
    let mut ok = stubs.len();
    let mut attempted = stubs.len();
    for i in stubs.len()..CALLS {
        if i == move_at {
            handle = Some(router.begin_move(&victim, target, MoveOpts::default()));
        }
        let (_, stub) = &stubs[i % stubs.len()];
        if i % 4 == 0 {
            stub.drop_pooled_connections();
        }
        attempted += 1;
        if env.call(stub, "bump", &[]).is_ok() {
            ok += 1;
        }
    }
    let event = handle
        .expect("move started")
        .join()
        .expect("migration must complete");
    httpd::fault::clear();

    assert_eq!(ok, attempted, "100% client success across the migration");
    assert_eq!(router.shard_of(&victim), target, "class re-homed");
    assert_eq!(event.from_shard, home);
    assert!(
        event.drain_ms < 2_000.0,
        "drain pause {:.1}ms must stay under the 2s deadline",
        event.drain_ms
    );

    // Exactly-once, fleet-wide, with *no* resets: unlike a crash
    // failover, a planned move carries the live instance, so every
    // counter keeps its full history.
    let effects: i64 = stubs
        .iter()
        .map(|(name, _)| router.field_value(name, "n").expect("field"))
        .sum();
    assert_eq!(
        effects as usize, ok,
        "every acknowledged call executed exactly once, state carried"
    );

    let post_version = router.doc_version(&victim).expect("version");
    assert!(
        post_version >= pre_version,
        "post-move version {post_version} must be >= pre-move {pre_version}"
    );

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// CORBA calls keep flowing through the class's stable GIOP proxy
/// while the class migrates: the same stub (same IOR, no reconnect)
/// succeeds before, during, and after the move, and the counter never
/// resets because the instance moves with the class.
#[test]
fn corba_migration_through_stable_proxy_keeps_the_same_stub_working() {
    const SHARDS: usize = 2;
    let wal_root = temp_root("rb-corba");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-corba");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbOrb");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::corba(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let (victim, home) = classes[0].clone();
    let target = (home + 1) % SHARDS;
    let env = resilient_env(17);
    let stub = env
        .connect_corba(&router.idl_url(&victim), &router.ior_url(&victim))
        .expect("stub");

    for _ in 0..5 {
        env.call(&stub, "bump", &[]).expect("pre-move call");
    }
    assert!(stub.server_caches());
    let pre_version = router.doc_version(&victim).expect("version");

    // Call through the whole migration window: drained calls surface as
    // TRANSIENT with a pacing hint, which the client retries — so every
    // call here must succeed.
    let handle = router.begin_move(&victim, target, MoveOpts::default());
    for i in 0..40 {
        env.call(&stub, "bump", &[])
            .unwrap_or_else(|e| panic!("call {i} during migration failed: {e}"));
    }
    let event = handle.join().expect("migration must complete");
    assert_eq!(event.to_shard, target);
    assert_eq!(router.shard_of(&victim), target);

    // 5 pre-move + 40 through-move calls, every one exactly once, on an
    // instance whose state crossed shards intact.
    assert_eq!(router.field_value(&victim, "n"), Some(45));
    let post_version = router.doc_version(&victim).expect("version");
    assert!(post_version >= pre_version);

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// Killing the source mid-migration degrades into the unplanned
/// failover path: the move aborts (failover won), the promoted
/// follower serves the class, and clients keep succeeding.
#[test]
fn source_death_mid_migration_degrades_into_failover() {
    const SHARDS: usize = 2;
    let wal_root = temp_root("rb-kill");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-kill");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbKill");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let (victim, home) = classes[0].clone();
    let target = (home + 1) % SHARDS;
    let env = resilient_env(19);
    let stub = env.connect_soap(&router.wsdl_url(&victim)).expect("stub");
    for _ in 0..3 {
        env.call(&stub, "bump", &[]).expect("pre-kill call");
    }

    // A long settle dwell holds the migration between catch-up and
    // drain; the kill lands inside that window, so the migration must
    // observe the failover and stand down.
    let handle = router.begin_move(
        &victim,
        target,
        MoveOpts {
            settle: Duration::from_secs(5),
        },
    );
    std::thread::sleep(Duration::from_millis(50));
    router.kill_shard(home);
    let err = handle.join().expect_err("failover must win over the move");
    assert!(
        err.to_string().contains("failover won") || err.to_string().contains("failed over"),
        "unexpected migration error: {err}"
    );

    assert!(
        router.wait_converged(Duration::from_secs(10)),
        "fleet must reconverge via failover"
    );
    let failover = router.last_failover().expect("failover event");
    assert_eq!(failover.shard, home);
    assert_eq!(
        router.shard_of(&victim),
        home,
        "class stays on its (promoted) home shard"
    );

    // Clients keep succeeding against the promoted backend.
    for _ in 0..3 {
        env.call(&stub, "bump", &[]).expect("post-failover call");
    }

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// A cancelled migration is a perfect no-op: routes identical, the
/// source shard's WAL byte-identical, document versions unchanged, and
/// calls flow as if nothing happened.
#[test]
fn cancelled_migration_leaves_source_wal_and_routes_byte_identical() {
    const SHARDS: usize = 2;
    let wal_root = temp_root("rb-cancel");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-cancel");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbCancel");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let (victim, home) = classes[0].clone();
    let target = (home + 1) % SHARDS;
    let env = resilient_env(23);
    let stub = env.connect_soap(&router.wsdl_url(&victim)).expect("stub");
    for _ in 0..4 {
        env.call(&stub, "bump", &[]).expect("pre-cancel call");
    }

    let leader_dir = wal_root.join(format!("s{home}-leader"));
    let pre_wal = dir_bytes(&leader_dir);
    assert!(!pre_wal.is_empty(), "source WAL must have content");
    let pre_routes = router.assignments();
    let pre_version = router.doc_version(&victim).expect("version");

    let handle = router.begin_move(
        &victim,
        target,
        MoveOpts {
            settle: Duration::from_secs(30),
        },
    );
    std::thread::sleep(Duration::from_millis(50));
    handle.cancel();
    let err = handle.join().expect_err("cancel must abort the move");
    assert!(err.to_string().contains("cancelled"), "got: {err}");

    assert_eq!(router.assignments(), pre_routes, "routes untouched");
    assert_eq!(
        dir_bytes(&leader_dir),
        pre_wal,
        "source WAL byte-identical after cancel"
    );
    assert_eq!(router.doc_version(&victim), Some(pre_version));
    assert_eq!(router.shard_of(&victim), home);
    env.call(&stub, "bump", &[]).expect("post-cancel call");
    assert_eq!(router.field_value(&victim, "n"), Some(5));

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// A cancel wakes a migration parked in a long settle dwell: `join`
/// returns at once instead of when the dwell ends, and the source is
/// left byte-identical.
#[test]
fn cancel_during_a_long_settle_returns_promptly() {
    const SHARDS: usize = 2;
    let wal_root = temp_root("rb-cancel-fast");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-cancel-fast");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbFast");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let (victim, home) = classes[0].clone();
    let leader_dir = wal_root.join(format!("s{home}-leader"));
    let pre_wal = dir_bytes(&leader_dir);
    let pre_routes = router.assignments();
    let handle = router.begin_move(
        &victim,
        (home + 1) % SHARDS,
        MoveOpts {
            settle: Duration::from_secs(10),
        },
    );
    // Catch-up takes a few milliseconds; by now the move is settling.
    std::thread::sleep(Duration::from_millis(200));
    let cancelled_at = Instant::now();
    handle.cancel();
    let err = handle.join().expect_err("cancel must abort the move");
    let took = cancelled_at.elapsed();
    assert!(err.to_string().contains("cancelled"), "got: {err}");
    assert!(
        took < Duration::from_millis(100),
        "join took {took:?} after cancel"
    );
    assert_eq!(router.assignments(), pre_routes, "routes untouched");
    assert_eq!(
        dir_bytes(&leader_dir),
        pre_wal,
        "source WAL byte-identical after cancel"
    );

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// A rolling restart bounces every shard to a fresh generation with
/// zero failed calls: classes drain to neighbor shards, the empty
/// shard restarts, and the displaced classes move home — instance
/// state surviving *two* migrations per class.
#[test]
fn rolling_restart_bumps_every_generation_and_loses_nothing() {
    const SHARDS: usize = 3;
    let wal_root = temp_root("rb-roll");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-roll");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbRoll");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let env = resilient_env(29);
    let stubs: Vec<(String, std::sync::Arc<live_rmi::cde::DynamicStub>)> = classes
        .iter()
        .map(|(name, _)| {
            let stub = env.connect_soap(&router.wsdl_url(name)).expect("stub");
            (name.clone(), stub)
        })
        .collect();
    for (_, stub) in &stubs {
        for _ in 0..3 {
            env.call(stub, "bump", &[]).expect("pre-restart call");
        }
    }

    let events = router.rolling_restart().expect("rolling restart");
    assert!(
        events.len() >= classes.len() * 2,
        "every class moves away and back: {} events",
        events.len()
    );
    for status in router.status() {
        assert!(status.alive);
        assert_eq!(
            status.generation, 1,
            "shard {} must be on a fresh generation",
            status.id
        );
    }
    // Every class is back at its ring home, with its state intact
    // after two migrations.
    for (name, home) in &classes {
        assert_eq!(router.shard_of(name), *home, "{name} back home");
        assert_eq!(router.field_value(name, "n"), Some(3), "{name} state kept");
    }
    // And the restarted fleet still serves.
    for (_, stub) in &stubs {
        env.call(stub, "bump", &[]).expect("post-restart call");
    }

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}
