//! Rebalance chaos sweep: a planned class migration under injected
//! faults.
//!
//! Deploys the same router fleet as the kill-shard sweep, installs the
//! mixed fault plan against the front, and — instead of killing a
//! shard — *moves* one class to another shard mid-sweep while the
//! client keeps calling. The bar is strictly higher than failover's:
//! `failed_calls == 0` **and** fleet-wide `executions == calls`
//! *exactly* (a planned move carries the live instance and the reply
//! cache, so unlike a crash nothing ever resets), documents stay
//! version-monotonic, and the drain pause — the only client-visible
//! cost — stays bounded. Binary: `chaos_sweep --rebalance`.

use std::time::Duration;

use router::{ClassSpec, HashRing, MoveOpts, Router, RouterConfig};
use sde::TransportKind;

/// Parameters for the rebalance sweep.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceConfig {
    /// Calls per sweep point (across all classes, round-robin).
    pub calls: usize,
    /// Shards in the fleet.
    pub shards: usize,
    /// Transport under test.
    pub transport: TransportKind,
    /// Seed for the fault plan and the router's Retry-After jitter.
    pub seed: u64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            calls: 90,
            shards: 3,
            transport: TransportKind::Mem,
            seed: 2024,
        }
    }
}

/// One sweep point: N calls at one fault rate with one class migrated
/// mid-sweep.
#[derive(Debug, Clone)]
pub struct RebalancePoint {
    pub fault_rate: f64,
    pub calls: usize,
    pub ok: usize,
    /// `calls - ok`; the gate is zero.
    pub failed_calls: usize,
    /// Retry attempts spent across all calls.
    pub retries: u64,
    /// Calls the front gate parked (503) while the class drained.
    pub parked: u64,
    /// Fleet-wide executions. A planned move carries instance state,
    /// so this must equal `ok` exactly — no crash-style resets.
    pub effects: u64,
    pub exactly_once: bool,
    /// The migrated class's document republished at `version >=
    /// pre-move`.
    pub versions_monotonic: bool,
    /// WAL streaming while the source still served.
    pub catchup_ms: f64,
    /// Drain start → quiescence + exact WAL convergence.
    pub drain_ms: f64,
    /// Export, floor transfer, import, republish, route swap.
    pub handoff_ms: f64,
    pub total_ms: f64,
}

fn counter_source(name: &str) -> String {
    format!(
        "class {name} {{ field int n; distributed int bump() {{ \
         this.n = this.n + 1; return this.n; }} }}"
    )
}

/// Picks class names until every shard owns at least two, mirroring the
/// router's ring so the sweep knows each class's home up front.
fn pick_classes(shards: usize, vnodes: usize) -> Vec<(String, usize)> {
    let ring = HashRing::new(shards, vnodes);
    let mut per_shard = vec![0usize; shards];
    let mut picked = Vec::new();
    for i in 0.. {
        let name = format!("RbCounter{i}");
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

/// Runs one rebalance point: fleet up, faults on, move a class
/// mid-sweep, keep calling, account.
pub fn run_rebalance_point(cfg: &RebalanceConfig, fault_rate: f64) -> RebalancePoint {
    static POINT_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = POINT_SEQ.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let wal_root =
        std::env::temp_dir().join(format!("live-rmi-rebalance-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);

    let mut rcfg = RouterConfig::new(
        cfg.shards,
        cfg.transport,
        &wal_root,
        format!("rb{}-{seq}", std::process::id()),
    );
    rcfg.seed = cfg.seed;
    let vnodes = rcfg.vnodes;
    let classes = pick_classes(cfg.shards, vnodes);
    let specs: Vec<ClassSpec> = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(rcfg, specs).expect("router start");
    assert!(
        router.wait_converged(Duration::from_secs(10)),
        "fleet must converge before the sweep"
    );

    // The hottest-by-construction class: the first one, moved one shard
    // over.
    let (victim, home) = classes[0].clone();
    let target = (home + 1) % cfg.shards;

    let policy = cde::ResiliencePolicy::seeded(cfg.seed)
        .with_request_timeout(Duration::from_millis(250))
        .with_max_attempts(10)
        .with_deadline(Duration::from_secs(8))
        .with_breaker(256, Duration::from_millis(500));
    let env = cde::ClientEnvironment::with_policy(policy);
    let stubs: Vec<(String, std::sync::Arc<cde::DynamicStub>)> = classes
        .iter()
        .map(|(name, _)| {
            let stub = env.connect_soap(&router.wsdl_url(name)).expect("stub");
            (name.clone(), stub)
        })
        .collect();
    for (_, stub) in &stubs {
        env.call(stub, "bump", &[]).expect("prime call");
        assert!(stub.server_caches(), "server must advertise reply cache");
    }
    let primed = stubs.len();
    assert!(
        cfg.calls > primed * 3,
        "need enough calls to surround the move point"
    );
    let pre_version = router.doc_version(&victim).expect("doc version");

    let front_authority = authority_of(&router.front_url());
    if fault_rate > 0.0 {
        httpd::FaultPlan::seeded(cfg.seed)
            .rule(httpd::FaultRule::delay(
                &front_authority,
                fault_rate * 0.20,
                Duration::from_millis(1),
                Duration::from_millis(1),
            ))
            .rule(httpd::FaultRule::truncate(
                &front_authority,
                fault_rate * 0.15,
                40,
            ))
            .rule(httpd::FaultRule::corrupt(
                &front_authority,
                fault_rate * 0.15,
                2,
            ))
            .rule(httpd::FaultRule::disconnect(
                &front_authority,
                fault_rate * 0.10,
                10,
            ))
            .rule(httpd::FaultRule::refuse(
                &front_authority,
                fault_rate * 0.15,
            ))
            .rule(httpd::FaultRule::drop_reply(&front_authority, fault_rate * 0.25).on_accept())
            .install();
        for (_, stub) in &stubs {
            stub.drop_pooled_connections();
        }
    }

    let snapshot = obs::registry().snapshot();
    let retries_before = snapshot.counter("rmi_retries_total");
    let parked_before = snapshot.counter("router_drain_parked_total");

    // Start the move at a seeded point in the middle third of the
    // sweep; the workload keeps hammering every class throughout.
    let span = (cfg.calls - primed) / 3;
    let move_at = primed + span + (cfg.seed as usize % span.max(1));
    let mut handle = None;
    let mut ok = primed;
    for i in primed..cfg.calls {
        if i == move_at {
            handle = Some(router.begin_move(&victim, target, MoveOpts::default()));
        }
        let (_, stub) = &stubs[i % stubs.len()];
        if fault_rate > 0.0 && i % 4 == 0 {
            stub.drop_pooled_connections();
        }
        if env.call(stub, "bump", &[]).is_ok() {
            ok += 1;
        }
    }
    let event = handle
        .expect("move started")
        .join()
        .expect("migration must complete");
    httpd::fault::clear();

    let snapshot = obs::registry().snapshot();
    let retries = snapshot.counter("rmi_retries_total") - retries_before;
    let parked = snapshot.counter("router_drain_parked_total") - parked_before;

    assert!(
        router.wait_converged(Duration::from_secs(10)),
        "fleet must reconverge after the move"
    );
    assert_eq!(router.shard_of(&victim), target, "class re-homed");

    // Fleet-wide executions: with state carried across the move, every
    // counter holds its full history — no pre-move snapshots needed.
    let mut effects = 0u64;
    for (name, _) in &stubs {
        effects += router.field_value(name, "n").expect("counter value") as u64;
    }
    let versions_monotonic = router.doc_version(&victim).expect("doc version") >= pre_version;

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);

    RebalancePoint {
        fault_rate,
        calls: cfg.calls,
        ok,
        failed_calls: cfg.calls - ok,
        retries,
        parked,
        effects,
        exactly_once: effects == ok as u64,
        versions_monotonic,
        catchup_ms: event.catchup_ms,
        drain_ms: event.drain_ms,
        handoff_ms: event.handoff_ms,
        total_ms: event.total_ms,
    }
}

/// Runs the sweep over `rates`.
pub fn run_rebalance_sweep(cfg: &RebalanceConfig, rates: &[f64]) -> Vec<RebalancePoint> {
    rates.iter().map(|&r| run_rebalance_point(cfg, r)).collect()
}

/// p95 of the drain pauses (max for small sweeps).
pub fn drain_p95_ms(points: &[RebalancePoint]) -> f64 {
    p95_ms(points.iter().map(|p| p.drain_ms))
}

/// p95 of the handoff phases (max for small sweeps).
pub fn handoff_p95_ms(points: &[RebalancePoint]) -> f64 {
    p95_ms(points.iter().map(|p| p.handoff_ms))
}

fn p95_ms(samples: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = samples.filter(|m| m.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[((v.len() - 1) as f64 * 0.95).round() as usize]
}

/// Renders the sweep as the EXPERIMENTS.md rebalance table.
pub fn render_rebalance(points: &[RebalancePoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.fault_rate * 100.0),
                p.calls.to_string(),
                p.failed_calls.to_string(),
                p.effects.to_string(),
                if p.exactly_once {
                    "yes".into()
                } else {
                    "VIOLATED".into()
                },
                if p.versions_monotonic {
                    "yes".into()
                } else {
                    "VIOLATED".into()
                },
                p.parked.to_string(),
                format!("{:.1}", p.catchup_ms),
                format!("{:.1}", p.drain_ms),
                format!("{:.1}", p.handoff_ms),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "fault rate",
            "calls",
            "failed",
            "executions",
            "exactly-once",
            "versions >=",
            "parked",
            "catchup ms",
            "drain ms",
            "handoff ms",
        ],
        &rows,
    )
}

/// Renders the sweep as a JSON report (`--json <path>`).
pub fn rebalance_json(points: &[RebalancePoint], cfg: &RebalanceConfig, transport: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"bench\": \"chaos_sweep\",\n  \"mode\": \"rebalance\",\n");
    let _ = writeln!(
        out,
        "  \"transport\": \"{}\",",
        crate::json::escape(transport)
    );
    let _ = writeln!(out, "  \"shards\": {},", cfg.shards);
    let _ = writeln!(out, "  \"drain_p95_ms\": {:.3},", drain_p95_ms(points));
    let _ = writeln!(out, "  \"handoff_p95_ms\": {:.3},", handoff_p95_ms(points));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"fault_rate\": {:.3}, \"calls\": {}, \"ok\": {}, \"failed_calls\": {}, \
             \"retries\": {}, \"parked\": {}, \"effects\": {}, \"exactly_once\": {}, \
             \"versions_monotonic\": {}, \"catchup_ms\": {:.3}, \"drain_ms\": {:.3}, \
             \"handoff_ms\": {:.3}, \"total_ms\": {:.3}}}{}",
            p.fault_rate,
            p.calls,
            p.ok,
            p.failed_calls,
            p.retries,
            p.parked,
            p.effects,
            p.exactly_once,
            p.versions_monotonic,
            p.catchup_ms,
            p.drain_ms,
            p.handoff_ms,
            p.total_ms,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_and_table_are_well_formed() {
        let p = RebalancePoint {
            fault_rate: 0.2,
            calls: 90,
            ok: 90,
            failed_calls: 0,
            retries: 12,
            parked: 4,
            effects: 90,
            exactly_once: true,
            versions_monotonic: true,
            catchup_ms: 3.0,
            drain_ms: 12.5,
            handoff_ms: 6.0,
            total_ms: 22.0,
        };
        let cfg = RebalanceConfig::default();
        let table = render_rebalance(std::slice::from_ref(&p));
        assert!(table.contains("exactly-once"));
        assert!(table.contains("drain ms"));
        let json = rebalance_json(std::slice::from_ref(&p), &cfg, "mem");
        assert!(json.contains("\"mode\": \"rebalance\""));
        assert!(json.contains("\"drain_p95_ms\": 12.500"));
        assert!(json.contains("\"handoff_p95_ms\": 6.000"));
        assert!(json.contains("\"failed_calls\": 0"));
    }

    #[test]
    fn rebalance_point_at_zero_faults_is_perfect() {
        let cfg = RebalanceConfig {
            calls: 40,
            ..RebalanceConfig::default()
        };
        let p = run_rebalance_point(&cfg, 0.0);
        assert_eq!(p.failed_calls, 0, "zero failed calls across the move");
        assert!(p.exactly_once, "executions == calls exactly, state carried");
        assert!(p.versions_monotonic);
        assert!(p.drain_ms.is_finite() && p.drain_ms < 2_000.0);
    }
}
