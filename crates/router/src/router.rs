//! The router proper: shard lifecycle, the front HTTP proxy, health
//! checking, and the failover state machine.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cde::{BreakerState, CircuitBreaker};
use corba::Ior;
use httpd::{
    ConnectionPool, DrainGate, Handler, HttpClient, HttpServer, Method, Request, Response, Status,
};
use jpie::Value;
use obs::rng::XorShift64;
use obs::sync::{Mutex, Notify, RwLock};
use sde::{PublicationStrategy, SdeConfig, SdeManager, SdeServerGateway, TransportKind};
use sde::{WalFollower, WalReplicator};

use crate::migrate::{self, MigrationCtl, MigrationEvent, MigrationHandle, MoveOpts};
use crate::proxy::GiopProxy;
use crate::ring::HashRing;

/// Which wire a class serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// SOAP over HTTP (WSDL interface document).
    Soap,
    /// CORBA/GIOP (IDL + IOR interface documents).
    Corba,
}

/// A class the fleet serves: name, jpie source, and wire. The source
/// travels with the router so a promoted follower can rebuild the class
/// from scratch — its version floor then genuinely comes from the
/// replicated WAL, not from shared in-memory state.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    pub name: String,
    pub source: String,
    pub wire: Wire,
}

impl ClassSpec {
    /// A SOAP-served class.
    pub fn soap(name: impl Into<String>, source: impl Into<String>) -> ClassSpec {
        ClassSpec {
            name: name.into(),
            source: source.into(),
            wire: Wire::Soap,
        }
    }

    /// A CORBA-served class.
    pub fn corba(name: impl Into<String>, source: impl Into<String>) -> ClassSpec {
        ClassSpec {
            name: name.into(),
            source: source.into(),
            wire: Wire::Corba,
        }
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of shards (each gets a leader backend + a WAL follower).
    pub shards: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Transport for every bound address.
    pub transport: TransportKind,
    /// Root directory for per-shard WALs and replicas.
    pub wal_root: PathBuf,
    /// Distinguishes this router's `mem://` namespace; must be unique
    /// per live router in a process.
    pub tag: String,
    /// Interval between health probes of each shard.
    pub health_interval: Duration,
    /// Consecutive failure signals (probe or forward) that open a
    /// shard's breaker and trigger failover.
    pub failure_threshold: u32,
    /// Probe connect timeout.
    pub probe_timeout: Duration,
    /// Bound on the drain phase of a planned migration: quiescence
    /// (zero in-flight calls on the moving class) must be reached
    /// within this window or the migration aborts with the source
    /// untouched.
    pub drain_deadline: Duration,
    /// Base Retry-After hint handed to clients parked by a drain or a
    /// failover. Each response adds seeded jitter in `[0, base)` so a
    /// parked herd does not reconverge on the new backend in one
    /// synchronized wave.
    pub retry_after: Duration,
    /// Seed for the Retry-After jitter stream (deterministic runs).
    pub seed: u64,
    /// Optional per-shard vnode weights — relative placement capacity.
    /// `None` means a uniform `vnodes` points per shard; a zero weight
    /// keeps the shard running but homes no classes on it.
    pub weights: Option<Vec<usize>>,
}

impl RouterConfig {
    /// Defaults tuned for sub-second failover: 20ms probes, breaker
    /// opens on the 2nd consecutive failure.
    pub fn new(
        shards: usize,
        transport: TransportKind,
        wal_root: impl Into<PathBuf>,
        tag: impl Into<String>,
    ) -> RouterConfig {
        RouterConfig {
            shards,
            vnodes: 32,
            transport,
            wal_root: wal_root.into(),
            tag: tag.into(),
            health_interval: Duration::from_millis(20),
            failure_threshold: 2,
            probe_timeout: Duration::from_millis(100),
            drain_deadline: Duration::from_secs(2),
            retry_after: Duration::from_millis(25),
            seed: 0x5DE0_2005,
            weights: None,
        }
    }
}

/// Router failures.
#[derive(Debug)]
pub struct RouterError(pub String);

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "router: {}", self.0)
    }
}

impl std::error::Error for RouterError {}

pub(crate) fn rerr(e: impl std::fmt::Display) -> RouterError {
    RouterError(e.to_string())
}

/// One completed failover, with its phase latencies.
#[derive(Debug, Clone)]
pub struct FailoverEvent {
    pub shard: usize,
    /// Generation the shard was promoted to.
    pub generation: u64,
    /// Kill (or first failure signal) → failover start.
    pub detect_ms: f64,
    /// WAL adoption + replay on the promoted follower.
    pub replay_ms: f64,
    /// Class redeploys + forced republication + route swap.
    pub republish_ms: f64,
    /// detect + replay + republish.
    pub total_ms: f64,
    pub classes: Vec<String>,
}

/// A point-in-time view of one shard, for the REPL `shards` command
/// and the chaos sweep.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    pub id: usize,
    pub generation: u64,
    pub alive: bool,
    pub doc_authority: String,
    pub classes: Vec<String>,
    /// Records in the leader's WAL.
    pub leader_records: u64,
    /// Records the follower has durably applied.
    pub follower_records: u64,
    pub follower_connected: bool,
    /// Replication lag in records (leader − follower).
    pub lag_records: u64,
}

/// One live backend process-equivalent: an SDE manager plus its
/// replication chain.
pub(crate) struct Backend {
    pub(crate) manager: Arc<SdeManager>,
    pub(crate) doc_authority: String,
    /// Backend SOAP endpoint per class: (authority, full URL).
    pub(crate) soap_endpoints: HashMap<String, (String, String)>,
    pub(crate) replicator: WalReplicator,
    pub(crate) follower: Option<WalFollower>,
    pub(crate) follower_dir: PathBuf,
}

pub(crate) struct Shard {
    pub(crate) generation: u64,
    pub(crate) classes: Vec<ClassSpec>,
    pub(crate) backend: Backend,
    pub(crate) dead: bool,
}

/// What the front handler needs per class, snapshotted under RwLock so
/// the hot path never touches a shard mutex.
#[derive(Clone)]
pub(crate) struct Route {
    pub(crate) shard: usize,
    pub(crate) wire: Wire,
    pub(crate) doc_authority: String,
    /// Authority of the backend SOAP endpoint (forward target).
    pub(crate) soap_authority: String,
    /// Full backend endpoint URL (the needle rewritten out of WSDL).
    pub(crate) soap_url: String,
}

/// Per-class admission at the front proxy: the shared [`DrainGate`]
/// (Matevska-Meyer quiescence, at the routing tier) plus the count of
/// calls it refused.
#[derive(Default)]
pub(crate) struct ClassGate {
    pub(crate) gate: DrainGate,
    /// Calls answered 503 while draining (the "pause" the client saw).
    pub(crate) parked: AtomicU64,
}

pub(crate) struct RouterInner {
    pub(crate) cfg: RouterConfig,
    pub(crate) ring: HashRing,
    pub(crate) shards: Vec<Mutex<Shard>>,
    pub(crate) routes: RwLock<HashMap<String, Route>>,
    /// Stable GIOP front per CORBA class.
    pub(crate) giop: HashMap<String, Arc<GiopProxy>>,
    pub(crate) pool: ConnectionPool,
    pub(crate) front_base: RwLock<String>,
    pub(crate) breakers: Vec<RwLock<Arc<CircuitBreaker>>>,
    pub(crate) failing_over: Vec<AtomicBool>,
    /// First failure signal per shard since the last success, for the
    /// detect segment of failover latency.
    pub(crate) suspected_at: Vec<Mutex<Option<Instant>>>,
    pub(crate) last_failover: Mutex<Option<FailoverEvent>>,
    /// Front admission gates for planned drains, one per class.
    pub(crate) class_gates: RwLock<HashMap<String, Arc<ClassGate>>>,
    /// Pool generations already purged, per shard. Failover purges a
    /// retired generation wholesale; a migration's deferred purge
    /// consults this set (and the live generation) first, so the two
    /// paths can race without ever double-purging connections a newer
    /// healthy backend has since warmed at a reused authority.
    pub(crate) purged_gens: Vec<Mutex<HashSet<u64>>>,
    /// Serializes planned operations (one migration at a time).
    pub(crate) migration_lock: Mutex<()>,
    pub(crate) migration_seq: AtomicU64,
    pub(crate) last_migration: Mutex<Option<MigrationEvent>>,
    /// Seeded jitter stream for Retry-After hints.
    pub(crate) retry_jitter: Mutex<XorShift64>,
    pub(crate) stop: AtomicBool,
    /// Raised on fleet state changes a waiter may be blocked on: stop,
    /// a failover starting or finishing, a restart finishing, a
    /// migration cancel.
    pub(crate) events: Arc<Notify>,
}

/// The sharded authority router.
pub struct Router {
    inner: Arc<RouterInner>,
    front: HttpServer,
    health: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("front", &self.front.base_url())
            .field("shards", &self.inner.cfg.shards)
            .finish_non_exhaustive()
    }
}

pub(crate) fn fresh_addr(transport: TransportKind, tag: &str, what: &str) -> String {
    match transport {
        TransportKind::Mem => format!("mem://rt-{tag}-{what}"),
        TransportKind::Tcp => "tcp://127.0.0.1:0".to_string(),
    }
}

impl Router {
    /// Starts the fleet: one leader + follower per shard, classes
    /// assigned by the ring, both wire fronts bound, health loop
    /// running.
    ///
    /// # Errors
    ///
    /// Fails if any address cannot be bound or any class source does
    /// not parse.
    pub fn start(cfg: RouterConfig, classes: Vec<ClassSpec>) -> Result<Router, RouterError> {
        std::fs::create_dir_all(&cfg.wal_root).map_err(rerr)?;
        let ring = match &cfg.weights {
            Some(weights) => {
                if weights.len() != cfg.shards {
                    return Err(rerr(format!(
                        "weights has {} entries for {} shards",
                        weights.len(),
                        cfg.shards
                    )));
                }
                HashRing::with_weights(weights)
            }
            None => HashRing::new(cfg.shards, cfg.vnodes),
        };
        let mut per_shard: Vec<Vec<ClassSpec>> = (0..cfg.shards).map(|_| Vec::new()).collect();
        for spec in classes {
            per_shard[ring.shard_for(&spec.name)].push(spec);
        }

        let mut shards = Vec::with_capacity(cfg.shards);
        let mut routes = HashMap::new();
        let mut giop = HashMap::new();
        let mut breakers = Vec::with_capacity(cfg.shards);
        for (i, specs) in per_shard.into_iter().enumerate() {
            let ifc_addr = fresh_addr(cfg.transport, &cfg.tag, &format!("s{i}g0-ifc"));
            let leader_dir = cfg.wal_root.join(format!("s{i}-leader"));
            let manager = Arc::new(
                SdeManager::with_interface_addr(
                    SdeConfig {
                        transport: cfg.transport,
                        strategy: PublicationStrategy::ChangeDriven,
                        wal_dir: Some(leader_dir),
                    },
                    &ifc_addr,
                )
                .map_err(rerr)?,
            );
            let backend = start_backend(&cfg, i, 0, &specs, manager)?;
            for spec in &specs {
                if spec.wire == Wire::Corba {
                    let orb = backend
                        .manager
                        .corba_server(&spec.name)
                        .map(|s| s.ior().address)
                        .ok_or_else(|| rerr(format!("{} has no ORB", spec.name)))?;
                    let front_addr =
                        fresh_addr(cfg.transport, &cfg.tag, &format!("giop-{}", spec.name));
                    giop.insert(
                        spec.name.clone(),
                        GiopProxy::start(&front_addr, orb).map_err(rerr)?,
                    );
                }
                routes.insert(spec.name.clone(), route_for(i, spec, &backend));
            }
            breakers.push(RwLock::new(Arc::new(CircuitBreaker::new(
                &backend.doc_authority,
                cfg.failure_threshold,
                Duration::from_millis(100),
            ))));
            shards.push(Mutex::new(Shard {
                generation: 0,
                classes: specs,
                backend,
                dead: false,
            }));
        }

        let inner = Arc::new(RouterInner {
            ring,
            shards,
            routes: RwLock::new(routes),
            giop,
            pool: ConnectionPool::new(HttpClient::new().with_read_timeout(Duration::from_secs(5))),
            front_base: RwLock::new(String::new()),
            breakers,
            failing_over: (0..cfg.shards).map(|_| AtomicBool::new(false)).collect(),
            suspected_at: (0..cfg.shards).map(|_| Mutex::new(None)).collect(),
            last_failover: Mutex::new(None),
            class_gates: RwLock::new(HashMap::new()),
            purged_gens: (0..cfg.shards)
                .map(|_| Mutex::new(HashSet::new()))
                .collect(),
            migration_lock: Mutex::new(()),
            migration_seq: AtomicU64::new(0),
            last_migration: Mutex::new(None),
            retry_jitter: Mutex::new(XorShift64::seed_from_u64(cfg.seed)),
            stop: AtomicBool::new(false),
            events: Arc::new(Notify::new()),
            cfg,
        });

        for (name, proxy) in &inner.giop {
            let weak = Arc::downgrade(&inner);
            let shard = inner.routes.read().get(name).expect("route exists").shard;
            proxy.set_on_error(Arc::new(move || {
                if let Some(inner) = weak.upgrade() {
                    inner.note_failure(shard);
                }
            }));
        }

        let front_addr = fresh_addr(inner.cfg.transport, &inner.cfg.tag, "front");
        let front = HttpServer::bind(
            &front_addr,
            FrontHandler {
                inner: inner.clone(),
            },
        )
        .map_err(rerr)?;
        *inner.front_base.write() = front.base_url();

        let health = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("router-health".into())
                .spawn(move || health_loop(&inner))
                .expect("spawn router health thread")
        };

        Ok(Router {
            inner,
            front,
            health: Mutex::new(Some(health)),
        })
    }

    /// The front base URL clients fetch documents from.
    pub fn front_url(&self) -> String {
        self.front.base_url()
    }

    /// Front WSDL URL for `class`.
    pub fn wsdl_url(&self, class: &str) -> String {
        format!("{}/{class}.wsdl", self.front.base_url())
    }

    /// Front IDL URL for `class`.
    pub fn idl_url(&self, class: &str) -> String {
        format!("{}/{class}.idl", self.front.base_url())
    }

    /// Front IOR URL for `class`.
    pub fn ior_url(&self, class: &str) -> String {
        format!("{}/{class}.ior", self.front.base_url())
    }

    /// The shard currently serving `class` — the routing table when
    /// the class is placed (migrations move placement away from its
    /// ring home), the ring otherwise.
    pub fn shard_of(&self, class: &str) -> usize {
        if let Some(route) = self.inner.routes.read().get(class) {
            return route.shard;
        }
        self.inner.ring.shard_for(class)
    }

    /// Ring assignments: (class, shard), sorted by class name.
    pub fn assignments(&self) -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> = self
            .inner
            .routes
            .read()
            .iter()
            .map(|(name, r)| (name.clone(), r.shard))
            .collect();
        v.sort();
        v
    }

    /// Kills shard `n`'s backend in place: the SDE process and its
    /// replication listener go away, exactly like a machine death. The
    /// follower (a separate process in real deployments) survives and
    /// the health loop drives promotion.
    pub fn kill_shard(&self, n: usize) {
        let shard = self.inner.shards[n].lock();
        shard.backend.manager.shutdown();
        shard.backend.replicator.shutdown();
        drop(shard);
        *self.inner.suspected_at[n].lock() = Some(Instant::now());
        obs::registry().counter("router_shards_killed_total").inc();
        obs::trace::event("router", "shard-killed", format!("shard={n}"));
    }

    /// Point-in-time status of every shard.
    pub fn status(&self) -> Vec<ShardStatus> {
        (0..self.inner.cfg.shards)
            .map(|i| {
                let shard = self.inner.shards[i].lock();
                let leader_records = shard
                    .backend
                    .manager
                    .wal()
                    .map(|w| w.record_count())
                    .unwrap_or(0);
                let (follower_records, follower_connected) = shard
                    .backend
                    .follower
                    .as_ref()
                    .map(|f| (f.records_applied(), f.is_connected()))
                    .unwrap_or((0, false));
                ShardStatus {
                    id: i,
                    generation: shard.generation,
                    alive: !shard.dead,
                    doc_authority: shard.backend.doc_authority.clone(),
                    classes: shard.classes.iter().map(|c| c.name.clone()).collect(),
                    leader_records,
                    follower_records,
                    follower_connected,
                    lag_records: leader_records.saturating_sub(follower_records),
                }
            })
            .collect()
    }

    /// The most recent completed failover, if any.
    pub fn last_failover(&self) -> Option<FailoverEvent> {
        self.inner.last_failover.lock().clone()
    }

    /// The most recent completed migration, if any.
    pub fn last_migration(&self) -> Option<MigrationEvent> {
        self.inner.last_migration.lock().clone()
    }

    /// Moves `class` to `to_shard` as a planned, loss-free operation:
    /// catch-up replication while the source keeps serving, a bounded
    /// drain to quiescence, then an atomic handoff of version floors,
    /// reply cache, instance state, documents and routes. Blocks until
    /// the migration completes (or aborts with the source untouched).
    ///
    /// # Errors
    ///
    /// Fails if the class is unknown, already home, the drain deadline
    /// expires, or a concurrent failover of the source wins the race —
    /// in every case clients keep getting served (by whichever shard
    /// won).
    pub fn move_class(&self, class: &str, to_shard: usize) -> Result<MigrationEvent, RouterError> {
        migrate::run_migration(
            &self.inner,
            class,
            to_shard,
            &MoveOpts::default(),
            &MigrationCtl::new(&self.inner),
        )
    }

    /// Starts `move_class` on its own thread and returns a cancellable
    /// handle. `opts.settle` inserts a dwell between catch-up and drain
    /// — the window chaos tests use to kill the source or cancel the
    /// move deterministically.
    pub fn begin_move(&self, class: &str, to_shard: usize, opts: MoveOpts) -> MigrationHandle {
        migrate::begin_move(&self.inner, class, to_shard, opts)
    }

    /// Drains shard `n`: migrates every class it serves to that
    /// class's ring placement with shard `n` excluded. After a
    /// successful drain the shard is alive but empty — ready for
    /// `rolling_restart` style maintenance.
    pub fn drain_shard(&self, n: usize) -> Result<Vec<MigrationEvent>, RouterError> {
        migrate::drain_shard(&self.inner, n)
    }

    /// Restarts every shard in sequence with zero failed calls: drain
    /// the shard, bounce its backend to a fresh generation, then move
    /// each displaced class whose ring home is the restarted shard
    /// back. Returns the migrations performed, in order.
    pub fn rolling_restart(&self) -> Result<Vec<MigrationEvent>, RouterError> {
        migrate::rolling_restart(&self.inner)
    }

    /// Current integer value of `field` on `class`'s live instance —
    /// the exactly-once accounting probe.
    pub fn field_value(&self, class: &str, field: &str) -> Option<i64> {
        let shard_id = self.inner.routes.read().get(class)?.shard;
        let shard = self.inner.shards[shard_id].lock();
        let m = &shard.backend.manager;
        let instance = m
            .soap_server(class)
            .and_then(|s| s.instance())
            .or_else(|| m.corba_server(class).and_then(|s| s.instance()))?;
        match instance.field(field).ok()? {
            Value::Int(n) => Some(i64::from(n)),
            Value::Long(n) => Some(n),
            _ => None,
        }
    }

    /// Published interface-document version for `class` on its current
    /// backend.
    pub fn doc_version(&self, class: &str) -> Option<u64> {
        let (shard_id, wire) = {
            let routes = self.inner.routes.read();
            let r = routes.get(class)?;
            (r.shard, r.wire)
        };
        let shard = self.inner.shards[shard_id].lock();
        let path = match wire {
            Wire::Soap => format!("/{class}.wsdl"),
            Wire::Corba => format!("/{class}.idl"),
        };
        shard.backend.manager.store().get(&path).map(|d| d.version)
    }

    /// Waits until every shard is alive with a connected, fully
    /// caught-up follower. Returns false on timeout.
    ///
    /// Each shard's follower is waited on directly (woken by its ACKs);
    /// while a shard is failing over or has no follower, the wait is on
    /// the router's fleet events instead.
    pub fn wait_converged(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if !self
                .inner
                .events
                .wait_until(Some(deadline), || self.fleet_settled())
            {
                return false;
            }
            let caught_up = (0..self.inner.cfg.shards).all(|i| {
                let (target, progress) = {
                    let shard = self.inner.shards[i].lock();
                    let target = shard.backend.manager.wal().map_or(0, |w| w.durable_len());
                    (
                        target,
                        shard.backend.follower.as_ref().map(|f| f.progress()),
                    )
                };
                progress.is_some_and(|p| {
                    p.wait_synced(target, deadline.saturating_duration_since(Instant::now()))
                })
            });
            if caught_up {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
        }
    }

    /// No shard dead, failing over, or without a follower.
    fn fleet_settled(&self) -> bool {
        !self
            .inner
            .failing_over
            .iter()
            .any(|f| f.load(Ordering::SeqCst))
            && self.inner.shards.iter().all(|s| {
                let shard = s.lock();
                !shard.dead && shard.backend.follower.is_some()
            })
    }

    /// Stops everything: health loop, fronts, every backend and
    /// follower.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.events.notify();
        if let Some(h) = self.health.lock().take() {
            let _ = h.join();
        }
        self.front.shutdown();
        for proxy in self.inner.giop.values() {
            proxy.shutdown();
        }
        for shard in &self.inner.shards {
            let mut shard = shard.lock();
            shard.backend.manager.shutdown();
            shard.backend.replicator.shutdown();
            if let Some(f) = shard.backend.follower.take() {
                f.stop();
            }
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

pub(crate) fn route_for(shard: usize, spec: &ClassSpec, backend: &Backend) -> Route {
    let (soap_authority, soap_url) = backend
        .soap_endpoints
        .get(&spec.name)
        .cloned()
        .unwrap_or_default();
    Route {
        shard,
        wire: spec.wire,
        doc_authority: backend.doc_authority.clone(),
        soap_authority,
        soap_url,
    }
}

/// Deploys `specs` on `manager` and wires the replication chain:
/// leader-side streamer plus a fresh follower replicating into
/// `s{shard}-replica-g{generation}`.
pub(crate) fn start_backend(
    cfg: &RouterConfig,
    shard: usize,
    generation: u64,
    specs: &[ClassSpec],
    manager: Arc<SdeManager>,
) -> Result<Backend, RouterError> {
    let mut soap_endpoints = HashMap::new();
    for spec in specs {
        let class = jpie::parse::parse_class(&spec.source)
            .map_err(|e| rerr(format!("{}: {e}", spec.name)))?;
        match spec.wire {
            Wire::Soap => {
                let server = manager.deploy_soap(class).map_err(rerr)?;
                server.create_instance().map_err(rerr)?;
                let url = server.endpoint_url();
                soap_endpoints.insert(spec.name.clone(), (authority_of(&url), url));
            }
            Wire::Corba => {
                let server = manager.deploy_corba(class).map_err(rerr)?;
                server.create_instance().map_err(rerr)?;
            }
        }
        // Publish the full document now: clients must never fetch a
        // pre-floor version from a promoted backend.
        manager.force_publish(&spec.name).map_err(rerr)?;
    }
    let wal = manager
        .wal()
        .ok_or_else(|| rerr("backend manager has no WAL"))?;
    let repl_addr = fresh_addr(
        cfg.transport,
        &cfg.tag,
        &format!("s{shard}g{generation}-repl"),
    );
    let replicator = WalReplicator::serve(wal, &repl_addr).map_err(rerr)?;
    let follower_dir = cfg.wal_root.join(format!("s{shard}-replica-g{generation}"));
    std::fs::create_dir_all(&follower_dir).map_err(rerr)?;
    let follower = WalFollower::start(replicator.addr(), &follower_dir.join("replica.wal"));
    Ok(Backend {
        doc_authority: manager.interface_server().base_url(),
        manager,
        soap_endpoints,
        replicator,
        follower: Some(follower),
        follower_dir,
    })
}

pub(crate) fn authority_of(url: &str) -> String {
    if let Some(scheme_end) = url.find("://") {
        let rest = &url[scheme_end + 3..];
        if let Some(slash) = rest.find('/') {
            return url[..scheme_end + 3 + slash].to_string();
        }
    }
    url.to_string()
}

impl RouterInner {
    /// Records a shard failure signal; opens the breaker and triggers
    /// failover once the threshold is crossed.
    pub(crate) fn note_failure(self: &Arc<RouterInner>, shard: usize) {
        if self.stop.load(Ordering::SeqCst) {
            return;
        }
        {
            let mut suspected = self.suspected_at[shard].lock();
            suspected.get_or_insert_with(Instant::now);
        }
        let breaker = self.breakers[shard].read().clone();
        breaker.on_failure();
        if breaker.state() == BreakerState::Open {
            self.trigger_failover(shard);
        }
    }

    fn note_success(&self, shard: usize) {
        *self.suspected_at[shard].lock() = None;
        self.breakers[shard].read().on_success();
    }

    /// The front admission gate for `class`, created on first use.
    pub(crate) fn class_gate(&self, class: &str) -> Arc<ClassGate> {
        if let Some(gate) = self.class_gates.read().get(class) {
            return gate.clone();
        }
        self.class_gates
            .write()
            .entry(class.to_string())
            .or_default()
            .clone()
    }

    /// Retry-After hint for a parked call: the configured base plus
    /// seeded jitter in `[0, base)`, so a herd of parked clients
    /// re-arrives spread over a full base-interval instead of as one
    /// synchronized wave.
    pub(crate) fn jittered_retry_after(&self) -> Duration {
        let base_ms = self.cfg.retry_after.as_millis().max(1) as u64;
        let extra = self.retry_jitter.lock().next_u64() % base_ms;
        Duration::from_millis(base_ms + extra)
    }

    /// Purges a retired generation's pooled connections wholesale,
    /// exactly once per (shard, generation): a failover racing a
    /// migration — or a duplicated failure signal — must not re-purge
    /// an authority a newer healthy generation has since re-bound and
    /// warmed.
    pub(crate) fn purge_retired_generation(
        &self,
        shard: usize,
        generation: u64,
        authorities: &[String],
    ) {
        if !self.purged_gens[shard].lock().insert(generation) {
            obs::registry()
                .counter("router_pool_purges_skipped_total")
                .inc();
            return;
        }
        for auth in authorities {
            self.pool.purge(auth);
        }
    }

    /// A migration's deferred purge of one authority, valid only while
    /// `generation` is still the shard's live generation. If a
    /// failover already retired (and purged) that generation, or the
    /// shard has moved on, this is a no-op — the connections at that
    /// authority now belong to someone else.
    pub(crate) fn purge_if_generation_live(&self, shard: usize, generation: u64, authority: &str) {
        if self.purged_gens[shard].lock().contains(&generation) {
            obs::registry()
                .counter("router_pool_purges_skipped_total")
                .inc();
            return;
        }
        let guard = self.shards[shard].lock();
        if guard.generation != generation {
            obs::registry()
                .counter("router_pool_purges_skipped_total")
                .inc();
            return;
        }
        self.pool.purge(authority);
    }

    /// Kicks off failover on a dedicated thread (callers hold no shard
    /// lock and must not block — this is called from the proxy hot
    /// path).
    fn trigger_failover(self: &Arc<RouterInner>, shard: usize) {
        if self.failing_over[shard]
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        // A migration waiting in its settle dwell re-checks whether its
        // source has been superseded.
        self.events.notify();
        let inner = self.clone();
        let _ = std::thread::Builder::new()
            .name(format!("router-failover-s{shard}"))
            .spawn(move || {
                let result = failover(&inner, shard);
                inner.failing_over[shard].store(false, Ordering::SeqCst);
                inner.events.notify();
                if let Err(e) = result {
                    obs::registry()
                        .counter("router_failover_errors_total")
                        .inc();
                    obs::trace::event("router", "failover-failed", format!("shard={shard} {e}"));
                }
            });
    }
}

/// The failover state machine: fence the dead leader, promote the
/// follower's replica under a fresh authority, redeploy + republish,
/// swap routes, re-arm replication.
fn failover(inner: &Arc<RouterInner>, shard_id: usize) -> Result<(), RouterError> {
    let started = Instant::now();
    let mut shard = inner.shards[shard_id].lock();
    let detect_ms = inner.suspected_at[shard_id]
        .lock()
        .map(|t| t.elapsed().as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    shard.dead = true;

    // Fence: the old backend must never serve (or replicate) again.
    shard.backend.manager.shutdown();
    shard.backend.replicator.shutdown();
    let follower_dir = shard.backend.follower_dir.clone();
    if let Some(f) = shard.backend.follower.take() {
        f.stop(); // joins; the replica file is durable and quiescent
    }
    let old_doc_authority = shard.backend.doc_authority.clone();
    let old_soap: Vec<String> = shard
        .backend
        .soap_endpoints
        .values()
        .map(|(auth, _)| auth.clone())
        .collect();

    // Replay: adopt the replica WAL under a brand-new authority.
    let generation = shard.generation + 1;
    let replay_started = Instant::now();
    let ifc_addr = fresh_addr(
        inner.cfg.transport,
        &inner.cfg.tag,
        &format!("s{shard_id}g{generation}-ifc"),
    );
    let manager = Arc::new(SdeManager::with_authority(&ifc_addr, &follower_dir).map_err(rerr)?);
    let replay_ms = replay_started.elapsed().as_secs_f64() * 1e3;

    // Republish: rebuild every class from source (floors come from the
    // replicated WAL via restore_version_floor), force-publish, swap
    // the routing table and the GIOP targets.
    let republish_started = Instant::now();
    let backend = start_backend(&inner.cfg, shard_id, generation, &shard.classes, manager)?;
    {
        let mut routes = inner.routes.write();
        for spec in &shard.classes {
            routes.insert(spec.name.clone(), route_for(shard_id, spec, &backend));
            if spec.wire == Wire::Corba {
                if let (Some(proxy), Some(server)) = (
                    inner.giop.get(&spec.name),
                    backend.manager.corba_server(&spec.name),
                ) {
                    proxy.set_target(server.ior().address);
                }
            }
        }
    }
    *inner.breakers[shard_id].write() = Arc::new(CircuitBreaker::new(
        &backend.doc_authority,
        inner.cfg.failure_threshold,
        Duration::from_millis(100),
    ));
    let mut retired = old_soap;
    retired.push(old_doc_authority);
    inner.purge_retired_generation(shard_id, shard.generation, &retired);
    let republish_ms = republish_started.elapsed().as_secs_f64() * 1e3;

    shard.generation = generation;
    shard.backend = backend;
    shard.dead = false;
    *inner.suspected_at[shard_id].lock() = None;
    drop(shard);

    let event = FailoverEvent {
        shard: shard_id,
        generation,
        detect_ms,
        replay_ms,
        republish_ms,
        total_ms: detect_ms + replay_ms + republish_ms,
        classes: {
            let shard = inner.shards[shard_id].lock();
            shard.classes.iter().map(|c| c.name.clone()).collect()
        },
    };
    obs::registry().counter("router_failovers_total").inc();
    obs::registry()
        .histogram("router_failover_ns")
        .record((event.total_ms * 1e6) as u64);
    obs::trace::event(
        "router",
        "failover",
        format!(
            "shard={shard_id} gen={generation} detect={:.1}ms replay={:.1}ms republish={:.1}ms",
            event.detect_ms, event.replay_ms, event.republish_ms
        ),
    );
    let _ = started; // total wall time folded into the event fields
    *inner.last_failover.lock() = Some(event);
    Ok(())
}

/// Probes every shard's interface server each interval; failures feed
/// the shard breaker exactly like forward failures do.
/// Health-probes a shard's interface server with a real HTTP request
/// (any response — even a 404 — counts as alive). A connect-only probe
/// is too weak: a listener left in `LISTEN` state keeps completing
/// handshakes into the kernel backlog, so a dead backend passes the
/// probe and every spurious success resets the failure breaker that
/// data-path errors are trying to open.
fn probe_shard(authority: &str, timeout: Duration) -> bool {
    HttpClient::new()
        .with_read_timeout(timeout)
        .head(&format!("{authority}/"))
        .is_ok()
}

fn health_loop(inner: &Arc<RouterInner>) {
    while !inner.stop.load(Ordering::SeqCst) {
        for i in 0..inner.cfg.shards {
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            if inner.failing_over[i].load(Ordering::SeqCst) {
                continue;
            }
            let authority = inner.shards[i].lock().backend.doc_authority.clone();
            obs::registry().counter("router_probes_total").inc();
            if probe_shard(&authority, inner.cfg.probe_timeout) {
                inner.note_success(i);
            } else {
                obs::registry().counter("router_probe_failures_total").inc();
                inner.note_failure(i);
            }
        }
        // The probe interval, cut short by `Router::shutdown`.
        let next_round = Instant::now() + inner.cfg.health_interval;
        inner
            .events
            .wait_until(Some(next_round), || inner.stop.load(Ordering::SeqCst));
    }
}

struct FrontHandler {
    inner: Arc<RouterInner>,
}

impl Handler for FrontHandler {
    fn handle(&self, req: &Request) -> Response {
        let path = req.path();
        let path = path.split('?').next().unwrap_or(path).to_string();
        if let Some(class) = doc_class(&path) {
            return self.proxy_doc(&class, &path, req);
        }
        if req.method() == Method::Post {
            return self.proxy_call(&path, req);
        }
        Response::not_found("router: unknown path")
    }
}

/// `/Calc.wsdl` → `Calc` (also `.idl` / `.ior`).
fn doc_class(path: &str) -> Option<String> {
    let name = path.strip_prefix('/')?;
    for ext in [".wsdl", ".idl", ".ior"] {
        if let Some(class) = name.strip_suffix(ext) {
            if !class.is_empty() && !class.contains('/') {
                return Some(class.to_string());
            }
        }
    }
    None
}

impl FrontHandler {
    /// Forwards an interface-document fetch to the owning shard,
    /// rewriting endpoint addresses so clients only ever see router
    /// addresses.
    fn proxy_doc(&self, class: &str, path: &str, req: &Request) -> Response {
        let Some(route) = self.inner.routes.read().get(class).cloned() else {
            return Response::not_found("router: unknown class");
        };
        let _span = obs::trace::span("router_doc_forward_ns");
        let mut fwd = if req.method() == Method::Head {
            Request::head(path)
        } else {
            Request::get(path)
        };
        if let Some(tag) = req.headers().get("If-None-Match") {
            fwd.headers_mut().set("If-None-Match", tag);
        }
        let resp = match self.inner.pool.send(&route.doc_authority, &fwd) {
            Ok(resp) => resp,
            Err(e) => return self.forward_failed(route.shard, "doc", &e),
        };
        self.inner.note_success(route.shard);
        obs::registry()
            .counter_with("router_forward_total", &[("kind", "doc")])
            .inc();
        let mut body = resp.body().to_vec();
        if resp.status() == 200 {
            if path.ends_with(".wsdl") && !route.soap_url.is_empty() {
                // The backend's WSDL advertises its own endpoint; clients
                // must call through the router instead.
                let front = self.inner.front_base.read().clone();
                body = String::from_utf8_lossy(&body)
                    .replace(&route.soap_url, &format!("{front}/{class}"))
                    .into_bytes();
            } else if path.ends_with(".ior") {
                // Same for the IOR: swap the backend ORB address for the
                // class's stable GIOP proxy front.
                if let (Some(proxy), Ok(text)) =
                    (self.inner.giop.get(class), std::str::from_utf8(&body))
                {
                    if let Ok(mut ior) = Ior::parse(text) {
                        ior.address = proxy.addr().to_string();
                        body = ior.to_ior_string().into_bytes();
                    }
                }
            }
        }
        rebuild_response(&resp, body)
    }

    /// Forwards a SOAP call to the owning shard's endpoint. Headers
    /// (call IDs ride in the SOAP body, trace context and reply-cache
    /// advertisement in headers) pass through both ways, so the
    /// exactly-once machinery is completely unaware of the proxy.
    fn proxy_call(&self, path: &str, req: &Request) -> Response {
        let class = path.trim_start_matches('/');
        let Some(route) = self.inner.routes.read().get(class).cloned() else {
            return Response::not_found("router: unknown class");
        };
        if route.wire != Wire::Soap || route.soap_authority.is_empty() {
            return Response::bad_request("router: not a SOAP class");
        }
        let gate = self.inner.class_gate(class);
        let resp = match gate.gate.admit() {
            Ok(_inside) => self.forward_call(&route, path, req),
            Err(_) => {
                gate.parked.fetch_add(1, Ordering::SeqCst);
                obs::registry().counter("router_drain_parked_total").inc();
                Response::unavailable(
                    "router: class migrating, retry shortly",
                    self.inner.jittered_retry_after(),
                )
            }
        };
        resp
    }

    fn forward_call(&self, route: &Route, path: &str, req: &Request) -> Response {
        let _span = obs::trace::span("router_call_forward_ns");
        let content_type = req.headers().get("Content-Type").unwrap_or("text/xml");
        let mut fwd = Request::post(path, req.body().to_vec(), content_type);
        copy_headers(req.headers(), fwd.headers_mut());
        let resp = match self.inner.pool.send(&route.soap_authority, &fwd) {
            Ok(resp) => resp,
            Err(e) => return self.forward_failed(route.shard, "call", &e),
        };
        self.inner.note_success(route.shard);
        obs::registry()
            .counter_with("router_forward_total", &[("kind", "call")])
            .inc();
        rebuild_response(&resp, resp.body().to_vec())
    }

    /// A forward that failed at the transport level: the backend either
    /// never saw the call or executed it on in-memory state that dies
    /// with the shard — so answering 503 (retry shortly) preserves
    /// exactly-once over surviving state, and the failure doubles as a
    /// health signal.
    fn forward_failed(&self, shard: usize, kind: &str, e: &httpd::HttpError) -> Response {
        obs::registry()
            .counter_with("router_forward_errors_total", &[("kind", kind)])
            .inc();
        obs::trace::event("router", "forward-failed", format!("shard={shard} {e}"));
        self.inner.note_failure(shard);
        Response::unavailable(
            "router: shard failing over",
            self.inner.jittered_retry_after(),
        )
    }
}

/// Copies headers across a proxy hop, skipping the ones that describe
/// the connection rather than the message.
fn copy_headers(src: &httpd::Headers, dst: &mut httpd::Headers) {
    for (name, value) in src.iter() {
        let hop = name.eq_ignore_ascii_case("host")
            || name.eq_ignore_ascii_case("content-length")
            || name.eq_ignore_ascii_case("content-type")
            || name.eq_ignore_ascii_case("connection");
        if !hop {
            dst.set(name, value);
        }
    }
}

fn rebuild_response(resp: &Response, body: Vec<u8>) -> Response {
    let content_type = resp
        .headers()
        .get("Content-Type")
        .unwrap_or("application/octet-stream")
        .to_string();
    let mut out = Response::new(Status(resp.status()), body, &content_type);
    copy_headers(resp.headers(), out.headers_mut());
    out
}
