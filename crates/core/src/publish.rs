//! The DL Publisher: detection of stable server-interface changes (§5.6)
//! and reactive forced publication (§5.7).
//!
//! This module is the heart of the paper. A [`PublisherCore`] watches a
//! dynamic class and regenerates/publishes its interface description
//! (WSDL or CORBA-IDL) according to a [`PublicationStrategy`]:
//!
//! * [`PublicationStrategy::ChangeDriven`] — publish on every change to
//!   the distributed interface (the paper rejects this: it publishes
//!   transient interfaces and is expensive),
//! * [`PublicationStrategy::Periodic`] — poll at a fixed interval (also
//!   rejected: can still publish a transient interface, which then
//!   persists at the client until the next poll),
//! * [`PublicationStrategy::StableTimeout`] — the paper's mechanism:
//!   change-driven, but waits for a *stable interval*. A change starts a
//!   countdown; further distributed-interface changes reset it; only when
//!   the timer expires is the new description generated and published.
//!
//! §5.6 details implemented exactly: the timer and the generation
//! operation are independent — the timer may expire *during* a generation,
//! in which case one follow-up generation runs as soon as the current one
//! finishes; the user can force timer expiry manually
//! ([`PublisherCore::force_publish`]); and a publication only happens when
//! the interface actually changed ("publishing if necessary").
//!
//! §5.7 is [`PublisherCore::ensure_current`]: when a call handler receives
//! a call to a stale method it stalls and prompts the publisher. The three
//! cases of the paper map directly onto the state here:
//! timer idle + no generation → already current (no work, which is what
//! makes a rogue client harmless); generation in progress + timer idle →
//! wait for it; generation in progress + timer running → the pending
//! changes are folded into a forced follow-up generation and we wait for
//! both. On return, the published description reflects every change made
//! before the call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use jpie::{ClassEvent, ClassHandle, SubscriptionId};
use obs::events::VersionEventKind;
use obs::metrics::{Counter, Histogram};
use obs::sync::{Condvar, Mutex};
use std::sync::mpsc::Receiver;

/// How the DL Publisher decides when to publish (§5.6 discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublicationStrategy {
    /// Publish immediately on every distributed-interface change.
    ChangeDriven,
    /// Publish at a fixed polling interval (if the interface changed).
    Periodic(Duration),
    /// The paper's mechanism: publish after the interface has been stable
    /// for the timeout.
    StableTimeout(Duration),
}

/// A generated interface description ready for publication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedDoc {
    /// The document text (WSDL XML or CORBA-IDL).
    pub text: String,
    /// The class interface version the document reflects.
    pub version: u64,
}

/// Produces the interface description from the current class state.
/// Implementations are the paper's WSDL Generator / IDL Generator.
pub type DocumentGenerator = dyn Fn() -> GeneratedDoc + Send + Sync + 'static;

/// Publication sink — receives each newly generated document (the
/// Interface Server, plus metrics).
pub type PublishSink = dyn Fn(&GeneratedDoc) + Send + Sync + 'static;

/// Counters exposed by a publisher (used by the §5.6 ablation and the
/// §5.7 rogue-client experiment).
#[derive(Debug, Default)]
pub struct PublisherMetrics {
    /// Completed generation operations.
    pub generations: AtomicU64,
    /// Documents actually handed to the Interface Server.
    pub publications: AtomicU64,
    /// `ensure_current` calls that had to force work (i.e. were not
    /// already current).
    pub forced: AtomicU64,
    /// `ensure_current` calls answered with no work at all.
    pub already_current: AtomicU64,
}

impl PublisherMetrics {
    /// Snapshot of (generations, publications, forced, already_current).
    ///
    /// `Relaxed` loads (matching the `Relaxed` increments): these atomics
    /// are pure statistics — publication state itself is synchronized by
    /// the publisher's mutex/condvar, never through these counters, so
    /// only their own atomicity matters.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.generations.load(Ordering::Relaxed),
            self.publications.load(Ordering::Relaxed),
            self.forced.load(Ordering::Relaxed),
            self.already_current.load(Ordering::Relaxed),
        )
    }
}

/// Global-registry mirrors of [`PublisherMetrics`], resolved once per
/// publisher. The per-publisher counters remain authoritative for the
/// experiments; these feed `GET /metrics` and the REPL `stats` view.
struct PublisherObs {
    generations: Arc<Counter>,
    publications: Arc<Counter>,
    forced: Arc<Counter>,
    already_current: Arc<Counter>,
    generation_ns: Arc<Histogram>,
}

impl PublisherObs {
    fn for_class(class: &str) -> PublisherObs {
        let r = obs::registry();
        let labels = [("class", class)];
        PublisherObs {
            generations: r.counter_with("sde_generations_total", &labels),
            publications: r.counter_with("sde_publications_total", &labels),
            forced: r.counter_with("sde_forced_publications_total", &labels),
            already_current: r.counter_with("sde_already_current_total", &labels),
            generation_ns: r.histogram_with("sde_generation_ns", &labels),
        }
    }
}

#[derive(Debug)]
struct PubState {
    /// §5.6 countdown deadline; `None` when the timer is idle.
    deadline: Option<Instant>,
    /// A generation operation is in flight.
    generating: bool,
    /// An immediate generation has been requested (forced expiry or
    /// change-driven strategy).
    force_now: bool,
    /// Interface version of the last *published* document.
    published_version: u64,
    shutdown: bool,
}

/// The DL Publisher core shared by the WSDL and IDL publishers.
pub struct PublisherCore {
    state: Mutex<PubState>,
    cond: Condvar,
    strategy: Mutex<PublicationStrategy>,
    class: ClassHandle,
    generator: Box<DocumentGenerator>,
    sink: Box<PublishSink>,
    metrics: PublisherMetrics,
    o: PublisherObs,
    /// Artificial latency added to each generation — models the paper's
    /// "relatively expensive operation" and lets tests exercise the
    /// timer-expires-during-generation path deterministically.
    generation_latency: Mutex<Duration>,
    worker: Mutex<Option<JoinHandle<()>>>,
    listener: Mutex<Option<JoinHandle<()>>>,
    /// The class-event subscription the listener thread drains;
    /// cancelled on shutdown so that thread ends.
    subscription: Mutex<Option<SubscriptionId>>,
}

impl std::fmt::Debug for PublisherCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublisherCore")
            .field("class", &self.class.name())
            .field("strategy", &*self.strategy.lock())
            .finish_non_exhaustive()
    }
}

impl PublisherCore {
    /// Creates a publisher for `class`, immediately publishing the initial
    /// (minimal) document, and starts its worker and listener threads.
    pub fn start(
        class: ClassHandle,
        strategy: PublicationStrategy,
        generator: Box<DocumentGenerator>,
        sink: Box<PublishSink>,
    ) -> Arc<PublisherCore> {
        let o = PublisherObs::for_class(&class.name());
        let core = Arc::new(PublisherCore {
            state: Mutex::new(PubState {
                deadline: None,
                generating: false,
                force_now: false,
                published_version: class.interface_version(),
                shutdown: false,
            }),
            cond: Condvar::new(),
            strategy: Mutex::new(strategy),
            class: class.clone(),
            generator,
            sink,
            metrics: PublisherMetrics::default(),
            o,
            generation_latency: Mutex::new(Duration::ZERO),
            worker: Mutex::new(None),
            listener: Mutex::new(None),
            subscription: Mutex::new(None),
        });

        // Publish the initial document synchronously (the paper's minimal
        // WSDL / minimal CORBA-IDL at §5.1.1/§5.2.1).
        let initial = (core.generator)();
        (core.sink)(&initial);
        core.metrics.publications.fetch_add(1, Ordering::Relaxed);
        core.o.publications.inc();
        obs::events::record(
            &class.name(),
            VersionEventKind::Publication,
            initial.version,
        );
        core.state.lock().published_version = initial.version;

        // Listener thread: subscribes to class change events.
        let (subscription, events) = class.subscribe();
        *core.subscription.lock() = Some(subscription);
        let listener_core = core.clone();
        let listener = thread::Builder::new()
            .name(format!("dl-listener-{}", class.name()))
            .spawn(move || listener_loop(listener_core, events))
            .expect("spawn publisher listener");
        *core.listener.lock() = Some(listener);

        // Worker thread: runs generations per the state machine.
        let worker_core = core.clone();
        let worker = thread::Builder::new()
            .name(format!("dl-worker-{}", class.name()))
            .spawn(move || generation_loop(worker_core))
            .expect("spawn publisher worker");
        *core.worker.lock() = Some(worker);

        core
    }

    /// The class this publisher serves.
    pub fn class(&self) -> &ClassHandle {
        &self.class
    }

    /// Publication metrics.
    pub fn metrics(&self) -> &PublisherMetrics {
        &self.metrics
    }

    /// Changes the publication strategy (the SDE Manager Interface lets
    /// the user "control the publication frequency by specifying a
    /// timeout value", §4).
    pub fn set_strategy(&self, strategy: PublicationStrategy) {
        *self.strategy.lock() = strategy;
        self.cond.notify_all();
    }

    /// Current strategy.
    pub fn strategy(&self) -> PublicationStrategy {
        *self.strategy.lock()
    }

    /// Sets an artificial generation latency (models the expensive
    /// generation operation; used by tests and the consistency-matrix
    /// experiment).
    pub fn set_generation_latency(&self, latency: Duration) {
        *self.generation_latency.lock() = latency;
    }

    /// Version of the last published document.
    pub fn published_version(&self) -> u64 {
        self.state.lock().published_version
    }

    /// Whether the published document is current *right now* (timer idle,
    /// no generation in flight, version up to date).
    pub fn is_current(&self) -> bool {
        let st = self.state.lock();
        !st.generating
            && !st.force_now
            && st.deadline.is_none()
            && st.published_version == self.class.interface_version()
    }

    /// §4: "The user may decide to manually trigger the publication of the
    /// server interface description at any time by forcing timer
    /// expiration through the SDE Manager Interface."
    pub fn force_publish(&self) {
        let mut st = self.state.lock();
        st.deadline = None;
        st.force_now = true;
        self.cond.notify_all();
    }

    /// Blocks until the published interface description reflects every
    /// change made before this call — the §5.7 algorithm. Returns whether
    /// any waiting/forcing was needed (false = "was already current").
    pub fn ensure_current(&self) -> bool {
        let mut st = self.state.lock();
        let current_version = self.class.interface_version();
        if !st.generating
            && !st.force_now
            && st.deadline.is_none()
            && st.published_version == current_version
        {
            // Case 1 (§5.7): timer idle, no generation → already current.
            // This early return is what makes a rogue client unable to
            // trigger needless IDL generations.
            self.metrics.already_current.fetch_add(1, Ordering::Relaxed);
            self.o.already_current.inc();
            return false;
        }
        self.metrics.forced.fetch_add(1, Ordering::Relaxed);
        self.o.forced.inc();
        obs::trace::event(
            "sde::publisher",
            "ensure-current-forced",
            format!("class={} version={current_version}", self.class.name()),
        );
        // Cases 2/3: if a timer is pending (with or without an ongoing
        // generation), fold it into an immediate follow-up generation.
        if st.deadline.is_some() || st.published_version != current_version {
            st.deadline = None;
            st.force_now = true;
            self.cond.notify_all();
        }
        // Wait until all pending work has drained: any in-flight
        // generation finishes, plus the forced follow-up if one was queued.
        while st.generating || st.force_now {
            self.cond.wait(&mut st);
        }
        true
    }

    /// Stops the worker and listener threads.
    pub fn shutdown(&self) {
        {
            let mut st = self.state.lock();
            st.shutdown = true;
        }
        self.cond.notify_all();
        if let Some(t) = self.worker.lock().take() {
            let _ = t.join();
        }
        // Cancelling the subscription drops the class's sender, which
        // wakes the listener thread out of `recv` so it can be joined —
        // the class itself may live on long after this publisher.
        if let Some(id) = self.subscription.lock().take() {
            self.class.unsubscribe(id);
        }
        if let Some(t) = self.listener.lock().take() {
            let _ = t.join();
        }
    }

    /// Called by the listener thread on every class event.
    fn on_change(&self, event: &ClassEvent) {
        let strategy = *self.strategy.lock();
        let mut st = self.state.lock();
        if st.shutdown {
            return;
        }
        if event.distributed_change {
            obs::events::record(
                &self.class.name(),
                VersionEventKind::InterfaceEdit,
                event.interface_version,
            );
        }
        // The listener thread receives events asynchronously; one may
        // arrive after a forced publication has already covered it. An
        // event whose interface version is already published carries no
        // pending work — arming the timer for it would leave the
        // publisher permanently "behind" its own output.
        if event.interface_version <= st.published_version && !st.generating && !st.force_now {
            return;
        }
        match strategy {
            PublicationStrategy::ChangeDriven => {
                if event.distributed_change {
                    st.force_now = true;
                    self.cond.notify_all();
                }
            }
            PublicationStrategy::Periodic(_) => {
                // Polling ignores change notifications; the worker re-arms
                // its own deadline.
            }
            PublicationStrategy::StableTimeout(timeout) => {
                // §5.6: a change starts the countdown; further
                // distributed-interface changes reset it (other changes
                // leave a running timer alone).
                if st.deadline.is_none() || event.distributed_change {
                    st.deadline = Some(Instant::now() + timeout);
                    obs::events::record(
                        &self.class.name(),
                        VersionEventKind::TimerReset,
                        event.interface_version,
                    );
                    self.cond.notify_all();
                }
            }
        }
    }
}

fn listener_loop(core: Arc<PublisherCore>, events: Receiver<ClassEvent>) {
    while let Ok(event) = events.recv() {
        core.on_change(&event);
        if core.state.lock().shutdown {
            return;
        }
    }
}

fn generation_loop(core: Arc<PublisherCore>) {
    loop {
        // Decide whether to generate now, wait, or exit. The flag records
        // whether this round was forced (stale call / manual trigger) as
        // opposed to a timer running out on its own.
        let was_forced = {
            let mut st = core.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                // Periodic strategy arms its own deadline.
                if st.deadline.is_none() && !st.force_now {
                    if let PublicationStrategy::Periodic(interval) = *core.strategy.lock() {
                        st.deadline = Some(Instant::now() + interval);
                    }
                }
                let now = Instant::now();
                let timer_expired = st.deadline.is_some_and(|d| d <= now);
                if st.force_now || timer_expired {
                    let forced = st.force_now;
                    if timer_expired
                        && !forced
                        && matches!(*core.strategy.lock(), PublicationStrategy::StableTimeout(_))
                    {
                        obs::events::record(
                            &core.class.name(),
                            VersionEventKind::StabilityTimeout,
                            core.class.interface_version(),
                        );
                    }
                    st.force_now = false;
                    st.deadline = None;
                    st.generating = true;
                    break forced;
                }
                match st.deadline {
                    Some(d) => {
                        core.cond.wait_until(&mut st, d);
                    }
                    None => core.cond.wait(&mut st),
                }
            }
        };

        // Generation happens outside the lock — the timer keeps running
        // independently (§5.6).
        let latency = *core.generation_latency.lock();
        let span = obs::trace::Span::timed(core.o.generation_ns.clone());
        if !latency.is_zero() {
            // Injected generation cost, set only by experiments that
            // model §5.6's "relatively expensive" generation.
            thread::sleep(latency);
        }
        let doc = (core.generator)();
        span.finish();
        core.metrics.generations.fetch_add(1, Ordering::Relaxed);
        core.o.generations.inc();
        obs::events::record(
            &core.class.name(),
            VersionEventKind::Generation,
            doc.version,
        );

        // Publish if the interface actually changed.
        let mut st = core.state.lock();
        if doc.version != st.published_version {
            st.published_version = doc.version;
            drop(st);
            (core.sink)(&doc);
            core.metrics.publications.fetch_add(1, Ordering::Relaxed);
            core.o.publications.inc();
            let kind = if was_forced {
                VersionEventKind::ForcedPublication
            } else {
                VersionEventKind::Publication
            };
            obs::events::record(&core.class.name(), kind, doc.version);
            obs::trace::event(
                "sde::publisher",
                "publish",
                format!(
                    "class={} version={} forced={was_forced}",
                    core.class.name(),
                    doc.version
                ),
            );
            st = core.state.lock();
        }
        st.generating = false;
        // If the just-published document already covers every change, a
        // still-armed timer has nothing left to publish: cancel it
        // ("publishing if necessary", §5.6). The check is conservative —
        // any change arriving after this read re-arms the timer through
        // its own event.
        if st.published_version == core.class.interface_version()
            && !st.force_now
            && !matches!(*core.strategy.lock(), PublicationStrategy::Periodic(_))
        {
            st.deadline = None;
        }
        core.cond.notify_all();
        // If the timer expired again during generation (or a force
        // arrived), the loop immediately runs another generation — the
        // queued-regeneration rule of §5.6.
        drop(st);
    }
}

impl Drop for PublisherCore {
    fn drop(&mut self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        drop(st);
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpie::{MethodBuilder, TypeDesc};
    use std::sync::Mutex as StdMutex;

    fn test_class(name: &str) -> ClassHandle {
        let class = ClassHandle::new(name);
        class
            .add_method(MethodBuilder::new("seed", TypeDesc::Void).distributed(true))
            .unwrap();
        class
    }

    /// Publisher wired to an in-memory publication log.
    fn start_publisher(
        class: &ClassHandle,
        strategy: PublicationStrategy,
    ) -> (Arc<PublisherCore>, Arc<StdMutex<Vec<u64>>>) {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let gen_class = class.clone();
        let sink_log = log.clone();
        let core = PublisherCore::start(
            class.clone(),
            strategy,
            Box::new(move || GeneratedDoc {
                text: format!("doc-v{}", gen_class.interface_version()),
                version: gen_class.interface_version(),
            }),
            Box::new(move |doc| sink_log.lock().unwrap().push(doc.version)),
        );
        (core, log)
    }

    fn wait_for<F: Fn() -> bool>(cond: F, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// Names of this process's threads (as the kernel truncates them,
    /// to 15 bytes).
    fn thread_names() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .collect()
    }

    #[test]
    fn shutdown_joins_the_listener_and_cancels_its_subscription() {
        // A class outlives many publishers (a class moving between
        // shards, a gateway restarting): each shutdown must end its
        // listener thread instead of leaving it blocked on the class's
        // event channel.
        let class = test_class("Zq9");
        for _ in 0..50 {
            let (core, _log) = start_publisher(&class, PublicationStrategy::ChangeDriven);
            core.shutdown();
        }
        assert_eq!(class.listener_count(), 0, "subscriptions left behind");
        let leaked = thread_names()
            .into_iter()
            .filter(|name| name == "dl-listener-Zq9")
            .count();
        assert_eq!(leaked, 0, "listener threads left running");
    }

    #[test]
    fn initial_document_published_at_start() {
        let class = test_class("P0");
        let (core, log) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_millis(20)),
        );
        assert_eq!(log.lock().unwrap().len(), 1);
        assert!(core.is_current());
        core.shutdown();
    }

    #[test]
    fn stable_timeout_waits_for_quiet_period() {
        let class = test_class("P1");
        let (core, log) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_millis(40)),
        );

        // Burst of edits with gaps shorter than the timeout: no
        // publication until the burst ends.
        for i in 0..4 {
            class
                .add_method(MethodBuilder::new(format!("m{i}"), TypeDesc::Void).distributed(true))
                .unwrap();
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(log.lock().unwrap().len(), 1, "no publication mid-burst");

        wait_for(|| core.is_current(), "stable publication");
        let published = log.lock().unwrap().clone();
        // Exactly one publication for the whole burst, at the final version.
        assert_eq!(published.len(), 2);
        assert_eq!(*published.last().unwrap(), class.interface_version());
        core.shutdown();
    }

    #[test]
    fn change_driven_publishes_every_change() {
        let class = test_class("P2");
        let (core, log) = start_publisher(&class, PublicationStrategy::ChangeDriven);
        for i in 0..3 {
            class
                .add_method(MethodBuilder::new(format!("m{i}"), TypeDesc::Void).distributed(true))
                .unwrap();
            wait_for(|| core.is_current(), "change-driven publication");
        }
        // Initial + one per change.
        assert_eq!(log.lock().unwrap().len(), 4);
        core.shutdown();
    }

    #[test]
    fn non_distributed_changes_do_not_reset_but_do_start_timer() {
        let class = test_class("P3");
        let (core, _log) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_millis(30)),
        );
        // A body change starts the timer (per §5.6 "a change to the
        // relevant server class").
        let m = class.find_method("seed").unwrap();
        class.set_body_block(m, vec![]).unwrap();
        assert!(!core.is_current() || core.published_version() == class.interface_version());
        // It publishes nothing new (interface version unchanged)...
        wait_for(|| core.is_current(), "timer drain");
        assert_eq!(core.published_version(), class.interface_version());
        core.shutdown();
    }

    #[test]
    fn force_publish_expires_timer_immediately() {
        let class = test_class("P4");
        let (core, log) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
        );
        class
            .add_method(MethodBuilder::new("late", TypeDesc::Void).distributed(true))
            .unwrap();
        assert_eq!(log.lock().unwrap().len(), 1, "huge timeout still pending");
        core.force_publish();
        wait_for(|| core.is_current(), "forced publication");
        assert_eq!(
            *log.lock().unwrap().last().unwrap(),
            class.interface_version()
        );
        core.shutdown();
    }

    #[test]
    fn ensure_current_is_noop_when_idle() {
        let class = test_class("P5");
        let (core, _) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_millis(10)),
        );
        wait_for(|| core.is_current(), "initial quiesce");
        assert!(!core.ensure_current(), "no work when already current");
        let (_, _, forced, already) = core.metrics().snapshot();
        assert_eq!(forced, 0);
        assert_eq!(already, 1);
        core.shutdown();
    }

    #[test]
    fn ensure_current_waits_for_pending_timer() {
        let class = test_class("P6");
        let (core, _) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
        );
        class
            .add_method(MethodBuilder::new("fresh", TypeDesc::Void).distributed(true))
            .unwrap();
        // Timer armed with an hour to go; ensure_current must not wait an
        // hour — it forces the publication.
        let start = Instant::now();
        assert!(core.ensure_current());
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(core.published_version(), class.interface_version());
        core.shutdown();
    }

    #[test]
    fn ensure_current_waits_for_inflight_generation() {
        let class = test_class("P7");
        let (core, _) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_millis(5)),
        );
        core.set_generation_latency(Duration::from_millis(60));
        class
            .add_method(MethodBuilder::new("slow", TypeDesc::Void).distributed(true))
            .unwrap();
        // Let the timer expire so the slow generation starts.
        thread::sleep(Duration::from_millis(20));
        assert!(core.ensure_current());
        assert_eq!(core.published_version(), class.interface_version());
        core.shutdown();
    }

    #[test]
    fn timer_expiry_during_generation_queues_followup() {
        let class = test_class("P8");
        let (core, log) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_millis(10)),
        );
        core.set_generation_latency(Duration::from_millis(80));
        // First change arms the timer; generation (slow) starts at ~10ms.
        class
            .add_method(MethodBuilder::new("a", TypeDesc::Void).distributed(true))
            .unwrap();
        thread::sleep(Duration::from_millis(30)); // generation of v+1 in flight
                                                  // Second change while generating: arms the timer again, expiring
                                                  // mid-generation → a follow-up generation must run.
        class
            .add_method(MethodBuilder::new("b", TypeDesc::Void).distributed(true))
            .unwrap();
        wait_for(
            || core.published_version() == class.interface_version(),
            "follow-up generation",
        );
        let published = log.lock().unwrap().clone();
        assert_eq!(*published.last().unwrap(), class.interface_version());
        core.shutdown();
    }

    #[test]
    fn periodic_strategy_polls() {
        let class = test_class("P9");
        let (core, log) = start_publisher(
            &class,
            PublicationStrategy::Periodic(Duration::from_millis(15)),
        );
        class
            .add_method(MethodBuilder::new("x", TypeDesc::Void).distributed(true))
            .unwrap();
        wait_for(
            || core.published_version() == class.interface_version(),
            "poll publication",
        );
        // Let several more poll cycles pass: no further publications
        // because the version is unchanged.
        let count = log.lock().unwrap().len();
        thread::sleep(Duration::from_millis(60));
        assert_eq!(log.lock().unwrap().len(), count);
        core.shutdown();
    }

    #[test]
    fn rogue_client_cannot_force_generations() {
        let class = test_class("P10");
        let (core, _) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_millis(10)),
        );
        wait_for(|| core.is_current(), "quiesce");
        let (gens_before, _, _, _) = core.metrics().snapshot();
        // 100 stale-call prompts with no intervening edits.
        for _ in 0..100 {
            core.ensure_current();
        }
        let (gens_after, _, forced, already) = core.metrics().snapshot();
        assert_eq!(gens_after, gens_before, "no generation triggered");
        assert_eq!(forced, 0);
        assert_eq!(already, 100);
        core.shutdown();
    }

    #[test]
    fn strategy_can_be_changed_live() {
        let class = test_class("P11");
        let (core, _) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
        );
        core.set_strategy(PublicationStrategy::ChangeDriven);
        assert_eq!(core.strategy(), PublicationStrategy::ChangeDriven);
        class
            .add_method(MethodBuilder::new("now", TypeDesc::Void).distributed(true))
            .unwrap();
        wait_for(
            || core.published_version() == class.interface_version(),
            "immediate publication after strategy switch",
        );
        core.shutdown();
    }

    #[test]
    fn published_versions_are_monotonic_under_random_schedules() {
        use obs::rng::XorShift64;

        for seed in 0..6u64 {
            let mut rng = XorShift64::seed_from_u64(seed);
            let class = test_class(&format!("PMono{seed}"));
            let log = Arc::new(StdMutex::new(Vec::<u64>::new()));
            let gen_class = class.clone();
            let sink_log = log.clone();
            let core = PublisherCore::start(
                class.clone(),
                PublicationStrategy::StableTimeout(Duration::from_millis(3)),
                Box::new(move || GeneratedDoc {
                    text: String::new(),
                    version: gen_class.interface_version(),
                }),
                Box::new(move |doc| sink_log.lock().unwrap().push(doc.version)),
            );
            if rng.gen_bool(0.5) {
                core.set_generation_latency(Duration::from_millis(2));
            }

            let mut method_n = 0u32;
            for _ in 0..30 {
                match rng.gen_range(0, 4) {
                    0 => {
                        method_n += 1;
                        class
                            .add_method(
                                MethodBuilder::new(format!("r{method_n}"), TypeDesc::Void)
                                    .distributed(true),
                            )
                            .unwrap();
                    }
                    1 => core.force_publish(),
                    2 => {
                        core.ensure_current();
                    }
                    _ => thread::sleep(Duration::from_millis(rng.gen_range(0, 4) as u64)),
                }
            }
            // Quiesce: after ensure_current the published doc reflects all
            // edits made before the call.
            core.ensure_current();
            assert_eq!(
                core.published_version(),
                class.interface_version(),
                "seed {seed}"
            );
            // The publication stream never goes backwards.
            let versions = log.lock().unwrap().clone();
            assert!(
                versions.windows(2).all(|w| w[0] <= w[1]),
                "seed {seed}: non-monotonic publications {versions:?}"
            );
            core.shutdown();
        }
    }

    #[test]
    fn version_event_log_tracks_lifecycle() {
        let class = test_class("PEvents");
        let (core, _) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_millis(10)),
        );
        assert!(
            obs::events::count("PEvents", VersionEventKind::Publication) >= 1,
            "initial publication recorded"
        );
        class
            .add_method(MethodBuilder::new("evt", TypeDesc::Void).distributed(true))
            .unwrap();
        wait_for(|| core.is_current(), "stable publication");
        assert!(obs::events::count("PEvents", VersionEventKind::InterfaceEdit) >= 1);
        assert!(obs::events::count("PEvents", VersionEventKind::TimerReset) >= 1);
        assert_eq!(
            obs::events::latest_published_version("PEvents"),
            Some(class.interface_version())
        );
        core.shutdown();
    }

    #[test]
    fn forced_publication_recorded_as_forced() {
        let class = test_class("PForced");
        let (core, _) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
        );
        class
            .add_method(MethodBuilder::new("f", TypeDesc::Void).distributed(true))
            .unwrap();
        assert!(core.ensure_current());
        assert!(obs::events::count("PForced", VersionEventKind::ForcedPublication) >= 1);
        core.shutdown();
    }

    #[test]
    fn concurrent_ensure_current_callers() {
        let class = test_class("P12");
        let (core, _) = start_publisher(
            &class,
            PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
        );
        class
            .add_method(MethodBuilder::new("c", TypeDesc::Void).distributed(true))
            .unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let core = core.clone();
            handles.push(thread::spawn(move || core.ensure_current()));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(core.published_version(), class.interface_version());
        core.shutdown();
    }
}
