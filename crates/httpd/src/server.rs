//! An HTTP server dispatching requests to a [`Handler`].
//!
//! Connections are multiplexed by the reactor engine (`rserver`):
//! idle keep-alive connections park on epoll at no thread cost, and
//! handlers run on a **bounded dispatch pool**. When the dispatch queue
//! is full the server sheds load with `503 Service Unavailable` +
//! `Retry-After` instead of queueing unboundedly — backpressure is
//! observable through the `http_queue_depth{server=...}` gauge and the
//! `http_rejected_total{server=...}` counter.
//!
//! Every server also exposes the process-wide metrics registry at
//! `GET /metrics` in Prometheus text format, before user handlers see
//! the request.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use obs::metrics::{Counter, Histogram};

use crate::error::HttpError;
use crate::message::{Limits, Request, Response};
use crate::rserver::ReactorServer;
use crate::transport::Addr;

/// Metric handles resolved once; the per-request path is atomic ops only.
pub(crate) struct HttpMetrics {
    pub(crate) connections: Arc<Counter>,
    pub(crate) requests: Arc<Counter>,
    pub(crate) request_ns: Arc<Histogram>,
    pub(crate) responses_2xx: Arc<Counter>,
    pub(crate) responses_4xx: Arc<Counter>,
    pub(crate) responses_5xx: Arc<Counter>,
}

pub(crate) fn http_metrics() -> &'static HttpMetrics {
    static METRICS: OnceLock<HttpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = obs::registry();
        HttpMetrics {
            connections: r.counter("http_connections_total"),
            requests: r.counter("http_requests_total"),
            request_ns: r.histogram("http_request_ns"),
            responses_2xx: r.counter_with("http_responses_total", &[("status", "2xx")]),
            responses_4xx: r.counter_with("http_responses_total", &[("status", "4xx")]),
            responses_5xx: r.counter_with("http_responses_total", &[("status", "5xx")]),
        }
    })
}

/// Application logic plugged into an [`HttpServer`].
///
/// Handlers are shared across dispatch threads, so implementations must
/// be `Send + Sync` and perform their own interior locking — the paper's
/// call handlers are "completely multithreaded" (§5.4) and this mirrors
/// that design.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for `req`.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Per-server drain gate and in-flight accounting: every request passes
/// through it on its way to the handler.
///
/// Planned reconfiguration (shard migration, rolling restart) needs two
/// things from an endpoint: an exact count of requests currently inside
/// the handler — so the operator can detect quiescence à la
/// Matevska-Meyer instead of guessing — and a way to refuse *new* work
/// with a retryable 503 + `Retry-After` while the in-flight requests
/// run to completion. The admission order (increment, then check the
/// drain flag, SeqCst both sides) guarantees that once a drainer has
/// set the flag and observed `in_flight() == 0`, no request can slip
/// past it into the handler.
#[derive(Debug, Default)]
pub struct ServerGate {
    in_flight: AtomicU64,
    draining: AtomicBool,
    retry_after_ms: AtomicU64,
}

impl ServerGate {
    /// Requests currently executing inside the handler.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Starts refusing new requests with 503 + `retry_after`; requests
    /// already inside the handler run to completion.
    pub fn begin_drain(&self, retry_after: Duration) {
        self.retry_after_ms
            .store(retry_after.as_millis() as u64, Ordering::SeqCst);
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Resumes normal admission.
    pub fn end_drain(&self) {
        self.draining.store(false, Ordering::SeqCst);
    }

    /// Whether the gate is currently refusing new requests.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// Wraps the application handler with the server's [`ServerGate`].
struct GatedHandler {
    inner: Arc<dyn Handler>,
    gate: Arc<ServerGate>,
}

impl Handler for GatedHandler {
    fn handle(&self, req: &Request) -> Response {
        // Increment *before* checking the flag: with SeqCst, a drainer
        // that stores the flag and then reads a zero count knows no
        // admission can still be racing toward the handler.
        self.gate.in_flight.fetch_add(1, Ordering::SeqCst);
        let out = if self.gate.draining.load(Ordering::SeqCst) {
            Response::unavailable(
                "server draining",
                Duration::from_millis(self.gate.retry_after_ms.load(Ordering::SeqCst)),
            )
        } else {
            self.inner.handle(req)
        };
        self.gate.in_flight.fetch_sub(1, Ordering::SeqCst);
        out
    }
}

/// Sizing and resilience policy of an [`HttpServer`]'s dispatch pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of dispatch threads running the handler. Idle keep-alive
    /// connections park on the reactor and hold no thread, so any number
    /// of connections can stay open.
    pub workers: usize,
    /// Maximum parsed requests waiting for a dispatch thread; beyond
    /// this a request is answered `503` and its connection closed (load
    /// shedding).
    pub queue_depth: usize,
    /// How long a connection has to deliver a complete request once its
    /// first byte has arrived (slow-loris defense). `None` waits forever.
    pub request_read_timeout: Option<Duration>,
    /// Cap on the request line plus headers.
    pub max_header_bytes: usize,
    /// Cap on the declared request body length.
    pub max_body_bytes: usize,
    /// Maximum time a request may wait in the dispatch queue before a
    /// thread picks it up; older requests are answered `503` +
    /// `Retry-After` instead of being served late. `None` never sheds on
    /// age.
    pub queue_deadline: Option<Duration>,
    /// The retry hint advertised on every load-shedding `503`.
    pub retry_after: Duration,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        PoolConfig {
            workers,
            queue_depth: 64,
            request_read_timeout: Some(Duration::from_secs(30)),
            max_header_bytes: 64 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
            queue_deadline: None,
            retry_after: Duration::from_secs(1),
        }
    }
}

impl PoolConfig {
    /// Production-leaning defaults for servers facing untrusted or
    /// chaos-injected peers: a tight request deadline, bounded headers
    /// and bodies, and age-based queue shedding.
    pub fn hardened() -> PoolConfig {
        PoolConfig {
            request_read_timeout: Some(Duration::from_secs(10)),
            max_body_bytes: 8 * 1024 * 1024,
            queue_deadline: Some(Duration::from_secs(5)),
            ..PoolConfig::default()
        }
    }

    pub(crate) fn limits(&self) -> Limits {
        Limits {
            max_header_bytes: self.max_header_bytes,
            max_body_bytes: self.max_body_bytes,
        }
    }
}

/// A running HTTP server.
///
/// A fixed set of epoll shards multiplexes every connection, on either
/// scheme, and handlers run on a bounded dispatch pool: bounded
/// concurrency, 503 load shedding with `Retry-After`, keep-alive,
/// built-in `/metrics` and `/traces` endpoints. Dropping the server
/// shuts it down, joining every thread it spawned.
///
/// # Examples
///
/// See the [crate-level documentation](crate).
pub struct HttpServer {
    inner: ReactorServer,
    gate: Arc<ServerGate>,
}

impl fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `tcp://127.0.0.1:0` or `mem://my-service`) and
    /// starts serving `handler` with the default [`PoolConfig`].
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be parsed or bound.
    pub fn bind<H: Handler>(addr: &str, handler: H) -> Result<HttpServer, HttpError> {
        Self::bind_with(addr, handler, PoolConfig::default())
    }

    /// Binds `addr` with an explicit pool configuration.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be parsed or bound, or `cfg` has zero
    /// workers or queue slots.
    pub fn bind_with<H: Handler>(
        addr: &str,
        handler: H,
        cfg: PoolConfig,
    ) -> Result<HttpServer, HttpError> {
        if cfg.workers == 0 || cfg.queue_depth == 0 {
            return Err(HttpError::BadAddress(format!(
                "pool config must be non-zero: {cfg:?}"
            )));
        }
        let gate = Arc::new(ServerGate::default());
        let handler: Arc<dyn Handler> = Arc::new(GatedHandler {
            inner: Arc::new(handler),
            gate: gate.clone(),
        });
        Ok(HttpServer {
            inner: ReactorServer::bind(addr, handler, cfg)?,
            gate,
        })
    }

    /// The server's drain gate (in-flight accounting + drain-mode 503s).
    pub fn gate(&self) -> &Arc<ServerGate> {
        &self.gate
    }

    /// Requests currently executing inside the application handler.
    pub fn in_flight(&self) -> u64 {
        self.gate.in_flight()
    }

    /// The bound address, e.g. `tcp://127.0.0.1:41234`.
    pub fn addr(&self) -> &Addr {
        self.inner.addr()
    }

    /// Base URL clients can connect to (same scheme syntax accepted by
    /// [`crate::HttpClient`]).
    pub fn base_url(&self) -> String {
        self.addr().to_string()
    }

    /// The pool configuration this server runs with.
    pub fn pool_config(&self) -> PoolConfig {
        self.inner.pool_config()
    }

    /// Stops the server promptly and leak-free: closes the listener,
    /// sweeps every live connection off the reactor, and joins every
    /// thread the server spawned. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::message::Status;
    use obs::sync::{Condvar, Mutex};
    use std::thread;

    fn echo_handler(req: &Request) -> Response {
        Response::ok(
            format!("{} {}", req.method(), req.path()).into_bytes(),
            "text/plain",
        )
    }

    #[test]
    fn serves_get_over_mem() {
        let server = HttpServer::bind("mem://srv-get", echo_handler).unwrap();
        let resp = HttpClient::new()
            .get(&format!("{}/x", server.base_url()))
            .unwrap();
        assert_eq!(resp.status(), 200);
        assert_eq!(resp.body_str(), "GET /x");
        server.shutdown();
    }

    #[test]
    fn serves_post_over_tcp() {
        let server = HttpServer::bind("tcp://127.0.0.1:0", |req: &Request| {
            Response::ok(req.body().to_vec(), "application/octet-stream")
        })
        .unwrap();
        let url = format!("{}/echo", server.base_url());
        let resp = HttpClient::new()
            .post(&url, b"abc123".to_vec(), "text/plain")
            .unwrap();
        assert_eq!(resp.body(), b"abc123");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = Arc::new(HttpServer::bind("mem://srv-conc", echo_handler).unwrap());
        let mut threads = Vec::new();
        for i in 0..8 {
            let base = server.base_url();
            threads.push(thread::spawn(move || {
                let resp = HttpClient::new().get(&format!("{base}/t{i}")).unwrap();
                assert_eq!(resp.body_str(), format!("GET /t{i}"));
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let server = HttpServer::bind("mem://srv-ka", echo_handler).unwrap();
        let mut conn = HttpClient::new().connect(&server.base_url()).unwrap();
        for i in 0..3 {
            let resp = conn.send(&Request::get(format!("/k{i}"))).unwrap();
            assert_eq!(resp.body_str(), format!("GET /k{i}"));
        }
        server.shutdown();
    }

    #[test]
    fn handler_error_status_propagates() {
        let server = HttpServer::bind("mem://srv-err", |_req: &Request| {
            Response::new(Status::SERVICE_UNAVAILABLE, b"down".to_vec(), "text/plain")
        })
        .unwrap();
        let resp = HttpClient::new().get(&server.base_url()).unwrap();
        assert_eq!(resp.status(), 503);
        server.shutdown();
    }

    #[test]
    fn shutdown_releases_mem_name() {
        let server = HttpServer::bind("mem://srv-release", echo_handler).unwrap();
        server.shutdown();
        let server2 = HttpServer::bind("mem://srv-release", echo_handler).unwrap();
        server2.shutdown();
    }

    #[test]
    fn metrics_endpoint_served_builtin() {
        let server = HttpServer::bind("mem://srv-metrics", echo_handler).unwrap();
        // App traffic shows up in the built-in endpoint…
        let resp = HttpClient::new()
            .get(&format!("{}/app", server.base_url()))
            .unwrap();
        assert_eq!(resp.status(), 200);
        let metrics = HttpClient::new()
            .get(&format!("{}/metrics", server.base_url()))
            .unwrap();
        assert_eq!(metrics.status(), 200);
        let text = metrics.body_str().to_string();
        assert!(text.contains("http_requests_total"), "{text}");
        assert!(text.contains("http_request_ns_count"), "{text}");
        // …and the handler never saw /metrics (echo would 200 with a body
        // of "GET /metrics"; instead we got the exposition format).
        assert!(!text.contains("GET /metrics"));
        server.shutdown();
    }

    #[test]
    fn traces_endpoint_served_builtin() {
        let server = HttpServer::bind("mem://srv-traces", echo_handler).unwrap();
        // The index answers JSON regardless of store contents, and the
        // handler never sees the path (echo would parrot "GET /traces").
        let list = HttpClient::new()
            .get(&format!("{}/traces", server.base_url()))
            .unwrap();
        assert_eq!(list.status(), 200);
        assert_eq!(list.headers().get("Content-Type"), Some("application/json"));
        assert!(!list.body_str().contains("GET /traces"));
        // An unknown prefix is a clean 404, not a handler dispatch.
        let miss = HttpClient::new()
            .get(&format!("{}/traces/ffffffffffff", server.base_url()))
            .unwrap();
        assert_eq!(miss.status(), 404);
        server.shutdown();
    }

    #[test]
    fn connect_after_shutdown_refused() {
        let server = HttpServer::bind("mem://srv-dead", echo_handler).unwrap();
        server.shutdown();
        assert!(HttpClient::new().get("mem://srv-dead").is_err());
    }

    #[test]
    fn connect_after_shutdown_refused_tcp() {
        // The TCP listener must actually leave LISTEN state on
        // shutdown. A socket that merely stops accepting in userspace
        // keeps completing handshakes into the kernel backlog, so a
        // dead server still passes connect-only health probes.
        let server = HttpServer::bind("tcp://127.0.0.1:0", echo_handler).unwrap();
        let url = server.base_url();
        assert!(HttpClient::new().get(&url).is_ok(), "reachable while up");
        server.shutdown();
        assert!(
            HttpClient::new()
                .with_read_timeout(Duration::from_millis(500))
                .get(&url)
                .is_err(),
            "connects must be refused after shutdown"
        );
    }

    #[test]
    fn shutdown_wakes_idle_keep_alive_connections() {
        // An idle keep-alive connection is parked on the reactor;
        // shutdown must sweep it closed and join the server's threads
        // promptly.
        let server = HttpServer::bind("mem://srv-prompt", echo_handler).unwrap();
        let mut conn = HttpClient::new().connect(&server.base_url()).unwrap();
        conn.send(&Request::get("/warm")).unwrap();
        let start = std::time::Instant::now();
        server.shutdown(); // joins the acceptor + dispatch threads
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown blocked on a keep-alive read"
        );
        assert!(conn.send(&Request::get("/dead")).is_err());
    }

    #[test]
    fn pool_saturation_rejects_with_503_and_queue_drains() {
        // 1 dispatch thread + queue of 1: the first request occupies the
        // thread, the second waits in the queue, the third is shed.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicU64::new(0));
        let handler_gate = gate.clone();
        let handler_entered = entered.clone();
        let server = HttpServer::bind_with(
            "mem://srv-load",
            move |_req: &Request| {
                handler_entered.fetch_add(1, Ordering::SeqCst);
                let (lock, cond) = &*handler_gate;
                let mut open = lock.lock();
                while !*open {
                    cond.wait(&mut open);
                }
                Response::ok(b"done".to_vec(), "text/plain")
            },
            PoolConfig {
                workers: 1,
                queue_depth: 1,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let base = server.base_url();
        let gauge = obs::registry().gauge_with("http_queue_depth", &[("server", &base)]);

        // Occupy the worker, then fill the queue. Polling the handler
        // entry counter and the per-server gauge keeps this
        // deterministic without sleeps.
        let c1 = {
            let base = base.clone();
            thread::spawn(move || HttpClient::new().get(&format!("{base}/a")))
        };
        // Wait until the sole worker is inside the handler for /a.
        wait_until(|| entered.load(Ordering::SeqCst) == 1);
        let c2 = {
            let base = base.clone();
            thread::spawn(move || HttpClient::new().get(&format!("{base}/b")))
        };
        wait_until(|| gauge.get() == 1);

        // Queue full: this one must be shed with 503 without waiting.
        let resp = HttpClient::new().get(&format!("{base}/c")).unwrap();
        assert_eq!(resp.status(), 503);
        let rejected = obs::registry().snapshot().counter(&obs::metrics::key(
            "http_rejected_total",
            &[("server", &base)],
        ));
        assert!(rejected >= 1, "rejection counter did not rise");

        // Open the gate: both queued/served requests complete, and the
        // queue gauge drains back to zero.
        {
            let (lock, cond) = &*gate;
            *lock.lock() = true;
            cond.notify_all();
        }
        assert_eq!(c1.join().unwrap().unwrap().status(), 200);
        assert_eq!(c2.join().unwrap().unwrap().status(), 200);
        wait_until(|| gauge.get() == 0);
        server.shutdown();
    }

    #[test]
    fn idle_keep_alive_connections_do_not_starve_new_ones() {
        // One dispatch thread, several idle keep-alive connections: a
        // new connection must still get served (idle connections park
        // on the reactor and hold no thread), and the idle connections
        // must stay usable afterwards.
        let server = HttpServer::bind_with(
            "mem://srv-rotate",
            echo_handler,
            PoolConfig {
                workers: 1,
                queue_depth: 8,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let base = server.base_url();
        let client = HttpClient::new();
        let mut idle1 = client.connect(&base).unwrap();
        let mut idle2 = client.connect(&base).unwrap();
        assert_eq!(idle1.send(&Request::get("/warm1")).unwrap().status(), 200);
        assert_eq!(idle2.send(&Request::get("/warm2")).unwrap().status(), 200);
        // Both connections are now idle.
        let fresh = client.get(&format!("{base}/fresh")).unwrap();
        assert_eq!(fresh.body_str(), "GET /fresh");
        // The idle connections were parked, not closed: they still work.
        assert_eq!(idle1.send(&Request::get("/again1")).unwrap().status(), 200);
        assert_eq!(idle2.send(&Request::get("/again2")).unwrap().status(), 200);
        server.shutdown();
    }

    #[test]
    fn slow_loris_request_times_out_with_408() {
        let server = HttpServer::bind_with(
            "mem://srv-loris",
            echo_handler,
            PoolConfig {
                request_read_timeout: Some(Duration::from_millis(50)),
                ..PoolConfig::default()
            },
        )
        .unwrap();
        // Dribble a partial request head and then stall.
        let mut stream = crate::transport::connect("mem://srv-loris").unwrap();
        use std::io::{Read, Write};
        stream.write_all(b"GET /slow HTTP/1.1\r\nX-Part").unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        assert!(
            obs::registry()
                .snapshot()
                .counter("http_request_timeouts_total")
                >= 1
        );
        server.shutdown();
    }

    #[test]
    fn oversized_headers_rejected_per_config() {
        let server = HttpServer::bind_with(
            "mem://srv-bighead",
            echo_handler,
            PoolConfig {
                max_header_bytes: 256,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let mut req = Request::get("/x");
        req.headers_mut().set("X-Big", "b".repeat(1024));
        let mut conn = HttpClient::new().connect(&server.base_url()).unwrap();
        let resp = conn.send(&req).unwrap();
        assert_eq!(resp.status(), 400);
        server.shutdown();
    }

    #[test]
    fn load_shed_503_carries_retry_after() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicU64::new(0));
        let handler_gate = gate.clone();
        let handler_entered = entered.clone();
        let server = HttpServer::bind_with(
            "mem://srv-shed-hint",
            move |_req: &Request| {
                handler_entered.fetch_add(1, Ordering::SeqCst);
                let (lock, cond) = &*handler_gate;
                let mut open = lock.lock();
                while !*open {
                    cond.wait(&mut open);
                }
                Response::ok(b"done".to_vec(), "text/plain")
            },
            PoolConfig {
                workers: 1,
                queue_depth: 1,
                retry_after: Duration::from_millis(250),
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let base = server.base_url();
        let gauge = obs::registry().gauge_with("http_queue_depth", &[("server", &base)]);
        let c1 = {
            let base = base.clone();
            thread::spawn(move || HttpClient::new().get(&format!("{base}/a")))
        };
        wait_until(|| entered.load(Ordering::SeqCst) == 1);
        let c2 = {
            let base = base.clone();
            thread::spawn(move || HttpClient::new().get(&format!("{base}/b")))
        };
        wait_until(|| gauge.get() == 1);
        let resp = HttpClient::new().get(&format!("{base}/c")).unwrap();
        assert_eq!(resp.status(), 503);
        assert_eq!(resp.retry_after(), Some(Duration::from_millis(250)));
        {
            let (lock, cond) = &*gate;
            *lock.lock() = true;
            cond.notify_all();
        }
        let _ = c1.join().unwrap();
        let _ = c2.join().unwrap();
        server.shutdown();
    }

    fn wait_until(mut cond: impl FnMut() -> bool) {
        let start = std::time::Instant::now();
        while !cond() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "condition not reached in time"
            );
            thread::sleep(Duration::from_millis(2));
        }
    }
}
