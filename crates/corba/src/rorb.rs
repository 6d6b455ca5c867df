//! The GIOP serving engine: ORB connections as reactor state machines.
//!
//! Mirrors `httpd`'s engine and shares its acceptor
//! ([`httpd::accept_into_reactor`]): each connection, on either scheme,
//! is registered with the process-global [`reactor`] pool, GIOP frames
//! are reassembled incrementally from whatever bytes have arrived
//! ([`crate::giop::parse_frame_header`]), `LocateRequest`s are answered
//! inline on the reactor thread, and `Request`s hop to a bounded
//! dispatch pool where the [`DynamicImplementation`] runs. An idle
//! connection is a parked fd plus one idle-deadline timer — no thread.

use std::any::Any;
use std::fmt;
use std::io::{self, Read, Write};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use httpd::transport::{Listener, Start, Stream};
use obs::sync::Mutex;
use reactor::{Action, Ctl, DispatchPool, EventSource, Interest, Readiness};

use crate::error::{CorbaError, SystemExceptionKind};
use crate::giop::{
    decode_locate_request, parse_frame_header, write_locate_reply, write_reply_advertising,
    GiopBufs, LocateStatus, MsgType, ReplyBody, ReplyMessage,
};
use crate::orb::{giop_counters, request_reply, DynamicImplementation, OrbGate};

const READ_CHUNK: usize = 16 * 1024;

/// How long a server-side connection may sit idle (or mid-message)
/// before its deadline timer drops it.
const SERVER_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// The engine a [`crate::ServerOrb`] owns: its listener and acceptor,
/// the id its connections are registered under, and the servant pool.
pub(crate) struct ReactorOrb {
    listener: Arc<Listener>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    server_id: u64,
    dispatch: Arc<DispatchPool>,
}

impl fmt::Debug for ReactorOrb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReactorOrb")
            .field("addr", &self.addr())
            .field("server_id", &self.server_id)
            .finish_non_exhaustive()
    }
}

struct OrbShared {
    implementation: Arc<dyn DynamicImplementation>,
    served_key: Vec<u8>,
    dispatch: Arc<DispatchPool>,
    gate: Arc<OrbGate>,
}

impl ReactorOrb {
    /// Binds `addr` and starts the acceptor thread and the dispatch
    /// pool.
    pub(crate) fn start(
        addr: &str,
        implementation: Arc<dyn DynamicImplementation>,
        served_key: Vec<u8>,
        gate: Arc<OrbGate>,
    ) -> Result<ReactorOrb, CorbaError> {
        let listener = Arc::new(Listener::bind(addr)?);
        let label = listener.local_addr().to_string();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        let dispatch = Arc::new(DispatchPool::new(
            &format!("orb-dispatch-{label}"),
            workers,
            64,
            Some(obs::registry().gauge_with("orb_dispatch_depth", &[("server", &label)])),
        ));
        let server_id = reactor::pool().allocate_server_id();
        let shared = Arc::new(OrbShared {
            implementation,
            served_key,
            dispatch: dispatch.clone(),
            gate,
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_listener = listener.clone();
        let accept_shutdown = shutdown.clone();
        let accept_thread = std::thread::Builder::new()
            .name("orb-accept".into())
            .spawn(move || {
                httpd::accept_into_reactor(
                    &accept_listener,
                    &accept_shutdown,
                    Some(SERVER_IDLE_TIMEOUT),
                    |stream, start| {
                        Box::new(GiopConn {
                            stream,
                            shared: shared.clone(),
                            server_id,
                            state: match start {
                                Start::Now => GState::Reading,
                                Start::After(_) => GState::DelayedStart,
                                Start::Parked => GState::Blackholed,
                            },
                            inbuf: Vec::new(),
                            bufs: GiopBufs::default(),
                            body: Vec::new(),
                            out: Vec::new(),
                        })
                    },
                );
            })
            .expect("spawn orb accept thread");
        Ok(ReactorOrb {
            listener,
            shutdown,
            accept_thread: Mutex::new(Some(accept_thread)),
            server_id,
            dispatch,
        })
    }

    /// The bound address, e.g. `mem://calc-orb`.
    pub(crate) fn addr(&self) -> String {
        self.listener.local_addr().to_string()
    }

    /// Closes the listener, joins the acceptor, sweeps every connection
    /// off the reactor shards, then stops the servant pool. Idempotent.
    pub(crate) fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.listener.close();
        if let Some(t) = self.accept_thread.lock().take() {
            let _ = t.join();
        }
        reactor::pool().close_server(self.server_id);
        self.dispatch.shutdown();
    }
}

enum GState {
    /// Chaos delay pending; the timer transitions to `Reading`.
    DelayedStart,
    Reading,
    /// The servant is running on the dispatch pool.
    Dispatched,
    /// A reply frame in `out` is partially written.
    Writing {
        pos: usize,
    },
    /// Chaos blackhole: parked until shutdown sweeps it.
    Blackholed,
}

/// What a dispatch worker hands back through `resume`. The recycled
/// per-connection buffers ride along so a warm connection still
/// marshals without allocating.
enum GiopOutcome {
    Done {
        bufs: GiopBufs,
        body: Vec<u8>,
        out: Vec<u8>,
    },
    Pending {
        bufs: GiopBufs,
        body: Vec<u8>,
        out: Vec<u8>,
        pos: usize,
    },
    Failed,
}

struct GiopConn {
    stream: Stream,
    shared: Arc<OrbShared>,
    server_id: u64,
    state: GState,
    /// Accumulated frame bytes (recycled across requests).
    inbuf: Vec<u8>,
    /// Recycled marshalling buffers, loaned to the dispatch worker.
    bufs: GiopBufs,
    /// The request body handed to the dispatch worker, recycled like
    /// `bufs`.
    body: Vec<u8>,
    /// The reply frame being written, recycled like `bufs`.
    out: Vec<u8>,
}

/// Drains `buf[*pos..]` through a nonblocking writer. `Ok(true)` =
/// fully written, `Ok(false)` = `WouldBlock` with `pos` advanced.
fn drain_frame(stream: &mut Stream, buf: &[u8], pos: &mut usize) -> io::Result<bool> {
    while *pos < buf.len() {
        match stream.write(&buf[*pos..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "write zero")),
            Ok(n) => *pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

impl GiopConn {
    fn fill_inbuf(&mut self) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    fn run(&mut self, ctl: &mut Ctl<'_>) -> Action {
        loop {
            match self.state {
                GState::Reading => {
                    if self.inbuf.len() < 12 {
                        // Waiting for a frame header under the idle
                        // deadline.
                        return Action::Rearm(Interest::Read, Some(SERVER_IDLE_TIMEOUT));
                    }
                    let header: [u8; 12] = self.inbuf[..12].try_into().expect("12 bytes");
                    let Ok((msg_type, big_endian, size)) = parse_frame_header(&header) else {
                        return Action::Close; // framing violation
                    };
                    let total = 12 + size;
                    if self.inbuf.len() < total {
                        return Action::Rearm(Interest::Read, Some(SERVER_IDLE_TIMEOUT));
                    }
                    match msg_type {
                        // CloseConnection, or protocol violations from
                        // a client (only servers send replies).
                        MsgType::CloseConnection | MsgType::Reply | MsgType::LocateReply => {
                            return Action::Close;
                        }
                        // Cheap and servant-free: answered inline on
                        // the reactor thread.
                        MsgType::LocateRequest => {
                            giop_counters().1.inc();
                            let Ok((request_id, key)) =
                                decode_locate_request(&self.inbuf[12..total], big_endian)
                            else {
                                return Action::Close;
                            };
                            let status = if key == self.shared.served_key {
                                LocateStatus::ObjectHere
                            } else {
                                LocateStatus::UnknownObject
                            };
                            self.inbuf.drain(..total);
                            self.out.clear();
                            if write_locate_reply(&mut self.out, request_id, status).is_err() {
                                return Action::Close;
                            }
                            self.state = GState::Writing { pos: 0 };
                        }
                        // Servant code may block: run it on the
                        // dispatch pool with the source suspended.
                        MsgType::Request => {
                            giop_counters().0.inc();
                            let Ok(writer) = self.stream.try_clone() else {
                                return Action::Close;
                            };
                            let mut body = std::mem::take(&mut self.body);
                            body.clear();
                            body.extend_from_slice(&self.inbuf[12..total]);
                            let shared = self.shared.clone();
                            let handle = ctl.handle();
                            let token = ctl.token();
                            let bufs = std::mem::take(&mut self.bufs);
                            let out = std::mem::take(&mut self.out);
                            let accepted = self.shared.dispatch.try_submit(move || {
                                let outcome =
                                    execute_request(&shared, body, big_endian, writer, bufs, out);
                                handle.resume(token, Box::new(outcome));
                            });
                            if accepted {
                                self.inbuf.drain(..total);
                                self.state = GState::Dispatched;
                                return Action::Suspend;
                            }
                            // Dispatch queue saturated: answer with a
                            // retryable TRANSIENT instead of queueing
                            // unboundedly. The loaned buffers went down
                            // with the rejected closure; re-seed them.
                            self.bufs = GiopBufs::default();
                            self.body = Vec::new();
                            self.out = Vec::new();
                            // The frame is still buffered (drained only
                            // on accept), so the shed reply can carry
                            // the real request id.
                            let request_id =
                                crate::giop::peek_request_id(&self.inbuf[12..total], big_endian)
                                    .unwrap_or(0);
                            self.inbuf.drain(..total);
                            let reply = ReplyMessage {
                                request_id,
                                body: ReplyBody::SystemException {
                                    kind: SystemExceptionKind::Transient,
                                    reason: "server busy".into(),
                                },
                            };
                            if write_reply_advertising(
                                &mut self.out,
                                &reply,
                                self.shared.implementation.caches_replies(),
                                &mut self.bufs,
                            )
                            .is_err()
                            {
                                return Action::Close;
                            }
                            self.state = GState::Writing { pos: 0 };
                        }
                    }
                }
                GState::Writing { pos } => {
                    let mut pos = pos;
                    let out = std::mem::take(&mut self.out);
                    let res = drain_frame(&mut self.stream, &out, &mut pos);
                    self.out = out;
                    match res {
                        Ok(true) => {
                            self.out.clear();
                            self.state = GState::Reading;
                            continue;
                        }
                        Ok(false) => {
                            self.state = GState::Writing { pos };
                            return Action::Rearm(Interest::Write, None);
                        }
                        Err(_) => return Action::Close,
                    }
                }
                GState::DelayedStart => {
                    self.state = GState::Reading;
                    continue;
                }
                GState::Dispatched | GState::Blackholed => return Action::Close,
            }
        }
    }
}

impl EventSource for GiopConn {
    fn fd(&self) -> RawFd {
        self.stream.raw_fd()
    }

    fn server_id(&self) -> u64 {
        self.server_id
    }

    fn on_ready(&mut self, ready: Readiness, ctl: &mut Ctl<'_>) -> Action {
        match self.state {
            GState::Reading => {
                if (ready.readable || ready.hangup) && !self.fill_inbuf() {
                    return Action::Close;
                }
                self.run(ctl)
            }
            GState::Writing { .. } => self.run(ctl),
            GState::DelayedStart | GState::Blackholed | GState::Dispatched => Action::Close,
        }
    }

    fn on_timer(&mut self, ctl: &mut Ctl<'_>) -> Action {
        match self.state {
            GState::DelayedStart => {
                self.state = GState::Reading;
                self.run(ctl)
            }
            // Idle (or mid-frame) past the deadline: drop the
            // connection.
            _ => Action::Close,
        }
    }

    fn on_resume(&mut self, payload: Box<dyn Any + Send>, ctl: &mut Ctl<'_>) -> Action {
        let Ok(outcome) = payload.downcast::<GiopOutcome>() else {
            return Action::Close;
        };
        match *outcome {
            GiopOutcome::Done { bufs, body, out } => {
                self.bufs = bufs;
                self.body = body;
                self.out = out;
                self.state = GState::Reading;
                // Pipelined frames may already be buffered.
                self.run(ctl)
            }
            GiopOutcome::Pending {
                bufs,
                body,
                out,
                pos,
            } => {
                self.bufs = bufs;
                self.body = body;
                self.out = out;
                self.state = GState::Writing { pos };
                Action::Rearm(Interest::Write, None)
            }
            GiopOutcome::Failed => Action::Close,
        }
    }
}

/// Runs on a dispatch worker: servant invocation, reply marshalling,
/// and the first write attempt.
fn execute_request(
    shared: &Arc<OrbShared>,
    body: Vec<u8>,
    big_endian: bool,
    mut writer: Stream,
    mut bufs: GiopBufs,
    mut out: Vec<u8>,
) -> GiopOutcome {
    let reply = request_reply(
        shared.implementation.as_ref(),
        &shared.served_key,
        &body,
        big_endian,
        &shared.gate,
    );
    let advertise = shared.implementation.caches_replies();
    out.clear();
    if write_reply_advertising(&mut out, &reply, advertise, &mut bufs).is_err() {
        return GiopOutcome::Failed;
    }
    let mut pos = 0;
    match drain_frame(&mut writer, &out, &mut pos) {
        Ok(true) => GiopOutcome::Done { bufs, body, out },
        Ok(false) => GiopOutcome::Pending {
            bufs,
            body,
            out,
            pos,
        },
        Err(_) => GiopOutcome::Failed,
    }
}
