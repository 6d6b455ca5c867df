//! The drain gate every serving tier shares: the router front per
//! class, each HTTP server, and each server ORB.
//!
//! Planned reconfiguration (shard migration, rolling restart) needs two
//! things from an endpoint: an exact count of requests currently inside
//! the handler — so the operator can detect quiescence à la
//! Matevska-Meyer instead of guessing — and a way to refuse *new* work
//! with a retryable hint while the in-flight requests run to
//! completion. The operator then *waits* for quiescence: the last
//! request to leave a draining gate wakes it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use obs::sync::Notify;

/// The drain flag, kept in the top bit of the in-flight word.
const DRAINING: u64 = 1 << 63;

/// Admission gate with in-flight accounting, drain mode and a last-exit
/// notify.
///
/// The in-flight count and the drain flag share one atomic word, so
/// admission is a single SeqCst increment that both counts the request
/// and observes the flag. Once a drainer has set the flag and seen a zero
/// count, every later admission sees the flag and is refused: no request
/// can slip past a gate observed quiescent. Outside a drain a request
/// costs two read-modify-writes (enter and leave) and nothing else; the
/// notify is taken only by the last request leaving a draining gate.
#[derive(Debug, Default)]
pub struct DrainGate {
    state: AtomicU64,
    retry_after_ms: AtomicU64,
    last_exit: Notify,
}

/// An admitted request; leaving the gate happens when this drops.
#[must_use = "the request leaves the gate when the guard drops"]
#[derive(Debug)]
pub struct Admitted<'a>(&'a DrainGate);

impl DrainGate {
    /// Admits one request, or refuses it with the drain's retry hint.
    ///
    /// # Errors
    ///
    /// Returns the `Retry-After` hint while the gate is draining.
    pub fn admit(&self) -> Result<Admitted<'_>, Duration> {
        let before = self.state.fetch_add(1, Ordering::SeqCst);
        let admitted = Admitted(self);
        if before & DRAINING == 0 {
            return Ok(admitted);
        }
        let retry_after = Duration::from_millis(self.retry_after_ms.load(Ordering::SeqCst));
        drop(admitted);
        Err(retry_after)
    }

    /// Requests currently inside the gate.
    pub fn in_flight(&self) -> u64 {
        self.state.load(Ordering::SeqCst) & !DRAINING
    }

    /// Whether the gate is currently refusing new requests.
    pub fn is_draining(&self) -> bool {
        self.state.load(Ordering::SeqCst) & DRAINING != 0
    }

    /// Starts refusing new requests with `retry_after`; requests already
    /// inside run to completion.
    pub fn begin_drain(&self, retry_after: Duration) {
        self.retry_after_ms
            .store(retry_after.as_millis() as u64, Ordering::SeqCst);
        self.state.fetch_or(DRAINING, Ordering::SeqCst);
    }

    /// Resumes normal admission.
    pub fn end_drain(&self) {
        self.state.fetch_and(!DRAINING, Ordering::SeqCst);
    }

    /// Blocks until no request is inside the gate or `deadline` passes;
    /// returns whether the gate is quiescent. Call it after
    /// [`DrainGate::begin_drain`]: only a draining gate raises the
    /// last-exit notify that ends the wait early.
    pub fn wait_quiescent(&self, deadline: Instant) -> bool {
        self.last_exit
            .wait_until(Some(deadline), || self.in_flight() == 0)
    }
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        if self.0.state.fetch_sub(1, Ordering::SeqCst) == DRAINING | 1 {
            self.0.last_exit.notify();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn drain_refuses_with_the_hint_and_reopens() {
        let gate = DrainGate::default();
        let held = gate.admit().expect("open gate admits");
        assert_eq!(gate.in_flight(), 1);
        gate.begin_drain(Duration::from_millis(40));
        assert!(gate.is_draining());
        assert_eq!(
            gate.admit().map(|_| ()),
            Err(Duration::from_millis(40)),
            "draining gate refuses"
        );
        assert_eq!(gate.in_flight(), 1, "a refusal leaves no count behind");
        drop(held);
        assert_eq!(gate.in_flight(), 0);
        gate.end_drain();
        assert!(!gate.is_draining());
        assert!(gate.admit().is_ok());
    }

    #[test]
    fn wait_quiescent_returns_when_the_last_guard_drops() {
        let gate = Arc::new(DrainGate::default());
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let worker = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                let _held = gate.admit().expect("admitted before the drain");
                entered_tx.send(()).expect("signal entry");
                release_rx.recv().expect("release");
            })
        };
        entered_rx.recv().expect("worker inside");
        gate.begin_drain(Duration::from_millis(1));
        assert!(
            !gate.wait_quiescent(Instant::now() + Duration::from_millis(5)),
            "a request is still inside"
        );
        release_tx.send(()).expect("release worker");
        let started = Instant::now();
        assert!(gate.wait_quiescent(Instant::now() + Duration::from_secs(10)));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "woken by the last exit, not the deadline"
        );
        worker.join().expect("worker");
    }

    /// Many threads hammer admission while a drainer flips the gate; a
    /// request admitted after the drainer saw the gate quiescent would
    /// break the migration's "the WAL is frozen" premise.
    #[test]
    fn no_admission_passes_a_gate_seen_quiescent() {
        let gate = Arc::new(DrainGate::default());
        let sealed = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (gate, sealed, violations, stop) = (
                    gate.clone(),
                    sealed.clone(),
                    violations.clone(),
                    stop.clone(),
                );
                std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        if let Ok(_inside) = gate.admit() {
                            if sealed.load(Ordering::SeqCst) {
                                violations.fetch_add(1, Ordering::SeqCst);
                            }
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            gate.begin_drain(Duration::from_millis(1));
            assert!(gate.wait_quiescent(Instant::now() + Duration::from_secs(10)));
            sealed.store(true, Ordering::SeqCst);
            // Admissions keep arriving here; every one must be refused.
            for _ in 0..50 {
                std::hint::spin_loop();
            }
            sealed.store(false, Ordering::SeqCst);
            gate.end_drain();
        }
        stop.store(true, Ordering::SeqCst);
        for w in workers {
            w.join().expect("worker");
        }
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }
}
