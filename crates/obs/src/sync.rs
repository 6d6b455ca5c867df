//! `parking_lot`-flavoured wrappers over `std::sync`.
//!
//! The workspace was written against the `parking_lot` API: `lock()`
//! returns a guard directly (no `Result`), and a poisoned lock is not an
//! error state. These wrappers preserve that contract on top of the
//! standard library — a panic while holding a lock simply leaves the
//! protected data as-is for the next locker.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- Mutex

pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// A guard that owns the underlying `std` guard in an `Option` so the
/// [`Condvar`] can temporarily take it during a wait.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard active")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard active")
    }
}

// -------------------------------------------------------------- Condvar

#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard active");
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(g);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard active");
        let (g, timed_out) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, r)) => (g, r.timed_out()),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r.timed_out())
            }
        };
        guard.inner = Some(g);
        WaitTimeoutResult(timed_out)
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        self.wait_for(guard, timeout)
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

// --------------------------------------------------------------- Notify

/// An explicit wakeup: an event counter plus a condvar.
///
/// [`Notify::wait_until`] re-checks the caller's condition after every
/// [`Notify::notify`] and sleeps in between, so a thread waiting for "the
/// last request left", "a new ACK landed" or "stop was requested" is
/// woken by the event itself instead of polling on a timeout. The
/// condition is evaluated *outside* the internal lock (it may take other
/// locks), and the counter is read before each evaluation, so a notify
/// that lands between the check and the sleep is never lost.
#[derive(Debug, Default)]
pub struct Notify {
    events: Mutex<u64>,
    cond: Condvar,
}

impl Notify {
    pub const fn new() -> Self {
        Self {
            events: Mutex::new(0),
            cond: Condvar::new(),
        }
    }

    /// Announces an event and wakes every waiter.
    pub fn notify(&self) {
        *self.events.lock() += 1;
        self.cond.notify_all();
    }

    /// Blocks until `done()` returns true or `deadline` passes (`None`
    /// waits forever); `done` is re-evaluated after every notify.
    /// Returns the final value of `done()`.
    pub fn wait_until(&self, deadline: Option<Instant>, mut done: impl FnMut() -> bool) -> bool {
        loop {
            let seen = *self.events.lock();
            if done() {
                return true;
            }
            let mut events = self.events.lock();
            while *events == seen {
                match deadline {
                    Some(d) => {
                        if self.cond.wait_until(&mut events, d).timed_out() {
                            drop(events);
                            return done();
                        }
                    }
                    None => self.cond.wait(&mut events),
                }
            }
        }
    }
}

// --------------------------------------------------------------- RwLock

pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard {
                inner: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                inner: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_survives_panic_while_held() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let c = Condvar::new();
        let mut g = m.lock();
        let r = c.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, c) = &*pair2;
            let mut done = m.lock();
            while !*done {
                c.wait(&mut done);
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        let (m, c) = &*pair;
        *m.lock() = true;
        c.notify_all();
        t.join().expect("waiter");
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn wait_until_past_deadline_returns_immediately() {
        let m = Mutex::new(());
        let c = Condvar::new();
        let mut g = m.lock();
        let r = c.wait_until(&mut g, Instant::now() - Duration::from_secs(1));
        assert!(r.timed_out());
    }

    #[test]
    fn notify_wakes_a_waiter_without_a_timeout() {
        let n = Arc::new(Notify::new());
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (n2, f2) = (n.clone(), flag.clone());
        let t = std::thread::spawn(move || {
            n2.wait_until(None, || f2.load(std::sync::atomic::Ordering::SeqCst))
        });
        flag.store(true, std::sync::atomic::Ordering::SeqCst);
        n.notify();
        assert!(t.join().expect("waiter"));
    }

    #[test]
    fn notify_wait_times_out_with_the_final_check() {
        let n = Notify::new();
        let started = Instant::now();
        assert!(!n.wait_until(Some(Instant::now() + Duration::from_millis(5)), || false));
        assert!(started.elapsed() >= Duration::from_millis(5));
        assert!(n.wait_until(Some(Instant::now()), || true));
    }
}
