//! `/proc`-based process introspection for benchmark reports.
//!
//! The reactor's headline claim is *conns without threads*: thousands of
//! idle keep-alive connections on a fixed-size thread set. The numbers
//! that prove it — peak OS thread count and resident set size — come
//! from `/proc/self/status`, sampled here. On non-Linux builds every
//! reader returns 0 and the report fields degrade to `null`/absent.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Current number of OS threads in this process (`Threads:` in
/// `/proc/self/status`), or 0 where that file does not exist.
pub fn threads_now() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// Current resident set size in bytes (`VmRSS:` in `/proc/self/status`,
/// reported there in kB), or 0 where unavailable.
pub fn rss_bytes() -> u64 {
    status_field("VmRSS:").map(|kb| kb * 1024).unwrap_or(0)
}

fn status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peaks observed by a [`PeakSampler`] run.
#[derive(Debug, Clone, Copy)]
pub struct PeakStats {
    /// Highest OS thread count sampled (includes the sampler thread).
    pub threads_peak: u64,
    /// Highest `reactor_fds_registered` gauge value sampled — the peak
    /// number of connections the reactor shards held concurrently.
    pub concurrent_conns: i64,
}

/// Background sampler recording peak thread count and peak reactor
/// connection registrations while a benchmark runs.
pub struct PeakSampler {
    stop: Arc<AtomicBool>,
    threads_peak: Arc<AtomicU64>,
    conns_peak: Arc<AtomicI64>,
    handle: Option<JoinHandle<()>>,
}

impl PeakSampler {
    /// Starts sampling every few milliseconds on a dedicated thread
    /// (which itself counts toward the thread peak — by one, fixed).
    pub fn start() -> PeakSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let threads_peak = Arc::new(AtomicU64::new(0));
        let conns_peak = Arc::new(AtomicI64::new(0));
        let gauge = obs::registry().gauge("reactor_fds_registered");
        let (s, t, c) = (stop.clone(), threads_peak.clone(), conns_peak.clone());
        let handle = std::thread::Builder::new()
            .name("bench-peak-sampler".into())
            .spawn(move || {
                while !s.load(Ordering::Relaxed) {
                    t.fetch_max(threads_now(), Ordering::Relaxed);
                    c.fetch_max(gauge.get(), Ordering::Relaxed);
                    // Sampling period: this thread exists to poll the gauges.
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
            .expect("spawn peak sampler");
        PeakSampler {
            stop,
            threads_peak,
            conns_peak,
            handle: Some(handle),
        }
    }

    /// Stops the sampler and returns the observed peaks.
    pub fn stop(mut self) -> PeakStats {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        // One final sample so short runs still see their own state.
        self.threads_peak
            .fetch_max(threads_now(), Ordering::Relaxed);
        PeakStats {
            threads_peak: self.threads_peak.load(Ordering::Relaxed),
            concurrent_conns: self.conns_peak.load(Ordering::Relaxed),
        }
    }
}

impl Drop for PeakSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_thread_count_and_rss() {
        // Every Rust test process has at least one thread and some RSS.
        assert!(threads_now() >= 1);
        assert!(rss_bytes() > 0);
    }

    #[test]
    fn sampler_sees_extra_threads() {
        let sampler = PeakSampler::start();
        let barrier = Arc::new(std::sync::Barrier::new(5));
        let holders: Vec<_> = (0..4)
            .map(|_| {
                let b = barrier.clone();
                std::thread::spawn(move || {
                    b.wait();
                })
            })
            .collect();
        // Give the sampler a few ticks while the 4 threads are alive.
        std::thread::sleep(Duration::from_millis(30));
        barrier.wait();
        for h in holders {
            h.join().unwrap();
        }
        let stats = sampler.stop();
        assert!(stats.threads_peak >= 5, "peak {}", stats.threads_peak);
    }
}
