//! The repository benchmark: three closed-loop workloads driven through
//! the production stack (cde `ClientEnvironment`, `tcp://` loopback, the
//! reactor engine, the SDE servers and the router), each checked for
//! correct outputs, each reporting end-to-end metrics from an untraced
//! run and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <rmi_steady|live_edit|fleet_move> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are the human-readable report. A failed correctness check prints
//! `"correct": false` with no metrics and exits with code 1.

pub mod edit;
pub mod fleet;
pub mod layers;
pub mod load;
pub mod spans;
pub mod steady;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds out of range: {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

pub const WORKLOADS: [&str; 3] = ["rmi_steady", "live_edit", "fleet_move"];

/// Times each workload sets its stack up; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// What one workload run needs from the harness.
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub traced: bool,
    /// Scratch directory for WALs, inside the checkout.
    pub work_dir: PathBuf,
}

/// The wire a call used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    Soap,
    Corba,
}

impl Wire {
    /// Name of the benchmark's span around a `cde` call on this wire.
    pub fn call_span(self) -> &'static str {
        match self {
            Wire::Soap => "cde.call.soap",
            Wire::Corba => "cde.call.corba",
        }
    }
}

/// One RMI call made in the measured window.
#[derive(Debug, Clone, Copy)]
pub struct CallRec {
    pub thread: u8,
    pub wire: Wire,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub ok: bool,
    /// Made while the benchmark's spans were recording (traced run).
    pub traced: bool,
}

/// One unit of the workload's state-changing operation: a `bump` call
/// (rmi_steady), an edit cycle (live_edit) or a class move (fleet_move).
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    pub thread: u8,
    pub start_ns: u64,
    /// Start of the interval `op_*` times; for an edit cycle this is
    /// the moment the edit was committed.
    pub timed_from_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

/// A correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Seconds and steal ticks of each set-up.
    pub setup_s: Vec<(f64, u64)>,
    /// `(time, steal ticks)` samples taken through the window.
    pub steal: Vec<(u64, u64)>,
    pub start_ns: u64,
    /// Window start → last call or operation completed.
    pub window_s: f64,
    pub calls: Vec<CallRec>,
    pub ops: Vec<OpRec>,
    /// Operations attempted beyond `calls` and `ops` (live_edit's stale
    /// calls and refreshes), and how many did not give the expected result.
    pub extra_attempted: u64,
    pub extra_failed: u64,
    pub checks: Vec<Check>,
    pub layer: layers::LayerData,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.calls.len() as u64 + self.ops.len() as u64 + self.extra_attempted
    }

    pub fn failed(&self) -> u64 {
        self.calls.iter().filter(|c| !c.ok).count() as u64
            + self.ops.iter().filter(|o| !o.ok).count() as u64
            + self.extra_failed
    }

    fn slice_count(&self) -> usize {
        (self.window_s.round() as usize).max(1)
    }

    /// Index of the one-second slice of the window holding `ns` (at
    /// least one slice; the last takes the remainder).
    fn slice_of(&self, ns: u64) -> usize {
        let n = self.slice_count();
        let slice_ns = (self.window_s * 1e9 / n as f64).max(1.0);
        ((ns.saturating_sub(self.start_ns) as f64 / slice_ns) as usize).min(n - 1)
    }

    /// `items` in one-second slices of the window by start time.
    pub fn slices<'a, T>(&self, items: &'a [T], start_ns: impl Fn(&T) -> u64) -> Vec<Vec<&'a T>> {
        let mut slices = vec![Vec::new(); self.slice_count()];
        for item in items {
            slices[self.slice_of(start_ns(item))].push(item);
        }
        slices
    }

    /// Steal ticks that fell in each slice.
    pub fn slice_steal(&self) -> Vec<u64> {
        let mut steal = vec![0; self.slice_count()];
        for w in self.steal.windows(2) {
            steal[self.slice_of(w[1].0)] += w[1].1 - w[0].1;
        }
        steal
    }

    pub fn ok_calls(&self) -> usize {
        self.calls.iter().filter(|c| c.ok).count()
    }

    /// Sets `window_s` from the window's start to the last call or
    /// operation completed.
    pub fn close_window(&mut self, start_ns: u64) {
        let last = self
            .calls
            .iter()
            .map(|c| c.start_ns + c.dur_ns)
            .chain(self.ops.iter().map(|o| o.end_ns))
            .max()
            .unwrap_or(start_ns);
        self.start_ns = start_ns;
        self.window_s = last.saturating_sub(start_ns) as f64 / 1e9;
    }
}

/// Sets up `SETUPS` times, tearing all but the last stack down, and
/// returns the last with each set-up's seconds and steal ticks.
pub fn setup_repeatedly<T>(
    mut setup: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<(f64, u64)>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        let (t0, steal0) = (Instant::now(), steal_ticks());
        let stack = setup(i);
        times.push((t0.elapsed().as_secs_f64(), steal_ticks() - steal0));
        if let Some(prev) = last.replace(stack) {
            teardown(prev);
        }
    }
    (last.expect("at least one set-up"), times)
}

/// Waits out the window on the calling thread, sampling the VM's steal
/// ticks every 100 ms; returns the `(time, steal)` samples. In a traced
/// run it alternates 200 ms slices with the benchmark's spans on and
/// off, so the two halves of one window give the tracing overhead.
pub fn wait_window(ctx: &Ctx, start: Instant) -> Vec<(u64, u64)> {
    const TICK: Duration = Duration::from_millis(100);
    let end = start + ctx.window;
    let mut steal = vec![(spans::now_ns(), steal_ticks())];
    for tick in 0u64.. {
        spans::set_enabled(ctx.traced && tick % 4 < 2);
        let now = Instant::now();
        if now >= end {
            break;
        }
        std::thread::sleep(TICK.min(end - now));
        steal.push((spans::now_ns(), steal_ticks()));
    }
    spans::set_enabled(false);
    steal
}

/// The VM's steal time so far, in `/proc/stat` ticks: time its vCPUs
/// were ready to run while the host ran something else. 0 where the
/// file does not exist.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Marks the calmer half of `steal`: every value at most the (lower)
/// median or at most `negligible`. Ties are kept, and so is everything
/// when no value exceeds `negligible`: dropping slices that differ only
/// by noise would just thin the sample.
pub fn calm(steal: &[u64], negligible: u64) -> Vec<bool> {
    let mut ranked = steal.to_vec();
    ranked.sort_unstable();
    match ranked.get(ranked.len().saturating_sub(1) / 2) {
        Some(&mid) => steal.iter().map(|&x| x <= mid.max(negligible)).collect(),
        None => Vec::new(),
    }
}

/// Nearest-rank quantile of an ascending slice; `+inf` marks a failed
/// operation, which counts as missing every latency limit.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or median.
    pub samples: Option<usize>,
    /// Printed in the report but left out of the result JSON.
    pub report_only: bool,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: None,
            report_only: false,
        }
    }

    pub fn with_samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }

    pub fn report_only(mut self) -> Metric {
        self.report_only = true;
        self
    }
}

/// Median of `f(slice)` over the kept slices, skipping slices where `f`
/// has no value (NaN: nothing of that kind started in the slice).
fn slice_median<T>(slices: &[Vec<&T>], keep: &[bool], f: impl Fn(&[&T]) -> f64) -> f64 {
    median(
        &slices
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(s, _)| f(s))
            .filter(|v| !v.is_nan())
            .collect::<Vec<_>>(),
    )
}

/// The end-to-end metrics of an untraced run.
///
/// Every figure but `setup_s` and `rss_peak_mib` is computed within each
/// one-second slice of the window and reported as the median over the
/// calmer half of the slices, ranked by the VM's steal time: steal is
/// the host running other guests on our vCPUs, it comes in bursts, and
/// it says nothing about the program. `setup_s` is likewise the median
/// of the calmer half of the set-ups. A failed call or operation is
/// `+inf`, so it counts as missing every latency limit. Also returns a
/// note on what was kept.
pub fn end_to_end(out: &Outcome, rss_peak_mib: f64) -> (Vec<Metric>, Vec<String>) {
    let call_ms = |c: &&CallRec| {
        if c.ok {
            c.dur_ns as f64 / 1e6
        } else {
            f64::INFINITY
        }
    };
    let op_ms = |o: &&OpRec| {
        if o.ok {
            (o.end_ns - o.timed_from_ns) as f64 / 1e6
        } else {
            f64::INFINITY
        }
    };
    let slice_steal = out.slice_steal();
    let slice_s = out.window_s / slice_steal.len() as f64;
    // Steal below 2 % of a slice's CPU time (`/proc/stat` counts 100
    // ticks per CPU-second) is noise.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let keep = calm(&slice_steal, (slice_s * cpus as f64 * 2.0) as u64);
    let setup_keep = calm(&out.setup_s.iter().map(|s| s.1).collect::<Vec<_>>(), 0);
    let setups: Vec<f64> = out
        .setup_s
        .iter()
        .zip(&setup_keep)
        .filter(|(_, &k)| k)
        .map(|(s, _)| s.0)
        .collect();
    let calls = out.slices(&out.calls, |c| c.start_ns);
    let ops = out.slices(&out.ops, |o| o.start_ns);
    let pauses = pauses_ms(&out.calls, &out.ops);
    let pause_slices = out.slices(&pauses, |p| p.0);
    let rtt_us = |q: f64, wire: Option<Wire>| {
        1e3 * slice_median(&calls, &keep, |s| {
            let v = s
                .iter()
                .filter(|c| wire.is_none_or(|w| c.wire == w))
                .map(call_ms)
                .collect();
            quantile(&sorted(v), q)
        })
    };
    let count = |wire: Option<Wire>| {
        out.calls
            .iter()
            .filter(|c| wire.is_none_or(|w| c.wire == w))
            .count()
    };
    let op = |q: f64| {
        slice_median(&ops, &keep, |s| {
            quantile(&sorted(s.iter().map(op_ms).collect()), q)
        })
    };
    let note = format!(
        "kept {} of {} one-second slices (steal ticks per slice {:?}) and {} of {} set-ups",
        keep.iter().filter(|&&k| k).count(),
        keep.len(),
        slice_steal,
        setups.len(),
        out.setup_s.len(),
    );
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s").with_samples(setups.len()),
        Metric::new(
            "calls_per_s",
            slice_median(&calls, &keep, |s| {
                s.iter().filter(|c| c.ok).count() as f64 / slice_s
            }),
            "1/s",
        )
        .with_samples(count(None)),
        Metric::new("rtt_p50_us", rtt_us(0.5, None), "us").with_samples(count(None)),
        // Tails are printed but not gated: on a shared VM, host
        // preemption sets the p95 of a run more than the program does.
        Metric::new("rtt_p95_us", rtt_us(0.95, None), "us")
            .with_samples(count(None))
            .report_only(),
        Metric::new("soap_rtt_p50_us", rtt_us(0.5, Some(Wire::Soap)), "us")
            .with_samples(count(Some(Wire::Soap))),
        Metric::new("corba_rtt_p50_us", rtt_us(0.5, Some(Wire::Corba)), "us")
            .with_samples(count(Some(Wire::Corba))),
        Metric::new("op_p50_ms", op(0.5), "ms").with_samples(out.ops.len()),
        Metric::new("op_p95_ms", op(0.95), "ms")
            .with_samples(out.ops.len())
            .report_only(),
        Metric::new(
            "pause_p50_ms",
            slice_median(&pause_slices, &keep, |s| {
                quantile(&sorted(s.iter().map(|p| p.1).collect()), 0.5)
            }),
            "ms",
        )
        .with_samples(pauses.len()),
        Metric::new("rss_peak_mib", rss_peak_mib, "MiB"),
    ];
    (metrics, vec![note])
}

/// Per operation, its start and the longest latency of any other
/// thread's call that overlaps it — the pause callers see while the
/// operation runs. Operations no call overlaps are left out.
pub fn pauses_ms(calls: &[CallRec], ops: &[OpRec]) -> Vec<(u64, f64)> {
    let mut by_start: Vec<&CallRec> = calls.iter().collect();
    by_start.sort_by_key(|c| c.start_ns);
    let longest = by_start.iter().map(|c| c.dur_ns).max().unwrap_or(0);
    ops.iter()
        .filter_map(|op| {
            let from = op.start_ns.saturating_sub(longest);
            let first = by_start.partition_point(|c| c.start_ns < from);
            by_start[first..]
                .iter()
                .take_while(|c| c.start_ns < op.end_ns)
                .filter(|c| c.thread != op.thread && c.start_ns + c.dur_ns > op.start_ns)
                .map(|c| {
                    if c.ok {
                        c.dur_ns as f64 / 1e6
                    } else {
                        f64::INFINITY
                    }
                })
                .max_by(f64::total_cmp)
                .map(|pause| (op.start_ns, pause))
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload and prints its report; returns the exit code.
pub fn run(args: &Args) -> i32 {
    let work_dir = PathBuf::from("perfbench")
        .join(".work")
        .join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return 2;
    }
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
        traced: args.trace,
        work_dir: work_dir.clone(),
    };
    let mut probe = layers::Probe::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "rmi_steady" => steady::run(&ctx, &mut probe),
        "live_edit" => edit::run(&ctx, &mut probe),
        _ => fleet::run(&ctx, &mut probe),
    };
    spans::flush();
    let (metrics, layer_notes) = if args.trace {
        layers::per_layer(&ctx, &mut outcome, &probe)
    } else {
        end_to_end(&outcome, rss_peak_mib())
    };
    let _ = std::fs::remove_dir_all(&work_dir);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench workload={} seed={} seconds={} trace={} nproc={} transport=tcp://127.0.0.1 (loopback) profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    for c in &outcome.checks {
        let _ = writeln!(
            report,
            "check {:<40} {}  {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    let attempted = outcome.attempted();
    let failed = outcome.failed();
    let _ = writeln!(
        report,
        "attempted {attempted} failed {failed} failed_ratio {}",
        failed as f64 / attempted.max(1) as f64
    );
    for m in &metrics {
        let _ = write!(report, "metric {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        if let Some(n) = m.samples {
            let _ = write!(report, "  (n={n})");
        }
        if m.report_only {
            report.push_str("  (report only)");
        }
        report.push('\n');
    }
    for n in outcome.notes.iter().chain(&layer_notes) {
        let _ = writeln!(report, "note {n}");
    }
    print!("{report}");

    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.checks.iter().all(|c| c.ok) && failed == 0 && finite && attempted > 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    if correct {
        for (i, m) in metrics.iter().filter(|m| !m.report_only).enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        0
    } else {
        1
    }
}

/// Entry point shared by both binaries.
pub fn main_with_args() -> i32 {
    match Args::parse(std::env::args().skip(1)) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank_and_failures_sort_last() {
        let v = sorted(vec![3.0, f64::INFINITY, 1.0, 2.0]);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.95), f64::INFINITY);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn pause_takes_the_longest_overlapping_call_of_another_thread() {
        let call = |thread, start_ns, dur_ns| CallRec {
            thread,
            wire: Wire::Soap,
            start_ns,
            dur_ns,
            ok: true,
            traced: false,
        };
        let calls = vec![
            call(1, 0, 5_000_000),
            call(1, 5_000_000, 30_000_000),
            call(0, 10_000_000, 90_000_000),
            call(1, 60_000_000, 1_000_000),
        ];
        let op = OpRec {
            thread: 0,
            start_ns: 10_000_000,
            timed_from_ns: 10_000_000,
            end_ns: 50_000_000,
            ok: true,
        };
        assert_eq!(pauses_ms(&calls, &[op]), vec![(10_000_000, 30.0)]);
    }

    #[test]
    fn calm_keeps_the_lower_half_and_ties() {
        assert_eq!(calm(&[5, 0, 9, 1], 0), vec![false, true, false, true]);
        assert_eq!(calm(&[0, 0, 0], 0), vec![true, true, true]);
        assert_eq!(calm(&[5, 0, 9, 1], 5), vec![true, true, false, true]);
        assert_eq!(calm(&[3, 0, 4, 1], 4), vec![true; 4]);
        assert!(calm(&[], 0).is_empty());
    }

    #[test]
    fn args_reject_unknown_workloads_and_bad_trace() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        assert!(parse("--workload rmi_steady --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload live_edit --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload live_edit --seed 1 --seconds 2").is_err());
    }
}
