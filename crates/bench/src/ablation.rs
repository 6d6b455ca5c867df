//! The §5.6 publication-strategy ablation.
//!
//! The paper argues for stable-timeout publishing over two alternatives:
//! change-driven ("would often lead to publishing transient server
//! interface descriptions ... expensive at the server ... unnecessary
//! changes at the client") and polling ("could still publish a transient
//! interface \[which\] could persist at the client side until the next
//! polling interval"). This experiment makes that argument quantitative:
//! it replays a recorded edit-session trace (bursts of edits separated by
//! think-time) against each strategy and reports
//!
//! * **publications** — how many documents were pushed to the Interface
//!   Server (server + client cost),
//! * **transient publications** — published versions that were *not* the
//!   final version of their burst (exactly the "transient interfaces" the
//!   paper worries about),
//! * **staleness** — time from the end of each burst until the final
//!   version was published (how long clients waited for the real
//!   interface).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use jpie::{ClassHandle, MethodBuilder, TypeDesc};
use sde::publish::{GeneratedDoc, PublicationStrategy, PublisherCore};
/// A recorded edit session: bursts of edits with intra-burst spacing and
/// inter-burst think time.
#[derive(Debug, Clone, Copy)]
pub struct EditTrace {
    /// Number of edit bursts.
    pub bursts: usize,
    /// Edits per burst.
    pub edits_per_burst: usize,
    /// Gap between edits inside a burst.
    pub intra_gap: Duration,
    /// Think time between bursts (longer than the stable timeout).
    pub inter_gap: Duration,
}

impl Default for EditTrace {
    fn default() -> Self {
        EditTrace {
            bursts: 4,
            edits_per_burst: 5,
            intra_gap: Duration::from_millis(8),
            inter_gap: Duration::from_millis(120),
        }
    }
}

/// Results for one strategy.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Strategy label.
    pub strategy: String,
    /// Total documents published (excluding the initial one).
    pub publications: u64,
    /// Publications of versions that were not burst-final.
    pub transient_publications: u64,
    /// Mean time from burst end to final-version publication, in
    /// milliseconds (`None` when a burst's final version was never
    /// published during the session).
    pub mean_staleness_ms: Option<f64>,
    /// Bursts whose final version was published by session end.
    pub bursts_settled: usize,
    /// Total bursts.
    pub bursts: usize,
}

struct PublicationLog {
    entries: Mutex<Vec<(Instant, u64)>>,
}

/// Replays `trace` against a publisher running `strategy`.
pub fn run_strategy(strategy: PublicationStrategy, trace: &EditTrace) -> AblationRow {
    let class = ClassHandle::new("Ablation");
    class
        .add_method(MethodBuilder::new("seed", TypeDesc::Void).distributed(true))
        .expect("seed");

    let log = Arc::new(PublicationLog {
        entries: Mutex::new(Vec::new()),
    });
    let sink_log = log.clone();
    let gen_class = class.clone();
    let method_counter = AtomicU64::new(0);

    let publisher = PublisherCore::start(
        class.clone(),
        strategy,
        Box::new(move || GeneratedDoc {
            text: format!("v{}", gen_class.interface_version()),
            version: gen_class.interface_version(),
        }),
        Box::new(move |doc| {
            sink_log
                .entries
                .lock()
                .expect("log lock")
                .push((Instant::now(), doc.version));
        }),
    );
    // Generation cost: the paper calls it "a relatively expensive
    // operation"; model a small fixed cost.
    publisher.set_generation_latency(Duration::from_millis(2));

    // Discard the initial publication from the counts.
    let initial_publications = 1u64;

    let mut burst_ends: Vec<(Instant, u64)> = Vec::new(); // (end time, final version)
    for _ in 0..trace.bursts {
        for _ in 0..trace.edits_per_burst {
            let n = method_counter.fetch_add(1, Ordering::Relaxed);
            class
                .add_method(MethodBuilder::new(format!("m{n}"), TypeDesc::Void).distributed(true))
                .expect("edit");
            // Replays the trace's think time between two edits.
            thread::sleep(trace.intra_gap);
        }
        burst_ends.push((Instant::now(), class.interface_version()));
        // Replays the trace's pause between edit bursts.
        thread::sleep(trace.inter_gap);
    }
    // Let in-flight work drain (bounded).
    let drain_deadline = Instant::now() + Duration::from_secs(2);
    while !publisher.is_current() && Instant::now() < drain_deadline {
        // Waits for the stable timer to fire on its own: `ensure_current`
        // would force a generation into the counts being measured.
        thread::sleep(Duration::from_millis(5));
    }
    publisher.shutdown();

    let entries = log.entries.lock().expect("log lock").clone();
    let published: Vec<(Instant, u64)> = entries;
    let publications = (published.len() as u64).saturating_sub(initial_publications);

    let final_versions: Vec<u64> = burst_ends.iter().map(|(_, v)| *v).collect();
    let transient_publications = published
        .iter()
        .skip(initial_publications as usize)
        .filter(|(_, v)| !final_versions.contains(v))
        .count() as u64;

    let mut staleness = Vec::new();
    let mut settled = 0;
    for (end, final_version) in &burst_ends {
        if let Some((t, _)) = published
            .iter()
            .find(|(t, v)| v >= final_version && t >= end)
            .or_else(|| published.iter().find(|(_, v)| v >= final_version))
        {
            settled += 1;
            let dt = t.saturating_duration_since(*end);
            staleness.push(dt.as_secs_f64() * 1e3);
        }
    }
    let mean_staleness_ms = if staleness.is_empty() {
        None
    } else {
        Some(staleness.iter().sum::<f64>() / staleness.len() as f64)
    };

    AblationRow {
        strategy: strategy_label(strategy),
        publications,
        transient_publications,
        mean_staleness_ms,
        bursts_settled: settled,
        bursts: trace.bursts,
    }
}

fn strategy_label(strategy: PublicationStrategy) -> String {
    match strategy {
        PublicationStrategy::ChangeDriven => "change-driven".into(),
        PublicationStrategy::Periodic(d) => format!("poll({}ms)", d.as_millis()),
        PublicationStrategy::StableTimeout(d) => format!("stable({}ms)", d.as_millis()),
    }
}

/// Runs the full ablation: change-driven, two poll rates, and the paper's
/// stable timeout.
pub fn run_ablation(trace: &EditTrace, stable_timeout: Duration) -> Vec<AblationRow> {
    vec![
        run_strategy(PublicationStrategy::ChangeDriven, trace),
        run_strategy(PublicationStrategy::Periodic(stable_timeout / 2), trace),
        run_strategy(PublicationStrategy::Periodic(stable_timeout * 2), trace),
        run_strategy(PublicationStrategy::StableTimeout(stable_timeout), trace),
    ]
}

/// Sweeps the stable timeout across `timeouts` — the §5.6 knob: "The user
/// can control the publication frequency by tuning the interval of
/// stability that triggers updates." Short timeouts behave like
/// change-driven publishing (more publications, transients appear);
/// long timeouts publish less but leave clients stale longer after a
/// burst.
pub fn run_timeout_sweep(trace: &EditTrace, timeouts: &[Duration]) -> Vec<AblationRow> {
    timeouts
        .iter()
        .map(|t| run_strategy(PublicationStrategy::StableTimeout(*t), trace))
        .collect()
}

/// Renders the ablation rows.
pub fn render(rows: &[AblationRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.clone(),
                r.publications.to_string(),
                r.transient_publications.to_string(),
                r.mean_staleness_ms
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "-".into()),
                format!("{}/{}", r.bursts_settled, r.bursts),
            ]
        })
        .collect();
    let mut out = String::from("Section 5.6 ablation: publication strategies over an edit trace\n");
    out.push_str(&crate::render_table(
        &[
            "strategy",
            "publications",
            "transient",
            "staleness(ms)",
            "settled",
        ],
        &table_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_timeout_eliminates_transient_publications() {
        let trace = EditTrace::default();
        let change_driven = run_strategy(PublicationStrategy::ChangeDriven, &trace);
        let stable = run_strategy(
            PublicationStrategy::StableTimeout(Duration::from_millis(40)),
            &trace,
        );

        let total_edits = (trace.bursts * trace.edits_per_burst) as u64;
        // Change-driven publishes roughly once per edit (coalescing can
        // merge a few), always strictly more than stable.
        assert!(
            change_driven.publications > stable.publications,
            "change-driven {} vs stable {}",
            change_driven.publications,
            stable.publications
        );
        assert!(change_driven.publications <= total_edits);
        // The paper's mechanism: at most one publication per burst, all
        // burst-final (no transient interfaces).
        assert!(stable.publications <= trace.bursts as u64 + 1);
        assert_eq!(stable.transient_publications, 0);
        assert_eq!(stable.bursts_settled, trace.bursts);
        // Change-driven necessarily published transients (burst length > 1).
        assert!(change_driven.transient_publications > 0);
    }

    #[test]
    fn fast_polling_publishes_transients() {
        let trace = EditTrace::default();
        let poll = run_strategy(
            PublicationStrategy::Periodic(Duration::from_millis(10)),
            &trace,
        );
        assert!(
            poll.transient_publications > 0,
            "fast polling catches mid-burst states: {poll:?}"
        );
    }
}
