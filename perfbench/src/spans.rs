//! The benchmark's own spans: opened around each public call it makes
//! into a layer, kept in memory per thread, and collected when the run
//! ends. Nothing here reaches into the program; a span times only what
//! the benchmark can see from outside.
//!
//! A span records its name, start, end, parent and one id per logical
//! operation (a root span starts a new operation, its children share
//! it). A layer's self time is the span's duration minus the time its
//! child spans cover; children run on the parent's thread, nested and
//! one after another, so their durations simply add up.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Whether a new root span records. Flipped by the traced run to
/// alternate traced and untraced slices of one window.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub op: u64,
    /// Index of the parent in the collected list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Local {
    spans: Vec<SpanRec>,
    /// Open spans: `Some(index)` when recording, `None` when the span
    /// was opened while recording was off (its children follow it).
    stack: Vec<Option<usize>>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's first call to this module.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording of new root spans on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; closes on drop.
#[must_use]
pub struct Guard {
    idx: Option<usize>,
}

impl Guard {
    /// Whether this span is being recorded.
    pub fn recorded(&self) -> bool {
        self.idx.is_some()
    }
}

/// Opens a span named `name` under the innermost open span of this
/// thread, or as a new operation's root when none is open.
pub fn open(name: &'static str) -> Guard {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (record, parent) = match l.stack.last() {
            Some(&top) => (top.is_some(), top),
            None => (ENABLED.load(Ordering::Relaxed), None),
        };
        let idx = record.then(|| {
            let op = match parent {
                Some(p) => l.spans[p].op,
                None => NEXT_OP.fetch_add(1, Ordering::Relaxed),
            };
            l.spans.push(SpanRec {
                name,
                op,
                parent,
                start_ns: now_ns(),
                end_ns: 0,
            });
            l.spans.len() - 1
        });
        l.stack.push(idx);
        Guard { idx }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            if let Some(i) = self.idx {
                l.spans[i].end_ns = end;
            }
        });
    }
}

/// Moves this thread's finished spans into the process-wide list. Call
/// at the end of every thread that opened spans.
pub fn flush() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    let mut sink = SINK.lock().expect("span sink poisoned");
    let offset = sink.len();
    sink.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Self time of every span named `name`, in nanoseconds.
pub fn self_times(spans: &[SpanRec], name: &str) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64)
        .collect()
}

/// Every span flushed so far.
pub fn collected() -> Vec<SpanRec> {
    SINK.lock().expect("span sink poisoned").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            SpanRec {
                name: "root",
                op: 1,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            SpanRec {
                name: "child",
                op: 1,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            SpanRec {
                name: "child",
                op: 1,
                parent: Some(0),
                start_ns: 50,
                end_ns: 70,
            },
        ];
        assert_eq!(self_times(&spans, "root"), vec![50.0]);
        assert_eq!(self_times(&spans, "child"), vec![30.0, 20.0]);
    }

    #[test]
    fn children_follow_their_root_and_share_its_operation() {
        set_enabled(true);
        {
            let _root = open("root");
            set_enabled(false);
            let child = open("child");
            assert!(child.recorded(), "a child follows its recorded root");
        }
        let off_root = open("root");
        assert!(!off_root.recorded());
        let off_child = open("child");
        assert!(!off_child.recorded());
        drop(off_child);
        drop(off_root);
        let spans = LOCAL.with(|l| l.borrow().spans.clone());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
    }
}
