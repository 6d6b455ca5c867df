//! Seeded inputs and the closed-loop caller shared by the workloads:
//! each caller thread blocks on every reply before sending the next
//! call, through the production `cde::ClientEnvironment`.

use std::sync::Arc;
use std::time::Instant;

use cde::{ClientEnvironment, DynamicStub};
use jpie::Value;
use obs::rng::XorShift64;

use crate::{spans, CallRec, OpRec, Wire};

/// One generated call.
#[derive(Debug, Clone)]
pub enum Input {
    /// `echo(s)`: must return `s`.
    Echo(String),
    /// A non-idempotent counter increment: the named method takes no
    /// arguments and returns the new count.
    Bump(&'static str),
}

/// Where a caller sends one call.
pub struct Target<'a> {
    pub wire: Wire,
    pub env: &'a ClientEnvironment,
    pub stub: &'a Arc<DynamicStub>,
}

/// A thread's SOAP and CORBA stubs as targets 0 and 1.
pub fn wires<'a>(env: &'a ClientEnvironment, stubs: &'a [Arc<DynamicStub>; 2]) -> [Target<'a>; 2] {
    [
        Target {
            wire: Wire::Soap,
            env,
            stub: &stubs[0],
        },
        Target {
            wire: Wire::Corba,
            env,
            stub: &stubs[1],
        },
    ]
}

/// The seeded payload mix: 70 % 16 B, 25 % 256 B and 5 % 4 KiB strings.
pub fn payload(rng: &mut XorShift64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let len = match rng.gen_usize(100) {
        0..=69 => 16,
        70..=94 => 256,
        _ => 4096,
    };
    (0..len)
        .map(|_| ALPHABET[rng.gen_usize(ALPHABET.len())] as char)
        .collect()
}

/// `n` inputs: `echo` with the payload mix, and `bump` with probability
/// `bump_share`.
pub fn inputs(rng: &mut XorShift64, n: usize, bump_share: f64, bump: &'static str) -> Vec<Input> {
    (0..n)
        .map(|_| {
            if rng.gen_bool(bump_share) {
                Input::Bump(bump)
            } else {
                Input::Echo(payload(rng))
            }
        })
        .collect()
}

/// Makes one call and checks its result.
pub fn call(t: &Target, input: &Input) -> Result<(), String> {
    let result = match input {
        Input::Echo(p) => t.env.call(t.stub, "echo", &[Value::Str(p.clone())]),
        Input::Bump(method) => t.env.call(t.stub, method, &[]),
    };
    match (input, result) {
        (Input::Echo(p), Ok(Value::Str(s))) if s == *p => Ok(()),
        (Input::Bump(_), Ok(Value::Int(_))) => Ok(()),
        (_, Ok(v)) => Err(format!("unexpected reply {v:?}")),
        (_, Err(e)) => Err(e.to_string()),
    }
}

/// What one caller thread did in the window.
#[derive(Default)]
pub struct LoopResult {
    pub calls: Vec<CallRec>,
    pub ops: Vec<OpRec>,
    /// Acknowledged `bump` calls per target.
    pub bumps_ok: Vec<u64>,
    pub first_error: Option<String>,
}

/// A closed-loop caller: takes `(target, input)` pairs in order from its
/// schedule (cycling) and records every call. With `bump_is_op`, each
/// `bump` also counts as one of the workload's state-changing
/// operations.
pub struct Caller<'a> {
    thread: u8,
    targets: &'a [Target<'a>],
    schedule: &'a [(usize, Input)],
    bump_is_op: bool,
    next: usize,
    out: LoopResult,
}

impl<'a> Caller<'a> {
    pub fn new(
        thread: u8,
        targets: &'a [Target<'a>],
        schedule: &'a [(usize, Input)],
        bump_is_op: bool,
    ) -> Caller<'a> {
        Caller {
            thread,
            targets,
            schedule,
            bump_is_op,
            next: 0,
            out: LoopResult {
                bumps_ok: vec![0; targets.len()],
                ..LoopResult::default()
            },
        }
    }

    /// Calls until `until`; the call in flight then completes.
    pub fn call_until(&mut self, until: Instant) {
        while Instant::now() < until {
            let (ti, input) = &self.schedule[self.next % self.schedule.len()];
            self.next += 1;
            let t = &self.targets[*ti];
            let start_ns = spans::now_ns();
            let (traced, result) = {
                let span = spans::open(t.wire.call_span());
                (span.recorded(), call(t, input))
            };
            let end_ns = spans::now_ns();
            let ok = result.is_ok();
            if let Err(e) = result {
                self.out.first_error.get_or_insert(e);
            }
            self.out.calls.push(CallRec {
                thread: self.thread,
                wire: t.wire,
                start_ns,
                dur_ns: end_ns - start_ns,
                ok,
                traced,
            });
            if matches!(input, Input::Bump(_)) {
                self.out.bumps_ok[*ti] += u64::from(ok);
                if self.bump_is_op {
                    self.out.ops.push(OpRec {
                        thread: self.thread,
                        start_ns,
                        timed_from_ns: start_ns,
                        end_ns,
                        ok,
                    });
                }
            }
        }
    }

    /// Ends the caller's thread: flushes its spans, returns its record.
    pub fn finish(self) -> LoopResult {
        spans::flush();
        self.out
    }
}

/// Runs a [`Caller`] until `deadline` on the current thread.
pub fn call_loop(
    thread: u8,
    deadline: Instant,
    targets: &[Target],
    schedule: &[(usize, Input)],
    bump_is_op: bool,
) -> LoopResult {
    let mut caller = Caller::new(thread, targets, schedule, bump_is_op);
    caller.call_until(deadline);
    caller.finish()
}
