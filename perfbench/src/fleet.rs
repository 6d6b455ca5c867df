//! `fleet_move`: a 3-shard `Router` over `tcp://` serving a SOAP class
//! and a CORBA class. Two closed-loop threads bump counters on both
//! classes, through the router's front and its GIOP proxy; one of them
//! is also the operator: at a seeded cadence it stops calling and moves
//! a class, round-robin, to the next shard with `Router::move_class`.
//! The control plane does the work here: catch-up, drain, handoff, WAL
//! replication, the route and proxy swap, and router forwarding.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cde::{ClientEnvironment, DynamicStub, ResiliencePolicy};
use obs::rng::XorShift64;
use router::{ClassSpec, MigrationEvent, Router, RouterConfig};
use sde::TransportKind;

use crate::layers::{self, LayerData, Probe};
use crate::load::{self, Caller, Input};
use crate::steady::{class_source, BUMPS};
use crate::{setup_repeatedly, spans, wait_window, Check, Ctx, OpRec, Outcome};

const CLASSES: [&str; 2] = ["FleetSoap", "FleetCorba"];
const SHARDS: usize = 3;
/// Calls per thread and class before the window, part of set-up.
const WARMUP: usize = 25;
/// Calling time between one move's end and the next move's start: a
/// fixed part plus a seeded offset below `GAP_JITTER_MS`.
const GAP_BASE_MS: u64 = 60;
const GAP_JITTER_MS: u64 = 60;
const MOVES: usize = 1024;

struct Stack {
    router: Router,
    env: ClientEnvironment,
    /// Per thread: its own SOAP and CORBA stubs.
    stubs: [[Arc<DynamicStub>; 2]; 2],
}

fn setup(ctx: &Ctx, i: usize) -> Stack {
    let wal_root = ctx.work_dir.join(format!("fleet-{i}"));
    let mut cfg = RouterConfig::new(
        SHARDS,
        TransportKind::Tcp,
        &wal_root,
        format!("perfbench-{}-{i}", std::process::id()),
    );
    cfg.seed = ctx.seed;
    let router = Router::start(
        cfg,
        vec![
            ClassSpec::soap(CLASSES[0], class_source(CLASSES[0])),
            ClassSpec::corba(CLASSES[1], class_source(CLASSES[1])),
        ],
    )
    .expect("router start");
    assert!(
        router.wait_converged(Duration::from_secs(10)),
        "fleet must converge"
    );
    // Calls parked by a drain come back with a 503 and Retry-After;
    // this policy rides them out the way the router's own tests do.
    let env = ClientEnvironment::with_policy(
        ResiliencePolicy::seeded(ctx.seed)
            .with_request_timeout(Duration::from_millis(250))
            .with_max_attempts(10)
            .with_deadline(Duration::from_secs(8))
            .with_breaker(256, Duration::from_millis(500)),
    );
    let connect = || {
        [
            env.connect_soap(&router.wsdl_url(CLASSES[0]))
                .expect("soap stub"),
            env.connect_corba(&router.idl_url(CLASSES[1]), &router.ior_url(CLASSES[1]))
                .expect("corba stub"),
        ]
    };
    let stubs = [connect(), connect()];
    for (thread, thread_stubs) in stubs.iter().enumerate() {
        for target in &load::wires(&env, thread_stubs) {
            for _ in 0..WARMUP {
                load::call(target, &Input::Bump(BUMPS[thread].0)).expect("warm-up bump");
            }
        }
    }
    Stack { router, env, stubs }
}

/// What the operator saw of its moves.
#[derive(Default)]
struct Moves {
    ops: Vec<OpRec>,
    events: Vec<MigrationEvent>,
    wrong_home: u64,
    version_drops: u64,
    first_error: Option<String>,
}

/// Calls through `caller` for each scheduled gap, then moves the
/// scheduled class to the next shard; stops at `deadline`.
fn operate(
    router: &Router,
    deadline: Instant,
    schedule: &[(usize, u64)],
    caller: &mut Caller,
) -> Moves {
    let mut r = Moves::default();
    for &(c, gap_ms) in schedule.iter().cycle() {
        let due = Instant::now() + Duration::from_millis(gap_ms);
        if due >= deadline {
            caller.call_until(deadline);
            break;
        }
        caller.call_until(due);
        let class = CLASSES[c];
        let to = (router.shard_of(class) + 1) % SHARDS;
        let before = router.doc_version(class);
        let start = spans::now_ns();
        let moved = {
            let _span = spans::open("router.move_class");
            router.move_class(class, to)
        };
        let end = spans::now_ns();
        let homed = router.shard_of(class) == to;
        let after = router.doc_version(class);
        let monotonic = matches!((before, after), (Some(b), Some(a)) if a >= b);
        r.wrong_home += u64::from(!homed);
        r.version_drops += u64::from(!monotonic);
        r.ops.push(OpRec {
            thread: 1,
            start_ns: start,
            timed_from_ns: start,
            end_ns: end,
            ok: moved.is_ok() && homed && monotonic,
        });
        match moved {
            Ok(event) => r.events.push(event),
            Err(e) => {
                r.first_error
                    .get_or_insert(format!("move {class} -> {to}: {e}"));
            }
        }
    }
    r
}

pub fn run(ctx: &Ctx, probe: &mut Probe) -> Outcome {
    let mut rng = XorShift64::seed_from_u64(ctx.seed);
    let first = rng.gen_usize(2);
    let schedule: Vec<(usize, u64)> = (0..MOVES)
        .map(|i| {
            let gap = GAP_BASE_MS + rng.gen_usize(GAP_JITTER_MS as usize) as u64;
            ((first + i) % 2, gap)
        })
        .collect();
    // Each thread alternates between the wires on its own counter,
    // thread 0 starting on SOAP and thread 1 on CORBA.
    let calls: [Vec<(usize, Input)>; 2] = [0, 1].map(|thread| {
        let bump = Input::Bump(BUMPS[thread].0);
        vec![(thread, bump.clone()), (1 - thread, bump)]
    });
    let (stack, setup_s) = setup_repeatedly(|i| setup(ctx, i), |s| s.router.shutdown());

    probe.start();
    let start = Instant::now();
    let start_ns = spans::now_ns();
    let deadline = start + ctx.window;
    let (caller, operator, moves, steal) = std::thread::scope(|s| {
        let caller = s.spawn(|| {
            let targets = load::wires(&stack.env, &stack.stubs[0]);
            load::call_loop(0, deadline, &targets, &calls[0], false)
        });
        let operator = s.spawn(|| {
            let targets = load::wires(&stack.env, &stack.stubs[1]);
            let mut caller = Caller::new(1, &targets, &calls[1], false);
            let moves = operate(&stack.router, deadline, &schedule, &mut caller);
            (caller.finish(), moves)
        });
        let steal = wait_window(ctx, start);
        let (operator, moves) = operator.join().expect("operator thread");
        let caller = caller.join().expect("caller thread");
        (caller, operator, moves, steal)
    });
    probe.stop();

    let mut checks = Vec::new();
    for (w, class) in CLASSES.into_iter().enumerate() {
        for (thread, (method, field)) in BUMPS.into_iter().enumerate() {
            let executed = stack.router.field_value(class, field).unwrap_or(-1);
            let acked = WARMUP as u64 + [&caller, &operator][thread].bumps_ok[w];
            checks.push(Check::new(
                &format!("fleet_move: {class}.{method} executions == calls"),
                executed == acked as i64,
                format!("executions {executed}, acknowledged {acked}"),
            ));
        }
    }
    let call_error = caller.first_error.clone().or(operator.first_error.clone());
    checks.push(Check::new(
        "fleet_move: every call succeeds",
        call_error.is_none(),
        call_error.unwrap_or_default(),
    ));
    checks.push(Check::new(
        "fleet_move: every move completes",
        moves.first_error.is_none() && !moves.ops.is_empty(),
        format!(
            "{} moves; {}",
            moves.ops.len(),
            moves.first_error.clone().unwrap_or_default()
        ),
    ));
    checks.push(Check::new(
        "fleet_move: class homed on target after move",
        moves.wrong_home == 0,
        format!("{} misplaced", moves.wrong_home),
    ));
    checks.push(Check::new(
        "fleet_move: document versions never decrease",
        moves.version_drops == 0,
        format!("{} decreases", moves.version_drops),
    ));

    let mut out = Outcome {
        setup_s,
        steal,
        checks,
        calls: caller.calls,
        ops: moves.ops,
        notes: vec![
            "fleet_move: sde_* and http_* counters are fleet-wide aggregates \
             (all shards share one registry); httpd.request_us mixes front and \
             backend requests"
                .into(),
        ],
        ..Outcome::default()
    };
    out.calls.extend(operator.calls);
    out.close_window(start_ns);
    let parse = |name: &str| jpie::parse::parse_class(&class_source(name)).expect("class");
    let (soap_calls, corba_calls) = layers::replay_inputs(CLASSES[0], calls.iter().flatten());
    out.layer = LayerData {
        soap_calls,
        corba_calls,
        soap_classes: vec![parse(CLASSES[0])],
        corba_classes: vec![parse(CLASSES[1])],
        migrations: moves.events,
        ..LayerData::default()
    };
    stack.router.shutdown();
    out
}
