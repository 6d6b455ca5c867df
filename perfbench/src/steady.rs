//! `rmi_steady`: two closed-loop callers, one on a SOAP stub and one on
//! a CORBA stub, calling deployed SDE classes with no edits. Per-call
//! cost sets every number here: cde encode, the connection pool, the
//! reactor and httpd or the ORB, reply-cache admission, gateway
//! dispatch, the jpie invocation and decode. No publication, no router.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cde::{ClientEnvironment, DynamicStub};
use jpie::Value;
use obs::rng::XorShift64;
use sde::{PublicationStrategy, SdeConfig, SdeManager, SdeServerGateway, TransportKind};

use crate::layers::{self, LayerData, Probe};
use crate::load::{self, Input};
use crate::{setup_repeatedly, spans, wait_window, Check, Ctx, Outcome, Wire};

const SOAP_CLASS: &str = "SteadySoap";
const CORBA_CLASS: &str = "SteadyCorba";
/// Generated inputs per caller; the caller cycles through them.
const INPUTS: usize = 8192;
/// Share of calls that are the non-idempotent `bump`.
const BUMP_SHARE: f64 = 0.1;
/// Calls per stub before the window, part of set-up.
const WARMUP: usize = 200;

/// Counter method and field of each caller thread. The increment is an
/// unsynchronized read-modify-write, as in the Java it models, so each
/// caller bumps its own counter and executions can be checked exactly.
pub const BUMPS: [(&str, &str); 2] = [("bump0", "n0"), ("bump1", "n1")];

/// A class with `echo(string)` and one counter per caller thread.
pub fn class_source(name: &str) -> String {
    format!(
        "class {name} {{ field int n0; field int n1; \
         distributed string echo(string s) {{ return s; }} \
         distributed int bump0() {{ this.n0 = this.n0 + 1; return this.n0; }} \
         distributed int bump1() {{ this.n1 = this.n1 + 1; return this.n1; }} }}"
    )
}

struct Stack {
    manager: SdeManager,
    env: ClientEnvironment,
    /// Per caller thread: its own SOAP and CORBA stubs, so each thread
    /// keeps one keep-alive connection per authority.
    stubs: [[Arc<DynamicStub>; 2]; 2],
    /// Warm-up bumps per caller thread and class.
    warm_bumps: [[u64; 2]; 2],
}

fn setup(schedules: &[Vec<(usize, Input)>; 2]) -> Stack {
    let manager = SdeManager::new(SdeConfig {
        transport: TransportKind::Tcp,
        strategy: PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
        wal_dir: None,
    })
    .expect("sde manager");
    let soap = manager
        .deploy_soap(jpie::parse::parse_class(&class_source(SOAP_CLASS)).expect("class"))
        .expect("deploy soap");
    soap.create_instance().expect("soap instance");
    soap.publisher().ensure_current();
    let corba = manager
        .deploy_corba(jpie::parse::parse_class(&class_source(CORBA_CLASS)).expect("class"))
        .expect("deploy corba");
    corba.create_instance().expect("corba instance");
    corba.publisher().ensure_current();

    let env = ClientEnvironment::new();
    let connect = || {
        [
            env.connect_soap(soap.wsdl_url()).expect("soap stub"),
            env.connect_corba(corba.idl_url(), corba.ior_url())
                .expect("corba stub"),
        ]
    };
    let stubs = [connect(), connect()];
    let mut warm_bumps = [[0; 2]; 2];
    for (thread, (thread_stubs, schedule)) in stubs.iter().zip(schedules).enumerate() {
        let targets = load::wires(&env, thread_stubs);
        for (t, input) in schedule.iter().take(WARMUP) {
            load::call(&targets[*t], input).expect("warm-up call");
            warm_bumps[thread][*t] += u64::from(matches!(input, Input::Bump(_)));
        }
    }
    Stack {
        manager,
        env,
        stubs,
        warm_bumps,
    }
}

fn counter(manager: &SdeManager, class: &str, wire: Wire, field: &str) -> i64 {
    let instance = match wire {
        Wire::Soap => manager.soap_server(class).and_then(|s| s.instance()),
        Wire::Corba => manager.corba_server(class).and_then(|s| s.instance()),
    };
    match instance.map(|i| i.field(field)) {
        Some(Ok(Value::Int(n))) => i64::from(n),
        _ => -1,
    }
}

pub fn run(ctx: &Ctx, probe: &mut Probe) -> Outcome {
    let mut rng = XorShift64::seed_from_u64(ctx.seed);
    // Each caller alternates between the wires, thread 0 starting on
    // SOAP and thread 1 on CORBA, so both wires see the same mix of
    // contention from the other caller.
    let schedules: [Vec<(usize, Input)>; 2] = [0, 1].map(|thread| {
        load::inputs(&mut rng, INPUTS, BUMP_SHARE, BUMPS[thread].0)
            .into_iter()
            .enumerate()
            .map(|(i, input)| ((i + thread) % 2, input))
            .collect()
    });
    let (stack, setup_s) = setup_repeatedly(|_| setup(&schedules), |s| s.manager.shutdown());

    probe.start();
    let start = Instant::now();
    let start_ns = spans::now_ns();
    let deadline = start + ctx.window;
    let (results, steal) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|thread| {
                let (env, stubs) = (&stack.env, &stack.stubs[thread]);
                let schedule = &schedules[thread][WARMUP..];
                s.spawn(move || {
                    load::call_loop(
                        thread as u8,
                        deadline,
                        &load::wires(env, stubs),
                        schedule,
                        true,
                    )
                })
            })
            .collect();
        let steal = wait_window(ctx, start);
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect();
        (results, steal)
    });
    probe.stop();

    let errors: Vec<String> = results
        .iter()
        .filter_map(|r| r.first_error.clone())
        .collect();
    let mut checks = vec![Check::new(
        "rmi_steady: every call returns its expected reply",
        errors.is_empty(),
        errors.first().cloned().unwrap_or_default(),
    )];
    for (w, (class, wire)) in [(SOAP_CLASS, Wire::Soap), (CORBA_CLASS, Wire::Corba)]
        .into_iter()
        .enumerate()
    {
        for (thread, (method, field)) in BUMPS.into_iter().enumerate() {
            let executed = counter(&stack.manager, class, wire, field);
            let acked = stack.warm_bumps[thread][w] + results[thread].bumps_ok[w];
            checks.push(Check::new(
                &format!("rmi_steady: {class}.{method} executions == acked"),
                executed == acked as i64,
                format!("executions {executed}, acknowledged {acked}"),
            ));
        }
    }
    let mut out = Outcome {
        setup_s,
        steal,
        checks,
        ..Outcome::default()
    };
    for r in results {
        out.calls.extend(r.calls);
        out.ops.extend(r.ops);
    }
    out.close_window(start_ns);
    let (soap_calls, corba_calls) = layers::replay_inputs(SOAP_CLASS, schedules.iter().flatten());
    out.layer = LayerData {
        soap_calls,
        corba_calls,
        soap_classes: vec![jpie::parse::parse_class(&class_source(SOAP_CLASS)).expect("class")],
        corba_classes: vec![jpie::parse::parse_class(&class_source(CORBA_CLASS)).expect("class")],
        ..LayerData::default()
    };
    stack.manager.shutdown();
    out
}
