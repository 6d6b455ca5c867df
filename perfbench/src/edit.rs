//! `live_edit`: a developer thread makes seeded interface edits,
//! alternating between a SOAP class and a CORBA class, while a second
//! thread keeps calling the same servers. After each edit the developer
//! calls the old signature (it must get Non-existent Method, which makes
//! the server force a publication, §5.7, and the client refresh its
//! view, §6), then calls the new signature, which must succeed. The
//! version WAL is on and the stable timeout is an hour, so every
//! publication is the forced one and no timer sets the numbers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cde::{CallError, ClientEnvironment, DynamicStub};
use jpie::{ClassHandle, MethodId, ParamId, TypeDesc, Value};
use obs::rng::XorShift64;
use sde::{PublicationStrategy, SdeConfig, SdeManager, SdeServerGateway, TransportKind};

use crate::layers::{self, LayerData, Probe};
use crate::load::{self, Input};
use crate::{setup_repeatedly, spans, wait_window, CallRec, Check, Ctx, OpRec, Outcome, Wire};

const CLASSES: [&str; 2] = ["EditSoap", "EditCorba"];
const WIRES: [Wire; 2] = [Wire::Soap, Wire::Corba];
/// Background inputs and edits generated per run; both cycle.
const INPUTS: usize = 8192;
const EDITS: usize = 4096;
const WARMUP: usize = 100;
/// One edit cycle starts every `EDIT_EVERY` (later if the previous one
/// overran): a developer's pace, not a flood, so each run makes about
/// the same number of edits and the history they leave behind (undo
/// stack, documents, debugger entries) is the same size.
const EDIT_EVERY: Duration = Duration::from_millis(4);
/// Return types a "change return type" edit cycles through. The body
/// returns an `int`, which widens to each of them.
const RETURNS: [TypeDesc; 3] = [TypeDesc::Int, TypeDesc::Long, TypeDesc::Double];
/// What the edited method's body adds to its first argument.
const OFFSET: i32 = 7;

fn class_source(name: &str) -> String {
    format!(
        "class {name} {{ \
         distributed string echo(string s) {{ return s; }} \
         distributed int op0(int a) {{ return a + {OFFSET}; }} }}"
    )
}

/// One seeded developer edit.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// Rename the method.
    Rename,
    /// Add a second parameter, or remove it when present, so the
    /// signature stays small over a long run.
    Param,
    /// Change the return type. The wire matches a call by method name
    /// and arguments only, so the method is renamed too: otherwise the
    /// old call would still bind and no stale call would happen.
    Retype,
}

/// The developer's view of the method being edited.
struct Editable {
    class: ClassHandle,
    id: MethodId,
    name: String,
    renames: u32,
    extra: Option<ParamId>,
    ret: usize,
}

impl Editable {
    fn new(class: ClassHandle) -> Editable {
        let id = class.find_method("op0").expect("op0");
        Editable {
            class,
            id,
            name: "op0".into(),
            renames: 0,
            extra: None,
            ret: 0,
        }
    }

    fn args(&self, a: i32, b: i32) -> Vec<Value> {
        let mut args = vec![Value::Int(a)];
        if self.extra.is_some() {
            args.push(Value::Int(b));
        }
        args
    }

    fn expected(&self, a: i32) -> Value {
        let v = a + OFFSET;
        match RETURNS[self.ret] {
            TypeDesc::Int => Value::Int(v),
            TypeDesc::Long => Value::Long(i64::from(v)),
            _ => Value::Double(f64::from(v)),
        }
    }

    fn rename(&mut self) -> Result<(), jpie::JpieError> {
        self.renames += 1;
        self.name = format!("op{}", self.renames);
        self.class.rename_method(self.id, &self.name)
    }

    fn apply(&mut self, edit: Edit) -> Result<(), jpie::JpieError> {
        match edit {
            Edit::Rename => self.rename(),
            Edit::Param => match self.extra.take() {
                Some(pid) => self.class.remove_param(self.id, pid),
                None => {
                    self.extra = Some(self.class.add_param(self.id, "b", TypeDesc::Int)?);
                    Ok(())
                }
            },
            Edit::Retype => {
                self.ret = (self.ret + 1) % RETURNS.len();
                self.class
                    .set_return_type(self.id, RETURNS[self.ret].clone())?;
                self.rename()
            }
        }
    }
}

struct Stack {
    manager: SdeManager,
    classes: [ClassHandle; 2],
    dev_env: ClientEnvironment,
    dev: [Arc<DynamicStub>; 2],
    observer: [Arc<DynamicStub>; 2],
    bg_env: ClientEnvironment,
    bg: [Arc<DynamicStub>; 2],
}

fn setup(ctx: &Ctx, i: usize, bg_inputs: &[(usize, Input)]) -> Stack {
    let manager = SdeManager::new(SdeConfig {
        transport: TransportKind::Tcp,
        strategy: PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
        wal_dir: Some(ctx.work_dir.join(format!("edit-wal-{i}"))),
    })
    .expect("sde manager");
    let classes = CLASSES.map(|name| jpie::parse::parse_class(&class_source(name)).expect("class"));
    let soap = manager
        .deploy_soap(classes[0].clone())
        .expect("deploy soap");
    soap.create_instance().expect("soap instance");
    soap.publisher().ensure_current();
    let corba = manager
        .deploy_corba(classes[1].clone())
        .expect("deploy corba");
    corba.create_instance().expect("corba instance");
    corba.publisher().ensure_current();

    let connect = |env: &ClientEnvironment| {
        [
            env.connect_soap(soap.wsdl_url()).expect("soap stub"),
            env.connect_corba(corba.idl_url(), corba.ior_url())
                .expect("corba stub"),
        ]
    };
    let dev_env = ClientEnvironment::new();
    let dev = connect(&dev_env);
    let observer = connect(&ClientEnvironment::new());
    let bg_env = ClientEnvironment::new();
    let bg = connect(&bg_env);
    for (w, stub) in dev.iter().enumerate() {
        let v = dev_env
            .call(stub, "op0", &[Value::Int(1)])
            .expect("warm-up op0");
        assert_eq!(v, Value::Int(1 + OFFSET), "warm-up op0 on {}", CLASSES[w]);
    }
    let targets = load::wires(&bg_env, &bg);
    for (w, input) in bg_inputs.iter().take(WARMUP) {
        load::call(&targets[*w], input).expect("warm-up call");
    }
    Stack {
        manager,
        classes,
        dev_env,
        dev,
        observer,
        bg_env,
        bg,
    }
}

/// What the developer thread saw.
#[derive(Default)]
struct DevResult {
    calls: Vec<CallRec>,
    ops: Vec<OpRec>,
    edits: u64,
    not_stale: u64,
    view_behind: u64,
    wrong_reply: u64,
    refresh_failed: u64,
    first_error: Option<String>,
}

fn developer(
    stack: &Stack,
    deadline: Instant,
    edits: &[(Edit, i32, i32)],
    editables: &mut [Editable; 2],
) -> DevResult {
    let mut r = DevResult::default();
    let mut i = 0;
    let mut next = Instant::now();
    while next < deadline {
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        next = (next + EDIT_EVERY).max(Instant::now());
        let (edit, a, b) = edits[i % edits.len()];
        let w = i % 2;
        i += 1;
        let e = &mut editables[w];
        let (stub, observer) = (&stack.dev[w], &stack.observer[w]);
        let (old_name, old_args) = (e.name.clone(), e.args(a, b));

        let cycle = spans::open("edit.cycle");
        let op_start = spans::now_ns();
        {
            let _span = spans::open("jpie.edit");
            e.apply(edit).expect("interface edit");
        }
        r.edits += 1;
        let committed = spans::now_ns();
        let stale = {
            let _span = spans::open("cde.stale_call");
            stack.dev_env.call(stub, &old_name, &old_args)
        };
        let stale_ok = matches!(stale, Err(CallError::StaleMethod { .. }));
        if !stale_ok {
            r.not_stale += 1;
            r.first_error
                .get_or_insert(format!("old {old_name} after {edit:?}: {stale:?}"));
        }
        let view_ok = stub.interface_version() >= e.class.interface_version();
        r.view_behind += u64::from(!view_ok);

        let call_start = spans::now_ns();
        let (traced, reply) = {
            let span = spans::open(WIRES[w].call_span());
            (
                span.recorded(),
                stack.dev_env.call(stub, &e.name, &e.args(a, b)),
            )
        };
        let end = spans::now_ns();
        let reply_ok = matches!(reply, Ok(ref v) if *v == e.expected(a));
        if !reply_ok {
            r.wrong_reply += 1;
            r.first_error
                .get_or_insert(format!("new {} after {edit:?}: {reply:?}", e.name));
        }
        r.calls.push(CallRec {
            thread: 0,
            wire: WIRES[w],
            start_ns: call_start,
            dur_ns: end - call_start,
            ok: reply_ok,
            traced,
        });
        r.ops.push(OpRec {
            thread: 0,
            start_ns: op_start,
            timed_from_ns: committed,
            end_ns: end,
            ok: stale_ok && view_ok && reply_ok,
        });

        // A second client catching up with the new interface: the
        // refetch and parse a `DynamicStub::refresh` costs.
        let refreshed = {
            let _span = spans::open("cde.refresh");
            observer.refresh()
        };
        if refreshed.is_err() || observer.interface_version() < e.class.interface_version() {
            r.refresh_failed += 1;
        }
        drop(cycle);
    }
    spans::flush();
    r
}

pub fn run(ctx: &Ctx, probe: &mut Probe) -> Outcome {
    let mut rng = XorShift64::seed_from_u64(ctx.seed);
    let edits: Vec<(Edit, i32, i32)> = (0..EDITS)
        .map(|_| {
            let edit = [Edit::Rename, Edit::Param, Edit::Retype][rng.gen_usize(3)];
            let a = rng.gen_range(-1000, 1000) as i32;
            let b = rng.gen_range(-1000, 1000) as i32;
            (edit, a, b)
        })
        .collect();
    let bg_inputs: Vec<(usize, Input)> = load::inputs(&mut rng, INPUTS, 0.0, "bump")
        .into_iter()
        .enumerate()
        .map(|(i, input)| (i % 2, input))
        .collect();
    let (stack, setup_s) =
        setup_repeatedly(|i| setup(ctx, i, &bg_inputs), |s| s.manager.shutdown());
    let mut editables = stack.classes.clone().map(Editable::new);

    probe.start();
    let start = Instant::now();
    let start_ns = spans::now_ns();
    let deadline = start + ctx.window;
    let (dev, bg, steal) = std::thread::scope(|s| {
        let dev = s.spawn(|| developer(&stack, deadline, &edits, &mut editables));
        let bg = s.spawn(|| {
            let targets = load::wires(&stack.bg_env, &stack.bg);
            load::call_loop(1, deadline, &targets, &bg_inputs[WARMUP..], false)
        });
        let steal = wait_window(ctx, start);
        (
            dev.join().expect("developer thread"),
            bg.join().expect("background thread"),
            steal,
        )
    });
    probe.stop();

    let generations = probe.delta.counter_total("sde_generations_total");
    let checks = vec![
        Check::new(
            "live_edit: stale calls get Non-existent Method",
            dev.not_stale == 0,
            format!(
                "{} of {} edits; {}",
                dev.not_stale,
                dev.edits,
                dev.first_error.clone().unwrap_or_default()
            ),
        ),
        Check::new(
            "live_edit: refreshed view >= server version",
            dev.view_behind == 0,
            format!("{} views behind", dev.view_behind),
        ),
        Check::new(
            "live_edit: corrected calls return expected",
            dev.wrong_reply == 0,
            format!("{} wrong replies", dev.wrong_reply),
        ),
        Check::new(
            "live_edit: one generation per edit",
            generations == dev.edits,
            format!("{generations} generations for {} edits", dev.edits),
        ),
        Check::new(
            "live_edit: background calls all succeed",
            bg.first_error.is_none(),
            bg.first_error.clone().unwrap_or_default(),
        ),
        Check::new(
            "live_edit: second client refreshes to new version",
            dev.refresh_failed == 0,
            format!("{} refreshes failed or behind", dev.refresh_failed),
        ),
    ];

    let mut out = Outcome {
        setup_s,
        steal,
        checks,
        // Each edit cycle also made one stale call and one refresh.
        extra_attempted: 2 * dev.edits,
        extra_failed: dev.not_stale + dev.refresh_failed,
        ..Outcome::default()
    };
    out.calls = dev.calls;
    out.calls.extend(bg.calls);
    out.ops = dev.ops;
    out.close_window(start_ns);
    let (soap_calls, corba_calls) = layers::replay_inputs(CLASSES[0], &bg_inputs);
    out.layer = LayerData {
        soap_calls,
        corba_calls,
        soap_classes: vec![stack.classes[0].clone()],
        corba_classes: vec![stack.classes[1].clone()],
        edits: dev.edits,
        ..LayerData::default()
    };
    stack.manager.shutdown();
    out
}
