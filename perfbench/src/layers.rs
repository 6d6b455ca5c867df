//! Per-layer metrics of the traced run.
//!
//! Three sources, all outside the program:
//! - the benchmark's own spans around each public call it makes into a
//!   layer (`cde` calls, stub refreshes, stale calls, class edits);
//! - deltas of the counters and histograms the program already exports
//!   in `obs::registry()`, snapshotted around the measured window;
//! - a replay of the workload's generated inputs through the codec
//!   functions (`soap` stream codec, CDR, WSDL, IDL, the version WAL)
//!   after the window, each call in its own span, to time them in
//!   isolation.

use std::hint::black_box;

use bench::procinfo::{PeakSampler, PeakStats};
use corba::cdr::{self, CdrReader, CdrWriter};
use corba::IdlModule;
use jpie::{ClassHandle, Value};
use obs::Snapshot;
use soap::{SoapResponse, WsdlDocument};

use crate::load::Input;
use crate::{median, quantile, sorted, spans, Check, Ctx, Metric, Outcome, Wire};

/// Snapshots taken around the measured window.
pub struct Probe {
    traced: bool,
    before: Option<Snapshot>,
    allocs_before: u64,
    sampler: Option<PeakSampler>,
    /// Registry change over the window.
    pub delta: Snapshot,
    /// Heap allocations over the window (traced binary only).
    pub allocs: u64,
    pub peaks: Option<PeakStats>,
}

impl Probe {
    pub fn new(traced: bool) -> Probe {
        Probe {
            traced,
            before: None,
            allocs_before: 0,
            sampler: None,
            delta: Snapshot::default(),
            allocs: 0,
            peaks: None,
        }
    }

    /// Call right before the window opens.
    pub fn start(&mut self) {
        self.before = Some(obs::registry().snapshot());
        self.allocs_before = bench::alloc::allocations();
        if self.traced {
            self.sampler = Some(PeakSampler::start());
        }
    }

    /// Call right after the window closes.
    pub fn stop(&mut self) {
        self.allocs = bench::alloc::allocations() - self.allocs_before;
        self.peaks = self.sampler.take().map(PeakSampler::stop);
        let before = self.before.take().expect("probe started");
        self.delta = obs::registry().snapshot().delta(&before);
    }
}

/// A SOAP call as the workload generated it, for the codec replay.
#[derive(Debug, Clone)]
pub struct SoapCall {
    pub namespace: String,
    pub method: String,
    pub args: Vec<(String, Value)>,
    pub reply: Value,
}

/// A CORBA call as the workload generated it, for the codec replay.
#[derive(Debug, Clone)]
pub struct CorbaCall {
    pub method: String,
    pub args: Vec<Value>,
    pub reply: Value,
}

/// What a workload hands over for its per-layer metrics.
#[derive(Default)]
pub struct LayerData {
    pub soap_calls: Vec<SoapCall>,
    pub corba_calls: Vec<CorbaCall>,
    /// Classes whose interface documents the replay generates and parses.
    pub soap_classes: Vec<ClassHandle>,
    pub corba_classes: Vec<ClassHandle>,
    pub edits: u64,
    pub migrations: Vec<router::MigrationEvent>,
}

/// Splits generated calls into the codec replay's inputs: target 0 is
/// the SOAP class `soap_class`, target 1 the CORBA class.
pub fn replay_inputs<'a>(
    soap_class: &str,
    schedule: impl IntoIterator<Item = &'a (usize, Input)>,
) -> (Vec<SoapCall>, Vec<CorbaCall>) {
    let (mut soap, mut corba) = (Vec::new(), Vec::new());
    for (target, input) in schedule {
        let (method, args, reply) = match input {
            Input::Echo(p) => ("echo", vec![Value::Str(p.clone())], Value::Str(p.clone())),
            Input::Bump(method) => (*method, Vec::new(), Value::Int(1)),
        };
        if *target == 0 {
            soap.push(SoapCall {
                namespace: format!("urn:{soap_class}"),
                method: method.to_string(),
                args: args.into_iter().map(|v| ("s".to_string(), v)).collect(),
                reply,
            });
        } else {
            corba.push(CorbaCall {
                method: method.to_string(),
                args,
                reply,
            });
        }
    }
    (soap, corba)
}

/// Most replayed inputs per codec function.
const REPLAY_INPUTS: usize = 4000;
/// Replays of each interface document and of the WAL append.
const DOC_REPLAYS: usize = 200;
const WAL_REPLAYS: usize = 50;

fn hist_mean_us(d: &Snapshot, base: &str) -> f64 {
    let (mut count, mut sum) = (0u64, 0u64);
    for (key, h) in &d.histograms {
        if obs::metrics::base_name(key) == base {
            count += h.count;
            sum += h.sum;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1e3
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn p50_self_us(all: &[spans::SpanRec], name: &str) -> f64 {
    let v = sorted(spans::self_times(all, name));
    if v.is_empty() {
        0.0
    } else {
        quantile(&v, 0.5) / 1e3
    }
}

fn mean_self_us(all: &[spans::SpanRec], name: &str) -> f64 {
    let v = spans::self_times(all, name);
    ratio(v.iter().sum::<f64>(), v.len() as f64) / 1e3
}

/// Times `f` inside a span named `name`.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = spans::open(name);
    black_box(f())
}

/// Replays the generated inputs through the codec functions, checking
/// that every decode gives back what was encoded.
fn replay(ctx: &Ctx, data: &LayerData, checks: &mut Vec<Check>) {
    spans::set_enabled(true);
    let mut buf = Vec::new();
    let mut soap_mismatches = 0usize;
    for call in data.soap_calls.iter().cycle().take(REPLAY_INPUTS) {
        timed("soap.encode_request", || {
            soap::encode_request_into(
                &call.namespace,
                &call.method,
                call.args.iter().map(|(n, v)| (n.as_str(), v)),
                &mut buf,
            )
        });
        soap::encode_ok_into(&call.method, &call.namespace, &call.reply, &mut buf);
        let xml = String::from_utf8(std::mem::take(&mut buf)).expect("utf-8 envelope");
        let decoded = timed("soap.decode_reply", || soap::decode_response(&xml));
        if !matches!(decoded, Ok(SoapResponse::Ok(ref v)) if *v == call.reply) {
            soap_mismatches += 1;
        }
    }
    checks.push(Check::new(
        "replay: soap reply decodes to the sent value",
        soap_mismatches == 0,
        format!("{soap_mismatches} mismatches"),
    ));

    let mut corba_mismatches = 0usize;
    for call in data.corba_calls.iter().cycle().take(REPLAY_INPUTS) {
        timed("corba.cdr_encode", || {
            let mut w = CdrWriter::with_buf(std::mem::take(&mut buf), false);
            w.write_string(&call.method);
            for a in &call.args {
                cdr::write_any(&mut w, a);
            }
            buf = w.into_bytes();
        });
        let mut w = CdrWriter::with_buf(std::mem::take(&mut buf), false);
        cdr::write_any(&mut w, &call.reply);
        let bytes = w.into_bytes();
        let decoded = timed("corba.cdr_decode", || {
            cdr::read_any(&mut CdrReader::new(&bytes, false))
        });
        if !matches!(decoded, Ok(ref v) if *v == call.reply) {
            corba_mismatches += 1;
        }
        buf = bytes;
    }
    checks.push(Check::new(
        "replay: cdr reply decodes to the sent value",
        corba_mismatches == 0,
        format!("{corba_mismatches} mismatches"),
    ));

    let mut doc_errors = 0usize;
    for _ in 0..DOC_REPLAYS {
        for class in &data.soap_classes {
            let name = class.name();
            let sigs = class.distributed_signatures();
            let xml = timed("soap.wsdl_generate", || {
                WsdlDocument::from_signatures(
                    &name,
                    format!("http://127.0.0.1/soap/{name}"),
                    &sigs,
                    class.interface_version(),
                )
                .to_xml()
            });
            let parsed = timed("soap.wsdl_parse", || WsdlDocument::parse(&xml));
            doc_errors +=
                usize::from(!matches!(parsed, Ok(ref d) if d.operations.len() == sigs.len()));
        }
        for class in &data.corba_classes {
            let sigs = class.distributed_signatures();
            let idl = timed("corba.idl_generate", || {
                IdlModule::from_signatures(class.name(), &sigs, class.interface_version()).to_idl()
            });
            let parsed = timed("corba.idl_parse", || IdlModule::parse(&idl));
            doc_errors += usize::from(parsed.is_err());
        }
    }
    checks.push(Check::new(
        "replay: generated interface documents parse",
        doc_errors == 0,
        format!("{doc_errors} errors"),
    ));

    let wal_path = ctx.work_dir.join("replay.wal");
    match sde::VersionWal::open(&wal_path) {
        Ok(wal) => {
            let mut wal_errors = 0usize;
            for v in 1..=WAL_REPLAYS as u64 {
                let appended = timed("sde.wal_append", || wal.append("/Replay.wsdl", v));
                wal_errors += usize::from(appended.is_err());
            }
            checks.push(Check::new(
                "replay: wal appends are durable",
                wal_errors == 0 && wal.floor("/Replay.wsdl") == Some(WAL_REPLAYS as u64),
                format!("{wal_errors} errors"),
            ));
        }
        Err(e) => checks.push(Check::new(
            "replay: wal appends are durable",
            false,
            format!("open failed: {e}"),
        )),
    }
    spans::set_enabled(false);
    spans::flush();
}

/// Replays the codec inputs and computes every per-layer metric. Adds
/// the replay's checks to `out` and returns the metrics and a self-time
/// table for the report.
pub fn per_layer(ctx: &Ctx, out: &mut Outcome, probe: &Probe) -> (Vec<Metric>, Vec<String>) {
    let mut checks = Vec::new();
    replay(ctx, &out.layer, &mut checks);
    out.checks.extend(checks);
    let all = spans::collected();
    let d = &probe.delta;
    let data = &out.layer;

    let calls = out.ok_calls() as f64;
    let corba_calls = out
        .calls
        .iter()
        .filter(|c| c.ok && c.wire == Wire::Corba)
        .count() as f64;
    let fetch_full = d.counter_total("cde_fetch_full_total") as f64;
    let fetch_304 = d.counter_total("cde_fetch_not_modified_total") as f64;
    let pool_hits = d.counter_total("wire_pool_hits_total") as f64;
    let pool_misses = d.counter_total("wire_pool_misses_total") as f64;
    let rtt_p50 = |traced: bool| {
        median(
            &out.calls
                .iter()
                .filter(|c| c.ok && c.traced == traced)
                .map(|c| c.dur_ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let moves = data.migrations.len() as f64;
    let move_median = |f: fn(&router::MigrationEvent) -> f64| {
        if data.migrations.is_empty() {
            0.0
        } else {
            median(&data.migrations.iter().map(f).collect::<Vec<_>>())
        }
    };
    let peaks = probe.peaks.unwrap_or(PeakStats {
        threads_peak: 0,
        concurrent_conns: 0,
    });
    let http_request_us = hist_mean_us(d, "http_request_ns");

    let metrics = vec![
        Metric::new("cde.soap_call_us", p50_self_us(&all, "cde.call.soap"), "us"),
        Metric::new(
            "cde.corba_call_us",
            p50_self_us(&all, "cde.call.corba"),
            "us",
        ),
        Metric::new("cde.refresh_us", p50_self_us(&all, "cde.refresh"), "us"),
        Metric::new(
            "cde.stale_call_us",
            p50_self_us(&all, "cde.stale_call"),
            "us",
        ),
        Metric::new(
            "cde.retries_per_call",
            ratio(d.counter_total("rmi_retries_total") as f64, calls),
            "count",
        ),
        Metric::new(
            "cde.fetch_not_modified_ratio",
            ratio(fetch_304, fetch_full + fetch_304),
            "ratio",
        ),
        Metric::new("httpd.request_us", http_request_us, "us"),
        Metric::new(
            "httpd.pool_hit_ratio",
            ratio(pool_hits, pool_hits + pool_misses),
            "ratio",
        ),
        Metric::new(
            "httpd.connects_per_kcall",
            ratio(d.counter_total("http_connects_total") as f64 * 1e3, calls),
            "count",
        ),
        Metric::new("reactor.threads_peak", peaks.threads_peak as f64, "count"),
        Metric::new("reactor.conns_peak", peaks.concurrent_conns as f64, "count"),
        Metric::new(
            "reactor.wakeups_per_call",
            ratio(d.counter_total("reactor_wakeups_total") as f64, calls),
            "count",
        ),
        Metric::new(
            "soap.encode_request_us",
            p50_self_us(&all, "soap.encode_request"),
            "us",
        ),
        Metric::new(
            "soap.decode_reply_us",
            p50_self_us(&all, "soap.decode_reply"),
            "us",
        ),
        Metric::new(
            "soap.wsdl_generate_us",
            p50_self_us(&all, "soap.wsdl_generate"),
            "us",
        ),
        Metric::new(
            "soap.wsdl_parse_us",
            p50_self_us(&all, "soap.wsdl_parse"),
            "us",
        ),
        Metric::new(
            "corba.cdr_encode_us",
            p50_self_us(&all, "corba.cdr_encode"),
            "us",
        ),
        Metric::new(
            "corba.cdr_decode_us",
            p50_self_us(&all, "corba.cdr_decode"),
            "us",
        ),
        Metric::new(
            "corba.idl_generate_us",
            p50_self_us(&all, "corba.idl_generate"),
            "us",
        ),
        Metric::new(
            "corba.idl_parse_us",
            p50_self_us(&all, "corba.idl_parse"),
            "us",
        ),
        Metric::new(
            "corba.giop_requests_per_call",
            ratio(d.counter_total("giop_requests_total") as f64, corba_calls),
            "count",
        ),
        Metric::new("sde.dispatch_us", hist_mean_us(d, "sde_dispatch_ns"), "us"),
        Metric::new(
            "sde.generation_us",
            hist_mean_us(d, "sde_generation_ns"),
            "us",
        ),
        Metric::new(
            "sde.generations_per_edit",
            ratio(
                d.counter_total("sde_generations_total") as f64,
                data.edits as f64,
            ),
            "count",
        ),
        Metric::new(
            "sde.wal_append_us",
            p50_self_us(&all, "sde.wal_append"),
            "us",
        ),
        Metric::new(
            "sde.replies_cached_per_call",
            ratio(d.counter_total("replies_cached_total") as f64, calls),
            "count",
        ),
        Metric::new("jpie.invoke_us", hist_mean_us(d, "jpie_invoke_ns"), "us"),
        Metric::new("jpie.edit_us", p50_self_us(&all, "jpie.edit"), "us"),
        Metric::new(
            "jpie.table_rebuilds",
            d.counter_total("jpie_table_rebuilds_total") as f64,
            "count",
        ),
        Metric::new("router.catchup_ms", move_median(|m| m.catchup_ms), "ms"),
        Metric::new("router.drain_ms", move_median(|m| m.drain_ms), "ms"),
        Metric::new("router.handoff_ms", move_median(|m| m.handoff_ms), "ms"),
        Metric::new(
            "router.wal_records_per_move",
            ratio(
                data.migrations.iter().map(|m| m.wal_records as f64).sum(),
                moves,
            ),
            "count",
        ),
        Metric::new(
            "router.forward_us",
            hist_mean_us(d, "router_call_forward_ns"),
            "us",
        ),
        Metric::new(
            "router.parked_per_move",
            ratio(
                data.migrations.iter().map(|m| m.parked_calls as f64).sum(),
                moves,
            ),
            "count",
        ),
        Metric::new(
            "obs.trace_overhead_ratio",
            ratio(rtt_p50(true), rtt_p50(false)),
            "ratio",
        ),
        Metric::new(
            "allocs_per_call",
            ratio(probe.allocs as f64, calls),
            "count",
        ),
        Metric::new(
            "rtt.unattributed_us",
            p50_self_us(&all, "cde.call.soap") - http_request_us,
            "us",
        ),
    ];

    let mut names: Vec<&'static str> = all.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut notes = vec![format!(
        "{:<24} {:>8} {:>14} {:>14} {:>12}",
        "span (self time)", "count", "p50_us", "mean_us", "total_ms"
    )];
    for name in names {
        let v = spans::self_times(&all, name);
        notes.push(format!(
            "{:<24} {:>8} {:>14.3} {:>14.3} {:>12.3}",
            name,
            v.len(),
            p50_self_us(&all, name),
            mean_self_us(&all, name),
            v.iter().sum::<f64>() / 1e6
        ));
    }
    (metrics, notes)
}
