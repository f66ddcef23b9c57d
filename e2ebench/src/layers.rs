//! Per-layer numbers from a traced pass.
//!
//! Stage costs come from replaying a sample of the pass's own envelopes
//! through each layer's public functions (XML tree, SOAP envelope, wire
//! batch, HTTP request parser); call costs come from the wrapper's spans
//! around `on_message`/`notify`; counts come from the registries, the
//! gossip layer and the simulator. The replayed stage sum is reconciled
//! against the measured call and hop times and the remainder is reported,
//! not hidden.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wsg_http::server::{NODE_HEADER, SOAP_CONTENT_TYPE};
use wsg_http::{Parsed, Request, RequestParser};
use wsg_soap::batch::{parse_wire, write_batch, BatchItem, BATCH_ACTION};
use wsg_soap::Envelope;
use wsg_xml::Element;

use crate::measure::{median, Metric};
use crate::node::SpanKind;
use crate::outcome::{Outcome, Pass, TraceData};
use crate::Workload;

/// Repetitions per replayed stage; the per-sample cost is their median.
const REPS: usize = 5;
/// At most this many kept envelopes are replayed (evenly spaced), so the
/// replay stays short however many nodes kept samples.
const REPLAY_CAP: usize = 600;

/// Indices of at most `REPLAY_CAP` evenly spaced items out of `n`.
fn spaced(n: usize) -> Vec<usize> {
    let step = n.div_ceil(REPLAY_CAP).max(1);
    (0..n).step_by(step).collect()
}

/// Median wall microseconds of `REPS` calls of `f`.
fn time_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut runs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let started = Instant::now();
        std::hint::black_box(f());
        runs.push(started.elapsed().as_secs_f64() * 1e6);
    }
    median(&runs)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Per-envelope stage costs of one sampled envelope.
struct Stages {
    xml_parse: f64,
    xml_write: f64,
    env_parse: f64,
    env_write: f64,
}

fn replay_envelope(xml: &str) -> Stages {
    let tree = Element::parse(xml).expect("sampled envelope is well-formed XML");
    let envelope = Envelope::parse(xml).expect("sampled envelope is a SOAP envelope");
    let mut buf = String::new();
    Stages {
        xml_parse: time_us(|| Element::parse(xml)),
        xml_write: time_us(|| tree.to_xml_string()),
        env_parse: time_us(|| Envelope::parse(xml)),
        env_write: time_us(|| {
            envelope.write_xml(&mut buf);
            buf.len()
        }),
    }
}

/// The HTTP framing the node runtime's client puts around `body`.
fn frame(body: &str, action: &str) -> Vec<u8> {
    Request::post("/gossip", body.as_bytes().to_vec())
        .with_header("Host", "127.0.0.1:8080")
        .with_header("Content-Type", SOAP_CONTENT_TYPE)
        .with_header("SOAPAction", format!("\"{action}\""))
        .with_header(NODE_HEADER, "2")
        .to_bytes()
}

fn parse_request(wire: &[u8]) -> usize {
    let mut parser = RequestParser::new();
    parser.feed(wire);
    match parser.parse() {
        Ok(Parsed::Complete(request)) => request.body.len(),
        other => panic!("replayed framing did not parse: {other:?}"),
    }
}

/// Per-batch costs: batch write, receive-side wire parse, HTTP parse.
fn replay_batches(samples: &[String], size: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut writes, mut parses, mut http) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = String::new();
    for chunk in samples.chunks(size) {
        if chunk.len() < size {
            break;
        }
        let (body, action) = if size == 1 {
            // A batch of one posts bare: no wrapper is written.
            let action = Envelope::parse(&chunk[0])
                .ok()
                .and_then(|e| e.addressing().action().map(str::to_string))
                .unwrap_or_default();
            (chunk[0].clone(), action)
        } else {
            let items: Vec<BatchItem<'_>> = chunk
                .iter()
                .map(|xml| BatchItem { target: None, xml })
                .collect();
            writes.push(time_us(|| {
                write_batch(&items, &mut out);
                out.len()
            }));
            (out.clone(), BATCH_ACTION.to_string())
        };
        parses.push(time_us(|| {
            parse_wire(&body).expect("replayed batch parses")
        }));
        let wire = frame(&body, &action);
        http.push(time_us(|| parse_request(&wire)));
    }
    (writes, parses, http)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, the stage-sum reconciliation and the tracing
/// overhead, in the order BENCHMARK.json lists them.
pub fn per_layer(
    workload: Workload,
    outcome: &Outcome,
    untraced_e2e: &[Metric],
    traced_e2e: &[Metric],
) -> Vec<Metric> {
    let pass: &Pass = outcome.passes.last().expect("a traced pass");
    let trace: &TraceData = outcome.trace.as_ref().expect("trace data");
    let c = &pass.counters;
    let deliveries = pass.deliveries as f64;

    let stages: BTreeMap<usize, Stages> = spaced(trace.samples.len())
        .into_iter()
        .map(|i| (i, replay_envelope(&trace.samples[i])))
        .collect();
    let sent: Vec<Stages> = spaced(trace.sent_samples.len())
        .into_iter()
        .map(|i| replay_envelope(&trace.sent_samples[i]))
        .collect();
    let pick = |f: fn(&Stages) -> f64| mean(&stages.values().map(f).collect::<Vec<_>>());
    let sent_write = mean(&sent.iter().map(|s| s.env_write).collect::<Vec<_>>());
    let replayed: Vec<String> = stages.keys().map(|&i| trace.samples[i].clone()).collect();
    let (batch_writes, wire_parses, http_parses) = replay_batches(&replayed, trace.batch_size);
    let batch_write_us = mean(&batch_writes);

    let on_message: Vec<&crate::node::Span> = trace
        .spans()
        .filter(|s| s.kind == SpanKind::OnMessage)
        .collect();
    let notify: Vec<f64> = trace
        .spans()
        .filter(|s| s.kind == SpanKind::Notify)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    let on_message_us = mean(
        &on_message
            .iter()
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );

    // on_message reconciliation over the sampled calls: parse of the
    // inbound envelope plus one envelope write per message it sent.
    let (mut measured, mut explained) = (Vec::new(), Vec::new());
    for span in &on_message {
        let Some(stage) = span.sample.and_then(|i| stages.get(&i)) else {
            continue;
        };
        measured.push(span.dur_ns as f64 / 1e3);
        explained.push(stage.env_parse + f64::from(span.sends) * sent_write);
    }
    let stage_sum_us = mean(&explained);

    // One notification's spans chain through its (origin, seq) key: from
    // the publish to the end of the last copy any node handled.
    let mut chains: BTreeMap<(usize, (usize, u64)), (Instant, Instant)> = BTreeMap::new();
    for (deployment, span) in trace
        .deployments
        .iter()
        .enumerate()
        .flat_map(|(d, spans)| spans.iter().map(move |s| (d, s)))
    {
        let Some(key) = span.key else { continue };
        let end = span.start + Duration::from_nanos(span.dur_ns);
        let chain = chains.entry((deployment, key)).or_insert((span.start, end));
        chain.0 = chain.0.min(span.start);
        chain.1 = chain.1.max(end);
    }
    let chain_ms: Vec<f64> = chains
        .values()
        .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
        .collect();
    let on_message_unexplained = mean(&measured) - stage_sum_us;

    let posts = c.get("wsg_http_client_posts_total");
    let post_rtt_us = ratio(
        c.get("wsg_http_client_post_micros_sum"),
        c.get("wsg_http_client_post_micros_count"),
    );
    let hop_ms = if pass.hops_ms.is_empty() {
        0.0
    } else {
        median(&pass.hops_ms)
    };
    let hop_stage_ms = (on_message_us
        + if trace.batch_size > 1 {
            batch_write_us
        } else {
            0.0
        }
        + post_rtt_us)
        / 1e3;

    let sim_messages = c.get("sim_messages");
    let sim_loop_us = if workload == Workload::Sim {
        ratio(
            c.get("sim_loop_wall_s") * 1e6
                - on_message
                    .iter()
                    .map(|s| s.dur_ns as f64 / 1e3)
                    .sum::<f64>(),
            sim_messages,
        )
    } else {
        0.0
    };
    let lag_ms = if pass.lag_ms.is_empty() {
        0.0
    } else {
        let mut lag = pass.lag_ms.clone();
        lag.sort_by(f64::total_cmp);
        crate::measure::quantile(&lag, 0.99)
    };

    let mut out = vec![
        Metric::new("xml.parse_us", "us", pick(|s| s.xml_parse)),
        Metric::new("xml.write_us", "us", pick(|s| s.xml_write)),
        Metric::new("soap.envelope_parse_us", "us", pick(|s| s.env_parse)),
        Metric::new("soap.envelope_write_us", "us", pick(|s| s.env_write)),
        Metric::new("soap.batch_write_us", "us", batch_write_us),
        Metric::new("soap.parse_wire_us", "us", mean(&wire_parses)),
        Metric::new("http.request_parse_us", "us", mean(&http_parses)),
        Metric::new("http.post_rtt_us", "us", post_rtt_us),
        Metric::new(
            "http.server_request_us",
            "us",
            ratio(
                c.get("wsg_http_server_request_micros_sum"),
                c.get("wsg_http_server_request_micros_count"),
            ),
        ),
        Metric::new(
            "http.msgs_per_post",
            "count",
            ratio(
                c.get("wsg_transport_batch_msgs_sum"),
                c.get("wsg_transport_batch_msgs_count"),
            ),
        ),
        Metric::new("http.posts_per_delivery", "count", ratio(posts, deliveries)),
        Metric::new(
            "http.retries",
            "count",
            c.get("wsg_http_client_retries_total"),
        ),
        Metric::new(
            "http.connections_opened",
            "count",
            c.get("wsg_http_client_pool_misses_total"),
        ),
        Metric::new("runtime.hop_ms", "ms", hop_ms),
        Metric::new("runtime.generator_lag_ms", "ms", lag_ms),
        Metric::new("core.on_message_us", "us", on_message_us),
        Metric::new("core.notify_us", "us", mean(&notify)),
        Metric::new(
            "core.forwards_per_delivery",
            "count",
            ratio(trace.forwards as f64, deliveries),
        ),
        Metric::new(
            "core.duplicates_per_delivery",
            "count",
            ratio(trace.duplicates as f64, deliveries),
        ),
        Metric::new(
            "coord.registers",
            "count",
            outcome.setup_counters.get("registers"),
        ),
        Metric::new(
            "coord.setup_messages",
            "count",
            outcome.setup_counters.get("messages"),
        ),
        Metric::new("sim.loop_us_per_msg", "us", sim_loop_us),
        Metric::new("sim.messages", "count", sim_messages),
        Metric::new("obs.render_us", "us", mean(&trace.render_us)),
        Metric::new("trace.on_message_stage_sum_us", "us", stage_sum_us),
        Metric::new(
            "trace.on_message_unexplained_us",
            "us",
            on_message_unexplained,
        ),
        Metric::new("trace.hop_stage_sum_ms", "ms", hop_stage_ms),
        Metric::new("trace.hop_unexplained_ms", "ms", hop_ms - hop_stage_ms),
        Metric::new("trace.samples", "count", stages.len() as f64),
        Metric::new(
            "trace.notification_chain_ms",
            "ms",
            if chain_ms.is_empty() {
                0.0
            } else {
                median(&chain_ms)
            },
        ),
    ];
    let untraced_cpu = untraced_e2e
        .iter()
        .find(|m| m.name == "cpu_us_per_delivery")
        .map_or(0.0, |m| m.value);
    out.push(Metric::new(
        "process.cpu_us_per_delivery",
        "us",
        untraced_cpu,
    ));
    for traced in traced_e2e {
        if let Some(base) = untraced_e2e.iter().find(|m| m.name == traced.name) {
            out.push(Metric::new(
                format!("overhead.{}", traced.name),
                traced.unit,
                traced.value - base.value,
            ));
        }
    }
    out
}
