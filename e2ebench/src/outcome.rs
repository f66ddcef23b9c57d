//! What one workload run produces, independent of how it was driven.

use std::collections::BTreeMap;

use crate::node::{BenchNode, Span};

/// Counter sums scraped from the deployment (registry samples summed over
/// nodes, plus gossip-layer and simulator counters), keyed by name.
#[derive(Debug, Clone, Default)]
pub struct Counters(pub BTreeMap<String, f64>);

impl Counters {
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    pub fn add(&mut self, key: &str, value: f64) {
        *self.0.entry(key.to_string()).or_insert(0.0) += value;
    }

    /// `self - earlier`, key by key.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut out = self.clone();
        for (key, value) in &earlier.0 {
            *out.0.entry(key.clone()).or_insert(0.0) -= value;
        }
        out
    }
}

/// One slice of a measured phase: the end-to-end rates are medians over
/// these, so a transient stall or a slow stretch of the shared machine
/// moves one window, not the run's figure.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub deliveries: u64,
    pub secs: f64,
    pub cpu_s: f64,
    pub latencies_ms: Vec<f64>,
}

/// One measured phase.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Notifications published.
    pub attempted: u64,
    /// Notifications that some subscriber never delivered.
    pub failed: u64,
    /// (subscriber, notification) deliveries that never happened.
    pub missed: u64,
    /// Distinct (subscriber, notification) deliveries.
    pub deliveries: u64,
    /// Wall seconds from the first publish to the last delivery.
    pub elapsed_s: f64,
    /// Publish (or due time) to delivery, per delivery.
    pub latencies_ms: Vec<f64>,
    /// Latency divided by the delivery's hop round, per delivery.
    pub hops_ms: Vec<f64>,
    /// How late each open-loop publish ran behind its due time.
    pub lag_ms: Vec<f64>,
    /// Process CPU seconds over the phase.
    pub cpu_s: f64,
    /// Bytes the middleware put on the wire over the phase.
    pub wire_bytes: f64,
    /// Counter deltas over the phase.
    pub counters: Counters,
    /// The phase cut into windows (live: one second each; sim: one round).
    pub windows: Vec<Window>,
}

impl Pass {
    /// Add `other` (a pass over another fleet) into this one.
    pub fn merge(&mut self, other: Pass) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.missed += other.missed;
        self.deliveries += other.deliveries;
        self.elapsed_s += other.elapsed_s;
        self.latencies_ms.extend(other.latencies_ms);
        self.hops_ms.extend(other.hops_ms);
        self.lag_ms.extend(other.lag_ms);
        self.cpu_s += other.cpu_s;
        self.wire_bytes += other.wire_bytes;
        for (key, value) in other.counters.0 {
            self.counters.add(&key, value);
        }
        self.windows.extend(other.windows);
    }
}

/// One independent correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// What the traced pass leaves for the layer replay.
#[derive(Debug, Default)]
pub struct TraceData {
    /// Inbound envelopes kept by the wrappers (span `sample` indexes here).
    pub samples: Vec<String>,
    /// Outbound envelopes kept by the wrappers.
    pub sent_samples: Vec<String>,
    /// Microseconds per registry render (one node scrape).
    pub render_us: Vec<f64>,
    /// Envelopes per wire batch to replay (observed mean on live runs).
    pub batch_size: usize,
    /// Gossip-layer forwards and suppressed duplicates over the pass.
    pub forwards: u64,
    pub duplicates: u64,
    /// Spans of each deployment, in the order absorbed (seqs restart at
    /// every deployment, so chains are keyed per deployment).
    pub deployments: Vec<Vec<Span>>,
}

impl TraceData {
    /// Start collecting the spans of another deployment.
    pub fn next_deployment(&mut self) {
        self.deployments.push(Vec::new());
    }

    /// Every span of every deployment.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.deployments.iter().flatten()
    }

    /// Move a wrapper's spans and samples into the current deployment,
    /// re-indexing its samples.
    pub fn absorb(&mut self, node: &mut BenchNode) {
        if let Some((start, end)) = node.layer_span.take() {
            self.forwards += end.forwards_sent - start.forwards_sent;
            self.duplicates += end.duplicates_suppressed - start.duplicates_suppressed;
        }
        let offset = self.samples.len();
        self.samples.append(&mut node.samples);
        self.sent_samples.append(&mut node.sent_samples);
        if self.deployments.is_empty() {
            self.next_deployment();
        }
        let spans = self.deployments.last_mut().expect("a deployment");
        for mut span in node.spans.drain(..) {
            span.sample = span.sample.map(|i| i + offset);
            spans.push(span);
        }
    }
}

/// A whole run: set-ups, passes, checks and the record's extra facts.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds per set-up (the run sets up several times).
    pub setup_s: Vec<f64>,
    /// Untraced pass, then (trace runs) the traced pass.
    pub passes: Vec<Pass>,
    pub checks: Vec<Check>,
    /// `wsg_gossip::analysis` prediction of (subscriber, notification)
    /// deliveries missed over the measured passes.
    pub predicted_misses: f64,
    /// High-water RSS read at a fixed amount of work, where the workload's
    /// memory grows with its work (`sim`); otherwise read at the end.
    pub peak_rss_bytes: Option<u64>,
    /// Counters of one set-up (registers, messages).
    pub setup_counters: Counters,
    pub trace: Option<TraceData>,
    /// Extra facts for the run record.
    pub facts: Vec<(String, String)>,
}
