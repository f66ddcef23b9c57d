//! The benchmark's own view into a running node: a `Protocol` wrapper
//! around `WsGossipNode` plus the seeded payloads it publishes.
//!
//! The wrapper never changes what the node does. It (1) turns control
//! messages from the benchmark's main thread into calls of the node's public
//! `activate`/`notify`, (2) after every `on_message` reads the node's new
//! `ops()` entries and reports them with a wall-clock timestamp, and
//! (3) in a traced pass, times each call into the node and keeps a sample
//! of the envelopes it handled for the layer replay.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use ws_gossip::{GossipLayerStats, WsGossipNode};
use wsg_coord::GossipProtocol;
use wsg_net::rng::{Rng64, SplitMix64};
use wsg_net::{Context, NodeId, Protocol, SimDuration, SimTime, TimerTag};
use wsg_xml::Element;

/// The one topic every workload disseminates.
pub const TOPIC: &str = "quotes";

/// `from` of the main thread's control messages (never a real node id).
pub const CONTROL: NodeId = NodeId(usize::MAX - 1);

/// Namespace of the benchmark's stock-quote payloads.
const QUOTE_NS: &str = "urn:wsg-bench:quotes";

const SYMBOLS: [&str; 8] = [
    "ACME", "GLOBEX", "INITECH", "UMBRELLA", "HOOLI", "STARK", "WAYNE", "TYRELL",
];

/// The stock quote published as notification `seq` of a run seeded with
/// `seed`, padded with `pad` seeded characters (0 for the live workloads'
/// small quotes). A pure function of its arguments: the correctness check
/// regenerates it to compare against what subscribers delivered.
pub fn quote(seed: u64, seq: u64, pad: usize) -> Element {
    let mut rng = SplitMix64::new(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let symbol = SYMBOLS[(rng.next() % SYMBOLS.len() as u64) as usize];
    let cents = 1_000 + rng.next() % 99_000;
    let volume = rng.next() % 1_000_000;
    let mut quote = Element::in_ns("q", QUOTE_NS, "Quote")
        .with_child(Element::in_ns("q", QUOTE_NS, "Symbol").with_text(symbol))
        .with_child(Element::in_ns("q", QUOTE_NS, "Price").with_text(format!(
            "{}.{:02}",
            cents / 100,
            cents % 100
        )))
        .with_child(Element::in_ns("q", QUOTE_NS, "Volume").with_text(volume.to_string()))
        .with_child(Element::in_ns("q", QUOTE_NS, "Seq").with_text(seq.to_string()));
    if pad > 0 {
        const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
        let text: String = (0..pad)
            .map(|_| ALPHABET[(rng.next() % ALPHABET.len() as u64) as usize] as char)
            .collect();
        quote.push_child(Element::in_ns("q", QUOTE_NS, "News").with_text(text));
    }
    quote
}

/// What a subscriber's wrapper reports to the main thread.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A notification reached the application layer of `node`.
    Delivered { seq: u64, round: u32, at: Instant },
    /// The coordinator now holds `count` subscriptions to [`TOPIC`].
    Subscribers(usize),
}

/// State shared by the main thread and every wrapper of one deployment.
#[derive(Debug)]
pub struct Tap {
    /// Whether the current pass is traced (times calls, keeps samples).
    pub traced: AtomicBool,
    /// Network messages handed to nodes so far (control messages excluded).
    pub received: AtomicU64,
    /// Workload seed (payload generation).
    pub seed: u64,
    /// Extra busy time added after each `on_message`, as a fraction of
    /// that call's own duration. Zero except in the compare self-test,
    /// which plants a known slowdown here — in the benchmark's wrapper,
    /// never in the program.
    pub plant: f64,
}

impl Tap {
    pub fn new(seed: u64, plant: f64) -> Arc<Tap> {
        Arc::new(Tap {
            traced: AtomicBool::new(false),
            received: AtomicU64::new(0),
            seed,
            plant,
        })
    }
}

/// Which call into the node a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    OnMessage,
    Notify,
}

/// One timed call into the node (traced passes only). `key` is the
/// notification's (origin node, seq) when the message carried a gossip
/// header, so one notification's hops chain together across nodes.
#[derive(Debug, Clone)]
pub struct Span {
    pub kind: SpanKind,
    pub key: Option<(usize, u64)>,
    pub start: Instant,
    pub dur_ns: u64,
    /// Messages the call sent (each one serialised envelope).
    pub sends: u32,
    /// Index into the wrapper's `samples` when this call's input was kept.
    pub sample: Option<usize>,
}

/// Keep one inbound envelope in this many for the layer replay.
const SAMPLE_EVERY: u64 = 8;
/// At most this many samples per node.
const SAMPLE_CAP: usize = 256;

/// The benchmark-owned `Protocol` wrapper around one `WsGossipNode`.
#[derive(Debug)]
pub struct BenchNode {
    inner: WsGossipNode,
    id: usize,
    events: Sender<Event>,
    tap: Arc<Tap>,
    seen_ops: usize,
    subscribers: usize,
    inbound: u64,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
    /// Inbound envelopes kept for the layer replay.
    pub samples: Vec<String>,
    /// Outbound envelopes kept for the layer replay.
    pub sent_samples: Vec<String>,
    /// Gossip-layer counters before the first and after the last traced
    /// call (nodes with a gossip layer only).
    pub layer_span: Option<(GossipLayerStats, GossipLayerStats)>,
}

impl BenchNode {
    pub fn new(inner: WsGossipNode, id: usize, events: Sender<Event>, tap: Arc<Tap>) -> Self {
        BenchNode {
            inner,
            id,
            events,
            tap,
            seen_ops: 0,
            subscribers: 0,
            inbound: 0,
            spans: Vec::new(),
            samples: Vec::new(),
            sent_samples: Vec::new(),
            layer_span: None,
        }
    }

    pub fn inner(&self) -> &WsGossipNode {
        &self.inner
    }

    /// Subscribe the wrapped node to [`TOPIC`].
    pub fn subscribe(&mut self, ctx: &mut dyn Context<String>) {
        self.inner.subscribe(TOPIC, ctx);
    }

    /// Activate a push-gossip context for [`TOPIC`] (initiator only).
    pub fn activate(&mut self, ctx: &mut dyn Context<String>) {
        self.inner.activate(GossipProtocol::Push, TOPIC, ctx);
    }

    /// Publish notification `seq` with `pad` bytes of news (initiator only).
    pub fn notify(&mut self, seq: u64, pad: usize, ctx: &mut dyn Context<String>) {
        let payload = quote(self.tap.seed, seq, pad);
        if !self.tap.traced.load(Ordering::Relaxed) {
            self.inner.notify(TOPIC, payload, ctx);
            return;
        }
        self.layer_mark(true);
        let mut counting = CountingCtx::new(ctx, self.sent_samples.len() < SAMPLE_CAP);
        let start = Instant::now();
        self.inner.notify(TOPIC, payload, &mut counting);
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.layer_mark(false);
        let (sends, kept) = counting.finish();
        self.sent_samples.extend(kept);
        self.spans.push(Span {
            kind: SpanKind::Notify,
            key: Some((self.id, seq)),
            start,
            dur_ns,
            sends,
            sample: None,
        });
    }

    /// Record the gossip-layer counters around a traced call.
    fn layer_mark(&mut self, before: bool) {
        let Some(now) = self.inner.layer_stats() else {
            return;
        };
        match (&mut self.layer_span, before) {
            (None, _) => self.layer_span = Some((now.clone(), now)),
            (Some((_, end)), false) => *end = now,
            (Some(_), true) => {}
        }
    }

    /// Report new application deliveries and coordinator subscription
    /// changes to the main thread.
    fn report(&mut self, now: SimTime) {
        let at = Instant::now();
        let ops = self.inner.ops();
        for op in &ops[self.seen_ops..] {
            // The receiver outlives every node; a send error means the
            // main thread is gone and nobody is listening any more.
            self.events
                .send(Event::Delivered {
                    seq: op.seq,
                    round: op.round,
                    at,
                })
                .ok();
        }
        self.seen_ops = ops.len();
        if self.id == 0 {
            let count = self.inner.subscriber_count(TOPIC, now);
            if count != self.subscribers {
                self.subscribers = count;
                self.events.send(Event::Subscribers(count)).ok();
            }
        }
    }

    fn control(&mut self, command: &str, ctx: &mut dyn Context<String>) {
        let mut words = command.split_whitespace();
        match (
            words.next(),
            words.next().and_then(|s| s.parse::<u64>().ok()),
        ) {
            (Some("activate"), _) => self.activate(ctx),
            (Some("notify"), Some(seq)) => self.notify(seq, 0, ctx),
            _ => panic!("unknown benchmark control message {command:?}"),
        }
    }
}

/// Busy-wait for `ns` nanoseconds (the planted slowdown must cost CPU the
/// way real work would, not sleep).
fn spin(ns: u64) {
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Read `<wsg:Origin>` and `<wsg:Seq>` out of a gossip envelope without
/// parsing it (so the key costs the traced pass almost nothing).
fn gossip_key(xml: &str) -> Option<(usize, u64)> {
    let text = |open: &str, close: &str| -> Option<String> {
        let start = xml.find(open)? + open.len();
        let end = start + xml[start..].find(close)?;
        Some(xml[start..end].to_string())
    };
    let origin = ws_gossip::endpoint::node_of(&text("<wsg:Origin>", "</wsg:Origin>")?)?;
    let seq = text("<wsg:Seq>", "</wsg:Seq>")?.parse().ok()?;
    Some((origin.index(), seq))
}

impl Protocol for BenchNode {
    type Message = String;

    fn on_start(&mut self, ctx: &mut dyn Context<String>) {
        self.inner.on_start(ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut dyn Context<String>) {
        self.inner.on_timer(tag, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: String, ctx: &mut dyn Context<String>) {
        if from == CONTROL {
            self.control(&msg, ctx);
            return;
        }
        self.tap.received.fetch_add(1, Ordering::Relaxed);
        self.inbound += 1;
        if !self.tap.traced.load(Ordering::Relaxed) {
            if self.tap.plant > 0.0 {
                let start = Instant::now();
                self.inner.on_message(from, msg, ctx);
                spin((start.elapsed().as_nanos() as f64 * self.tap.plant) as u64);
            } else {
                self.inner.on_message(from, msg, ctx);
            }
            self.report(ctx.now());
            return;
        }
        let key = gossip_key(&msg);
        let keep = self.inbound.is_multiple_of(SAMPLE_EVERY) && self.samples.len() < SAMPLE_CAP;
        let sample = if keep {
            self.samples.push(msg.clone());
            Some(self.samples.len() - 1)
        } else {
            None
        };
        self.layer_mark(true);
        let mut counting = CountingCtx::new(
            ctx,
            sample.is_some() && self.sent_samples.len() < SAMPLE_CAP,
        );
        let start = Instant::now();
        self.inner.on_message(from, msg, &mut counting);
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.layer_mark(false);
        let (sends, kept) = counting.finish();
        self.sent_samples.extend(kept);
        self.spans.push(Span {
            kind: SpanKind::OnMessage,
            key,
            start,
            dur_ns,
            sends,
            sample,
        });
        self.report(ctx.now());
    }
}

/// A `Context` that passes everything through and counts what the node
/// sends (traced passes only), keeping a copy of the first send when asked.
struct CountingCtx<'a> {
    inner: &'a mut dyn Context<String>,
    sends: u32,
    keep: bool,
    kept: Vec<String>,
}

impl<'a> CountingCtx<'a> {
    fn new(inner: &'a mut dyn Context<String>, keep: bool) -> Self {
        CountingCtx {
            inner,
            sends: 0,
            keep,
            kept: Vec::new(),
        }
    }

    fn finish(self) -> (u32, Vec<String>) {
        (self.sends, self.kept)
    }
}

impl Context<String> for CountingCtx<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn self_id(&self) -> NodeId {
        self.inner.self_id()
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn send(&mut self, to: NodeId, msg: String) {
        self.sends += 1;
        if self.keep {
            self.keep = false;
            self.kept.push(msg.clone());
        }
        self.inner.send(to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) {
        self.inner.set_timer(delay, tag);
    }
    fn rng(&mut self) -> &mut dyn Rng64 {
        self.inner.rng()
    }
}
