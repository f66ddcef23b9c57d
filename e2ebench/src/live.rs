//! `ticker`: a live `NetRuntime` fleet on loopback sockets.
//!
//! Ten nodes in the Figure-1 roles: node 0 coordinator, node 1
//! initiator, nodes 2..10 disseminators subscribed to one topic. The
//! main thread publishes through control messages that the
//! initiator's wrapper turns into `notify` calls, and learns about every
//! delivery from the subscribers' wrappers.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ws_gossip::WsGossipNode;
use wsg_coord::GossipPolicy;
use wsg_gossip::GossipParams;
use wsg_http::{NetRuntime, NetRuntimeConfig};
use wsg_net::NodeId;

use crate::node::{quote, BenchNode, Event, Tap, CONTROL, TOPIC};
use crate::outcome::{Check, Counters, Outcome, Pass, TraceData, Window};
use crate::{measure, Args};

/// Subscribers (disseminators) in the fleet.
pub const SUBSCRIBERS: usize = 8;
/// Gossip group: the subscribers plus the initiator.
pub const GROUP: usize = SUBSCRIBERS + 1;
/// Fanout: seven of the eight peers each node knows.
pub const FANOUT: usize = 7;
/// Round budget.
pub const ROUNDS: u32 = 4;
/// `ticker` publish rate, notifications per second.
pub const TICKER_RATE: f64 = 10.0;
/// Fleets set up per run; `setup_s` is the median of their set-up times.
const FLEETS: usize = 5;
/// Unmeasured workload time on each fleet before it is measured.
const WARMUP: Duration = Duration::from_secs(1);
/// Length of one measurement window.
const WINDOW: Duration = Duration::from_secs(1);
/// How long a notification may stay incomplete before it counts as missed.
const MISS_TIMEOUT: Duration = Duration::from_secs(5);

const INITIATOR: NodeId = NodeId(1);

fn subscriber_ids() -> impl Iterator<Item = usize> {
    2..2 + SUBSCRIBERS
}

/// Delivery bookkeeping for every notification published on a fleet.
#[derive(Default)]
struct Book {
    /// Publish (or due) instant per seq.
    start: Vec<Instant>,
    /// Subscribers that delivered it, per seq.
    count: Vec<usize>,
    /// First seq of the current pass; its deliveries are timed below.
    pass_first: u64,
    /// Deliveries of the pass so far (latencies_ms is cleared per window).
    pass_deliveries: u64,
    latencies_ms: Vec<f64>,
    hops_ms: Vec<f64>,
    last_delivery: Option<Instant>,
}

/// The window being measured: its closing boundary and the counters at
/// its opening.
struct OpenWindow {
    due: Instant,
    since: Instant,
    cpu_s: f64,
    deliveries: u64,
    latencies: usize,
}

struct Fleet {
    net: NetRuntime<BenchNode>,
    events: Receiver<Event>,
    tap: Arc<Tap>,
    book: Book,
    subscribers: usize,
}

impl Fleet {
    /// Spawn, subscribe, activate and deliver one warm-up notification
    /// everywhere. Returns the fleet and its set-up seconds.
    fn set_up(seed: u64, tap: &Arc<Tap>) -> (Fleet, f64) {
        let started = Instant::now();
        let (tx, events) = channel();
        let policy = GossipPolicy::new(GossipParams::new(FANOUT, ROUNDS));
        let mut nodes = vec![
            BenchNode::new(
                WsGossipNode::coordinator(NodeId(0))
                    .with_seed(seed)
                    .with_policy(policy),
                0,
                tx.clone(),
                Arc::clone(tap),
            ),
            BenchNode::new(
                WsGossipNode::initiator(INITIATOR, NodeId(0)).with_seed(seed),
                1,
                tx.clone(),
                Arc::clone(tap),
            ),
        ];
        for i in subscriber_ids() {
            nodes.push(BenchNode::new(
                WsGossipNode::disseminator(NodeId(i), NodeId(0))
                    .with_seed(seed)
                    .with_auto_subscribe(TOPIC),
                i,
                tx.clone(),
                Arc::clone(tap),
            ));
        }
        drop(tx);
        let net = NetRuntime::spawn(nodes, seed, NetRuntimeConfig::default());
        let mut fleet = Fleet {
            net,
            events,
            tap: Arc::clone(tap),
            book: Book::default(),
            subscribers: 0,
        };
        let deadline = Instant::now() + MISS_TIMEOUT;
        while fleet.subscribers < SUBSCRIBERS {
            assert!(
                Instant::now() < deadline,
                "subscriptions did not reach the coordinator"
            );
            fleet.poll(Duration::from_millis(50));
        }
        fleet
            .net
            .send_local(CONTROL, INITIATOR, "activate".to_string());
        let seq = fleet.publish(Instant::now());
        while fleet.book.count[seq as usize] < SUBSCRIBERS {
            assert!(
                Instant::now() < deadline,
                "warm-up notification was not delivered everywhere"
            );
            fleet.poll(Duration::from_millis(50));
        }
        let setup_s = started.elapsed().as_secs_f64();
        fleet.quiesce();
        (fleet, setup_s)
    }

    /// Send notification `seq = next` to the initiator, timed from `due`.
    fn publish(&mut self, due: Instant) -> u64 {
        let seq = self.book.start.len() as u64;
        self.book.start.push(due);
        self.book.count.push(0);
        self.net
            .send_local(CONTROL, INITIATOR, format!("notify {seq}"));
        seq
    }

    /// Handle wrapper events for up to `wait`.
    fn poll(&mut self, wait: Duration) {
        let mut next = self.events.recv_timeout(wait);
        loop {
            match next {
                Ok(Event::Subscribers(n)) => self.subscribers = n,
                Ok(Event::Delivered { seq, round, at }) => {
                    let book = &mut self.book;
                    book.count[seq as usize] += 1;
                    if seq >= book.pass_first {
                        let ms = at.duration_since(book.start[seq as usize]).as_secs_f64() * 1e3;
                        book.pass_deliveries += 1;
                        book.latencies_ms.push(ms);
                        book.hops_ms.push(ms / f64::from(round.max(1)));
                        book.last_delivery = Some(at);
                    }
                }
                Err(RecvTimeoutError::Timeout) => return,
                Err(RecvTimeoutError::Disconnected) => panic!("every node wrapper hung up"),
            }
            next = self
                .events
                .try_recv()
                .map_err(|_| RecvTimeoutError::Timeout);
        }
    }

    /// Counter sums over every node's registry.
    fn scrape(&self, render_us: Option<&mut Vec<f64>>) -> Counters {
        let mut sums = Counters::default();
        let mut timings = Vec::new();
        for id in 0..self.net.node_count() {
            let registry = self.net.registry_of(NodeId(id));
            let started = Instant::now();
            let text = registry.render();
            timings.push(started.elapsed().as_secs_f64() * 1e6);
            for (key, value) in
                wsg_obs::parse_exposition(&text).expect("registry renders a valid exposition")
            {
                if !key.contains('{') {
                    sums.add(&key, value);
                }
            }
        }
        if let Some(out) = render_us {
            out.extend(timings);
        }
        sums
    }

    /// Wait until every envelope a sender posted was handed to its node
    /// and nothing moved for 100 ms.
    fn quiesce(&mut self) {
        let deadline = Instant::now() + MISS_TIMEOUT;
        let mut stable = 0;
        let mut last = (u64::MAX, u64::MAX);
        while stable < 10 && Instant::now() < deadline {
            self.poll(Duration::from_millis(10));
            let posted = self.scrape(None).get("wsg_transport_batch_msgs_sum") as u64;
            let received = self.tap.received.load(Ordering::Relaxed);
            let now = (posted, received);
            stable = if posted == received && now == last {
                stable + 1
            } else {
                0
            };
            last = now;
        }
    }

    /// Close the open window once its second is up. Windows keep fixed
    /// one-second boundaries from the pass start; each is measured from
    /// the previous close to this one.
    fn tick(&mut self, windows: &mut Vec<Window>, open: &mut OpenWindow) {
        let now = Instant::now();
        if now < open.due {
            return;
        }
        let cpu = measure::usage().cpu_s;
        windows.push(Window {
            deliveries: self.book.pass_deliveries - open.deliveries,
            secs: now.duration_since(open.since).as_secs_f64(),
            cpu_s: cpu - open.cpu_s,
            latencies_ms: self.book.latencies_ms[open.latencies..].to_vec(),
        });
        *open = OpenWindow {
            due: open.due + WINDOW,
            since: now,
            cpu_s: cpu,
            deliveries: self.book.pass_deliveries,
            latencies: self.book.latencies_ms.len(),
        };
    }

    fn start_pass(&mut self) -> u64 {
        let book = &mut self.book;
        book.pass_first = book.start.len() as u64;
        book.pass_deliveries = 0;
        book.latencies_ms.clear();
        book.hops_ms.clear();
        book.last_delivery = None;
        book.pass_first
    }

    /// Wait (bounded) for every notification of the pass to complete.
    /// Returns how many never did and how many deliveries they lack.
    fn drain(&mut self, first: u64) -> (u64, u64) {
        let deadline = Instant::now() + MISS_TIMEOUT;
        let incomplete = |book: &Book| {
            book.count[first as usize..]
                .iter()
                .filter(|&&c| c < SUBSCRIBERS)
                .fold((0, 0), |(n, missed), &c| {
                    (n + 1, missed + (SUBSCRIBERS - c) as u64)
                })
        };
        while incomplete(&self.book).0 > 0 && Instant::now() < deadline {
            self.poll(Duration::from_millis(10));
        }
        incomplete(&self.book)
    }

    /// Run one measured phase of the open loop for `seconds`.
    fn pass(&mut self, seconds: f64, render_us: Option<&mut Vec<f64>>) -> Pass {
        let before = self.scrape(None);
        let cpu_before = measure::usage().cpu_s;
        let first = self.start_pass();
        let t0 = Instant::now();
        let mut lag_ms = Vec::new();
        let mut windows = Vec::new();
        let mut open = OpenWindow {
            due: t0 + WINDOW,
            since: t0,
            cpu_s: cpu_before,
            deliveries: 0,
            latencies: 0,
        };
        let period = Duration::from_secs_f64(1.0 / TICKER_RATE);
        let total = (seconds * TICKER_RATE).round() as u32;
        for k in 0..total {
            let due = t0 + period * k;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                self.poll(due - now);
                self.tick(&mut windows, &mut open);
            }
            lag_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            self.publish(due);
        }
        // The last publish is due just before the pass's end: let the
        // final window run to its boundary too (and close at least one
        // window, however short the pass).
        let whole = ((seconds / WINDOW.as_secs_f64()).floor() as usize).max(1);
        while windows.len() < whole {
            self.poll(Duration::from_millis(10));
            self.tick(&mut windows, &mut open);
        }
        let (failed, missed) = self.drain(first);
        let last = self.book.last_delivery.unwrap_or(t0);
        let elapsed_s = last.duration_since(t0).as_secs_f64().max(seconds);
        let cpu_s = measure::usage().cpu_s - cpu_before;
        self.quiesce();
        let counters = self.scrape(render_us).since(&before);
        let attempted = self.book.start.len() as u64 - first;
        Pass {
            attempted,
            failed,
            missed,
            deliveries: self.book.pass_deliveries,
            elapsed_s,
            latencies_ms: std::mem::take(&mut self.book.latencies_ms),
            hops_ms: std::mem::take(&mut self.book.hops_ms),
            lag_ms,
            cpu_s,
            wire_bytes: counters.get("wsg_http_server_bytes_in_total"),
            counters,
            windows,
        }
    }

    /// Stop the fleet, run the independent correctness checks on its
    /// final state, and return how many `Register` calls it made.
    fn finish(self, seed: u64, checks: &mut Vec<Check>, trace: Option<&mut TraceData>) -> u64 {
        let published = self.book.start.len() as u64;
        let mut nodes = self.net.shutdown();
        let msgs_ok: u64 = nodes.iter().map(|n| n.transport.msgs_ok).sum();
        let received: u64 = nodes
            .iter()
            .map(|n| n.protocol.inner().stats().messages_received)
            .sum();
        let posts_failed: u64 = nodes.iter().map(|n| n.transport.posts_failed).sum();
        checks.push(Check::new(
            "transport_conservation",
            msgs_ok == received && posts_failed == 0,
            format!("msgs_ok {msgs_ok}, messages_received {received}, posts_failed {posts_failed}"),
        ));
        let subscribers: Vec<&BenchNode> = nodes
            .iter()
            .map(|n| &n.protocol)
            .filter(|n| n.inner().role() == ws_gossip::Role::Disseminator)
            .collect();
        delivery_checks(seed, published, ROUNDS, &subscribers, |_| 0, checks);
        let registers = nodes
            .iter()
            .filter_map(|n| n.protocol.inner().layer_stats())
            .map(|l| l.registers_sent)
            .sum();
        if let Some(trace) = trace {
            trace.next_deployment();
            for node in &mut nodes {
                trace.absorb(&mut node.protocol);
            }
        }
        registers
    }
}

/// The payload, duplicate and hop checks on subscribers' `ops()`, shared
/// with the sim workload. `pad(seq)` regenerates the payload size.
pub fn delivery_checks(
    seed: u64,
    published: u64,
    rounds: u32,
    subscribers: &[&BenchNode],
    pad: impl Fn(u64) -> usize,
    checks: &mut Vec<Check>,
) {
    let mut payload_mismatch = 0usize;
    let mut duplicates = 0usize;
    let mut bad_rounds = 0usize;
    let mut max_round = 0u32;
    let mut unknown = 0usize;
    for node in subscribers {
        let mut seen = BTreeSet::new();
        for op in node.inner().ops() {
            if !seen.insert((op.origin.clone(), op.seq)) {
                duplicates += 1;
            }
            if op.topic != TOPIC
                || op.origin != ws_gossip::endpoint::endpoint_of(INITIATOR)
                || op.seq >= published
            {
                unknown += 1;
                continue;
            }
            if op.payload != quote(seed, op.seq, pad(op.seq)) {
                payload_mismatch += 1;
            }
            max_round = max_round.max(op.round);
            if op.round == 0 || op.round > rounds {
                bad_rounds += 1;
            }
        }
    }
    checks.push(Check::new(
        "payloads_match_seed",
        payload_mismatch == 0 && unknown == 0,
        format!("{payload_mismatch} mismatched, {unknown} unexpected"),
    ));
    checks.push(Check::new(
        "no_duplicate_delivery",
        duplicates == 0,
        format!("{duplicates} duplicates"),
    ));
    checks.push(Check::new(
        "rounds_within_budget",
        bad_rounds == 0,
        format!("{bad_rounds} outside 1..=r, max round {max_round}"),
    ));
}

/// Run `ticker`.
///
/// Every run sets up [`FLEETS`] fleets one after another and measures
/// each for a share of the run: a fleet's keep-alive connection layout and
/// sender queueing settle differently at each set-up and then persist for
/// its life, so one fleet's latency is one draw of that state, and pooling
/// five keeps runs comparable.
pub fn run(args: &Args) -> Outcome {
    let tap = Tap::new(args.seed, args.plant);
    let mut outcome = Outcome::default();
    let (mut untraced, mut traced) = (Pass::default(), Pass::default());
    let mut trace = args.trace.then(TraceData::default);
    // A traced run splits each fleet's share between its untraced and
    // traced passes, so that it measures `--seconds` in all like an
    // untraced run and takes no longer.
    let passes = if args.trace { 2.0 } else { 1.0 };
    let share = args.seconds / FLEETS as f64 / passes;
    for i in 0..FLEETS {
        let (mut fleet, setup_s) = Fleet::set_up(args.seed, &tap);
        outcome.setup_s.push(setup_s);
        if i == 0 {
            let messages = fleet.scrape(None).get("wsg_transport_batch_msgs_sum");
            outcome.setup_counters.add("messages", messages);
        }
        fleet.pass(WARMUP.as_secs_f64(), None);
        untraced.merge(fleet.pass(share, None));
        if let Some(data) = trace.as_mut() {
            tap.traced.store(true, Ordering::Relaxed);
            traced.merge(fleet.pass(share, Some(&mut data.render_us)));
            tap.traced.store(false, Ordering::Relaxed);
        }
        // Registration happens once per subscriber, during set-up, so a
        // fleet's lifetime register count is its set-up count.
        let registers = fleet.finish(args.seed, &mut outcome.checks, trace.as_mut());
        if i == 0 {
            outcome.setup_counters.add("registers", registers as f64);
        }
        tap.received.store(0, Ordering::Relaxed);
    }
    outcome.passes.push(untraced);
    if let Some(mut data) = trace {
        let per_post = traced.counters.get("wsg_transport_batch_msgs_sum")
            / traced
                .counters
                .get("wsg_transport_batch_msgs_count")
                .max(1.0);
        data.batch_size = per_post.round().max(1.0) as usize;
        outcome.passes.push(traced);
        outcome.trace = Some(data);
    }

    let measured: u64 = outcome.passes.iter().map(|p| p.attempted).sum();
    let coverage = wsg_gossip::analysis::expected_coverage(GROUP, FANOUT, ROUNDS);
    outcome.predicted_misses = measured as f64 * GROUP as f64 * (1.0 - coverage);
    outcome.facts = vec![
        ("nodes".into(), (2 + SUBSCRIBERS).to_string()),
        ("fanout".into(), FANOUT.to_string()),
        ("rounds".into(), ROUNDS.to_string()),
        ("ticker_rate_per_s".into(), TICKER_RATE.to_string()),
    ];
    outcome
}
