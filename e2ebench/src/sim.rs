//! `sim`: a `SimNet` deployment of a few hundred disseminators — no
//! sockets, no threads, so the whole wall time is middleware-stack CPU.
//!
//! Notifications are published one at a time and each runs to
//! quiescence. Payloads come in rounds of eight whose news text sizes
//! fall one in each power-of-two stratum from 64 B to 16 KB, in seeded
//! order, so every whole round carries the same byte mix whatever the
//! seed. Within a stratum the size steps along a golden-ratio sequence from
//! a seeded start, so a run's largest payloads, which set its tail
//! latency, are nearly the same for every seed.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Instant;

use ws_gossip::WsGossipNode;
use wsg_coord::GossipPolicy;
use wsg_gossip::GossipParams;
use wsg_net::rng::SplitMix64;
use wsg_net::sim::{SimConfig, SimNet};
use wsg_net::stats::SimStats;
use wsg_net::NodeId;

use crate::live::delivery_checks;
use crate::node::{BenchNode, Event, Tap};
use crate::outcome::{Check, Outcome, Pass, TraceData, Window};
use crate::{measure, Args};

/// Disseminators (all subscribers).
pub const SUBSCRIBERS: usize = 200;
/// Gossip group: the subscribers plus the initiator.
pub const GROUP: usize = SUBSCRIBERS + 1;
pub const FANOUT: usize = 16;
pub const ROUNDS: u32 = 6;
/// Notifications per round: one per size stratum.
pub const STRATA: usize = 8;
/// Smallest news text; stratum `i` spans `[MIN_PAD << i, MIN_PAD << (i+1))`.
pub const MIN_PAD: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds after which a pass reads the process's high-water RSS. Every
/// subscriber keeps each delivered payload, so memory grows with the
/// notifications published: reading it at a fixed round count makes
/// `peak_rss_mb` a measure of memory per unit of work, not of how many
/// rounds fit in the run. A pass runs at least this many rounds.
pub const RSS_ROUNDS: usize = 10;

const INITIATOR: NodeId = NodeId(1);

/// News-text size of notification `seq` (0, the warm-up, has none).
pub fn pad_of(seed: u64, seq: u64) -> usize {
    if seq == 0 {
        return 0;
    }
    let round = (seq - 1) / STRATA as u64;
    let slot = ((seq - 1) % STRATA as u64) as usize;
    let mut rng = SplitMix64::new(seed ^ 0x51_7A_7A ^ round.wrapping_mul(0xA24B_AED4_963E_E407));
    // Seeded order of the strata within the round (Fisher-Yates).
    let mut order: Vec<usize> = (0..STRATA).collect();
    for i in (1..STRATA).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let stratum = order[slot];
    let start = SplitMix64::new(seed ^ 0x5_12E5 ^ stratum as u64).next() as f64 / 2f64.powi(64);
    let place = (start + round as f64 * 0.618_033_988_749_895).fract();
    let lo = MIN_PAD << stratum;
    lo + (place * lo as f64) as usize
}

struct Deployment {
    net: SimNet<BenchNode>,
    events: Receiver<Event>,
    next_seq: u64,
}

impl Deployment {
    fn set_up(seed: u64, tap: &Arc<Tap>) -> (Deployment, f64) {
        let started = Instant::now();
        let (tx, events) = channel();
        let policy = GossipPolicy::new(GossipParams::new(FANOUT, ROUNDS));
        let mut net = SimNet::new(SimConfig::default().seed(seed));
        net.add_nodes(2 + SUBSCRIBERS, |id| {
            let node = match id.index() {
                0 => WsGossipNode::coordinator(id)
                    .with_seed(seed)
                    .with_policy(policy.clone()),
                1 => WsGossipNode::initiator(id, NodeId(0)).with_seed(seed),
                _ => WsGossipNode::disseminator(id, NodeId(0)).with_seed(seed),
            };
            BenchNode::new(node, id.index(), tx.clone(), Arc::clone(tap))
        });
        net.set_size_fn(Box::new(|xml: &String| xml.len()));
        net.start();
        for i in 2..2 + SUBSCRIBERS {
            net.invoke(NodeId(i), |node, ctx| node.subscribe(ctx));
        }
        net.run_to_quiescence();
        net.invoke(INITIATOR, |node, ctx| node.activate(ctx));
        net.run_to_quiescence();
        let mut deployment = Deployment {
            net,
            events,
            next_seq: 0,
        };
        deployment.publish(seed, &mut Pass::default());
        (deployment, started.elapsed().as_secs_f64())
    }

    /// Publish the next notification and run it to quiescence, adding
    /// its deliveries, latencies and hop times to `pass`. Returns whether
    /// every subscriber delivered it and the wall seconds in the sim loop.
    fn publish(&mut self, seed: u64, pass: &mut Pass) -> (bool, f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pad = pad_of(seed, seq);
        let started = Instant::now();
        self.net
            .invoke(INITIATOR, |node, ctx| node.notify(seq, pad, ctx));
        let loop_start = Instant::now();
        self.net.run_to_quiescence();
        let loop_s = loop_start.elapsed().as_secs_f64();
        let mut delivered = 0;
        while let Ok(event) = self.events.try_recv() {
            if let Event::Delivered { seq: s, round, at } = event {
                assert_eq!(
                    s, seq,
                    "a delivery of another notification after quiescence"
                );
                delivered += 1;
                let ms = at.duration_since(started).as_secs_f64() * 1e3;
                pass.latencies_ms.push(ms);
                pass.hops_ms.push(ms / f64::from(round.max(1)));
            }
        }
        pass.attempted += 1;
        pass.deliveries += delivered as u64;
        pass.failed += u64::from(delivered != SUBSCRIBERS);
        pass.missed += SUBSCRIBERS.saturating_sub(delivered) as u64;
        (delivered == SUBSCRIBERS, loop_s)
    }

    /// One measured phase: whole rounds of [`STRATA`] notifications until
    /// `seconds` have passed and at least [`RSS_ROUNDS`] rounds ran.
    /// Returns the pass and the high-water RSS bytes after round
    /// [`RSS_ROUNDS`].
    fn pass(&mut self, seed: u64, seconds: f64) -> (Pass, u64) {
        let before = self.net.stats().clone();
        let cpu_before = measure::usage().cpu_s;
        let t0 = Instant::now();
        let mut pass = Pass::default();
        let mut loop_s = 0.0;
        let mut rss_bytes = 0;
        while pass.windows.len() < RSS_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
            let (started, cpu, first, delivered) = (
                Instant::now(),
                measure::usage().cpu_s,
                pass.latencies_ms.len(),
                pass.deliveries,
            );
            for _ in 0..STRATA {
                loop_s += self.publish(seed, &mut pass).1;
            }
            pass.windows.push(Window {
                deliveries: pass.deliveries - delivered,
                secs: started.elapsed().as_secs_f64(),
                cpu_s: measure::usage().cpu_s - cpu,
                latencies_ms: pass.latencies_ms[first..].to_vec(),
            });
            if pass.windows.len() == RSS_ROUNDS {
                rss_bytes = measure::usage().max_rss_bytes;
            }
        }
        pass.elapsed_s = t0.elapsed().as_secs_f64();
        pass.cpu_s = measure::usage().cpu_s - cpu_before;
        let after = self.net.stats();
        pass.wire_bytes = (after.bytes_sent - before.bytes_sent) as f64;
        pass.counters
            .add("sim_messages", (after.delivered - before.delivered) as f64);
        pass.counters.add("sim_loop_wall_s", loop_s);
        (pass, rss_bytes)
    }
}

fn stats_key(stats: &SimStats) -> (u64, u64, u64) {
    (stats.sent, stats.delivered, stats.bytes_sent)
}

/// Run `sim`.
pub fn run(args: &Args) -> Outcome {
    let tap = Tap::new(args.seed, args.plant);
    let mut outcome = Outcome::default();
    let mut setup_stats = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let (deployment, setup_s) = Deployment::set_up(args.seed, &tap);
        outcome.setup_s.push(setup_s);
        setup_stats.push(stats_key(deployment.net.stats()));
        kept = Some(deployment);
    }
    let mut deployment = kept.expect("at least one set-up");
    let registers: u64 = (0..deployment.net.len())
        .filter_map(|i| deployment.net.node(NodeId(i)).inner().layer_stats())
        .map(|l| l.registers_sent)
        .sum();
    outcome.setup_counters.add("registers", registers as f64);
    outcome
        .setup_counters
        .add("messages", setup_stats[0].0 as f64);
    outcome.checks.push(Check::new(
        "sim_counts_repeat",
        setup_stats.iter().all(|s| *s == setup_stats[0]),
        format!("set-up (sent, delivered, bytes) per repeat: {setup_stats:?}"),
    ));

    // As on `ticker`, a traced run splits `--seconds` between its
    // untraced and traced passes (each still runs its whole rounds).
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (pass, rss_bytes) = deployment.pass(args.seed, seconds);
    outcome.passes.push(pass);
    outcome.peak_rss_bytes = Some(rss_bytes);
    let mut trace = None;
    if args.trace {
        let mut data = TraceData {
            batch_size: wsg_http::BatchConfig::default().max_batch_msgs,
            ..TraceData::default()
        };
        tap.traced.store(true, Ordering::Relaxed);
        let (pass, _) = deployment.pass(args.seed, seconds);
        tap.traced.store(false, Ordering::Relaxed);
        let now = deployment.net.now();
        for i in 0..deployment.net.len() {
            let registry = wsg_obs::Registry::new();
            deployment
                .net
                .node(NodeId(i))
                .inner()
                .export_metrics(&registry, now);
            let started = Instant::now();
            let text = registry.render();
            data.render_us.push(started.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(text);
        }
        for i in 0..deployment.net.len() {
            data.absorb(deployment.net.node_mut(NodeId(i)));
        }
        outcome.passes.push(pass);
        trace = Some(data);
    }
    outcome.trace = trace;

    let stats = deployment.net.stats();
    outcome.checks.push(Check::new(
        "sim_sent_equals_delivered",
        stats.sent == stats.delivered && stats.dropped_total() == 0,
        format!(
            "sent {}, delivered {}, dropped {}",
            stats.sent,
            stats.delivered,
            stats.dropped_total()
        ),
    ));
    let published = deployment.next_seq;
    let subscribers: Vec<&BenchNode> = (2..2 + SUBSCRIBERS)
        .map(|i| deployment.net.node(NodeId(i)))
        .collect();
    let seed = args.seed;
    delivery_checks(
        seed,
        published,
        ROUNDS,
        &subscribers,
        |seq| pad_of(seed, seq),
        &mut outcome.checks,
    );
    let measured: u64 = outcome.passes.iter().map(|p| p.attempted).sum();
    let coverage = wsg_gossip::analysis::expected_coverage(GROUP, FANOUT, ROUNDS);
    outcome.predicted_misses = measured as f64 * GROUP as f64 * (1.0 - coverage);
    outcome.facts = vec![
        ("nodes".into(), (2 + SUBSCRIBERS).to_string()),
        ("fanout".into(), FANOUT.to_string()),
        ("rounds".into(), ROUNDS.to_string()),
        (
            "payload_strata".into(),
            format!(
                "{STRATA} per round, news text {MIN_PAD}..{} B",
                MIN_PAD << STRATA
            ),
        ),
    ];
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_round_has_one_size_per_stratum() {
        for seed in [1, 99] {
            for round in 0..20u64 {
                let mut strata: Vec<u32> = (1..=STRATA as u64)
                    .map(|i| (pad_of(seed, round * STRATA as u64 + i) / MIN_PAD).ilog2())
                    .collect();
                strata.sort_unstable();
                assert_eq!(strata, (0..STRATA as u32).collect::<Vec<_>>());
            }
        }
    }
}
