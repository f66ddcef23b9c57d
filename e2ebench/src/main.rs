//! End-to-end benchmark of the WS-Gossip middleware.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <ticker|sim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). The line before it is the run's full record. See
//! README.md for the workloads, metrics and how to compare runs.

mod layers;
mod live;
mod measure;
mod node;
mod outcome;
mod sim;

use measure::{metrics_json, num, object, p99_allowed, quantile, string, Metric};
use outcome::{Outcome, Pass};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ticker,
    Sim,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Ticker => "ticker",
            Workload::Sim => "sim",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Planted slowdown for the compare self-test (see `node::Tap::plant`).
    pub plant: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut plant) = (None, None, false, 0.0);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "ticker" => Workload::Ticker,
                    "sim" => Workload::Sim,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--plant-slowdown" => {
                plant = value
                    .parse::<f64>()
                    .map_err(|e| format!("--plant-slowdown: {e}"))?;
                if !(0.0..=10.0).contains(&plant) {
                    return Err("--plant-slowdown must be in [0, 10]".into());
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        plant,
    })
}

/// The end-to-end metrics one pass yields (`setup_s` and `peak_rss_mb`
/// are per process and added by the caller). Rates and the median
/// latency are medians over the pass's windows; the tail percentile needs
/// the whole pass's samples. CPU per delivery is the windows' CPU over
/// their deliveries: a stalled window costs no extra CPU, and the
/// pooled ratio weighs every fleet of a run alike, where a median over
/// windows would follow whichever fleets happen to form the middle.
fn pass_metrics(pass: &Pass) -> Vec<Metric> {
    let windows: Vec<&outcome::Window> = pass.windows.iter().filter(|w| w.deliveries > 0).collect();
    let over_windows = |f: &dyn Fn(&outcome::Window) -> f64| {
        measure::median(&windows.iter().map(|w| f(w)).collect::<Vec<_>>())
    };
    let mut sorted = pass.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let mut out = vec![Metric::new(
        "deliveries_per_s",
        "1/s",
        over_windows(&|w| w.deliveries as f64 / w.secs),
    )];
    out.push(Metric::new(
        "latency_p50_ms",
        "ms",
        over_windows(&|w| measure::median(&w.latencies_ms)),
    ));
    if p99_allowed(sorted.len()) {
        out.push(Metric::new("latency_p99_ms", "ms", quantile(&sorted, 0.99)));
    }
    let window_cpu_s: f64 = windows.iter().map(|w| w.cpu_s).sum();
    let window_deliveries: u64 = windows.iter().map(|w| w.deliveries).sum();
    out.push(Metric::new(
        "cpu_us_per_delivery",
        "us",
        window_cpu_s * 1e6 / window_deliveries.max(1) as f64,
    ));
    out.push(Metric::new(
        "wire_bytes_per_delivery",
        "B",
        pass.wire_bytes / pass.deliveries.max(1) as f64,
    ));
    out
}

fn pass_record(pass: &Pass) -> String {
    let mut lag = pass.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    let lag_json = if lag.is_empty() {
        "null".to_string()
    } else {
        object(&[
            ("samples", lag.len().to_string()),
            ("p50_ms", num(quantile(&lag, 0.5))),
            ("max_ms", num(*lag.last().expect("non-empty"))),
        ])
    };
    object(&[
        ("attempted", pass.attempted.to_string()),
        ("failed", pass.failed.to_string()),
        ("deliveries", pass.deliveries.to_string()),
        ("elapsed_s", num(pass.elapsed_s)),
        ("cpu_s", num(pass.cpu_s)),
        ("latency_samples", pass.latencies_ms.len().to_string()),
        ("windows", pass.windows.len().to_string()),
        (
            "window_deliveries_per_s",
            format!(
                "[{}]",
                pass.windows
                    .iter()
                    .map(|w| num(w.deliveries as f64 / w.secs))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "window_cpu_us_per_delivery",
            format!(
                "[{}]",
                pass.windows
                    .iter()
                    .filter(|w| w.deliveries > 0)
                    .map(|w| num(w.cpu_s * 1e6 / w.deliveries as f64))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "latency_p99_printed",
            p99_allowed(pass.latencies_ms.len()).to_string(),
        ),
        ("generator_lag", lag_json),
        ("metrics", metrics_json(&pass_metrics(pass))),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <ticker|sim> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut outcome: Outcome = match args.workload {
        Workload::Ticker => live::run(&args),
        Workload::Sim => sim::run(&args),
    };
    let rss_bytes = outcome
        .peak_rss_bytes
        .unwrap_or_else(|| measure::usage().max_rss_bytes);
    let peak_rss_mb = rss_bytes as f64 / (1024.0 * 1024.0);
    let attempted: u64 = outcome.passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = outcome.passes.iter().map(|p| p.failed).sum();
    let missed: u64 = outcome.passes.iter().map(|p| p.missed).sum();
    let predicted = outcome.predicted_misses;
    outcome.checks.push(outcome::Check::new(
        "analysis_predicts_under_0.01_misses",
        predicted < 0.01,
        format!("fanout and rounds predict {predicted} missed deliveries"),
    ));
    let limit = measure::poisson_limit(predicted, 0.01);
    outcome.checks.push(outcome::Check::new(
        "misses_within_prediction",
        missed < limit,
        format!(
            "{missed} missed deliveries ({failed} notifications) observed, {predicted} \
             predicted; {limit} or more has probability under 0.01"
        ),
    ));

    let untraced = pass_metrics(&outcome.passes[0]);
    let mut e2e = vec![Metric::new(
        "setup_s",
        "s",
        measure::median(&outcome.setup_s),
    )];
    // CPU per delivery is reported per layer (`process.*`), not here: on
    // `ticker` it is almost all idle read-slice wake-ups, whose cost on a
    // shared VM follows the other tenants' load (see README.md).
    e2e.extend(
        untraced
            .iter()
            .filter(|m| m.name != "cpu_us_per_delivery")
            .cloned(),
    );
    e2e.push(Metric::new("peak_rss_mb", "MB", peak_rss_mb));
    let metrics = if args.trace {
        let traced = pass_metrics(outcome.passes.last().expect("traced pass"));
        layers::per_layer(args.workload, &outcome, &untraced, &traced)
    } else {
        e2e.clone()
    };

    let correct = outcome.checks.iter().all(|c| c.ok);
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|c| {
            object(&[
                ("name", string(c.name)),
                ("ok", c.ok.to_string()),
                ("detail", string(&c.detail)),
            ])
        })
        .collect();
    let facts: Vec<(&str, String)> = outcome
        .facts
        .iter()
        .map(|(k, v)| (k.as_str(), string(v)))
        .collect();
    let passes: Vec<String> = outcome.passes.iter().map(pass_record).collect();
    let setups: Vec<String> = outcome.setup_s.iter().map(|s| num(*s)).collect();
    let record = object(&[
        ("workload", string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", args.trace.to_string()),
        (
            "threads_available",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("setup_s_each", format!("[{}]", setups.join(", "))),
        ("passes", format!("[{}]", passes.join(", "))),
        (
            "misses",
            object(&[
                ("notifications", failed.to_string()),
                ("deliveries", missed.to_string()),
                ("predicted_deliveries", num(predicted)),
            ]),
        ),
        ("shape", object(&facts)),
        ("checks", format!("[{}]", checks.join(", "))),
        ("end_to_end", metrics_json(&e2e)),
    ]);
    println!("{}", object(&[("record", record)]));
    println!(
        "{}",
        object(&[
            ("correct", correct.to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", metrics_json(&metrics)),
        ])
    );
    if !correct {
        for check in outcome.checks.iter().filter(|c| !c.ok) {
            eprintln!("e2ebench: check {} failed: {}", check.name, check.detail);
        }
        std::process::exit(1);
    }
}
