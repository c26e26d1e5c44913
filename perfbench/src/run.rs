//! One benchmark run: episodes until the time budget is spent, the
//! checks over them, and the metrics they yield.

use crate::check::{check_fingerprint, Fingerprint};
use crate::episode::{run_engine, run_served, timed_setup, Episode};
use crate::spans::{self, LayerTotal, Tracer};
use crate::workload::{Input, Size, Workload};
use metrics::quantile;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs (and of the simulated federation).
    pub seed: u64,
    /// Seconds of serving loop to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Episode size.
    pub size: Size,
    /// Directory for checkpoints, spans and records.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Run {
    /// Intervals attempted.
    pub attempted: usize,
    /// Failed integrity checks — fingerprints, checkpoints, ingest, span
    /// accounting — one message each. Any of them makes the run incorrect.
    pub failures: Vec<String>,
    /// Repair decisions that failed a check, one message each: failed
    /// operations, counted against the intervals attempted.
    pub decision_failures: Vec<String>,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Diagnostics: figures printed and recorded but not gated, with
    /// their sample counts.
    pub diagnostics: Vec<(String, String)>,
}

impl Run {
    /// `true` when every integrity check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Failed checks of either kind.
    pub fn failed(&self) -> usize {
        self.failures.len() + self.decision_failures.len()
    }
}

/// Median of `values` (`0` for none).
fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// Peak resident set of this process, MB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One episode over `input`: through the daemon when `served`, else
/// re-driven, traced or not. `verify` restores the last checkpoint.
fn run_episode(args: &RunArgs, input: &Input, traced: bool, served: bool, verify: bool) -> Episode {
    let path = args.out_dir.join(format!(
        "checkpoint-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if served {
        run_served(args.workload, args.size, input, verify, &path)
    } else {
        run_engine(args.workload, args.size, input, traced, verify, &path)
    }
}

/// Two untraced, untimed episodes over a prefix of the input. They
/// settle the process — its first episode runs up to a third slower
/// while the allocator settles, and a daemon serves from the settled
/// state — and their failures include any difference between the two
/// same-seed fingerprints.
fn warm_up(args: &RunArgs) -> (Vec<String>, [Episode; 2]) {
    let prefix = args.workload.input(
        args.seed,
        Size {
            intervals: args.size.warm_up_intervals,
            ..args.size
        },
    );
    let served = args.workload.served();
    let pair = [(); 2].map(|_| run_episode(args, &prefix, false, served, false));
    let failures = check_episodes(&pair, &pair[0].fingerprint())
        .into_iter()
        .map(|f| format!("warm-up {f}"))
        .collect();
    (failures, pair)
}

/// The decision check failures of every episode in `episodes`.
fn decision_failures<'a>(episodes: impl IntoIterator<Item = &'a Episode>) -> Vec<String> {
    episodes
        .into_iter()
        .enumerate()
        .flat_map(|(i, e)| {
            e.decision_failures
                .iter()
                .map(move |f| format!("episode {i}: {f}"))
        })
        .collect()
}

/// Runs the benchmark as `args` says. The input is generated from the
/// seed before any episode starts.
pub fn run(args: &RunArgs) -> Run {
    let input = args.workload.input(args.seed, args.size);
    if args.trace {
        traced_run(args, &input)
    } else {
        untraced_run(args, &input)
    }
}

/// Runs timed episodes while the next one, at the mean length so far,
/// still fits in `seconds` of serving loop — and at least one.
/// `episode` receives the episode's index.
fn episodes_within(seconds: f64, mut episode: impl FnMut(usize) -> Episode) -> Vec<Episode> {
    let mut episodes: Vec<Episode> = Vec::new();
    let mut measured_s = 0.0;
    loop {
        let n = episodes.len();
        if n > 0 && measured_s * (n + 1) as f64 / n as f64 > seconds {
            return episodes;
        }
        let ep = episode(n);
        measured_s += ep.wall_s;
        episodes.push(ep);
    }
}

/// The failures of `episodes`: each one's own check failures, plus a
/// failure for every episode whose QoS fingerprint is not bit-identical
/// to `reference`.
pub fn check_episodes(episodes: &[Episode], reference: &Fingerprint) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, ep) in episodes.iter().enumerate() {
        failures.extend(ep.failures.iter().map(|f| format!("episode {i}: {f}")));
        if let Err(e) = check_fingerprint(reference, &ep.fingerprint()) {
            failures.push(format!("episode {i}: {e}"));
        }
    }
    failures
}

/// Element-wise median across replica episodes: entry `i` is the median
/// of the episodes' `i`-th samples. Replicas run identical work, so this
/// keeps each interval's work and drops the machine's noise on it.
fn replica_medians(episodes: &[Episode], samples: impl Fn(&Episode) -> &[f64]) -> Vec<f64> {
    let len = episodes.iter().map(|e| samples(e).len()).min().unwrap_or(0);
    (0..len)
        .map(|i| median(&episodes.iter().map(|e| samples(e)[i]).collect::<Vec<_>>()))
        .collect()
}

/// The untraced timings of a run: throughput, and latency percentiles
/// with the sample counts behind them.
struct Timings {
    intervals_per_s: f64,
    p50_s: f64,
    /// `(name, seconds)` of the diagnostic tail percentiles.
    tails: Vec<(&'static str, f64)>,
    samples: String,
}

fn timings(episodes: &[Episode], served: bool) -> Timings {
    let n = episodes.len();
    if served {
        let per_ep =
            |f: &dyn Fn(&Episode) -> f64| median(&episodes.iter().map(f).collect::<Vec<_>>());
        return Timings {
            intervals_per_s: per_ep(&|e| e.intervals as f64 / e.wall_s),
            p50_s: per_ep(&|e| e.served_p50_s.unwrap_or(0.0)),
            tails: vec![(
                "interval_p99_ms",
                per_ep(&|e| e.served_p99_s.unwrap_or(0.0)),
            )],
            samples: format!(
                "the daemon's percentiles over {} intervals, median of {n} episodes",
                episodes[0].intervals
            ),
        };
    }
    let wall = replica_medians(episodes, |e| &e.interval_wall_s);
    let cycle = replica_medians(episodes, |e| &e.interval_s);
    let repair = replica_medians(episodes, |e| &e.repair_s);
    let q = |v: &[f64], p| quantile(v, p).unwrap_or(0.0);
    let mut tails = vec![("interval_p90_ms", q(&cycle, 0.9))];
    if !repair.is_empty() {
        tails.push(("repair_p50_ms", q(&repair, 0.5)));
        tails.push(("repair_p90_ms", q(&repair, 0.9)));
    }
    Timings {
        intervals_per_s: wall.len() as f64 / wall.iter().sum::<f64>(),
        p50_s: q(&cycle, 0.5),
        tails,
        samples: format!(
            "{} intervals ({} repairs), each the median of {n} episodes",
            cycle.len(),
            repair.len()
        ),
    }
}

fn untraced_run(args: &RunArgs, input: &Input) -> Run {
    let served = args.workload.served();
    let setups: Vec<f64> = (0..args.size.setups)
        .map(|_| timed_setup(args.workload, args.size).0)
        .collect();
    let (mut failures, warm) = warm_up(args);
    let episodes = episodes_within(args.seconds, |i| {
        run_episode(args, input, false, served, i == 0)
    });
    failures.extend(check_episodes(&episodes, &episodes[0].fingerprint()));
    let decision_failures = decision_failures(warm.iter().chain(&episodes));
    let timings = timings(&episodes, served);
    let r = &episodes[0].result;
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("intervals_per_s", timings.intervals_per_s, "1/s"),
        metric("interval_p50_ms", ms(timings.p50_s), "ms"),
        metric("energy_wh", r.total_energy_wh, "Wh"),
        metric("slo_violation_rate", r.slo_violation_rate, "fraction"),
    ];

    let attempted: usize = warm.iter().chain(&episodes).map(|e| e.intervals).sum();
    let measured_s: f64 = episodes.iter().map(|e| e.wall_s).sum();
    let mut diagnostics = vec![
        ("episodes".to_string(), episodes.len().to_string()),
        (
            "intervals_per_episode".to_string(),
            input.intervals.to_string(),
        ),
        ("tasks_per_episode".to_string(), input.tasks.to_string()),
        ("measured_s".to_string(), format!("{measured_s:.3}")),
        ("setup_s.samples".to_string(), args.size.setups.to_string()),
        ("percentile.samples".to_string(), timings.samples),
        (
            "episode_intervals_per_s".to_string(),
            episodes
                .iter()
                .map(|e| format!("{:.3}", e.intervals as f64 / e.wall_s))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("fingerprint".to_string(), episodes[0].fingerprint().hex()),
    ];

    for (name, secs) in timings.tails {
        diagnostics.push((name.to_string(), format!("{}", ms(secs))));
    }
    diagnostics.extend([
        (
            "peak_rss_mb".to_string(),
            peak_rss_mb().map_or("n/a".to_string(), |mb| format!("{mb}")),
        ),
        (
            "mean_response_s".to_string(),
            format!("{}", r.mean_response_s),
        ),
        ("repairs".to_string(), r.decision_events.to_string()),
        ("fine_tunes".to_string(), r.fine_tune_events.to_string()),
        (
            "checkpoints".to_string(),
            episodes[0].checkpoints.to_string(),
        ),
        (
            "modeled_decision_s".to_string(),
            format!("{}", r.mean_decision_time_s),
        ),
        (
            "modeled_fine_tune_s".to_string(),
            format!("{}", r.fine_tune_overhead_s),
        ),
        (
            "decision_error_rate".to_string(),
            format!(
                "{}",
                decision_failures.len() as f64 / attempted.max(1) as f64
            ),
        ),
    ]);
    Run {
        attempted,
        failures,
        decision_failures,
        metrics,
        diagnostics,
    }
}

/// Self time and span count per layer, summed over traced episodes.
fn layer_totals(episodes: &[Episode]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for tracer in episodes.iter().filter_map(|e| e.tracer.as_ref()) {
        for (name, t) in tracer.totals() {
            let e = totals.entry(name).or_default();
            e.self_s += t.self_s;
            e.count += t.count;
        }
    }
    totals
}

/// Per-layer metrics of the traced episodes, plus the failures of the
/// accounting checks: no span outlasted by its children, and self times
/// plus the unattributed remainder adding up to the traced wall clock.
fn layer_metrics(
    episodes: &[Episode],
    input: &Input,
    reference_ips: f64,
) -> (Vec<Metric>, Vec<String>) {
    let totals = layer_totals(episodes);
    let tracers: Vec<&Tracer> = episodes.iter().filter_map(|e| e.tracer.as_ref()).collect();
    let wall_s: f64 = tracers.iter().map(|t| t.wall_s()).sum();
    let mut failures = Vec::new();
    if tracers
        .iter()
        .any(|t| t.self_times_s().iter().any(|&s| s < -1e-6))
    {
        failures.push("a span's children outlasted it".to_string());
    }

    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |name: &str| {
        let t = get(name);
        t.self_s / t.count.max(1) as f64
    };
    let intervals: usize = episodes.iter().map(|e| e.intervals).sum();
    let per_interval = |name: &str| get(name).self_s / intervals.max(1) as f64;
    let repairs: usize = episodes.iter().map(|e| e.repair_s.len()).sum();
    let repair_s: f64 = episodes.iter().flat_map(|e| e.repair_s.iter()).sum();
    let candidates: usize = episodes.iter().map(|e| e.candidates).sum();

    // Structural spans own no layer: their self time is the remainder.
    let unattributed_s = get(spans::EPISODE).self_s + get(spans::INTERVAL).self_s;
    let attributed_s: f64 = totals
        .iter()
        .filter(|(n, _)| **n != spans::EPISODE && **n != spans::INTERVAL)
        .map(|(_, t)| t.self_s)
        .sum();
    if (attributed_s + unattributed_s - wall_s).abs() > 1e-6 * wall_s.max(1.0) {
        failures.push(format!(
            "self times {attributed_s} + unattributed {unattributed_s} != traced wall {wall_s}"
        ));
    }
    // The serving loop proper: everything but the episode glue, the final
    // restore check and the probes.
    let probes_s: f64 = [
        spans::PROBE_CAPTURE,
        spans::PROBE_WITH_TOPOLOGY,
        spans::PROBE_ENUMERATE,
    ]
    .iter()
    .map(|n| get(n).self_s)
    .sum();
    let loop_s = wall_s - get(spans::EPISODE).self_s - get(spans::RESTORE).self_s - probes_s;
    let loop_other_s = get(spans::INTERVAL).self_s + get(spans::DECODE).self_s;
    let traced_ips = intervals as f64 / loop_s;

    let mut metrics: Vec<Metric> = spans::PHASES
        .iter()
        .zip(PHASE_METRICS)
        .map(|(span, name)| Metric {
            name,
            value: ms(per_interval(span)),
            unit: "ms",
        })
        .collect();
    let mut push = |name, value, unit| metrics.push(Metric { name, value, unit });
    push(
        "edgesim.state.capture_ms",
        ms(per_call(spans::PROBE_CAPTURE)),
        "ms",
    );
    push(
        "core.runner.residual_ms",
        ms(per_interval(spans::STEP)),
        "ms",
    );
    push(
        "core.carol.repair_ms",
        ms(per_interval(spans::REPAIR)),
        "ms",
    );
    push(
        "core.carol.candidates_per_repair",
        candidates as f64 / repairs.max(1) as f64,
        "count",
    );
    push(
        "core.carol.candidates_per_s",
        candidates as f64 / repair_s.max(1e-12),
        "1/s",
    );
    push(
        "edgesim.state.with_topology_us",
        per_call(spans::PROBE_WITH_TOPOLOGY) * 1e6,
        "us",
    );
    push(
        "core.nodeshift.enumerate_us",
        per_call(spans::PROBE_ENUMERATE) * 1e6,
        "us",
    );
    push(
        "core.pot.confidence_ms",
        ms(per_call(spans::CONFIDENCE)),
        "ms",
    );
    push(
        "core.carol.observe_ms",
        ms(per_interval(spans::CONFIDENCE) + per_interval(spans::FINE_TUNE)),
        "ms",
    );
    push(
        "gon.training.fine_tunes_per_interval",
        get(spans::FINE_TUNE).count as f64 / intervals.max(1) as f64,
        "ratio",
    );
    push(
        "core.carol.checkpoint_ms",
        ms(per_call(spans::CHECKPOINT)),
        "ms",
    );
    push(
        "core.carol.checkpoint_bytes",
        episodes
            .iter()
            .map(|e| e.checkpoint_bytes)
            .max()
            .unwrap_or(0) as f64,
        "bytes",
    );
    push("core.carol.restore_ms", ms(per_call(spans::RESTORE)), "ms");
    push(
        "workloads.replay.decode_us_per_event",
        get(spans::DECODE).self_s * 1e6 / (input.events * episodes.len()).max(1) as f64,
        "us",
    );
    push(
        "core.service.loop_other_frac",
        loop_other_s / loop_s,
        "fraction",
    );
    push(
        "trace.unattributed_ms",
        ms(unattributed_s / intervals.max(1) as f64),
        "ms",
    );
    push(
        "trace.overhead_frac",
        reference_ips / traced_ips - 1.0,
        "fraction",
    );
    (metrics, failures)
}

/// Metric names of the simulator stages, in [`spans::PHASES`] order.
const PHASE_METRICS: [&str; 7] = [
    "edgesim.phases.retire_ms",
    "edgesim.phases.admit_ms",
    "edgesim.phases.determine_failures_ms",
    "edgesim.phases.restart_ms",
    "edgesim.phases.schedule_dispatch_ms",
    "edgesim.phases.execute_ms",
    "edgesim.phases.report_ms",
];

fn traced_run(args: &RunArgs, input: &Input) -> Run {
    // After the warm-up, the traced episodes; then the untraced
    // reference whose fingerprint they must reproduce and whose
    // throughput prices the tracing.
    let (mut failures, warm) = warm_up(args);
    let episodes = episodes_within(args.seconds, |i| {
        run_episode(args, input, true, false, i == 0)
    });
    let reference = run_episode(args, input, false, args.workload.served(), false);
    let fingerprint = reference.fingerprint();
    failures.extend(check_episodes(
        std::slice::from_ref(&reference),
        &fingerprint,
    ));
    failures.extend(check_episodes(&episodes, &fingerprint));
    let reference_ips = reference.intervals as f64 / reference.wall_s;
    let (metrics, layer_failures) = layer_metrics(&episodes, input, reference_ips);
    failures.extend(layer_failures);

    let dir = &args.out_dir;
    let spans_path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let text: String = episodes
        .iter()
        .enumerate()
        .map(|(i, e)| e.tracer.as_ref().map_or(String::new(), |t| t.to_jsonl(i)))
        .collect();
    if let Err(e) = std::fs::write(&spans_path, text) {
        failures.push(format!("span file: {e}"));
    }
    let everything = || warm.iter().chain([&reference]).chain(&episodes);
    let attempted: usize = everything().map(|e| e.intervals).sum();
    let decision_failures = decision_failures(everything());
    let traced_wall_s: f64 = episodes
        .iter()
        .filter_map(|e| e.tracer.as_ref())
        .map(Tracer::wall_s)
        .sum();
    let mut diagnostics = vec![
        ("traced_episodes".to_string(), episodes.len().to_string()),
        ("traced_wall_s".to_string(), format!("{traced_wall_s:.6}")),
        (
            "intervals_per_episode".to_string(),
            input.intervals.to_string(),
        ),
        ("fingerprint".to_string(), fingerprint.hex()),
        (
            "spans".to_string(),
            spans_path.to_string_lossy().into_owned(),
        ),
    ];
    for (name, t) in layer_totals(&episodes) {
        diagnostics.push((
            format!("self_s.{name}"),
            format!("{:.6} over {} spans", t.self_s, t.count),
        ));
    }
    Run {
        attempted,
        failures,
        decision_failures,
        metrics,
        diagnostics,
    }
}
