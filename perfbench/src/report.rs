//! Run labels and the result line.

use crate::run::{Run, RunArgs};
use par::THREADS_ENV;
use std::fmt::Write as _;

/// Pins `CAROL_THREADS` to at most the machine's processor count (to the
/// count itself when unset or unparsable). Call before any worker pool
/// starts.
pub fn pin_threads() {
    let nproc = nproc();
    let threads = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .map_or(nproc, |n| n.min(nproc));
    std::env::set_var(THREADS_ENV, threads.to_string());
}

/// Processors available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The CPU model from `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The labels every record carries.
pub fn labels(args: &RunArgs) -> Vec<(String, String)> {
    vec![
        ("workload".into(), args.workload.name().into()),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("cpu_model".into(), cpu_model()),
        ("nproc".into(), nproc().to_string()),
        (
            THREADS_ENV.into(),
            std::env::var(THREADS_ENV).unwrap_or_default(),
        ),
        ("simd".into(), nn::kernel::active().name().into()),
    ]
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. A metric that is not a finite number makes the run
/// incorrect (and is written as 0) rather than producing invalid JSON.
pub fn result_line(run: &Run) -> String {
    let mut correct = run.correct();
    let mut metrics = String::new();
    for (i, m) in run.metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            m.value
        } else {
            correct = false;
            0.0
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.attempted.max(1),
        run.failed()
    )
}

/// The full record of a run as JSON: labels, diagnostics, failures of
/// both kinds and the result line.
pub fn record(labels: &[(String, String)], run: &Run) -> String {
    let pairs = |items: &[(String, String)]| {
        items
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let list = |items: &[String]| {
        items
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\"labels\": {{{}}}, \"diagnostics\": {{{}}}, \"failures\": [{}], \"decision_failures\": [{}], \"result\": {}}}\n",
        pairs(labels),
        pairs(&run.diagnostics),
        list(&run.failures),
        list(&run.decision_failures),
        result_line(run)
    )
}
