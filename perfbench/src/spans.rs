//! In-memory span recorder for the traced run.
//!
//! A span is a name, its parent, the interval it belongs to, a start and
//! a duration. Spans are recorded around the benchmark's calls into each
//! layer, kept in memory, and written out once the run ends. A layer's
//! self time is its span's duration minus the durations of its children,
//! so the self times of every span of an episode add up to the episode's
//! wall clock exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Root span of one traced episode.
pub const EPISODE: &str = "episode";
/// One scheduling interval of the loop.
pub const INTERVAL: &str = "interval";
/// Decoding the interval's trace events.
pub const DECODE: &str = "workloads.replay.decode";
/// One `ExperimentEngine::step` call.
pub const STEP: &str = "core.runner.step";
/// `Carol::repair` (every interval; a no-op check when no broker failed).
pub const REPAIR: &str = "core.carol.repair";
/// `Carol::observe` on an interval without a fine-tune.
pub const CONFIDENCE: &str = "core.pot.confidence";
/// `Carol::observe` on an interval that fine-tuned the GON inline.
pub const FINE_TUNE: &str = "gon.training.fine_tune";
/// `Carol::checkpoint` + JSON encoding (+ the file write when serving).
pub const CHECKPOINT: &str = "core.carol.checkpoint";
/// JSON decoding + `Carol::restore` of the last checkpoint.
pub const RESTORE: &str = "core.carol.restore";
/// Probe: `SystemState::capture_refs` on the post-step state.
pub const PROBE_CAPTURE: &str = "probe.edgesim.state.capture";
/// Probe: `SystemState::with_topology` on the interval's base state.
pub const PROBE_WITH_TOPOLOGY: &str = "probe.edgesim.state.with_topology";
/// Probe: `nodeshift::enumerate_moves` on the interval's topology.
pub const PROBE_ENUMERATE: &str = "probe.core.nodeshift.enumerate";
/// The simulator's seven pipeline stages, in `PhaseTimings::rows` order.
pub const PHASES: [&str; 7] = [
    "edgesim.phases.retire",
    "edgesim.phases.admit",
    "edgesim.phases.determine_failures",
    "edgesim.phases.restart",
    "edgesim.phases.schedule_dispatch",
    "edgesim.phases.execute",
    "edgesim.phases.report",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Index of the enclosing span (`None` for an episode root).
    pub parent: Option<usize>,
    /// Scheduling interval the span belongs to (its request id).
    pub interval: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin. `None` for the
    /// simulator stages, which report only their durations.
    pub start_ns: Option<u64>,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Total self time and number of spans of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Spans recorded.
    pub count: usize,
}

/// Records spans into memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
    interval: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            interval: None,
        }
    }

    /// Tags the spans that follow with a scheduling interval.
    pub fn set_interval(&mut self, interval: Option<usize>) {
        self.interval = interval;
    }

    fn nanos(d: Duration) -> u64 {
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, name: &'static str, start: Option<Instant>, dur: Duration) -> usize {
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(id, _)| id),
            interval: self.interval,
            start_ns: start.map(|s| Self::nanos(s.saturating_duration_since(self.origin))),
            dur_ns: Self::nanos(dur),
        });
        self.spans.len() - 1
    }

    /// Opens a span; spans recorded until the matching [`Tracer::end`]
    /// become its children.
    pub fn begin(&mut self, name: &'static str) {
        let now = Instant::now();
        let id = self.push(name, Some(now), Duration::ZERO);
        self.open.push((id, now));
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: begin/end pairs are the benchmark's
    /// own bookkeeping, so an unmatched end is a bug in it.
    pub fn end(&mut self) {
        let (id, start) = self.open.pop().expect("Tracer::end without begin");
        self.spans[id].dur_ns = Self::nanos(start.elapsed());
    }

    /// Records a closed span that started at `start` and lasted `dur`,
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, dur: Duration) {
        self.push(name, Some(start), dur);
    }

    /// Records a span known only by its duration (a simulator stage
    /// timed inside the program).
    pub fn record_duration(&mut self, name: &'static str, secs: f64) {
        self.push(name, None, Duration::from_secs_f64(secs.max(0.0)));
    }

    /// Self time per span: its duration minus its children's. Negative
    /// when children overran their parent, which [`Tracer::totals`]
    /// callers treat as a broken measurement.
    pub fn self_times_s(&self) -> Vec<f64> {
        let mut self_ns: Vec<i128> = self.spans.iter().map(|s| i128::from(s.dur_ns)).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                self_ns[p] -= i128::from(span.dur_ns);
            }
        }
        self_ns.into_iter().map(|ns| ns as f64 * 1e-9).collect()
    }

    /// Self time and span count per layer name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, self_s) in self.spans.iter().zip(self.self_times_s()) {
            let t = out.entry(span.name).or_default();
            t.self_s += self_s;
            t.count += 1;
        }
        out
    }

    /// Total duration of the root spans, seconds.
    pub fn wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns as f64 * 1e-9)
            .sum()
    }

    /// The spans as JSON lines, `episode` tagging which tracer they came
    /// from.
    pub fn to_jsonl(&self, episode: usize) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let start = s.start_ns.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"episode\":{episode},\"id\":{id},\"parent\":{},\"name\":\"{}\",\"interval\":{},\"start_ns\":{start},\"dur_ns\":{}}}",
                opt(s.parent),
                s.name,
                opt(s.interval),
                s.dur_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root_duration() {
        let mut t = Tracer::new();
        t.begin(EPISODE);
        t.begin(INTERVAL);
        t.record(REPAIR, Instant::now(), Duration::from_micros(30));
        t.record_duration(PHASES[0], 20e-6);
        std::thread::sleep(Duration::from_micros(200));
        t.end();
        t.end();
        let sum: f64 = t.totals().values().map(|l| l.self_s).sum();
        assert!((sum - t.wall_s()).abs() < 1e-9);
        assert!(t.self_times_s().iter().all(|&s| s >= 0.0));
        assert_eq!(t.to_jsonl(0).lines().count(), 4);
    }
}
