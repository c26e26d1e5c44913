//! One episode: a complete, deterministic pass over a workload's input.
//!
//! Two drivers produce the same [`Episode`] record. [`run_engine`] steps
//! `ExperimentEngine` from the public calls — decode the stream, group by
//! interval, step, checkpoint on cadence — which is the daemon's cycle
//! re-driven from outside, so it can be traced. [`run_served`] hands the
//! stream to the daemon itself over one loopback TCP connection.

use crate::check::{check_restore, CheckedCarol, Fingerprint};
use crate::spans::{self, Tracer};
use crate::workload::{Input, Size, Workload, SYSTEM_SEED};
use carol::runner::{ExperimentEngine, ExperimentResult};
use carol::service::{serve_federation_listener, FederationSet, ServeOptions};
use carol::Carol;
use edgesim::TaskSpec;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;
use workloads::replay::{StreamingTrace, TraceEvent};

/// What one episode measured and produced.
#[derive(Debug)]
pub struct Episode {
    /// Seconds of the serving loop, from the first event to the last
    /// interval (set-up and the final restore check excluded).
    pub wall_s: f64,
    /// Intervals stepped.
    pub intervals: usize,
    /// Per-interval cycle latency — step plus any checkpoint — seconds
    /// (engine driver only).
    pub interval_s: Vec<f64>,
    /// Per-interval loop wall clock — decode, step and checkpoint —
    /// seconds (engine driver only).
    pub interval_wall_s: Vec<f64>,
    /// The daemon's own p50 / p99 of its per-interval step latency
    /// (served driver only).
    pub served_p50_s: Option<f64>,
    /// See [`Episode::served_p50_s`].
    pub served_p99_s: Option<f64>,
    /// Wall clock of each repair on a failure interval, seconds (engine
    /// driver only).
    pub repair_s: Vec<f64>,
    /// Surrogate queries issued by those repairs.
    pub candidates: usize,
    /// Checkpoints taken.
    pub checkpoints: usize,
    /// Size of the last checkpoint's JSON, bytes.
    pub checkpoint_bytes: usize,
    /// The §V metrics of the episode.
    pub result: ExperimentResult,
    /// Integrity check failures — ingest, checkpoint, decode — one
    /// message each.
    pub failures: Vec<String>,
    /// Repair decisions that failed a check (engine driver only).
    pub decision_failures: Vec<String>,
    /// The spans of a traced episode.
    pub tracer: Option<Tracer>,
}

impl Episode {
    /// The episode's QoS fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&self.result)
    }
}

/// Pulls the events of interval `t` off the stream into an arrival batch.
/// `pending` carries the first event of a later interval between calls.
fn interval_arrivals<R: std::io::BufRead>(
    stream: &mut StreamingTrace<R>,
    pending: &mut Option<TraceEvent>,
    t: usize,
) -> Result<Vec<TaskSpec>, String> {
    let mut arrivals = Vec::new();
    loop {
        let event = match pending.take() {
            Some(event) => event,
            None => match stream.next() {
                Some(Ok(event)) => event,
                Some(Err(e)) => return Err(format!("trace decode: {e}")),
                None => return Ok(arrivals),
            },
        };
        if event.interval != t {
            *pending = Some(event);
            return Ok(arrivals);
        }
        arrivals.extend(std::iter::repeat_n(event.to_spec(), event.arrivals));
    }
}

/// What serving starts from: the pretrained controller, the engine and
/// the scheduler.
pub type System = (Carol, ExperimentEngine, Box<dyn edgesim::Scheduler>);

/// Builds the system one episode serves — exactly what the daemon
/// builds per federation before serving — and times it.
pub fn timed_setup(workload: Workload, size: Size) -> (f64, System) {
    let start = Instant::now();
    let scenario = workload.scenario(size);
    let carol = Carol::pretrained(workload.carol_config(size), SYSTEM_SEED);
    let engine = ExperimentEngine::new(&scenario.experiment_config());
    let scheduler = scenario.scheduler.build();
    (start.elapsed().as_secs_f64(), (carol, engine, scheduler))
}

/// Freezes the controller to checkpoint JSON, writing it to `path` when
/// given (as the daemon does).
fn checkpoint(carol: &mut Carol, path: Option<&Path>) -> Result<String, String> {
    let json = carol
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?
        .to_json();
    if let Some(path) = path {
        std::fs::write(path, &json).map_err(|e| format!("checkpoint write: {e}"))?;
    }
    Ok(json)
}

/// Steps `ExperimentEngine` over the input: per interval, decode the
/// interval's events, step, and take the cadenced checkpoint (written to
/// `checkpoint_path`, as the daemon does). With `verify`, the last
/// checkpoint — or, without a cadence, one taken after the loop — is read
/// back and restored. With `traced`, every layer call is recorded as a
/// span and the probes run.
pub fn run_engine(
    workload: Workload,
    size: Size,
    input: &Input,
    traced: bool,
    verify: bool,
    checkpoint_path: &Path,
) -> Episode {
    let (_, (carol, mut engine, mut scheduler)) = timed_setup(workload, size);

    let mut policy = CheckedCarol::new(carol, traced.then(Tracer::new));
    let mut failures = Vec::new();
    let mut interval_s = Vec::with_capacity(input.intervals);
    let mut interval_wall_s = Vec::with_capacity(input.intervals);
    let (mut tasks, mut checkpoints) = (0, 0);
    let mut last_checkpoint: Option<(String, usize)> = None;

    let begin = |p: &mut CheckedCarol, name| p.tracer.as_mut().map(|t| t.begin(name));
    let end = |p: &mut CheckedCarol| p.tracer.as_mut().map(Tracer::end);

    let loop_start = Instant::now();
    begin(&mut policy, spans::EPISODE);
    let mut stream = StreamingTrace::open(input.trace.as_bytes()).expect("generated trace opens");
    let mut pending = None;
    for t in 0..input.intervals {
        if let Some(tracer) = policy.tracer.as_mut() {
            tracer.set_interval(Some(t));
        }
        let interval_start = Instant::now();
        begin(&mut policy, spans::INTERVAL);
        begin(&mut policy, spans::DECODE);
        let arrivals = match interval_arrivals(&mut stream, &mut pending, t) {
            Ok(arrivals) => arrivals,
            Err(e) => {
                failures.push(e);
                Vec::new()
            }
        };
        end(&mut policy);
        tasks += arrivals.len();

        let cycle = Instant::now();
        begin(&mut policy, spans::STEP);
        engine.step(&mut policy, arrivals, scheduler.as_mut());
        end(&mut policy);
        if size
            .checkpoint_every
            .is_some_and(|every| (t + 1).is_multiple_of(every.max(1)))
        {
            begin(&mut policy, spans::CHECKPOINT);
            match checkpoint(&mut policy.carol, Some(checkpoint_path)) {
                Ok(json) => {
                    checkpoints += 1;
                    last_checkpoint = Some((json, t + 1));
                }
                Err(e) => failures.push(e),
            }
            end(&mut policy);
        }
        interval_s.push(cycle.elapsed().as_secs_f64());
        end(&mut policy);
        interval_wall_s.push(interval_start.elapsed().as_secs_f64());
    }
    let wall_s = loop_start.elapsed().as_secs_f64();
    if let Some(tracer) = policy.tracer.as_mut() {
        tracer.set_interval(None);
    }

    if pending.is_some() || stream.next().is_some() {
        failures.push("trace has events past its horizon".to_string());
    }
    if verify {
        // Without a checkpoint cadence, freeze the controller once, after
        // the loop, so every episode's restore path is checked.
        if size.checkpoint_every.is_none() {
            begin(&mut policy, spans::CHECKPOINT);
            match checkpoint(&mut policy.carol, None) {
                Ok(json) => {
                    checkpoints += 1;
                    last_checkpoint = Some((json, engine.interval()));
                }
                Err(e) => failures.push(e),
            }
            end(&mut policy);
        }
        begin(&mut policy, spans::RESTORE);
        match &last_checkpoint {
            Some((json, at)) => {
                if let Err(e) = check_restore(json, *at) {
                    failures.push(e);
                }
            }
            None => failures.push("no checkpoint was taken".to_string()),
        }
        end(&mut policy);
    }
    end(&mut policy);

    if tasks != input.tasks || engine.interval() != input.intervals {
        failures.push(format!(
            "fed {tasks} tasks over {} intervals, the trace holds {} over {}",
            engine.interval(),
            input.tasks,
            input.intervals
        ));
    }
    let result = engine.finish(&policy);
    Episode {
        wall_s,
        intervals: input.intervals,
        interval_s,
        interval_wall_s,
        served_p50_s: None,
        served_p99_s: None,
        repair_s: policy.repair_s,
        candidates: policy.candidates,
        checkpoints,
        checkpoint_bytes: last_checkpoint.map_or(0, |(json, _)| json.len()),
        result,
        failures,
        decision_failures: policy.decision_failures,
        tracer: policy.tracer,
    }
}

/// Serves the input through the daemon: one `FederationSet` federation
/// behind `serve_federation_listener`, fed by one writer thread over a
/// single loopback TCP connection, background fine-tuning on. With
/// `verify`, the daemon's last checkpoint file is restored.
pub fn run_served(
    workload: Workload,
    size: Size,
    input: &Input,
    verify: bool,
    checkpoint_path: &Path,
) -> Episode {
    let path = checkpoint_path.to_string_lossy().into_owned();
    let set = FederationSet::new(vec![workload.spec(size, &path)]);
    let options = ServeOptions {
        background_tune: true,
        ..ServeOptions::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let mut failures = Vec::new();

    let (served, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> std::io::Result<()> {
            let mut conn = TcpStream::connect(addr)?;
            conn.write_all(input.trace.as_bytes())?;
            conn.shutdown(std::net::Shutdown::Write)
        });
        let served = serve_federation_listener(&set, &listener, &options);
        (served, writer.join())
    });
    match writer {
        Ok(Ok(())) => {}
        Ok(Err(e)) => failures.push(format!("trace writer: {e}")),
        Err(_) => failures.push("trace writer panicked".to_string()),
    }
    let mut report = match served {
        Ok(mut reports) => reports.pop().expect("one federation, one report"),
        Err(e) => panic!("daemon failed: {e}"),
    };

    if report.tasks_ingested != input.tasks || report.intervals != input.intervals {
        failures.push(format!(
            "daemon ingested {} tasks over {} intervals, the trace holds {} over {}",
            report.tasks_ingested, report.intervals, input.tasks, input.intervals
        ));
    }
    let mut checkpoint_bytes = 0;
    if verify {
        match (
            std::fs::read_to_string(checkpoint_path),
            report.last_checkpoint_interval,
        ) {
            (Ok(json), Some(at)) => {
                checkpoint_bytes = json.len();
                if let Err(e) = check_restore(&json, at) {
                    failures.push(e);
                }
            }
            (Err(e), _) => failures.push(format!("checkpoint file: {e}")),
            (_, None) => failures.push("the daemon took no checkpoint".to_string()),
        }
    }
    let latency = report.decision_latency_s.take();
    Episode {
        wall_s: report.wall_s,
        intervals: report.intervals,
        interval_s: Vec::new(),
        interval_wall_s: Vec::new(),
        served_p50_s: latency.map(|l| l.p50),
        served_p99_s: latency.map(|l| l.p99),
        repair_s: Vec::new(),
        candidates: 0,
        checkpoints: report.checkpoints_taken,
        checkpoint_bytes,
        result: report.result,
        failures,
        decision_failures: Vec::new(),
        tracer: None,
    }
}
