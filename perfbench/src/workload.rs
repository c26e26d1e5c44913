//! The three benchmark workloads: what each one runs, and the inputs it
//! generates from the seed before any clock starts.
//!
//! The seed generates a workload's input — its arrival trace — and
//! nothing else. The system under test is fixed configuration: the
//! federation, its fault injector and the pretrained controller are
//! seeded by [`SYSTEM_SEED`], as one deployed federation would be. So
//! runs on different seeds differ in what arrives, not in which model
//! serves it.
//!
//! Every workload consumes a `carol-trace` v1 stream, so all three share
//! one input format and one interval grouping (the daemon's): the served
//! workload hands the stream to the daemon over TCP, the engine workloads
//! decode it themselves and step [`carol::runner::ExperimentEngine`].

use carol::scenario::WorkloadSource;
use carol::service::{CheckpointSpec, ExperimentSpec};
use carol::tabu::Neighborhood;
use carol::{CarolConfig, FineTuneMode, ScenarioSpec};
use workloads::replay::{export_jsonl, record_suite};
use workloads::BenchmarkSuite;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The daemon serving the paper's 16-host / 4-LEI federation.
    ServePaper16,
    /// `ExperimentEngine` + CAROL at 4096 hosts, fault-free.
    SteadyAiot4096,
    /// `ExperimentEngine` + CAROL at 256 hosts under heavy broker faults,
    /// with the sampled repair neighbourhood.
    RepairAiot256,
}

/// How much work a run does. An episode is one complete, deterministic
/// pass over the workload's input; a run makes two short warm-up
/// episodes, then repeats episodes until its time budget is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Set-ups timed per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Scheduling intervals per episode (the trace length).
    pub intervals: usize,
    /// Intervals of the warm-up episodes, a prefix of the input.
    pub warm_up_intervals: usize,
    /// Checkpoint cadence in intervals, as the daemon runs it. `None`
    /// checkpoints once, after the loop, when an episode verifies its
    /// restore path.
    pub checkpoint_every: Option<usize>,
}

/// Candidate cap of the sampled neighbourhood (the scale sweep's `k`).
pub const SAMPLED_MAX_MOVES: usize = 160;

/// Fault rate of the repair-heavy workload (the scale sweep's λ_f).
pub const REPAIR_FAULT_RATE: f64 = 3.0;

/// Set-ups a full run times.
pub const FULL_SETUPS: usize = 21;

/// Seed of the system under test: simulator, fault injector, controller
/// pretraining and the sampled neighbourhood.
pub const SYSTEM_SEED: u64 = 7;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ServePaper16,
        Workload::SteadyAiot4096,
        Workload::RepairAiot256,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePaper16 => "serve-paper16",
            Workload::SteadyAiot4096 => "steady-aiot4096",
            Workload::RepairAiot256 => "repair-aiot256",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the untraced run goes through the daemon
    /// (`carol::service`) rather than stepping the engine directly.
    pub fn served(self) -> bool {
        self == Workload::ServePaper16
    }

    /// The episode size of a full benchmark run.
    pub fn full_size(self) -> Size {
        match self {
            Workload::ServePaper16 => Size {
                setups: FULL_SETUPS,
                intervals: 6_000,
                warm_up_intervals: 300,
                checkpoint_every: Some(2_000),
            },
            Workload::SteadyAiot4096 => Size {
                setups: FULL_SETUPS,
                intervals: 40,
                warm_up_intervals: 5,
                checkpoint_every: None,
            },
            Workload::RepairAiot256 => Size {
                setups: FULL_SETUPS,
                intervals: 150,
                warm_up_intervals: 10,
                checkpoint_every: None,
            },
        }
    }

    /// The episode size the benchmark's own tests run: every code path
    /// and check of the full size, in a fraction of a second.
    pub fn tiny_size(self) -> Size {
        match self {
            Workload::ServePaper16 => Size {
                setups: 1,
                intervals: 40,
                warm_up_intervals: 10,
                checkpoint_every: Some(10),
            },
            Workload::SteadyAiot4096 | Workload::RepairAiot256 => Size {
                setups: 1,
                intervals: 3,
                warm_up_intervals: 1,
                checkpoint_every: None,
            },
        }
    }

    /// The scenario one episode runs. Its own arrival process is unused:
    /// arrivals come from the input trace.
    pub fn scenario(self, size: Size) -> ScenarioSpec {
        let seed = SYSTEM_SEED;
        let mut scenario = match self {
            Workload::ServePaper16 => ScenarioSpec::paper(seed),
            Workload::SteadyAiot4096 => ScenarioSpec {
                fault_rate: 0.0,
                ..ScenarioSpec::named("aiot-4096", seed).expect("aiot-4096 is registered")
            },
            Workload::RepairAiot256 => ScenarioSpec {
                fault_rate: REPAIR_FAULT_RATE,
                ..ScenarioSpec::named("aiot-256", seed).expect("aiot-256 is registered")
            },
        };
        scenario.intervals = size.intervals;
        scenario
    }

    /// The experiment spec the daemon serves (and the engine workloads
    /// derive their controller from). `checkpoint_path` is where the
    /// daemon writes its cadenced checkpoint.
    pub fn spec(self, size: Size, checkpoint_path: &str) -> ExperimentSpec {
        ExperimentSpec::new(self.scenario(size)).with_checkpoint(CheckpointSpec {
            every: size.checkpoint_every,
            path: Some(checkpoint_path.to_string()),
        })
    }

    /// The controller configuration: the service-tier GON for every
    /// workload, without fine-tuning on the fault-free one and with the
    /// scale sweep's sampled neighbourhood on the repair-heavy one.
    pub fn carol_config(self, size: Size) -> CarolConfig {
        let mut config = self.spec(size, "").carol_config();
        match self {
            Workload::ServePaper16 => {}
            // One POT alarm retrains the GON on 4096-host states, takes
            // about as long as ten intervals and fires on some seeds but
            // not others; the workload keeps the confidence check and
            // leaves fine-tuning to `serve-paper16`.
            Workload::SteadyAiot4096 => config.fine_tune = FineTuneMode::Never,
            Workload::RepairAiot256 => {
                config.tabu.neighborhood = Neighborhood::Sampled {
                    max_moves: SAMPLED_MAX_MOVES,
                    seed: SYSTEM_SEED ^ 0x5a17 ^ 256,
                }
            }
        }
        config
    }

    /// Generates the episode input from the seed: AIoTBench arrivals at
    /// the scenario's rate, recorded as a trace.
    pub fn input(self, seed: u64, size: Size) -> Input {
        let rate = match self.scenario(size).workload {
            WorkloadSource::Suite { rate, .. } => rate,
            WorkloadSource::Replay { .. } => unreachable!("workload scenarios are synthetic"),
        };
        let events = record_suite(BenchmarkSuite::AIoTBench, rate, seed, size.intervals);
        Input {
            tasks: events.iter().map(|e| e.arrivals).sum(),
            events: events.len(),
            // The stream's horizon, as the daemon sees it: trailing empty
            // intervals carry no event and are never stepped.
            intervals: events.iter().map(|e| e.interval + 1).max().unwrap_or(0),
            trace: export_jsonl(&events),
        }
    }
}

/// One episode's input: a `carol-trace` v1 document and its totals.
#[derive(Debug, Clone)]
pub struct Input {
    /// The JSONL trace.
    pub trace: String,
    /// Tasks the trace carries.
    pub tasks: usize,
    /// Event records in the trace.
    pub events: usize,
    /// Scheduling intervals the trace spans.
    pub intervals: usize,
}
