//! Serialization round-trips: traces, snapshots and experiment results
//! must survive JSON round-trips so runs can be archived and replotted.

use edgesim::state::{Normalizer, SystemState};
use edgesim::{SimConfig, Topology};
use workloads::trace::{generate_trace, TraceConfig};
use workloads::BenchmarkSuite;

#[test]
fn system_state_round_trips() {
    let trace = generate_trace(
        &TraceConfig {
            intervals: 5,
            topology_period: 2,
            arrival_rate: 2.0,
            suite: BenchmarkSuite::DeFog,
            seed: 1,
        },
        SimConfig::small(6, 2, 1),
    );
    for state in &trace {
        let json = serde_json::to_string(state).expect("serialise");
        let back: SystemState = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(state, &back);
    }
}

#[test]
fn topology_and_config_round_trip() {
    let topo = Topology::balanced(16, 4).unwrap();
    let json = serde_json::to_string(&topo).unwrap();
    let back: Topology = serde_json::from_str(&json).unwrap();
    assert_eq!(topo, back);

    let cfg = SimConfig::testbed(9);
    let json = serde_json::to_string(&cfg).unwrap();
    let back: SimConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg.specs, back.specs);
    assert_eq!(cfg.n_brokers, back.n_brokers);
    assert_eq!(cfg.broker_span, back.broker_span);
}

#[test]
fn experiment_result_round_trips() {
    use carol::carol::{Carol, CarolConfig};
    use carol::runner::{run_experiment, ExperimentConfig, ExperimentResult};

    let mut policy = Carol::pretrained(CarolConfig::fast_test(), 3);
    let config = ExperimentConfig {
        intervals: 6,
        ..ExperimentConfig::small(3)
    };
    let result = run_experiment(&mut policy, &config);
    let json = serde_json::to_string_pretty(&result).unwrap();
    let back: ExperimentResult = serde_json::from_str(&json).unwrap();
    assert_eq!(result.name, back.name);
    assert_eq!(result.completed, back.completed);
    assert_eq!(result.total_energy_wh, back.total_energy_wh);
    assert_eq!(result.response_times_s, back.response_times_s);
}

#[test]
fn gon_config_and_normalizer_survive_defaults() {
    // Normalizer / CostModel defaults are load-bearing for reproducibility:
    // pin them so accidental changes fail loudly.
    let norm = Normalizer::default();
    assert_eq!(norm.max_tasks, 8.0);
    let costs = edgesim::state::CostModel::default();
    assert_eq!(costs.span, 5);
    assert!(costs.base_cpu > 0.0 && costs.per_worker_cpu > 0.0);
}

/// GON checkpoint → JSON → restore is bit-exact on every `f64` of every
/// parameter — values, gradients, and both Adam moment buffers — even
/// after training has dirtied all of them.
#[test]
fn gon_checkpoint_restores_every_param_bit_exact() {
    use gon::{GonCheckpoint, GonConfig, GonModel, TrainConfig};
    use workloads::trace::{generate_trace, TraceConfig};
    use workloads::BenchmarkSuite;

    let trace = generate_trace(
        &TraceConfig {
            intervals: 8,
            topology_period: 3,
            arrival_rate: 2.0,
            suite: BenchmarkSuite::DeFog,
            seed: 5,
        },
        SimConfig::small(6, 2, 5),
    );
    let mut model = GonModel::new(GonConfig {
        hidden: 10,
        head_layers: 2,
        gat_dim: 6,
        gat_att: 2,
        gen_lr: 5e-3,
        gen_steps: 2,
        gen_tol: 1e-7,
        seed: 5,
    });
    // Dirty weights, gradients and Adam moments alike.
    gon::train_offline(
        &mut model,
        &trace,
        &TrainConfig {
            epochs: 1,
            minibatch: 4,
            patience: 1,
            ..Default::default()
        },
    );

    let ckpt = GonCheckpoint::capture(&mut model);
    let back = GonCheckpoint::from_json(&ckpt.to_json()).expect("checkpoint JSON parses");
    assert_eq!(ckpt, back, "JSON round-trip must be lossless");
    let mut restored = back.restore().expect("checkpoint restores");

    let originals = model.params_mut();
    let mut restored_params = restored.params_mut();
    assert_eq!(originals.len(), restored_params.len());
    let mut checked = 0usize;
    for (i, (a, b)) in originals.iter().zip(restored_params.iter_mut()).enumerate() {
        for (label, x, y) in [
            ("value", a.value.data(), b.value.data()),
            ("grad", a.grad.data(), b.grad.data()),
            ("m", a.m.data(), b.m.data()),
            ("v", a.v.data(), b.v.data()),
        ] {
            assert_eq!(x.len(), y.len(), "param {i} {label}: length diverged");
            for (j, (p, q)) in x.iter().zip(y).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    q.to_bits(),
                    "param {i} {label}[{j}] diverged: {p} vs {q}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 1000, "the sweep must cover a real model");
}

/// One `ExperimentSpec` JSON reconstructs the whole experiment —
/// scenario, evaluation engine, trainer, checkpoint cadence — and the
/// registry constructor resolves the same names as `ScenarioSpec`.
#[test]
fn experiment_spec_json_reconstructs_scenario_engine_and_trainer() {
    use carol::service::{CheckpointSpec, ExperimentSpec};
    use carol::ScenarioSpec;

    for name in ScenarioSpec::registry_names() {
        let spec = ExperimentSpec::named(name, 3).unwrap_or_else(|| panic!("{name} registered"));
        assert_eq!(&spec.scenario.name, name);
    }
    assert!(ExperimentSpec::named("not-a-scenario", 3).is_none());

    let spec = ExperimentSpec::named("storm-64", 11)
        .unwrap()
        .with_engine(par::EngineConfig { threads: Some(3) })
        .with_train(gon::TrainConfig {
            epochs: 2,
            minibatch: 16,
            ..Default::default()
        })
        .with_checkpoint(CheckpointSpec {
            every: Some(25),
            path: Some("ckpt.json".into()),
        });
    let back = ExperimentSpec::from_json(&spec.to_json()).expect("spec JSON parses");
    assert_eq!(back.scenario.name, "storm-64");
    assert_eq!(back.scenario.n_hosts, 64);
    assert_eq!(back.scenario.seed, 11);
    assert_eq!(back.engine, par::EngineConfig { threads: Some(3) });
    assert_eq!(back.train.epochs, 2);
    assert_eq!(back.train.minibatch, 16);
    assert_eq!(back.checkpoint.every, Some(25));
    assert_eq!(back.checkpoint.path.as_deref(), Some("ckpt.json"));

    // The induced controller config reflects the spec's engine + trainer.
    let cc = back.carol_config();
    assert_eq!(cc.eval_threads, Some(3));
    assert_eq!(cc.offline.epochs, 2);
}

/// Inserts `stale` right after the first occurrence of `anchor` in
/// `json` — how a document written by an older build looks.
fn insert_after(json: &str, anchor: &str, stale: &str) -> String {
    let at = json
        .find(anchor)
        .unwrap_or_else(|| panic!("`{anchor}` in the document"))
        + anchor.len();
    format!("{}{stale}{}", &json[..at], &json[at..])
}

/// Documents written while the repair and training engines had a serial
/// switch carry `batch_eval`, `batch_train` and `engine.batched` keys.
/// The JSON layer ignores unknown keys, so such a checkpoint, trainer
/// config and experiment spec still parse — even with the switch off —
/// and restore or run on the one engine, bit-identically to the current
/// document.
#[test]
fn documents_with_retired_engine_keys_parse_and_run() {
    use carol::carol::{Carol, CarolCheckpoint, CarolConfig};
    use carol::service::ExperimentSpec;
    use edgesim::scheduler::LeastLoadScheduler;
    use edgesim::Simulator;
    use gon::{GonConfig, GonModel, TrainConfig};

    // A controller checkpoint with `"batch_eval": false`.
    let mut policy = Carol::pretrained(CarolConfig::fast_test(), 5);
    let json = policy.checkpoint().expect("GON checkpoints").to_json();
    let stale = insert_after(&json, "\"config\": {", "\"batch_eval\": false,");
    let ckpt = CarolCheckpoint::from_json(&stale).expect("stale checkpoint parses");
    let mut restored = Carol::restore(&ckpt).expect("stale checkpoint restores");
    let mut sim = Simulator::new(SimConfig::small(8, 2, 5));
    let report = sim.step(Vec::new(), &mut LeastLoadScheduler::new());
    let base = SystemState::capture(
        sim.topology(),
        sim.specs(),
        sim.host_states(),
        sim.tasks(),
        &report.decision,
        &Normalizer::for_federation(8, 2),
    );
    let candidates = carol::nodeshift::mutations(sim.topology(), &[]);
    let bits = |scores: Vec<f64>| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(restored.objective_batch(&base, &candidates)),
        bits(policy.objective_batch(&base, &candidates)),
        "the restored controller must score like the one it froze"
    );

    // A trainer config with `"batch_train": false`.
    let train = TrainConfig {
        epochs: 1,
        minibatch: 4,
        ..Default::default()
    };
    let stale = insert_after(
        &serde_json::to_string(&train).unwrap(),
        "{",
        "\"batch_train\":false,",
    );
    let parsed: TrainConfig = serde_json::from_str(&stale).expect("stale trainer config parses");
    let trace = generate_trace(
        &TraceConfig {
            intervals: 8,
            topology_period: 3,
            arrival_rate: 2.0,
            suite: BenchmarkSuite::DeFog,
            seed: 5,
        },
        SimConfig::small(6, 2, 5),
    );
    let train_with = |config: &TrainConfig| {
        let mut model = GonModel::new(GonConfig {
            hidden: 8,
            head_layers: 2,
            gat_dim: 4,
            gat_att: 2,
            gen_lr: 5e-3,
            gen_steps: 2,
            gen_tol: 1e-7,
            seed: 5,
        });
        let stats = gon::train_offline(&mut model, &trace, config);
        let params: Vec<u64> = model
            .params_mut()
            .iter()
            .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
            .collect();
        (
            stats.iter().map(|s| s.loss.to_bits()).collect::<Vec<_>>(),
            params,
        )
    };
    assert_eq!(
        train_with(&parsed),
        train_with(&train),
        "the stale trainer config must train like the current one"
    );

    // An experiment spec with `"engine": {"batched": false, "threads": 2}`.
    let spec = ExperimentSpec::named("paper-16", 3)
        .unwrap()
        .with_engine(par::EngineConfig { threads: Some(2) });
    let stale = insert_after(&spec.to_json(), "\"engine\": {", "\"batched\": false,");
    assert!(stale.contains("\"batched\": false,"));
    let back = ExperimentSpec::from_json(&stale).expect("stale spec parses");
    assert_eq!(back.engine, par::EngineConfig { threads: Some(2) });
    assert_eq!(back.carol_config().eval_threads, Some(2));
}

/// Checkpoints written while `SystemState` stored the GAT adjacency carry
/// a `"neighbors"` list-of-lists in every Γ state. The JSON layer ignores
/// the unknown key, so such a checkpoint restores, fine-tunes on its Γ,
/// observes and repairs bit-identically to the current document.
#[test]
fn checkpoints_with_stale_gamma_neighbors_restore_bit_identically() {
    use carol::carol::{Carol, CarolCheckpoint, CarolConfig, FineTuneMode};
    use carol::policy::ResiliencePolicy;
    use edgesim::scheduler::LeastLoadScheduler;
    use edgesim::{FaultLoad, Simulator};

    let capture = |sim: &Simulator, decision: &edgesim::SchedulingDecision| {
        SystemState::capture(
            sim.topology(),
            sim.specs(),
            sim.host_states(),
            sim.tasks(),
            decision,
            &Normalizer::default(),
        )
    };
    // Confidence mode fills Γ; POT cannot alarm (and clear it) before
    // its calibration ends, long after these intervals.
    let mut policy = Carol::pretrained(
        CarolConfig {
            fine_tune: FineTuneMode::Confidence,
            ..CarolConfig::fast_test()
        },
        6,
    );
    let mut sim = Simulator::new(SimConfig::small(8, 2, 6));
    let mut sched = LeastLoadScheduler::new();
    for _ in 0..3 {
        let report = sim.step(Vec::new(), &mut sched);
        policy.observe(&sim, &capture(&sim, &report.decision), &report);
    }
    let ckpt = policy.checkpoint().expect("GON checkpoints");
    assert!(ckpt.gamma.len() > 1, "fault-free intervals feed Γ");

    // Each Γ state's compact form appears verbatim in the compact
    // document; prefix it with the adjacency lists the old format wrote.
    let json = serde_json::to_string(&ckpt).unwrap();
    let mut stale = json.clone();
    for state in &ckpt.gamma {
        let (offsets, targets) = state.topology.gat_adjacency();
        let lists: Vec<Vec<usize>> = offsets
            .windows(2)
            .map(|w| targets[w[0]..w[1]].to_vec())
            .collect();
        let current = serde_json::to_string(state).unwrap();
        let old = format!(
            "{{\"neighbors\":{},{}",
            serde_json::to_string(&lists).unwrap(),
            &current[1..]
        );
        stale = stale.replacen(&current, &old, 1);
    }
    assert_eq!(stale.matches("\"neighbors\"").count(), ckpt.gamma.len());
    assert!(!json.contains("\"neighbors\""), "Γ no longer writes it");

    // Both documents restore; both then fine-tune on Γ at the first
    // observe, and face the same broker fault.
    let restore = |text: &str| {
        let mut ckpt = CarolCheckpoint::from_json(text).expect("checkpoint parses");
        ckpt.config.fine_tune = FineTuneMode::Always;
        Carol::restore(&ckpt).expect("checkpoint restores")
    };
    let (mut current, mut old) = (restore(&json), restore(&stale));
    let mut repaired = false;
    for t in 0..4 {
        if t == 2 {
            let broker = sim.topology().brokers()[0];
            let cpu = FaultLoad {
                cpu: 1.0,
                ..Default::default()
            };
            sim.inject_fault(broker, cpu);
        }
        let report = sim.step(Vec::new(), &mut sched);
        let snapshot = capture(&sim, &report.decision);
        let repair = current.repair(&sim, &snapshot);
        assert_eq!(repair, old.repair(&sim, &snapshot), "interval {t}");
        current.observe(&sim, &snapshot, &report);
        old.observe(&sim, &snapshot, &report);
        if let Some(topo) = repair {
            repaired |= &topo != sim.topology();
            sim.set_topology(topo);
        }
    }
    assert!(repaired, "the fault must be repaired");
    assert!(current.fine_tune_count() > 0, "Γ must be fine-tuned on");
    assert_eq!(
        current.checkpoint().unwrap().to_json(),
        old.checkpoint().unwrap().to_json(),
        "weights, optimiser, histories and Γ must match bit for bit"
    );
}
