//! Output checks, and the `ResiliencePolicy` wrapper that runs them (and
//! records the traced run's controller spans) around a live [`Carol`].

use crate::spans::{self, Tracer};
use carol::nodeshift::{broker_bounds, enumerate_moves};
use carol::runner::ExperimentResult;
use carol::{Carol, CarolCheckpoint, ObserveOutcome, ResiliencePolicy};
use edgesim::state::{Normalizer, SystemState};
use edgesim::{HostId, IntervalReport, NodeRole, Simulator, Topology};
use std::hint::black_box;
use std::time::Instant;

/// The QoS outputs that must repeat bit for bit for a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Completed tasks.
    pub completed: usize,
    /// `to_bits` of the total energy.
    pub energy_bits: u64,
    /// `to_bits` of the SLO violation rate.
    pub slo_bits: u64,
    /// `to_bits` of the mean response time.
    pub response_bits: u64,
}

impl Fingerprint {
    /// The fingerprint of one run's §V metrics.
    pub fn of(result: &ExperimentResult) -> Self {
        Self {
            completed: result.completed,
            energy_bits: result.total_energy_wh.to_bits(),
            slo_bits: result.slo_violation_rate.to_bits(),
            response_bits: result.mean_response_s.to_bits(),
        }
    }

    /// Compact hex form for records.
    pub fn hex(&self) -> String {
        format!(
            "{}:{:016x}:{:016x}:{:016x}",
            self.completed, self.energy_bits, self.slo_bits, self.response_bits
        )
    }
}

/// `Ok` when `observed` equals `reference` bit for bit.
pub fn check_fingerprint(reference: &Fingerprint, observed: &Fingerprint) -> Result<(), String> {
    if reference == observed {
        Ok(())
    } else {
        Err(format!(
            "QoS fingerprint {} differs from the reference {}",
            observed.hex(),
            reference.hex()
        ))
    }
}

/// Checks one repaired topology against the topology it replaced: it is
/// valid, keeps every host, keeps the broker count within
/// `nodeshift::broker_bounds` of the base, and makes no banned host a
/// broker.
pub fn check_repair(base: &Topology, repaired: &Topology, banned: &[HostId]) -> Result<(), String> {
    repaired
        .validate()
        .map_err(|e| format!("repaired topology invalid: {e:?}"))?;
    if repaired.len() != base.len() {
        return Err(format!(
            "repair changed the host count from {} to {}",
            base.len(),
            repaired.len()
        ));
    }
    let (lo, hi) = broker_bounds(base);
    let brokers = repaired.brokers().len();
    if brokers < lo || brokers > hi {
        return Err(format!(
            "repair left {brokers} brokers, outside the bounds [{lo}, {hi}]"
        ));
    }
    if let Some(h) = banned
        .iter()
        .find(|&&h| matches!(repaired.role(h), NodeRole::Broker))
    {
        return Err(format!("repair made banned host {h} a broker"));
    }
    Ok(())
}

/// Restores `json` and checks it resumes at `interval`.
pub fn check_restore(json: &str, interval: usize) -> Result<(), String> {
    let ckpt = CarolCheckpoint::from_json(json).map_err(|e| format!("checkpoint parse: {e}"))?;
    let restored = Carol::restore(&ckpt).map_err(|e| format!("checkpoint restore: {e}"))?;
    if restored.interval() == interval {
        Ok(())
    } else {
        Err(format!(
            "checkpoint restored at interval {}, expected {interval}",
            restored.interval()
        ))
    }
}

/// Hosts unresponsive during the last interval: the hosts a repair may
/// not make brokers.
fn banned_hosts(sim: &Simulator) -> Vec<HostId> {
    sim.host_states()
        .iter()
        .enumerate()
        .filter_map(|(h, st)| st.failed.then_some(h))
        .collect()
}

/// CAROL wrapped for the benchmark: checks every repair, counts the
/// repair work, and — when a tracer is attached — records the
/// controller's spans plus the probe calls.
pub struct CheckedCarol {
    /// The controller under test.
    pub carol: Carol,
    /// Span recorder of the traced run.
    pub tracer: Option<Tracer>,
    /// Repair decisions that failed a check, one message each.
    pub decision_failures: Vec<String>,
    /// Surrogate queries issued on intervals that began with a failed
    /// broker.
    pub candidates: usize,
    /// Wall clock of the repair on each of those intervals, seconds.
    pub repair_s: Vec<f64>,
    norm: Option<Normalizer>,
}

impl CheckedCarol {
    /// Wraps `carol`; attach `tracer` for the traced run.
    pub fn new(carol: Carol, tracer: Option<Tracer>) -> Self {
        Self {
            carol,
            tracer,
            decision_failures: Vec::new(),
            candidates: 0,
            repair_s: Vec::new(),
            norm: None,
        }
    }

    /// The probe calls of the traced run: the post-step capture, the
    /// featurisation of the base state, and the move enumeration a
    /// repair of this topology would start from.
    fn probe(&mut self, sim: &Simulator, snapshot: &SystemState, report: &IntervalReport) {
        let Some(tracer) = self.tracer.as_mut() else {
            return;
        };
        let norm = self
            .norm
            .get_or_insert_with(|| Normalizer::for_fleet(sim.specs(), sim.config().n_brokers));
        let start = Instant::now();
        black_box(SystemState::capture_refs(
            sim.topology(),
            sim.specs(),
            sim.host_states(),
            &sim.live_tasks(),
            &report.decision,
            norm,
        ));
        tracer.record(spans::PROBE_CAPTURE, start, start.elapsed());

        let start = Instant::now();
        black_box(snapshot.with_topology(sim.topology()));
        tracer.record(spans::PROBE_WITH_TOPOLOGY, start, start.elapsed());

        let banned = banned_hosts(sim);
        let start = Instant::now();
        black_box(enumerate_moves(sim.topology(), &banned));
        tracer.record(spans::PROBE_ENUMERATE, start, start.elapsed());
    }
}

impl ResiliencePolicy for CheckedCarol {
    fn name(&self) -> &str {
        self.carol.name()
    }

    fn repair(&mut self, sim: &Simulator, snapshot: &SystemState) -> Option<Topology> {
        let had_failure = !sim.failed_brokers().is_empty();
        let queries = self.carol.surrogate_queries;
        let start = Instant::now();
        let repaired = self.carol.repair(sim, snapshot);
        let dur = start.elapsed();
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.record(spans::REPAIR, start, dur);
        }
        if had_failure {
            self.candidates += self.carol.surrogate_queries - queries;
            self.repair_s.push(dur.as_secs_f64());
        }
        match &repaired {
            Some(topo) => {
                if let Err(e) = check_repair(sim.topology(), topo, &banned_hosts(sim)) {
                    self.decision_failures
                        .push(format!("interval {}: {e}", sim.interval()));
                }
            }
            None if had_failure => self.decision_failures.push(format!(
                "interval {}: broker failure left unrepaired",
                sim.interval()
            )),
            None => {}
        }
        repaired
    }

    fn observe(
        &mut self,
        sim: &Simulator,
        snapshot: &SystemState,
        report: &IntervalReport,
    ) -> ObserveOutcome {
        if let Some(tracer) = self.tracer.as_mut() {
            for ((_, secs), name) in report.phases.rows().into_iter().zip(spans::PHASES) {
                tracer.record_duration(name, secs);
            }
        }
        self.probe(sim, snapshot, report);
        let start = Instant::now();
        let outcome = self.carol.observe(sim, snapshot, report);
        if let Some(tracer) = self.tracer.as_mut() {
            let name = if outcome.fine_tuned {
                spans::FINE_TUNE
            } else {
                spans::CONFIDENCE
            };
            tracer.record(name, start, start.elapsed());
        }
        outcome
    }

    fn memory_gb(&self) -> f64 {
        self.carol.memory_gb()
    }

    fn modeled_decision_s(&self) -> f64 {
        self.carol.modeled_decision_s()
    }

    fn modeled_overhead_s(&self) -> f64 {
        self.carol.modeled_overhead_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_check_rejects_a_banned_broker_and_bound_violations() {
        let base = Topology::balanced(16, 4).unwrap();
        assert!(check_repair(&base, &base, &[]).is_ok());
        let broker = base.brokers()[0];
        assert!(check_repair(&base, &base, &[broker]).is_err());
        let mut crowded = base.clone();
        for w in base.workers().into_iter().take(6) {
            crowded.promote(w).unwrap();
        }
        assert!(check_repair(&base, &crowded, &[]).is_err());
    }
}
