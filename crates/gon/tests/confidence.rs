//! The cache-free confidence forward against the taped training forward:
//! `GonModel::confidence` must return bitwise what `GonModel::score`
//! returns, for any head depth and any metric/schedule rows.

use edgesim::scheduler::SchedulingDecision;
use edgesim::state::{Normalizer, SystemState, METRIC_DIM, SCHED_DIM};
use edgesim::{HostSpec, HostState, Topology};
use gon::{GonConfig, GonModel};
use proptest::prelude::*;

const MAX_HOSTS: usize = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn confidence_equals_taped_score_bitwise(
        n_hosts in 1usize..MAX_HOSTS,
        n_brokers in 1usize..6,
        head_layers in 1usize..4,
        seed in 0u64..1 << 16,
        metrics in proptest::collection::vec(0.0f64..1.0, MAX_HOSTS * METRIC_DIM),
        schedule in proptest::collection::vec(-0.5f64..1.5, MAX_HOSTS * SCHED_DIM),
    ) {
        prop_assume!(n_brokers <= n_hosts);
        // The seed also picks the hidden width and one promoted host.
        let hidden = 4 + (seed % 16) as usize;
        let mut topo = Topology::balanced(n_hosts, n_brokers).unwrap();
        let _ = topo.promote((seed as usize / 16) % n_hosts);
        let specs: Vec<HostSpec> = (0..n_hosts).map(HostSpec::rpi4gb).collect();
        let mut state = SystemState::capture(
            &topo,
            &specs,
            &vec![HostState::default(); n_hosts],
            &[],
            &SchedulingDecision::new(),
            &Normalizer::for_federation(n_hosts, n_brokers),
        );
        for h in 0..n_hosts {
            state.metrics[h].copy_from_slice(&metrics[h * METRIC_DIM..(h + 1) * METRIC_DIM]);
            state.schedule[h].copy_from_slice(&schedule[h * SCHED_DIM..(h + 1) * SCHED_DIM]);
        }

        let mut model = GonModel::new(GonConfig {
            hidden,
            head_layers,
            gat_dim: 6,
            gat_att: 4,
            seed,
            ..GonConfig::default()
        });
        let before = model.confidence(&state);
        let taped = model.score(&state);
        let after = model.confidence(&state);
        prop_assert!(
            before.to_bits() == taped.to_bits(),
            "confidence {before} vs score {taped}"
        );
        // The tape `score` left behind changes nothing.
        prop_assert!(after.to_bits() == taped.to_bits());
    }
}
