//! Pooled GAT embeddings without a tape: the cache-free inference forward
//! and the incremental embedding against a reference graph must both pool
//! bit-for-bit like a full forward, on every candidate reachable by
//! node-shift moves and feature edits.

use edgesim::Topology;
use nn::init::Initializer;
use nn::{GraphAttention, Matrix};
use proptest::prelude::*;

const IN_DIM: usize = 6;
const OUT_DIM: usize = 8;
const ATT_DIM: usize = 4;

/// The CSR `(offsets, targets)` of per-node neighbour lists: the cases
/// below edit lists (emptying rows) and hand the GAT their CSR.
fn csr(lists: &[Vec<usize>]) -> (Vec<usize>, Vec<usize>) {
    let mut offsets = vec![0];
    offsets.extend(lists.iter().scan(0, |end, l| {
        *end += l.len();
        Some(*end)
    }));
    (offsets, lists.concat())
}

/// A topology's GAT adjacency as per-node lists.
fn lists(topo: &Topology) -> Vec<Vec<usize>> {
    let (offsets, targets) = topo.gat_adjacency();
    offsets
        .windows(2)
        .map(|w| targets[w[0]..w[1]].to_vec())
        .collect()
}

/// Full forward, then the mean-pool the serial GON forward uses.
fn pooled_by_forward(gat: &GraphAttention, features: &Matrix, neighbors: &[Vec<usize>]) -> Matrix {
    let n = features.rows() as f64;
    let (offsets, targets) = csr(neighbors);
    gat.clone()
        .forward(features, &offsets, &targets)
        .sum_rows()
        .scale(1.0 / n)
}

fn pooled_against(
    gat: &GraphAttention,
    base_features: &Matrix,
    base_neighbors: &[Vec<usize>],
    features: &Matrix,
    neighbors: &[Vec<usize>],
) -> Vec<f64> {
    let (base_offsets, base_targets) = csr(base_neighbors);
    let reference = gat.reference(base_features, &base_offsets, &base_targets);
    let (offsets, targets) = csr(neighbors);
    let mut pooled = vec![f64::NAN; OUT_DIM];
    gat.pooled_embedding(Some(&reference), features, &offsets, &targets, &mut pooled);
    pooled
}

fn pooled_cache_free(
    gat: &GraphAttention,
    features: &Matrix,
    neighbors: &[Vec<usize>],
) -> Vec<f64> {
    let (offsets, targets) = csr(neighbors);
    let mut pooled = vec![f64::NAN; OUT_DIM];
    gat.pooled_embedding(None, features, &offsets, &targets, &mut pooled);
    pooled
}

/// Applies a chain of promote/demote/reassign moves to `topo`, one draw
/// per move encoding the kind and both operands; invalid moves are
/// skipped.
fn apply_moves(topo: &mut Topology, ops: &[usize]) {
    let n_hosts = topo.len();
    for &op in ops {
        let host = (op / 3) % n_hosts;
        let target = (op / 3 / n_hosts) % n_hosts;
        let _ = match op % 3 {
            0 => topo.promote(host),
            1 => {
                for w in topo.workers_of(host).to_vec() {
                    topo.reassign(w, target).ok();
                }
                topo.demote(host, target)
            }
            _ => topo.reassign(host, target),
        };
    }
}

fn assert_bits_eq(got: &[f64], want: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.cols());
    for (c, (a, b)) in got.iter().zip(want.row(0)).enumerate() {
        prop_assert!(
            a.to_bits() == b.to_bits(),
            "pooled column {c} diverged: {a} vs {b}"
        );
    }
    Ok(())
}

/// The role columns a topology projection rewrites (broker flag, LEI
/// share), as `SystemState::with_topology` does.
fn set_role_columns(features: &mut Matrix, topo: &Topology) {
    let n = topo.len();
    for h in 0..n {
        let is_broker = topo.brokers().contains(&h);
        features[(h, 4)] = if is_broker { 1.0 } else { 0.0 };
        features[(h, 5)] = topo.worker_count(h) as f64 / n as f64;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random promote/demote/reassign chains plus random feature-row
    /// edits and emptied neighbour lists: the incremental pooled
    /// embedding equals forward + mean-pool bit for bit.
    #[test]
    fn incremental_pool_matches_full_forward(
        n_hosts in 1usize..40,
        n_brokers in 1usize..8,
        seed in 0u64..1 << 16,
        ops in proptest::collection::vec(0usize..1 << 20, 0..12),
        edits in proptest::collection::vec(0usize..1 << 20, 0..6),
        isolate in proptest::collection::vec(0usize..1 << 20, 0..3),
    ) {
        prop_assume!(n_brokers <= n_hosts);
        let gat = GraphAttention::new(IN_DIM, OUT_DIM, ATT_DIM, &mut Initializer::new(seed));
        let base_topo = Topology::balanced(n_hosts, n_brokers).unwrap();
        let mut base_features = Initializer::new(seed ^ 0x5eed).normal(n_hosts, IN_DIM, 1.0);
        set_role_columns(&mut base_features, &base_topo);
        let mut base_neighbors = lists(&base_topo);

        let mut topo = base_topo.clone();
        apply_moves(&mut topo, &ops);
        let mut features = base_features.clone();
        set_role_columns(&mut features, &topo);
        for e in edits {
            let row = e % n_hosts;
            let col = (e / n_hosts) % IN_DIM;
            features[(row, col)] = (e % 997) as f64 / 997.0 - 0.5;
        }
        let mut neighbors = lists(&topo);
        for x in isolate {
            let node = x % n_hosts;
            match (x / n_hosts) % 3 {
                0 => neighbors[node].clear(),
                1 => base_neighbors[node].clear(),
                _ => {
                    neighbors[node].clear();
                    base_neighbors[node].clear();
                }
            }
        }

        let got = pooled_against(&gat, &base_features, &base_neighbors, &features, &neighbors);
        assert_bits_eq(&got, &pooled_by_forward(&gat, &features, &neighbors))?;
        // The reference graph itself copies every row.
        let same = pooled_against(&gat, &base_features, &base_neighbors, &base_features, &base_neighbors);
        assert_bits_eq(&same, &pooled_by_forward(&gat, &base_features, &base_neighbors))?;
    }

    /// The cache-free forward (no reference) over `balanced(n, k)` graphs
    /// after random move chains, including one-node graphs and emptied
    /// neighbour lists, equals forward + mean-pool bit for bit.
    #[test]
    fn cache_free_pool_matches_full_forward(
        n_hosts in 1usize..40,
        n_brokers in 1usize..8,
        seed in 0u64..1 << 16,
        ops in proptest::collection::vec(0usize..1 << 20, 0..12),
        isolate in proptest::collection::vec(0usize..1 << 20, 0..3),
    ) {
        prop_assume!(n_brokers <= n_hosts);
        let gat = GraphAttention::new(IN_DIM, OUT_DIM, ATT_DIM, &mut Initializer::new(seed));
        let mut topo = Topology::balanced(n_hosts, n_brokers).unwrap();
        apply_moves(&mut topo, &ops);
        let mut features = Initializer::new(seed ^ 0xfeed).normal(n_hosts, IN_DIM, 1.0);
        set_role_columns(&mut features, &topo);
        let mut neighbors = lists(&topo);
        for x in isolate {
            neighbors[x % n_hosts].clear();
        }
        let got = pooled_cache_free(&gat, &features, &neighbors);
        assert_bits_eq(&got, &pooled_by_forward(&gat, &features, &neighbors))?;
    }
}

/// The cache-free forward on the smallest graphs: one node with and
/// without its self-loop, and a graph where no node has a neighbour.
#[test]
fn cache_free_pool_handles_single_and_isolated_nodes() {
    let gat = GraphAttention::new(IN_DIM, OUT_DIM, ATT_DIM, &mut Initializer::new(8));
    let one = Initializer::new(9).normal(1, IN_DIM, 1.0);
    let three = Initializer::new(10).normal(3, IN_DIM, 1.0);
    for (features, neighbors) in [
        (&one, vec![vec![0]]),
        (&one, vec![vec![]]),
        (&three, vec![vec![], vec![], vec![]]),
    ] {
        let got = pooled_cache_free(&gat, features, &neighbors);
        let want = pooled_by_forward(&gat, features, &neighbors);
        for (a, b) in got.iter().zip(want.row(0)) {
            assert_eq!(a.to_bits(), b.to_bits(), "{neighbors:?}");
        }
    }
}

/// A reference of another size shares no rows; the candidate is
/// embedded from scratch and still matches.
#[test]
fn reference_of_another_size_embeds_from_scratch() {
    let gat = GraphAttention::new(IN_DIM, OUT_DIM, ATT_DIM, &mut Initializer::new(3));
    let small = Topology::balanced(4, 2).unwrap();
    let big = Topology::balanced(9, 3).unwrap();
    let small_features = Initializer::new(4).normal(4, IN_DIM, 1.0);
    let big_features = Initializer::new(5).normal(9, IN_DIM, 1.0);
    let (small_offsets, small_targets) = small.gat_adjacency();
    let reference = gat.reference(&small_features, &small_offsets, &small_targets);
    let (big_offsets, big_targets) = big.gat_adjacency();
    let mut pooled = vec![0.0; OUT_DIM];
    gat.pooled_embedding(
        Some(&reference),
        &big_features,
        &big_offsets,
        &big_targets,
        &mut pooled,
    );
    let want = pooled_by_forward(&gat, &big_features, &lists(&big));
    for (a, b) in pooled.iter().zip(want.row(0)) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
