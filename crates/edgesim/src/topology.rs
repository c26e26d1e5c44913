//! Broker–worker topology of the edge federation.
//!
//! The assignment of hosts to the broker layer or the worker layer — and of
//! each worker to exactly one broker — *is* the decision variable CAROL
//! optimises (§III-A: "the assignment of edge nodes as brokers or workers
//! and the allocation of all workers to one of a broker defines the
//! topology of the system").

use crate::host::HostId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Role of a host within the federation topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeRole {
    /// Manages a local edge infrastructure (LEI); meshes with all brokers.
    Broker,
    /// Executes tasks under the direction of `broker`.
    Worker {
        /// The broker this worker reports to.
        broker: HostId,
    },
}

/// Errors raised by topology validation and mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The topology has no broker at all.
    NoBrokers,
    /// A worker references a host that is not a broker (or out of range).
    DanglingWorker {
        /// The offending worker.
        worker: HostId,
        /// The invalid broker reference.
        broker: HostId,
    },
    /// A host id was out of range.
    UnknownHost(HostId),
    /// The operation would orphan the workers of a broker.
    WouldOrphanWorkers(HostId),
    /// The referenced host does not have the role the operation requires.
    WrongRole(HostId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoBrokers => write!(f, "topology has no brokers"),
            TopologyError::DanglingWorker { worker, broker } => {
                write!(f, "worker {worker} references non-broker {broker}")
            }
            TopologyError::UnknownHost(h) => write!(f, "host {h} out of range"),
            TopologyError::WouldOrphanWorkers(b) => {
                write!(f, "demoting broker {b} would orphan its workers")
            }
            TopologyError::WrongRole(h) => write!(f, "host {h} has the wrong role"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Broker–worker topology over `n` hosts.
///
/// Invariants (checked by [`Topology::validate`], enforced by
/// [`Topology::new`] and by deserialization, and preserved by every
/// mutating method): at least one broker exists, and every worker points at
/// a host whose role is `Broker`.
///
/// # Index
///
/// `roles` is the whole state. Next to it sits a derived index — the
/// ascending broker list, each broker's rank in that list, and each
/// broker's workers in ascending order — built lazily, once per distinct
/// topology, on the first query that needs it. [`Topology::promote`],
/// [`Topology::demote`] and [`Topology::reassign`] only reset it, so a
/// mutation never rescans the hosts; the next query pays one O(n)
/// rebuild. The queries are then O(1) or return borrowed slices:
/// [`Topology::brokers`], [`Topology::workers_of`],
/// [`Topology::worker_count`] and [`Topology::broker_rank`].
///
/// Equality, hashing, serialization and [`Topology::signature`] are
/// defined over `roles` alone: a topology whose index is built equals, and
/// hashes like, a clone whose index is not.
///
/// # Examples
///
/// ```
/// use edgesim::Topology;
/// // 8 hosts, 2 LEIs of 1 broker + 3 workers each.
/// let topo = Topology::balanced(8, 2).unwrap();
/// assert_eq!(topo.brokers(), &[0, 1]);
/// assert_eq!(topo.workers_of(0), &[2, 4, 6]);
/// assert_eq!(topo.worker_count(1), 3);
/// assert_eq!(topo.broker_rank(1), Some(1));
/// topo.validate().unwrap();
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Topology {
    roles: Vec<NodeRole>,
    #[serde(skip)]
    index: IndexCell,
}

/// Lookup tables derived from `roles`, in CSR layout: the workers of
/// `brokers[r]` are `members[offsets[r]..offsets[r + 1]]`, ascending.
#[derive(Clone)]
struct Index {
    /// Broker hosts, ascending.
    brokers: Vec<HostId>,
    /// Per host: the rank of its broker (itself, for a broker) in
    /// `brokers`.
    rank: Vec<usize>,
    /// `brokers.len() + 1` offsets into `members`.
    offsets: Vec<usize>,
    /// Workers grouped by broker rank, ascending within each group.
    members: Vec<HostId>,
}

impl Index {
    /// Counting sort of the workers by broker rank: O(n), stable, so each
    /// group comes out ascending.
    fn build(roles: &[NodeRole]) -> Self {
        let mut brokers = Vec::new();
        let mut rank = vec![0; roles.len()];
        for (h, role) in roles.iter().enumerate() {
            if matches!(role, NodeRole::Broker) {
                rank[h] = brokers.len();
                brokers.push(h);
            }
        }
        let mut offsets = vec![0; brokers.len() + 1];
        for (h, role) in roles.iter().enumerate() {
            if let NodeRole::Worker { broker } = *role {
                rank[h] = rank[broker];
                offsets[rank[h] + 1] += 1;
            }
        }
        for r in 0..brokers.len() {
            offsets[r + 1] += offsets[r];
        }
        let mut next = offsets.clone();
        let mut members = vec![0; roles.len() - brokers.len()];
        for (h, role) in roles.iter().enumerate() {
            if matches!(role, NodeRole::Worker { .. }) {
                members[next[rank[h]]] = h;
                next[rank[h]] += 1;
            }
        }
        Self {
            brokers,
            rank,
            offsets,
            members,
        }
    }
}

/// The lazily built [`Index`]. It is a pure function of `roles`, so it
/// compares equal and hashes to nothing: `Topology`'s derived `Eq` and
/// `Hash` see `roles` only.
#[derive(Clone, Default)]
struct IndexCell(OnceLock<Index>);

impl PartialEq for IndexCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for IndexCell {}

impl Hash for IndexCell {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("roles", &self.roles)
            .finish()
    }
}

/// Deserializes through [`Topology::new`], so damaged input (no broker, a
/// dangling or out-of-range broker id) is a typed error, never a topology
/// that breaks the index invariant.
impl Deserialize for Topology {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let roles = match v {
            serde::Value::Map(_) => v
                .get("roles")
                .ok_or_else(|| serde::Error("missing field `roles` in Topology".into()))?,
            other => return Err(serde::Error::expected("struct Topology", other)),
        };
        Topology::new(Vec::<NodeRole>::from_value(roles)?)
            .map_err(|e| serde::Error(format!("invalid topology: {e}")))
    }
}

impl Topology {
    /// Builds a topology from explicit roles, validating invariants.
    pub fn new(roles: Vec<NodeRole>) -> Result<Self, TopologyError> {
        let t = Self::from_roles(roles);
        t.validate()?;
        Ok(t)
    }

    fn from_roles(roles: Vec<NodeRole>) -> Self {
        Self {
            roles,
            index: IndexCell::default(),
        }
    }

    /// Evenly partitions `n_hosts` into `n_brokers` LEIs: host `i` of each
    /// chunk's first position becomes the broker, the rest its workers.
    /// Mirrors the testbed's symmetric starting topology (§IV-C).
    pub fn balanced(n_hosts: usize, n_brokers: usize) -> Result<Self, TopologyError> {
        if n_brokers == 0 || n_brokers > n_hosts {
            return Err(TopologyError::NoBrokers);
        }
        let mut roles = vec![NodeRole::Broker; n_hosts];
        // Brokers are hosts 0..n_brokers; workers are distributed round-robin
        // so heterogeneous specs (ordered 8GB-first) spread across LEIs.
        for (w, role) in roles.iter_mut().enumerate().skip(n_brokers) {
            *role = NodeRole::Worker {
                broker: w % n_brokers,
            };
        }
        Ok(Self::from_roles(roles))
    }

    fn index(&self) -> &Index {
        self.index.0.get_or_init(|| Index::build(&self.roles))
    }

    /// Drops the index after a role change; the next query rebuilds it.
    fn invalidate(&mut self) {
        self.index = IndexCell::default();
    }

    /// Number of hosts (brokers + workers).
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// True for a zero-host topology (never valid).
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// Role of `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn role(&self, host: HostId) -> NodeRole {
        self.roles[host]
    }

    /// All roles, indexed by host.
    pub fn roles(&self) -> &[NodeRole] {
        &self.roles
    }

    /// Hosts currently acting as brokers, ascending.
    pub fn brokers(&self) -> &[HostId] {
        &self.index().brokers
    }

    /// Hosts currently acting as workers, ascending. O(n): the answer has
    /// one entry per worker.
    pub fn workers(&self) -> Vec<HostId> {
        self.roles
            .iter()
            .enumerate()
            .filter_map(|(i, r)| matches!(r, NodeRole::Worker { .. }).then_some(i))
            .collect()
    }

    /// Workers managed by `broker`, ascending (empty if `broker` is not a
    /// broker or out of range).
    pub fn workers_of(&self, broker: HostId) -> &[HostId] {
        match self.broker_rank(broker) {
            Some(r) => {
                let index = self.index();
                &index.members[index.offsets[r]..index.offsets[r + 1]]
            }
            None => &[],
        }
    }

    /// Number of workers managed by `broker` (0 for a worker or an
    /// out-of-range id).
    pub fn worker_count(&self, broker: HostId) -> usize {
        self.workers_of(broker).len()
    }

    /// Position of `broker` in [`Topology::brokers`], or `None` if it is
    /// not a broker (or out of range).
    pub fn broker_rank(&self, broker: HostId) -> Option<usize> {
        matches!(self.roles.get(broker), Some(NodeRole::Broker)).then(|| self.index().rank[broker])
    }

    /// The LEI of `broker`: the broker itself plus its workers.
    pub fn lei(&self, broker: HostId) -> Vec<HostId> {
        let mut nodes = vec![broker];
        nodes.extend_from_slice(self.workers_of(broker));
        nodes
    }

    /// The broker responsible for `host` (itself when `host` is a broker).
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn broker_of(&self, host: HostId) -> HostId {
        match self.roles[host] {
            NodeRole::Broker => host,
            NodeRole::Worker { broker } => broker,
        }
    }

    /// Broker currently serving the host that admitted a task — the
    /// management node its traffic flows through while it is pending.
    ///
    /// `admitted_by` was recorded against the topology current at
    /// admission time; by the time a pending task is dispatched a repair
    /// may have installed a different topology, so the id is clamped into
    /// range defensively before the role lookup (the historical
    /// `admitted_by.min(n - 1)` clamp from the dispatch and
    /// state-capture paths, now in one place).
    pub fn admitting_broker(&self, admitted_by: HostId) -> HostId {
        self.broker_of(admitted_by.min(self.len().saturating_sub(1)))
    }

    /// Checks all invariants.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if !self.roles.iter().any(|r| matches!(r, NodeRole::Broker)) {
            return Err(TopologyError::NoBrokers);
        }
        for (w, role) in self.roles.iter().enumerate() {
            if let NodeRole::Worker { broker } = role {
                if *broker >= self.roles.len() {
                    return Err(TopologyError::UnknownHost(*broker));
                }
                if !matches!(self.roles[*broker], NodeRole::Broker) {
                    return Err(TopologyError::DanglingWorker {
                        worker: w,
                        broker: *broker,
                    });
                }
            }
        }
        Ok(())
    }

    /// Promotes worker `w` to the broker layer. Its previous broker keeps
    /// its other workers.
    pub fn promote(&mut self, w: HostId) -> Result<(), TopologyError> {
        if w >= self.roles.len() {
            return Err(TopologyError::UnknownHost(w));
        }
        match self.roles[w] {
            NodeRole::Worker { .. } => {
                self.roles[w] = NodeRole::Broker;
                self.invalidate();
                Ok(())
            }
            NodeRole::Broker => Err(TopologyError::WrongRole(w)),
        }
    }

    /// Demotes broker `b` to a worker under `new_broker`. Fails with
    /// `WouldOrphanWorkers(b)` if `b` still manages workers (reassign them
    /// first), and with `WrongRole(new_broker)` if `new_broker` is not a
    /// broker distinct from `b`. A sole broker therefore always gets
    /// `WrongRole(new_broker)`: no distinct broker exists to receive it.
    /// The `NoBrokers` guard behind those checks is defensive.
    ///
    /// The guards read the index, so a demote that follows other
    /// mutations pays that one lazy rebuild.
    pub fn demote(&mut self, b: HostId, new_broker: HostId) -> Result<(), TopologyError> {
        if b >= self.roles.len() {
            return Err(TopologyError::UnknownHost(b));
        }
        if new_broker >= self.roles.len() {
            return Err(TopologyError::UnknownHost(new_broker));
        }
        if !matches!(self.roles[b], NodeRole::Broker) {
            return Err(TopologyError::WrongRole(b));
        }
        if b == new_broker || !matches!(self.roles[new_broker], NodeRole::Broker) {
            return Err(TopologyError::WrongRole(new_broker));
        }
        if self.worker_count(b) != 0 {
            return Err(TopologyError::WouldOrphanWorkers(b));
        }
        if self.brokers().len() == 1 {
            return Err(TopologyError::NoBrokers);
        }
        self.roles[b] = NodeRole::Worker { broker: new_broker };
        self.invalidate();
        Ok(())
    }

    /// Reassigns worker `w` to `new_broker`.
    pub fn reassign(&mut self, w: HostId, new_broker: HostId) -> Result<(), TopologyError> {
        if w >= self.roles.len() {
            return Err(TopologyError::UnknownHost(w));
        }
        if new_broker >= self.roles.len() {
            return Err(TopologyError::UnknownHost(new_broker));
        }
        if !matches!(self.roles[w], NodeRole::Worker { .. }) {
            return Err(TopologyError::WrongRole(w));
        }
        if !matches!(self.roles[new_broker], NodeRole::Broker) {
            return Err(TopologyError::WrongRole(new_broker));
        }
        self.roles[w] = NodeRole::Worker { broker: new_broker };
        self.invalidate();
        Ok(())
    }

    /// The GAT encoder's adjacency (§IV-A) as CSR `(offsets, targets)`:
    /// node `i`'s row is `targets[offsets[i]..offsets[i + 1]]`. A broker's
    /// row is itself, the other brokers ascending (the broker mesh), then
    /// its workers ascending; a worker's row is itself, then its broker.
    pub fn gat_adjacency(&self) -> (Vec<usize>, Vec<usize>) {
        let index = self.index();
        let (n, b) = (self.roles.len(), index.brokers.len());
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(b * b + 3 * (n - b));
        offsets.push(0);
        for (i, role) in self.roles.iter().enumerate() {
            targets.push(i);
            match *role {
                NodeRole::Broker => {
                    let r = index.rank[i];
                    targets.extend_from_slice(&index.brokers[..r]);
                    targets.extend_from_slice(&index.brokers[r + 1..]);
                    targets.extend_from_slice(self.workers_of(i));
                }
                NodeRole::Worker { broker } => targets.push(broker),
            }
            offsets.push(targets.len());
        }
        (offsets, targets)
    }

    /// Canonical signature for tabu-list membership and hashing: worker
    /// entries store their broker, broker entries store `usize::MAX`.
    pub fn signature(&self) -> Vec<usize> {
        self.roles
            .iter()
            .map(|r| match r {
                NodeRole::Broker => usize::MAX,
                NodeRole::Worker { broker } => *broker,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    // --- O(n) scans over `roles()`: the oracle the index is checked against.

    fn scan_brokers(t: &Topology) -> Vec<HostId> {
        (0..t.len())
            .filter(|&h| matches!(t.roles()[h], NodeRole::Broker))
            .collect()
    }

    fn scan_workers_of(t: &Topology, b: HostId) -> Vec<HostId> {
        (0..t.len())
            .filter(|&h| t.roles()[h] == NodeRole::Worker { broker: b })
            .collect()
    }

    fn scan_broker_rank(t: &Topology, b: HostId) -> Option<usize> {
        scan_brokers(t).iter().position(|&x| x == b)
    }

    fn scan_gat_neighbors(t: &Topology) -> Vec<Vec<usize>> {
        let brokers = scan_brokers(t);
        (0..t.len())
            .map(|i| match t.role(i) {
                NodeRole::Broker => std::iter::once(i)
                    .chain(brokers.iter().copied().filter(|&b| b != i))
                    .chain(scan_workers_of(t, i))
                    .collect(),
                NodeRole::Worker { broker } => vec![i, broker],
            })
            .collect()
    }

    /// [`Topology::gat_adjacency`]'s CSR rows as lists, after checking
    /// the offsets frame the targets.
    fn adjacency_rows(t: &Topology) -> Vec<Vec<usize>> {
        let (offsets, targets) = t.gat_adjacency();
        assert_eq!(offsets.len(), t.len() + 1);
        assert_eq!((offsets[0], offsets[t.len()]), (0, targets.len()));
        offsets
            .windows(2)
            .map(|w| targets[w[0]..w[1]].to_vec())
            .collect()
    }

    fn hash_of(t: &Topology) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random valid promote/demote/reassign sequences keep every
        /// indexed query equal to its scan over `roles()`.
        #[test]
        fn index_matches_role_scans(
            n_hosts in 2usize..40,
            n_brokers in 1usize..8,
            ops in proptest::collection::vec(0usize..1 << 20, 0..40),
        ) {
            prop_assume!(n_brokers <= n_hosts);
            let mut t = Topology::balanced(n_hosts, n_brokers).unwrap();
            for op in ops {
                // One draw encodes the move kind and both operands.
                let host = (op / 3) % n_hosts;
                let target = (op / 3 / n_hosts) % n_hosts;
                let _ = match op % 3 {
                    0 => t.promote(host),
                    1 => {
                        for w in t.workers_of(host).to_vec() {
                            t.reassign(w, target).ok();
                        }
                        t.demote(host, target)
                    }
                    _ => t.reassign(host, target),
                };
                t.validate().unwrap();
                let unindexed = Topology::from_roles(t.roles().to_vec());
                prop_assert_eq!(t.brokers().to_vec(), scan_brokers(&t));
                for h in 0..n_hosts + 1 {
                    let workers = scan_workers_of(&t, h);
                    prop_assert_eq!(t.worker_count(h), workers.len());
                    prop_assert_eq!(t.workers_of(h).to_vec(), workers);
                    prop_assert_eq!(t.broker_rank(h), scan_broker_rank(&t, h));
                }
                prop_assert_eq!(adjacency_rows(&t), scan_gat_neighbors(&t));
                prop_assert!(t.index.0.get().is_some() && unindexed.index.0.get().is_none());
                prop_assert!(t == unindexed);
                prop_assert_eq!(hash_of(&t), hash_of(&unindexed));
            }
        }
    }

    #[test]
    fn balanced_topology_matches_testbed() {
        let t = Topology::balanced(16, 4).unwrap();
        assert_eq!(t.brokers(), &[0, 1, 2, 3]);
        assert_eq!(t.workers().len(), 12);
        for &b in t.brokers() {
            assert_eq!(t.worker_count(b), 3);
            assert_eq!(t.lei(b).len(), 4);
        }
    }

    #[test]
    fn balanced_rejects_degenerate_configs() {
        assert!(Topology::balanced(4, 0).is_err());
        assert!(Topology::balanced(4, 5).is_err());
        assert!(Topology::balanced(4, 4).is_ok());
    }

    #[test]
    fn validation_catches_dangling_worker() {
        let roles = vec![
            NodeRole::Broker,
            NodeRole::Worker { broker: 2 }, // host 2 is a worker, not broker
            NodeRole::Worker { broker: 0 },
        ];
        assert_eq!(
            Topology::new(roles).unwrap_err(),
            TopologyError::DanglingWorker {
                worker: 1,
                broker: 2
            }
        );
    }

    #[test]
    fn validation_requires_a_broker() {
        let roles = vec![NodeRole::Worker { broker: 0 }];
        assert_eq!(Topology::new(roles).unwrap_err(), TopologyError::NoBrokers);
    }

    #[test]
    fn promote_then_reassign_preserves_invariants() {
        let mut t = Topology::balanced(8, 2).unwrap();
        let w = t.workers()[0];
        t.promote(w).unwrap();
        assert_eq!(t.brokers().len(), 3);
        t.validate().unwrap();
        let other = t.workers()[0];
        t.reassign(other, w).unwrap();
        t.validate().unwrap();
        assert!(t.workers_of(w).contains(&other));
    }

    #[test]
    fn demote_guards_orphans_and_last_broker() {
        let mut t = Topology::balanced(4, 2).unwrap();
        // broker 0 still has a worker: refuse.
        assert_eq!(
            t.demote(0, 1).unwrap_err(),
            TopologyError::WouldOrphanWorkers(0)
        );
        // Move 0's workers to 1, then demote works.
        for w in t.workers_of(0).to_vec() {
            t.reassign(w, 1).unwrap();
        }
        t.demote(0, 1).unwrap();
        t.validate().unwrap();
        assert_eq!(t.brokers(), &[1]);
        // The sole broker has no distinct broker to demote under, so every
        // target is the wrong role — itself included.
        assert_eq!(t.demote(1, 1).unwrap_err(), TopologyError::WrongRole(1));
        assert_eq!(t.demote(1, 0).unwrap_err(), TopologyError::WrongRole(0));
        assert_eq!(t.brokers(), &[1]);
    }

    #[test]
    fn broker_of_resolves_both_roles() {
        let t = Topology::balanced(6, 2).unwrap();
        assert_eq!(t.broker_of(0), 0);
        let w = t.workers()[0];
        let b = match t.role(w) {
            NodeRole::Worker { broker } => broker,
            _ => unreachable!(),
        };
        assert_eq!(t.broker_of(w), b);
    }

    #[test]
    fn gat_adjacency_structure() {
        let t = Topology::balanced(6, 2).unwrap();
        let adj = adjacency_rows(&t);
        assert_eq!(adj.len(), 6);
        // Self-loop everywhere.
        for (i, nbrs) in adj.iter().enumerate() {
            assert!(nbrs.contains(&i));
        }
        // Brokers see each other.
        assert!(adj[0].contains(&1));
        assert!(adj[1].contains(&0));
        // A worker sees exactly its broker plus itself.
        let w = t.workers()[0];
        assert_eq!(adj[w].len(), 2);
        assert!(adj[w].contains(&t.broker_of(w)));
    }

    #[test]
    fn gat_adjacency_symmetric() {
        let t = Topology::balanced(16, 4).unwrap();
        let adj = adjacency_rows(&t);
        for (i, nbrs) in adj.iter().enumerate() {
            for &j in nbrs {
                if j != i {
                    assert!(adj[j].contains(&i), "edge {i}->{j} not symmetric");
                }
            }
        }
    }

    #[test]
    fn signature_distinguishes_topologies() {
        let a = Topology::balanced(6, 2).unwrap();
        let mut b = a.clone();
        let w = b.workers()[0];
        b.promote(w).unwrap();
        assert_ne!(a.signature(), b.signature());
        assert_eq!(a.signature(), a.clone().signature());
    }

    #[test]
    fn serde_round_trip() {
        let t = Topology::balanced(8, 2).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn serde_round_trip_rebuilds_the_same_index() {
        let mut t = Topology::balanced(12, 3).unwrap();
        t.promote(5).unwrap();
        t.reassign(8, 5).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        assert!(
            !json.contains("index"),
            "the index is not serialized: {json}"
        );
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(back.brokers(), t.brokers());
        for h in 0..t.len() {
            assert_eq!(back.workers_of(h), t.workers_of(h));
            assert_eq!(back.broker_rank(h), t.broker_rank(h));
        }
        assert_eq!(back.gat_adjacency(), t.gat_adjacency());
    }

    #[test]
    fn corrupted_topology_json_is_a_typed_error() {
        let json = serde_json::to_string(&Topology::balanced(4, 2).unwrap()).unwrap();
        let to_worker = r#"{"Worker":{"broker":0}}"#;
        assert!(json.contains(to_worker), "{json}");
        let invalid = [
            // Host 2 now reports to host 3, a worker: dangling.
            json.replacen(to_worker, r#"{"Worker":{"broker":3}}"#, 1),
            // Out-of-range broker id.
            json.replacen(to_worker, r#"{"Worker":{"broker":99}}"#, 1),
            // No broker at all.
            r#"{"roles":[{"Worker":{"broker":0}}]}"#.to_string(),
        ];
        for bad in &invalid {
            let err = serde_json::from_str::<Topology>(bad)
                .expect_err(&format!("damaged topology accepted: {bad}"));
            assert!(err.to_string().contains("invalid topology"), "{err}");
        }
        for bad in [r#"{"roles":7}"#, "{}", "[]"] {
            assert!(serde_json::from_str::<Topology>(bad).is_err(), "{bad}");
        }
    }
}
