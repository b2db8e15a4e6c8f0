//! Data-access policies distinguishing the paper's strategy families.
//!
//! §4 defines the strategies by their data handling:
//!
//! - `S1`: **active data replication** — produced data is pushed to every
//!   domain while computation proceeds, so a consumer reads a nearby
//!   replica and only ever pays the intra-domain price;
//! - `S2`: **remote data access** — data stays with its producer and every
//!   consumer pays the full point-to-point price;
//! - `S3`: **static data storage** — data lives on a designated storage
//!   node; any cross-node exchange is staged through it (write-back plus
//!   read), which makes spreading tasks expensive and pushes the scheduler
//!   towards consolidation.

use std::fmt;

use gridsched_sim::time::SimDuration;

use gridsched_model::ids::NodeId;
use gridsched_model::node::ResourcePool;
use gridsched_model::volume::Volume;

use crate::network::TransferModel;

/// The three data-handling disciplines of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPolicyKind {
    /// Eager replication to every domain (strategy S1 / MS1).
    ActiveReplication,
    /// Read from the producer's node on demand (strategy S2).
    RemoteAccess,
    /// All data staged through a fixed storage node (strategy S3).
    StaticStorage,
}

impl fmt::Display for DataPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataPolicyKind::ActiveReplication => "active-replication",
            DataPolicyKind::RemoteAccess => "remote-access",
            DataPolicyKind::StaticStorage => "static-storage",
        };
        f.write_str(s)
    }
}

/// The transfer times of one data arc under a [`TransferModel`], from
/// [`DataPolicy::arc_times`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArcTimes {
    /// Time to move the arc's data between two nodes of one domain.
    pub intra: SimDuration,
    /// Time to move it across domains, link latency included.
    pub inter: SimDuration,
}

impl ArcTimes {
    /// Whether the arc carries no data. A non-empty transfer takes at
    /// least one tick, so `intra` is zero exactly for an empty arc.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.intra.is_zero()
    }
}

/// A data policy bound to a transfer model and (for static storage) a
/// storage node.
///
/// The policy answers two questions for a data arc of a compound job, given
/// the producer's and consumer's placements:
///
/// - [`DataPolicy::consumer_delay`]: how long the *consumer* waits for its
///   input (this enters the schedule's critical path);
/// - [`DataPolicy::network_traffic`]: how much data actually crosses the
///   network (this enters the resource-usage metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct DataPolicy {
    kind: DataPolicyKind,
    model: TransferModel,
    storage_node: Option<NodeId>,
}

impl DataPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`DataPolicyKind::StaticStorage`] and
    /// `storage_node` is `None` — static storage is meaningless without a
    /// storage location.
    #[must_use]
    pub fn new(kind: DataPolicyKind, model: TransferModel, storage_node: Option<NodeId>) -> Self {
        assert!(
            kind != DataPolicyKind::StaticStorage || storage_node.is_some(),
            "static-storage policy requires a storage node"
        );
        DataPolicy {
            kind,
            model,
            storage_node,
        }
    }

    /// Active-replication policy with the default transfer model.
    #[must_use]
    pub fn active_replication() -> Self {
        DataPolicy::new(
            DataPolicyKind::ActiveReplication,
            TransferModel::default(),
            None,
        )
    }

    /// Remote-access policy with the default transfer model.
    #[must_use]
    pub fn remote_access() -> Self {
        DataPolicy::new(DataPolicyKind::RemoteAccess, TransferModel::default(), None)
    }

    /// Static-storage policy staging through `storage_node`.
    #[must_use]
    pub fn static_storage(storage_node: NodeId) -> Self {
        DataPolicy::new(
            DataPolicyKind::StaticStorage,
            TransferModel::default(),
            Some(storage_node),
        )
    }

    /// The policy's kind.
    #[must_use]
    pub fn kind(&self) -> DataPolicyKind {
        self.kind
    }

    /// The underlying transfer model.
    #[must_use]
    pub fn transfer_model(&self) -> &TransferModel {
        &self.model
    }

    /// The storage node, for static-storage policies.
    #[must_use]
    pub fn storage_node(&self) -> Option<NodeId> {
        self.storage_node
    }

    /// Replaces the transfer model.
    #[must_use]
    pub fn with_transfer_model(mut self, model: TransferModel) -> Self {
        self.model = model;
        self
    }

    /// Delay the consumer of a data arc observes before it can start, when
    /// the producer ran on `from` and the consumer runs on `to`.
    ///
    /// For a fixed consumer `to`, the delay depends on the producer only
    /// through whether `from == to` and through `from`'s domain: whenever
    /// `a != to`, `b != to` and `a` and `b` share a domain,
    /// `consumer_delay(v, a, to) == consumer_delay(v, b, to)`. The
    /// co-allocation DP relies on this to compute one step per
    /// predecessor class instead of one per predecessor node (DESIGN §4);
    /// every policy kind must keep it.
    ///
    /// Equal to `delay_from(arc_times(volume), from, to, pool)`; callers
    /// asking about one arc many times compute its [`ArcTimes`] once.
    #[must_use]
    pub fn consumer_delay(
        &self,
        volume: Volume,
        from: NodeId,
        to: NodeId,
        pool: &ResourcePool,
    ) -> SimDuration {
        self.delay_from(self.arc_times(volume), from, to, pool)
    }

    /// The transfer times of an arc carrying `volume`: the only
    /// floating-point work in a consumer's delay.
    #[must_use]
    pub fn arc_times(&self, volume: Volume) -> ArcTimes {
        ArcTimes {
            intra: self.model.intra_domain_time(volume),
            inter: self.model.inter_domain_time(volume),
        }
    }

    /// [`Self::consumer_delay`] of the arc whose transfer times are `arc`
    /// (from [`Self::arc_times`]), in integer arithmetic only.
    #[must_use]
    #[inline]
    pub fn delay_from(
        &self,
        arc: ArcTimes,
        from: NodeId,
        to: NodeId,
        pool: &ResourcePool,
    ) -> SimDuration {
        if from == to || arc.is_empty() {
            return SimDuration::ZERO;
        }
        let same_domain = |a: NodeId, b: NodeId| pool.node(a).domain() == pool.node(b).domain();
        // The point-to-point time between two nodes.
        let hop = |a: NodeId, b: NodeId| {
            if a == b {
                SimDuration::ZERO
            } else if same_domain(a, b) {
                arc.intra
            } else {
                arc.inter
            }
        };
        match self.kind {
            // A replica is pushed into the consumer's domain as the
            // producer finishes; a cross-domain consumer waits one link
            // latency for the push to land, then reads at the intra-domain
            // price.
            DataPolicyKind::ActiveReplication => {
                if same_domain(from, to) {
                    arc.intra
                } else {
                    arc.intra + self.model.inter_latency()
                }
            }
            DataPolicyKind::RemoteAccess => hop(from, to),
            DataPolicyKind::StaticStorage => {
                // The producer's write-back to the storage node mostly
                // overlaps with its own wall time; the consumer pays the
                // read from storage, plus one link latency when the
                // producer wrote from outside the storage domain (the
                // write-back lands late).
                let storage = self
                    .storage_node
                    .expect("static-storage policy constructed without a storage node");
                let read = hop(storage, to);
                if same_domain(from, storage) {
                    read
                } else {
                    read + self.model.inter_latency()
                }
            }
        }
    }

    /// Total volume that crosses the network for one data arc under this
    /// policy (the replication policy pays for eager pushes into every
    /// other domain).
    #[must_use]
    pub fn network_traffic(
        &self,
        volume: Volume,
        from: NodeId,
        to: NodeId,
        pool: &ResourcePool,
    ) -> Volume {
        if volume.is_zero() {
            return Volume::ZERO;
        }
        match self.kind {
            DataPolicyKind::ActiveReplication => {
                // One push per other domain, even if consumer == producer.
                let domains = pool.domains().len().max(1) as f64;
                volume.scale(domains - 1.0)
            }
            DataPolicyKind::RemoteAccess => {
                if from == to {
                    Volume::ZERO
                } else {
                    volume
                }
            }
            DataPolicyKind::StaticStorage => {
                if from == to {
                    Volume::ZERO
                } else {
                    volume.scale(2.0)
                }
            }
        }
    }
}

impl fmt::Display for DataPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.storage_node {
            Some(n) => write!(f, "{} via {}", self.kind, n),
            None => write!(f, "{}", self.kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_model::ids::DomainId;
    use gridsched_model::perf::Perf;

    fn pool() -> ResourcePool {
        let mut pool = ResourcePool::new();
        pool.add_node(DomainId::new(0), Perf::FULL); // N0
        pool.add_node(DomainId::new(0), Perf::FULL); // N1 (storage)
        pool.add_node(DomainId::new(1), Perf::FULL); // N2
        pool
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn same_node_consumer_waits_nothing() {
        let pool = pool();
        let v = Volume::new(5.0);
        for policy in [
            DataPolicy::active_replication(),
            DataPolicy::remote_access(),
            DataPolicy::static_storage(n(1)),
        ] {
            assert_eq!(
                policy.consumer_delay(v, n(0), n(0), &pool),
                SimDuration::ZERO
            );
        }
        // On-demand policies also move no data; active replication still
        // pays its eager push into the other domain.
        assert_eq!(
            DataPolicy::remote_access().network_traffic(v, n(0), n(0), &pool),
            Volume::ZERO
        );
        assert_eq!(
            DataPolicy::static_storage(n(1)).network_traffic(v, n(0), n(0), &pool),
            Volume::ZERO
        );
        assert_eq!(
            DataPolicy::active_replication().network_traffic(v, n(0), n(0), &pool),
            Volume::new(5.0)
        );
    }

    #[test]
    fn replication_reads_locally_plus_push_latency() {
        let pool = pool();
        let v = Volume::new(5.0);
        let p = DataPolicy::active_replication();
        assert_eq!(p.consumer_delay(v, n(0), n(1), &pool).ticks(), 1);
        // A cross-domain consumer waits one push latency, then reads the
        // local replica — still far cheaper than a full remote transfer.
        assert_eq!(p.consumer_delay(v, n(0), n(2), &pool).ticks(), 2);
        assert!(
            p.consumer_delay(v, n(0), n(2), &pool)
                < DataPolicy::remote_access().consumer_delay(v, n(0), n(2), &pool)
        );
    }

    #[test]
    fn remote_access_pays_full_path() {
        let pool = pool();
        let v = Volume::new(5.0);
        let p = DataPolicy::remote_access();
        assert_eq!(p.consumer_delay(v, n(0), n(1), &pool).ticks(), 1);
        assert_eq!(p.consumer_delay(v, n(0), n(2), &pool).ticks(), 3);
    }

    #[test]
    fn static_storage_charges_the_read_from_storage() {
        let pool = pool();
        let v = Volume::new(5.0);
        let p = DataPolicy::static_storage(n(1));
        // Consumer on N2 reads from storage N1 cross-domain: 3 ticks.
        assert_eq!(p.consumer_delay(v, n(0), n(2), &pool).ticks(), 3);
        // Consumer sharing the storage's domain reads at intra speed; the
        // producer wrote from another domain, so one push latency is added.
        assert_eq!(p.consumer_delay(v, n(2), n(0), &pool).ticks(), 2);
        // Same producer/consumer node: the data never moved.
        assert_eq!(p.consumer_delay(v, n(0), n(0), &pool), SimDuration::ZERO);
    }

    #[test]
    fn cross_node_ordering_matches_paper_intuition() {
        // For any cross-domain arc: replication is cheapest for the
        // consumer, static storage the most expensive.
        let pool = pool();
        let v = Volume::new(10.0);
        let repl = DataPolicy::active_replication().consumer_delay(v, n(0), n(2), &pool);
        let remote = DataPolicy::remote_access().consumer_delay(v, n(0), n(2), &pool);
        let stat = DataPolicy::static_storage(n(1)).consumer_delay(v, n(0), n(2), &pool);
        assert!(repl < remote, "{repl:?} vs {remote:?}");
        assert!(remote <= stat, "{remote:?} vs {stat:?}");
    }

    #[test]
    fn traffic_accounting() {
        let pool = pool(); // 2 domains
        let v = Volume::new(5.0);
        assert_eq!(
            DataPolicy::active_replication().network_traffic(v, n(0), n(1), &pool),
            Volume::new(5.0)
        );
        assert_eq!(
            DataPolicy::remote_access().network_traffic(v, n(0), n(2), &pool),
            Volume::new(5.0)
        );
        assert_eq!(
            DataPolicy::static_storage(n(1)).network_traffic(v, n(0), n(2), &pool),
            Volume::new(10.0)
        );
    }

    #[test]
    #[should_panic(expected = "storage node")]
    fn static_storage_requires_node() {
        let _ = DataPolicy::new(
            DataPolicyKind::StaticStorage,
            TransferModel::default(),
            None,
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            DataPolicy::active_replication().to_string(),
            "active-replication"
        );
        assert_eq!(
            DataPolicy::static_storage(n(1)).to_string(),
            "static-storage via N1"
        );
    }
}
