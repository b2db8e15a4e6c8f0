//! Replica catalog: which nodes hold a copy of which dataset.

use std::collections::{BTreeSet, HashMap};

use gridsched_sim::time::SimDuration;

use gridsched_model::ids::{DataId, NodeId};
use gridsched_model::node::ResourcePool;
use gridsched_model::volume::Volume;

use crate::network::TransferModel;

/// Tracks dataset replicas across the virtual organization, in the spirit of
/// the data-grid replication services the paper builds on (refs. [11, 18,
/// 19]).
///
/// # Examples
///
/// ```
/// use gridsched_data::catalog::ReplicaCatalog;
/// use gridsched_model::ids::{DataId, NodeId};
///
/// let mut cat = ReplicaCatalog::new();
/// cat.register(DataId::new(1), NodeId::new(0));
/// assert!(cat.has_replica(DataId::new(1), NodeId::new(0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplicaCatalog {
    locations: HashMap<DataId, BTreeSet<NodeId>>,
    replicas_created: u64,
}

impl ReplicaCatalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        ReplicaCatalog::default()
    }

    /// Registers a replica of `data` on `node`. Returns `true` if it was
    /// new.
    pub fn register(&mut self, data: DataId, node: NodeId) -> bool {
        let inserted = self.locations.entry(data).or_default().insert(node);
        if inserted {
            self.replicas_created += 1;
        }
        inserted
    }

    /// Whether `node` holds `data`.
    #[must_use]
    pub fn has_replica(&self, data: DataId, node: NodeId) -> bool {
        self.locations
            .get(&data)
            .is_some_and(|set| set.contains(&node))
    }

    /// Nodes holding `data`, ascending by id.
    pub fn holders(&self, data: DataId) -> impl Iterator<Item = NodeId> + '_ {
        self.locations
            .get(&data)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Number of replicas of `data`.
    #[must_use]
    pub fn replica_count(&self, data: DataId) -> usize {
        self.locations.get(&data).map_or(0, BTreeSet::len)
    }

    /// Total replicas registered over the catalog's lifetime.
    #[must_use]
    pub fn replicas_created(&self) -> u64 {
        self.replicas_created
    }

    /// The replica of `data` reachable from `to` in the least time, with
    /// that time. Deterministic: ties break towards the smaller node id.
    #[must_use]
    pub fn best_source(
        &self,
        data: DataId,
        volume: Volume,
        to: NodeId,
        pool: &ResourcePool,
        model: &TransferModel,
    ) -> Option<(NodeId, SimDuration)> {
        let target = pool.node(to);
        self.holders(data)
            .map(|src| {
                let t = model.point_to_point(volume, pool.node(src), target);
                (src, t)
            })
            .min_by_key(|&(src, t)| (t, src))
    }

    /// Drops every replica. Used between experiment repetitions.
    pub fn clear(&mut self) {
        self.locations.clear();
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
        pool.add_node(DomainId::new(0), Perf::FULL); // N1
        pool.add_node(DomainId::new(1), Perf::FULL); // N2
        pool
    }

    #[test]
    fn register_and_query() {
        let mut cat = ReplicaCatalog::new();
        let d = DataId::new(7);
        assert!(cat.register(d, NodeId::new(0)));
        assert!(!cat.register(d, NodeId::new(0)), "duplicate is not new");
        assert!(cat.register(d, NodeId::new(2)));
        assert_eq!(cat.replica_count(d), 2);
        assert_eq!(cat.replicas_created(), 2);
        assert_eq!(
            cat.holders(d).collect::<Vec<_>>(),
            vec![NodeId::new(0), NodeId::new(2)]
        );
    }

    #[test]
    fn best_source_prefers_local_replica() {
        let pool = pool();
        let model = TransferModel::default();
        let mut cat = ReplicaCatalog::new();
        let d = DataId::new(1);
        let v = Volume::new(5.0);
        cat.register(d, NodeId::new(2)); // other domain
        let (src, t) = cat
            .best_source(d, v, NodeId::new(0), &pool, &model)
            .unwrap();
        assert_eq!(src, NodeId::new(2));
        assert_eq!(t.ticks(), 3);
        // A same-domain replica beats the cross-domain one.
        cat.register(d, NodeId::new(1));
        let (src, t) = cat
            .best_source(d, v, NodeId::new(0), &pool, &model)
            .unwrap();
        assert_eq!(src, NodeId::new(1));
        assert_eq!(t.ticks(), 1);
        // A same-node replica is free.
        cat.register(d, NodeId::new(0));
        let (src, t) = cat
            .best_source(d, v, NodeId::new(0), &pool, &model)
            .unwrap();
        assert_eq!(src, NodeId::new(0));
        assert_eq!(t, SimDuration::ZERO);
    }

    #[test]
    fn best_source_of_unknown_data_is_none() {
        let pool = pool();
        let cat = ReplicaCatalog::new();
        assert!(cat
            .best_source(
                DataId::new(9),
                Volume::new(1.0),
                NodeId::new(0),
                &pool,
                &TransferModel::default()
            )
            .is_none());
    }

    #[test]
    fn clear_empties_catalog_but_keeps_lifetime_count() {
        let mut cat = ReplicaCatalog::new();
        cat.register(DataId::new(1), NodeId::new(0));
        cat.clear();
        assert_eq!(cat.replica_count(DataId::new(1)), 0);
        assert_eq!(cat.replicas_created(), 1);
    }
}
