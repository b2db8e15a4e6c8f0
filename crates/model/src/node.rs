//! Processor nodes and the resource pool of a virtual organization.

use std::fmt;

use crate::ids::{DomainId, NodeId};
use crate::perf::{Perf, PerfGroup};
use crate::timetable::Timetable;

/// A processor node: the unit a single task runs on.
///
/// "Each task is executed on a single node and … the local management system
/// interprets it as a job accompanied by a resource request" (§1).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    id: NodeId,
    domain: DomainId,
    perf: Perf,
}

impl Node {
    /// The node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The domain (node group under one job manager) this node belongs to.
    #[must_use]
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// The node's relative performance.
    #[must_use]
    pub fn perf(&self) -> Perf {
        self.perf
    }

    /// The node's performance group.
    #[must_use]
    pub fn group(&self) -> PerfGroup {
        self.perf.group()
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}, {} @{})",
            self.id,
            self.group(),
            self.perf,
            self.domain
        )
    }
}

/// All processor nodes of a virtual organization, with their reservation
/// timetables.
///
/// Node ids are dense indices assigned at insertion, so lookups are O(1).
///
/// # Examples
///
/// ```
/// use gridsched_model::ids::DomainId;
/// use gridsched_model::node::ResourcePool;
/// use gridsched_model::perf::Perf;
///
/// let mut pool = ResourcePool::new();
/// let n = pool.add_node(DomainId::new(0), Perf::new(0.8)?);
/// assert_eq!(pool.node(n).perf().value(), 0.8);
/// # Ok::<(), gridsched_model::perf::PerfError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResourcePool {
    nodes: Vec<Node>,
    timetables: Vec<Timetable>,
    /// Distinct domain ids present, ascending — maintained on insertion so
    /// per-domain allocation can enumerate domains without a per-call
    /// scan.
    domains: Vec<DomainId>,
}

impl ResourcePool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        ResourcePool::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, domain: DomainId, perf: Perf) -> NodeId {
        let id = NodeId::new(u32::try_from(self.nodes.len()).expect("more than u32::MAX nodes"));
        self.nodes.push(Node { id, domain, perf });
        self.timetables.push(Timetable::new());
        if let Err(pos) = self.domains.binary_search(&domain) {
            self.domains.insert(pos, domain);
        }
        id
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this pool.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The timetable of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this pool.
    #[must_use]
    pub fn timetable(&self, id: NodeId) -> &Timetable {
        &self.timetables[id.index()]
    }

    /// Mutable access to the timetable of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this pool.
    pub fn timetable_mut(&mut self, id: NodeId) -> &mut Timetable {
        &mut self.timetables[id.index()]
    }

    /// Iterates over all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Captures an immutable availability snapshot of every timetable.
    ///
    /// The snapshot is `Arc`-backed: cloning it is cheap, and any number of
    /// [`crate::availability::TimetableOverlay`] planning views may be
    /// layered on top of it concurrently without touching the pool again.
    /// Each node's calendar is the one its timetable froze at the last
    /// capture, unless the timetable has changed since.
    #[must_use]
    pub fn snapshot(&self) -> crate::availability::AvailabilitySnapshot {
        crate::availability::AvailabilitySnapshot::capture(self)
    }

    /// A read-only view of the calendars the pool's timetables hold
    /// frozen.
    #[must_use]
    pub fn index_cache(&self) -> FrozenCalendars<'_> {
        FrozenCalendars {
            timetables: &self.timetables,
        }
    }

    /// Iterates over the nodes of one domain.
    pub fn in_domain(&self, domain: DomainId) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(move |n| n.domain == domain)
    }

    /// The distinct domain ids present, ascending.
    #[must_use]
    pub fn domains(&self) -> Vec<DomainId> {
        self.domains.clone()
    }

    /// The domain registry: distinct domain ids present, ascending,
    /// without the allocation of [`ResourcePool::domains`]. One entry per
    /// job-manager domain of the hierarchy.
    #[must_use]
    pub fn domain_registry(&self) -> &[DomainId] {
        &self.domains
    }

    /// The highest performance in the pool.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    #[must_use]
    pub fn fastest_perf(&self) -> Perf {
        self.nodes
            .iter()
            .map(Node::perf)
            .max()
            .expect("fastest_perf on empty pool")
    }

    /// Changes a node's performance in place, keeping its timetable.
    ///
    /// Used by the fault layer to model node *degradation*: remaining
    /// runtimes on the node inflate because every
    /// [`Perf::exec_duration`] computed afterwards sees the new value.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this pool.
    pub fn set_perf(&mut self, id: NodeId, perf: Perf) {
        self.nodes[id.index()].perf = perf;
    }
}

/// The calendars a pool's timetables hold frozen
/// ([`ResourcePool::index_cache`]): at most one per timetable, the one the
/// last capture froze, until the timetable's windows change.
#[derive(Debug)]
pub struct FrozenCalendars<'a> {
    timetables: &'a [Timetable],
}

impl FrozenCalendars<'_> {
    /// Approximate bytes the frozen calendars hold beyond the chunks
    /// they share with the live timetables
    /// ([`crate::timetable::NodeCalendar::approx_bytes`]), summed over
    /// the timetables.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.timetables
            .iter()
            .filter_map(Timetable::frozen)
            .map(|calendar| calendar.approx_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with(perfs: &[f64]) -> ResourcePool {
        let mut pool = ResourcePool::new();
        for (i, &p) in perfs.iter().enumerate() {
            pool.add_node(DomainId::new((i % 2) as u32), Perf::new(p).unwrap());
        }
        pool
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let pool = pool_with(&[1.0, 0.5, 0.33]);
        assert_eq!(pool.len(), 3);
        for (i, node) in pool.nodes().enumerate() {
            assert_eq!(node.id().index(), i);
        }
    }

    #[test]
    fn group_and_domain_filters() {
        let pool = pool_with(&[1.0, 0.5, 0.33, 0.9]);
        let fast: Vec<NodeId> = pool
            .nodes()
            .filter(|n| n.group() == PerfGroup::Fast)
            .map(Node::id)
            .collect();
        assert_eq!(fast, vec![NodeId::new(0), NodeId::new(3)]);
        let d0: Vec<NodeId> = pool.in_domain(DomainId::new(0)).map(Node::id).collect();
        assert_eq!(d0, vec![NodeId::new(0), NodeId::new(2)]);
        assert_eq!(pool.domains(), vec![DomainId::new(0), DomainId::new(1)]);
        assert_eq!(
            pool.domain_registry(),
            &[DomainId::new(0), DomainId::new(1)]
        );
    }

    #[test]
    fn domain_registry_stays_sorted_and_deduped() {
        let mut pool = ResourcePool::new();
        for d in [3u32, 1, 3, 0, 1] {
            pool.add_node(DomainId::new(d), Perf::new(0.5).unwrap());
        }
        assert_eq!(
            pool.domain_registry(),
            &[DomainId::new(0), DomainId::new(1), DomainId::new(3)]
        );
    }

    #[test]
    fn fastest_perf_is_max() {
        let pool = pool_with(&[0.4, 0.9, 0.7]);
        assert_eq!(pool.fastest_perf().value(), 0.9);
    }

    #[test]
    fn timetables_are_per_node_and_resettable() {
        use crate::timetable::ReservationOwner;
        use crate::window::TimeWindow;
        use gridsched_sim::time::SimTime;

        let mut pool = pool_with(&[1.0, 0.5]);
        let w = TimeWindow::new(SimTime::ZERO, SimTime::from_ticks(5)).unwrap();
        let owner = ReservationOwner::Background(0);
        pool.timetable_mut(NodeId::new(0))
            .reserve(w, owner)
            .unwrap();
        assert!(!pool.timetable(NodeId::new(0)).is_free(w));
        assert!(pool.timetable(NodeId::new(1)).is_free(w));
        *pool.timetable_mut(NodeId::new(0)) = Timetable::new();
        assert!(pool.timetable(NodeId::new(0)).is_free(w));
        assert!(
            pool.timetable_mut(NodeId::new(0))
                .release(w, owner)
                .is_none(),
            "a fresh timetable holds nothing"
        );
    }

    #[test]
    fn set_perf_changes_group_and_keeps_timetable() {
        use crate::timetable::ReservationOwner;
        use crate::window::TimeWindow;
        use gridsched_sim::time::SimTime;

        let mut pool = pool_with(&[1.0]);
        let w = TimeWindow::new(SimTime::ZERO, SimTime::from_ticks(3)).unwrap();
        pool.timetable_mut(NodeId::new(0))
            .reserve(w, ReservationOwner::Background(7))
            .unwrap();
        pool.set_perf(NodeId::new(0), Perf::new(0.4).unwrap());
        assert_eq!(pool.node(NodeId::new(0)).group(), PerfGroup::Medium);
        assert!(!pool.timetable(NodeId::new(0)).is_free(w));
    }

    #[test]
    fn display_mentions_group() {
        let pool = pool_with(&[0.5]);
        let s = pool.node(NodeId::new(0)).to_string();
        assert!(s.contains("medium"), "display was {s}");
    }
}
