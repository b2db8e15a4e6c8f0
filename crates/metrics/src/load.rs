//! Per-performance-group load accounting (Fig. 4a).

use std::collections::BTreeMap;

use gridsched_model::node::ResourcePool;
use gridsched_model::perf::PerfGroup;
use gridsched_model::window::TimeWindow;

/// Average node load level per performance group over a time range, as
/// plotted in the paper's Fig. 4a.
///
/// The load of a group is the mean utilization of its nodes' timetables
/// over `range` (each node weighted equally, as the paper averages "node
/// load level").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupLoad {
    by_group: BTreeMap<PerfGroup, f64>,
}

impl GroupLoad {
    /// Measures group loads from the pool's timetables over `range`.
    #[must_use]
    pub fn measure(pool: &ResourcePool, range: TimeWindow) -> Self {
        let mut sums: BTreeMap<PerfGroup, (f64, usize)> = BTreeMap::new();
        for node in pool.nodes() {
            let u = pool.timetable(node.id()).utilization(range);
            let entry = sums.entry(node.group()).or_insert((0.0, 0));
            entry.0 += u;
            entry.1 += 1;
        }
        GroupLoad {
            by_group: sums
                .into_iter()
                .map(|(g, (sum, n))| (g, sum / n as f64))
                .collect(),
        }
    }

    /// Builds a measurement from precomputed `(group, level)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a level is outside `[0, 1]` or a group repeats.
    #[must_use]
    pub fn from_levels(levels: impl IntoIterator<Item = (PerfGroup, f64)>) -> Self {
        let mut by_group = BTreeMap::new();
        for (g, v) in levels {
            assert!((0.0..=1.0).contains(&v), "load level out of range: {v}");
            assert!(by_group.insert(g, v).is_none(), "duplicate group {g}");
        }
        GroupLoad { by_group }
    }

    /// Load level of one group in `[0, 1]`; 0.0 if the group has no nodes.
    #[must_use]
    pub fn level(&self, group: PerfGroup) -> f64 {
        self.by_group.get(&group).copied().unwrap_or(0.0)
    }

    /// Iterates `(group, level)` pairs, fastest group first.
    pub fn iter(&self) -> impl Iterator<Item = (PerfGroup, f64)> + '_ {
        PerfGroup::ALL
            .into_iter()
            .filter_map(|g| self.by_group.get(&g).map(|&v| (g, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_model::ids::DomainId;
    use gridsched_model::perf::Perf;
    use gridsched_model::timetable::ReservationOwner;
    use gridsched_sim::time::SimTime;

    fn w(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_ticks(a), SimTime::from_ticks(b)).unwrap()
    }

    #[test]
    fn measures_per_group_utilization() {
        let mut pool = ResourcePool::new();
        let fast = pool.add_node(DomainId::new(0), Perf::new(1.0).unwrap());
        let slow = pool.add_node(DomainId::new(0), Perf::new(0.33).unwrap());
        pool.timetable_mut(fast)
            .reserve(w(0, 5), ReservationOwner::Background(0))
            .unwrap();
        pool.timetable_mut(slow)
            .reserve(w(0, 10), ReservationOwner::Background(1))
            .unwrap();
        let load = GroupLoad::measure(&pool, w(0, 10));
        assert!((load.level(PerfGroup::Fast) - 0.5).abs() < 1e-12);
        assert!((load.level(PerfGroup::Slow) - 1.0).abs() < 1e-12);
        assert_eq!(load.level(PerfGroup::Medium), 0.0);
    }

    #[test]
    fn group_average_over_nodes() {
        let mut pool = ResourcePool::new();
        let a = pool.add_node(DomainId::new(0), Perf::new(0.9).unwrap());
        let _b = pool.add_node(DomainId::new(0), Perf::new(0.8).unwrap());
        pool.timetable_mut(a)
            .reserve(w(0, 10), ReservationOwner::Background(0))
            .unwrap();
        let load = GroupLoad::measure(&pool, w(0, 10));
        // One fully busy + one idle fast node -> 0.5 average.
        assert!((load.level(PerfGroup::Fast) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn iter_orders_fast_first() {
        let mut pool = ResourcePool::new();
        pool.add_node(DomainId::new(0), Perf::new(0.33).unwrap());
        pool.add_node(DomainId::new(0), Perf::new(1.0).unwrap());
        let load = GroupLoad::measure(&pool, w(0, 1));
        let groups: Vec<PerfGroup> = load.iter().map(|(g, _)| g).collect();
        assert_eq!(groups, vec![PerfGroup::Fast, PerfGroup::Slow]);
    }
}
