//! Point-to-point data transfer timing.

use gridsched_sim::time::{ceil_u64, SimDuration};

use gridsched_model::node::Node;
use gridsched_model::volume::Volume;

/// Transfer-time model between processor nodes.
///
/// Links inside a domain (nodes "grouped together under the node manager
/// control", §2) are fast and latency-free; links between domains are slower
/// and pay a fixed latency.
///
/// # Examples
///
/// ```
/// use gridsched_data::network::TransferModel;
/// use gridsched_model::volume::Volume;
///
/// let m = TransferModel::default();
/// assert_eq!(m.intra_domain_time(Volume::new(5.0)).ticks(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransferModel {
    intra_speed: f64,
    inter_speed: f64,
    inter_latency: SimDuration,
}

impl TransferModel {
    /// Default intra-domain speed, in volume units per tick. Chosen so that
    /// the Fig. 2 arcs (volume 5) take one tick, matching the paper's Gantt
    /// charts.
    pub const DEFAULT_INTRA_SPEED: f64 = 5.0;
    /// Default inter-domain speed (half the intra-domain one).
    pub const DEFAULT_INTER_SPEED: f64 = 2.5;

    /// Creates a transfer model.
    ///
    /// # Panics
    ///
    /// Panics if either speed is not strictly positive and finite.
    #[must_use]
    pub fn new(intra_speed: f64, inter_speed: f64, inter_latency: SimDuration) -> Self {
        assert!(
            intra_speed.is_finite() && intra_speed > 0.0,
            "intra-domain speed must be positive, got {intra_speed}"
        );
        assert!(
            inter_speed.is_finite() && inter_speed > 0.0,
            "inter-domain speed must be positive, got {inter_speed}"
        );
        TransferModel {
            intra_speed,
            inter_speed,
            inter_latency,
        }
    }

    fn time_at_speed(volume: Volume, speed: f64) -> SimDuration {
        if volume.is_zero() {
            return SimDuration::ZERO;
        }
        let raw = volume.units() / speed;
        SimDuration::from_ticks(ceil_u64(raw - 1e-9).max(1))
    }

    /// The fixed latency of inter-domain links.
    #[must_use]
    pub fn inter_latency(&self) -> SimDuration {
        self.inter_latency
    }

    /// Time to move `volume` between two nodes of the same domain.
    #[must_use]
    pub fn intra_domain_time(&self, volume: Volume) -> SimDuration {
        Self::time_at_speed(volume, self.intra_speed)
    }

    /// Time to move `volume` across domains, including link latency.
    #[must_use]
    pub fn inter_domain_time(&self, volume: Volume) -> SimDuration {
        if volume.is_zero() {
            return SimDuration::ZERO;
        }
        self.inter_latency + Self::time_at_speed(volume, self.inter_speed)
    }

    /// Time to move `volume` from `from` to `to`: zero on the same node,
    /// intra-domain speed within a domain, inter-domain speed plus latency
    /// otherwise.
    #[must_use]
    pub fn point_to_point(&self, volume: Volume, from: &Node, to: &Node) -> SimDuration {
        if from.id() == to.id() {
            SimDuration::ZERO
        } else if from.domain() == to.domain() {
            self.intra_domain_time(volume)
        } else {
            self.inter_domain_time(volume)
        }
    }
}

impl Default for TransferModel {
    fn default() -> Self {
        TransferModel::new(
            Self::DEFAULT_INTRA_SPEED,
            Self::DEFAULT_INTER_SPEED,
            SimDuration::from_ticks(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_model::ids::DomainId;
    use gridsched_model::node::ResourcePool;
    use gridsched_model::perf::Perf;

    fn two_domain_pool() -> ResourcePool {
        let mut pool = ResourcePool::new();
        pool.add_node(DomainId::new(0), Perf::FULL); // N0
        pool.add_node(DomainId::new(0), Perf::FULL); // N1
        pool.add_node(DomainId::new(1), Perf::FULL); // N2
        pool
    }

    #[test]
    fn same_node_is_free() {
        let pool = two_domain_pool();
        let m = TransferModel::default();
        let n0 = pool.node(gridsched_model::ids::NodeId::new(0));
        assert_eq!(
            m.point_to_point(Volume::new(100.0), n0, n0),
            SimDuration::ZERO
        );
    }

    #[test]
    fn intra_vs_inter_domain() {
        let pool = two_domain_pool();
        let m = TransferModel::default();
        let n0 = pool.node(gridsched_model::ids::NodeId::new(0));
        let n1 = pool.node(gridsched_model::ids::NodeId::new(1));
        let n2 = pool.node(gridsched_model::ids::NodeId::new(2));
        let v = Volume::new(5.0);
        assert_eq!(m.point_to_point(v, n0, n1).ticks(), 1);
        // Inter-domain: 1 latency + ceil(5/2.5) = 3.
        assert_eq!(m.point_to_point(v, n0, n2).ticks(), 3);
    }

    #[test]
    fn zero_volume_is_instantaneous() {
        let m = TransferModel::default();
        assert_eq!(m.intra_domain_time(Volume::ZERO), SimDuration::ZERO);
        assert_eq!(m.inter_domain_time(Volume::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn transfer_time_rounds_up() {
        let m = TransferModel::new(4.0, 2.0, SimDuration::ZERO);
        assert_eq!(m.intra_domain_time(Volume::new(5.0)).ticks(), 2);
        assert_eq!(m.intra_domain_time(Volume::new(8.0)).ticks(), 2);
        assert_eq!(m.inter_domain_time(Volume::new(8.0)).ticks(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_rejected() {
        let _ = TransferModel::new(0.0, 1.0, SimDuration::ZERO);
    }
}
