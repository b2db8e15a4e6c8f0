//! Bridging the application level into the local batch systems.
//!
//! §1: each task of a co-allocated compound job reaches a *local*
//! batch-job management system "as a job accompanied by a resource
//! request" with a reserved wall-time window. From the local system's
//! point of view those windows are **advance reservations** that its own
//! queue (FCFS, backfilling, …) must schedule around — which is exactly
//! the §5 interaction this module lets experiments measure.

use gridsched_batch::cluster::AdvanceReservation;
use gridsched_core::distribution::Distribution;
use gridsched_model::ids::DomainId;
use gridsched_model::node::ResourcePool;

/// Converts the placements a distribution makes inside `domain` into
/// width-1 advance reservations for that domain's local batch system.
///
/// The local system models the domain's nodes as an undifferentiated
/// cluster, so each task window blocks one node for its wall time.
///
/// # Examples
///
/// ```
/// use gridsched_core::method::ScheduleRequest;
/// use gridsched_core::session::PlanningSession;
/// use gridsched_data::policy::DataPolicy;
/// use gridsched_flow::bridge::domain_reservations;
/// use gridsched_model::estimate::EstimateScenario;
/// use gridsched_model::fixtures::fig2_job;
/// use gridsched_model::ids::DomainId;
/// use gridsched_model::node::ResourcePool;
/// use gridsched_model::perf::Perf;
/// use gridsched_sim::time::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let job = fig2_job();
/// let mut pool = ResourcePool::new();
/// for j in 1..=4u32 {
///     pool.add_node(DomainId::new(0), Perf::new(1.0 / f64::from(j))?);
/// }
/// let policy = DataPolicy::remote_access();
/// let session = PlanningSession::open(&pool);
/// let dist = session.build_distribution(&ScheduleRequest {
///     job: &job,
///     pool: &pool,
///     policy: &policy,
///     scenario: EstimateScenario::BEST,
///     release: SimTime::ZERO,
/// })?;
/// let reservations = domain_reservations(&dist, &pool, DomainId::new(0));
/// assert_eq!(reservations.len(), job.task_count());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn domain_reservations(
    dist: &Distribution,
    pool: &ResourcePool,
    domain: DomainId,
) -> Vec<AdvanceReservation> {
    dist.placements()
        .iter()
        .filter(|p| pool.node(p.node).domain() == domain)
        .map(|p| AdvanceReservation {
            window: p.window,
            width: 1,
        })
        .collect()
}

/// Total node-ticks a distribution reserves inside `domain`.
#[must_use]
pub fn domain_reserved_ticks(dist: &Distribution, pool: &ResourcePool, domain: DomainId) -> u64 {
    domain_reservations(dist, pool, domain)
        .iter()
        .map(|r| r.window.duration().ticks())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_core::method::ScheduleRequest;
    use gridsched_core::session::PlanningSession;
    use gridsched_data::policy::DataPolicy;
    use gridsched_model::estimate::EstimateScenario;
    use gridsched_model::fixtures::fig2_job_with_deadline;
    use gridsched_model::perf::Perf;
    use gridsched_sim::time::SimTime;

    fn two_domain_setup() -> (ResourcePool, Distribution) {
        let job = fig2_job_with_deadline(gridsched_sim::time::SimDuration::from_ticks(60));
        let mut pool = ResourcePool::new();
        pool.add_node(DomainId::new(0), Perf::FULL);
        pool.add_node(DomainId::new(0), Perf::new(0.5).unwrap());
        pool.add_node(DomainId::new(1), Perf::new(0.8).unwrap());
        pool.add_node(DomainId::new(1), Perf::new(0.33).unwrap());
        let policy = DataPolicy::remote_access();
        let dist = PlanningSession::open(&pool)
            .build_distribution(&ScheduleRequest {
                job: &job,
                pool: &pool,
                policy: &policy,
                scenario: EstimateScenario::BEST,
                release: SimTime::ZERO,
            })
            .unwrap();
        (pool, dist)
    }

    #[test]
    fn reservations_split_by_domain_cover_all_placements() {
        let (pool, dist) = two_domain_setup();
        let d0 = domain_reservations(&dist, &pool, DomainId::new(0));
        let d1 = domain_reservations(&dist, &pool, DomainId::new(1));
        assert_eq!(d0.len() + d1.len(), dist.placements().len());
        for r in d0.iter().chain(&d1) {
            assert_eq!(r.width, 1);
        }
    }

    #[test]
    fn reserved_ticks_match_wall_windows() {
        let (pool, dist) = two_domain_setup();
        let total: u64 = pool
            .domains()
            .into_iter()
            .map(|d| domain_reserved_ticks(&dist, &pool, d))
            .sum();
        let expected: u64 = dist
            .placements()
            .iter()
            .map(|p| p.window.duration().ticks())
            .sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn reservations_are_usable_by_a_local_cluster() {
        use gridsched_batch::cluster::ClusterConfig;
        use gridsched_batch::job::{BatchJob, BatchJobId};
        use gridsched_batch::policy::QueuePolicy;
        use gridsched_sim::time::SimDuration;

        let (pool, dist) = two_domain_setup();
        let domain = DomainId::new(0);
        let capacity = pool.in_domain(domain).count() as u32;
        let mut cluster = ClusterConfig::new(capacity, QueuePolicy::EasyBackfill);
        for r in domain_reservations(&dist, &pool, domain) {
            cluster.reserve(r);
        }
        let local_jobs: Vec<BatchJob> = (0..20)
            .map(|i| {
                BatchJob::new(
                    BatchJobId(i),
                    SimTime::from_ticks(i * 2),
                    1,
                    SimDuration::from_ticks(4),
                    SimDuration::from_ticks(3),
                )
            })
            .collect();
        let with = cluster.run(&local_jobs);
        let without = ClusterConfig::new(capacity, QueuePolicy::EasyBackfill).run(&local_jobs);
        // Grid reservations can only lengthen local queues.
        assert!(with.mean_wait() >= without.mean_wait());
    }
}
