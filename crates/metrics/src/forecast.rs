//! Node load-level forecasting.
//!
//! The paper's future-work list (§5) calls for "local processor nodes load
//! level forecasting methods": the metascheduler dispatches job flows to
//! domains based on where load is *going*, not just where it is. This
//! module reads that future directly: the load already booked in each
//! node's timetable.

use gridsched_model::node::ResourcePool;
use gridsched_model::window::TimeWindow;
use gridsched_sim::time::{SimDuration, SimTime};

/// Booked-ahead load of a domain: mean utilization of its nodes'
/// timetables over `[now, now + lookahead)`. It reads the reservations
/// that *already exist* in the future — the exact information a
/// metascheduler has when choosing a domain.
#[must_use]
pub fn booked_load(
    pool: &ResourcePool,
    domain: gridsched_model::ids::DomainId,
    now: SimTime,
    lookahead: SimDuration,
) -> f64 {
    let Ok(range) = TimeWindow::starting_at(now, lookahead) else {
        return 0.0;
    };
    let mut sum = 0.0;
    let mut count = 0usize;
    for node in pool.in_domain(domain) {
        sum += pool.timetable(node.id()).utilization(range);
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Ranks domains by booked-ahead load, least-loaded first (ties towards
/// the smaller domain id) — the dispatch order for Fig. 1's metascheduler.
#[must_use]
pub fn rank_domains_by_forecast(
    pool: &ResourcePool,
    now: SimTime,
    lookahead: SimDuration,
) -> Vec<gridsched_model::ids::DomainId> {
    let mut domains = pool.domains();
    domains.sort_by(|&a, &b| {
        booked_load(pool, a, now, lookahead)
            .partial_cmp(&booked_load(pool, b, now, lookahead))
            .expect("loads are finite")
            .then(a.cmp(&b))
    });
    domains
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_model::ids::DomainId;
    use gridsched_model::perf::Perf;
    use gridsched_model::timetable::ReservationOwner;

    fn two_domain_pool() -> ResourcePool {
        let mut pool = ResourcePool::new();
        pool.add_node(DomainId::new(0), Perf::FULL);
        pool.add_node(DomainId::new(0), Perf::FULL);
        pool.add_node(DomainId::new(1), Perf::FULL);
        pool.add_node(DomainId::new(1), Perf::FULL);
        pool
    }

    #[test]
    fn booked_load_reads_future_reservations() {
        let mut pool = two_domain_pool();
        // Domain 0: one node fully booked for the next 10 ticks.
        pool.timetable_mut(gridsched_model::ids::NodeId::new(0))
            .reserve(
                TimeWindow::new(SimTime::ZERO, SimTime::from_ticks(10)).unwrap(),
                ReservationOwner::Background(0),
            )
            .unwrap();
        let look = SimDuration::from_ticks(10);
        let d0 = booked_load(&pool, DomainId::new(0), SimTime::ZERO, look);
        let d1 = booked_load(&pool, DomainId::new(1), SimTime::ZERO, look);
        assert!((d0 - 0.5).abs() < 1e-12);
        assert_eq!(d1, 0.0);
        // Past the booking horizon, domain 0 looks free again.
        let later = booked_load(&pool, DomainId::new(0), SimTime::from_ticks(10), look);
        assert_eq!(later, 0.0);
    }

    #[test]
    fn ranking_puts_the_freer_domain_first() {
        let mut pool = two_domain_pool();
        pool.timetable_mut(gridsched_model::ids::NodeId::new(2))
            .reserve(
                TimeWindow::new(SimTime::ZERO, SimTime::from_ticks(20)).unwrap(),
                ReservationOwner::Background(0),
            )
            .unwrap();
        let order = rank_domains_by_forecast(&pool, SimTime::ZERO, SimDuration::from_ticks(20));
        assert_eq!(order, vec![DomainId::new(0), DomainId::new(1)]);
        // Tie (no load anywhere from t100): smaller id first.
        let tie =
            rank_domains_by_forecast(&pool, SimTime::from_ticks(100), SimDuration::from_ticks(20));
        assert_eq!(tie, vec![DomainId::new(0), DomainId::new(1)]);
    }

    #[test]
    fn empty_domain_has_zero_booked_load() {
        let pool = two_domain_pool();
        assert_eq!(
            booked_load(
                &pool,
                DomainId::new(9),
                SimTime::ZERO,
                SimDuration::from_ticks(5)
            ),
            0.0
        );
    }
}
