//! Node load-level forecasting.
//!
//! The paper's future-work list (§5) calls for "local processor nodes load
//! level forecasting methods": the metascheduler dispatches job flows to
//! domains based on where load is *going*, not just where it is. This
//! module provides the standard lightweight forecaster — exponential
//! smoothing over periodic utilization observations — plus a direct
//! look-ahead that reads a timetable's already-booked future.

use gridsched_model::node::ResourcePool;
use gridsched_model::window::TimeWindow;
use gridsched_sim::time::{SimDuration, SimTime};

/// Exponentially smoothed load estimate for one resource.
///
/// # Examples
///
/// ```
/// use gridsched_metrics::forecast::LoadForecaster;
///
/// let mut f = LoadForecaster::new(0.5);
/// f.observe(0.8);
/// f.observe(0.4);
/// // 0.8 then 0.5·0.4 + 0.5·0.8 = 0.6
/// assert!((f.level() - 0.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoadForecaster {
    alpha: f64,
    level: Option<f64>,
}

impl LoadForecaster {
    /// Creates a forecaster with smoothing factor `alpha` in `(0, 1]`:
    /// higher alpha weights recent observations more.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "smoothing factor must be in (0, 1], got {alpha}"
        );
        LoadForecaster { alpha, level: None }
    }

    /// Feeds one utilization observation in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `load` is outside `[0, 1]`.
    pub fn observe(&mut self, load: f64) {
        assert!(
            (0.0..=1.0).contains(&load),
            "load observation out of range: {load}"
        );
        self.level = Some(match self.level {
            None => load,
            Some(prev) => self.alpha * load + (1.0 - self.alpha) * prev,
        });
    }

    /// Current smoothed load level; 0.0 before any observation.
    #[must_use]
    pub fn level(&self) -> f64 {
        self.level.unwrap_or(0.0)
    }
}

/// Booked-ahead load of a domain: mean utilization of its nodes'
/// timetables over `[now, now + lookahead)`. Unlike the smoother, this
/// reads the reservations that *already exist* in the future — the exact
/// information a metascheduler has when choosing a domain.
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

    #[test]
    fn smoothing_converges_to_constant_input() {
        let mut f = LoadForecaster::new(0.3);
        assert_eq!(f.level(), 0.0, "no observation yet");
        for _ in 0..200 {
            f.observe(0.7);
        }
        assert!((f.level() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn higher_alpha_tracks_changes_faster() {
        let mut slow = LoadForecaster::new(0.1);
        let mut fast = LoadForecaster::new(0.9);
        for f in [&mut slow, &mut fast] {
            f.observe(0.0);
            f.observe(1.0);
        }
        assert!(fast.level() > slow.level());
    }

    #[test]
    #[should_panic(expected = "smoothing factor")]
    fn zero_alpha_rejected() {
        let _ = LoadForecaster::new(0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_observation_rejected() {
        LoadForecaster::new(0.5).observe(1.5);
    }

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
