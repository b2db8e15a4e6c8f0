//! Random node pools per the paper's §4.
//!
//! "Processor nodes were selected in accordance to their relative
//! performance. For the first group of 'fast' nodes the relative
//! performance was equal to 0.66…1, for the second and the third groups
//! 0.33…0.66 and 0.33 ('slow' nodes) respectively. A number of nodes was
//! conformed to a job structure, i.e. a task parallelism degree, and was
//! varied from 20 to 30."

use gridsched_model::ids::DomainId;
use gridsched_model::node::ResourcePool;
use gridsched_model::perf::{Perf, PerfGroup};
use gridsched_sim::rng::SimRng;

/// Configuration of a random resource pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Minimum node count (paper: 20).
    pub nodes_min: usize,
    /// Maximum node count (paper: 30).
    pub nodes_max: usize,
    /// Number of domains nodes are spread over.
    pub domains: u32,
    /// Share of each group `(fast, medium, slow)`; must sum to ~1.
    pub group_shares: (f64, f64, f64),
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            nodes_min: 20,
            nodes_max: 30,
            domains: 3,
            group_shares: (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        }
    }
}

impl PoolConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if bounds are inverted, there are no domains, or the group
    /// shares do not sum to 1 (±1e-6).
    fn validate(&self) {
        assert!(
            self.nodes_min >= 1 && self.nodes_min <= self.nodes_max,
            "invalid node count range [{}, {}]",
            self.nodes_min,
            self.nodes_max
        );
        assert!(self.domains >= 1, "need at least one domain");
        let sum = self.group_shares.0 + self.group_shares.1 + self.group_shares.2;
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "group shares must sum to 1, got {sum}"
        );
    }
}

/// Generates a pool per `config`, drawing performances from each group's
/// §4 band. Nodes are dealt to domains round-robin so every domain holds a
/// mix of speeds.
/// Its snapshots probe under `config.probe`.
#[must_use]
pub fn generate_pool(config: &PoolConfig, rng: &mut SimRng) -> ResourcePool {
    config.validate();
    let n = rng.uniform_u64(config.nodes_min as u64, config.nodes_max as u64) as usize;
    let fast = ((n as f64) * config.group_shares.0).round() as usize;
    let medium = ((n as f64) * config.group_shares.1).round() as usize;
    let slow = n
        .saturating_sub(fast + medium)
        .max(if fast + medium < n { 1 } else { 0 });

    let mut perfs: Vec<Perf> = Vec::with_capacity(n);
    for _ in 0..fast {
        let (lo, hi) = PerfGroup::Fast.perf_range();
        perfs.push(Perf::new(rng.uniform_f64(lo, hi + 1e-9).min(1.0)).expect("in range"));
    }
    for _ in 0..medium {
        let (lo, hi) = PerfGroup::Medium.perf_range();
        perfs.push(Perf::new(rng.uniform_f64(lo, hi)).expect("in range"));
    }
    for _ in 0..slow {
        // The paper pins the slow group at exactly 0.33.
        perfs.push(Perf::new(0.33).expect("0.33 is valid"));
    }
    rng.shuffle(&mut perfs);

    let mut pool = ResourcePool::new();
    for (i, perf) in perfs.into_iter().enumerate() {
        let domain = DomainId::new((i as u32) % config.domains);
        pool.add_node(domain, perf);
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_node_count_bounds() {
        let cfg = PoolConfig::default();
        for seed in 0..20 {
            let mut rng = SimRng::seed_from(seed);
            let pool = generate_pool(&cfg, &mut rng);
            assert!((20..=30).contains(&pool.len()), "{}", pool.len());
        }
    }

    #[test]
    fn contains_all_three_groups() {
        let mut rng = SimRng::seed_from(1);
        let pool = generate_pool(&PoolConfig::default(), &mut rng);
        for group in PerfGroup::ALL {
            assert!(
                pool.nodes().any(|n| n.group() == group),
                "group {group} missing from pool"
            );
        }
    }

    #[test]
    fn slow_nodes_are_exactly_one_third_speed() {
        let mut rng = SimRng::seed_from(2);
        let pool = generate_pool(&PoolConfig::default(), &mut rng);
        for node in pool.nodes().filter(|n| n.group() == PerfGroup::Slow) {
            assert_eq!(node.perf().value(), 0.33);
        }
    }

    #[test]
    fn nodes_spread_over_all_domains() {
        let mut rng = SimRng::seed_from(3);
        let cfg = PoolConfig::default();
        let pool = generate_pool(&cfg, &mut rng);
        assert_eq!(pool.domains().len(), cfg.domains as usize);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = PoolConfig::default();
        let a = generate_pool(&cfg, &mut SimRng::seed_from(7));
        let b = generate_pool(&cfg, &mut SimRng::seed_from(7));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.nodes().zip(b.nodes()) {
            assert_eq!(x.perf(), y.perf());
            assert_eq!(x.domain(), y.domain());
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_shares_rejected() {
        let cfg = PoolConfig {
            group_shares: (0.5, 0.5, 0.5),
            ..PoolConfig::default()
        };
        let _ = generate_pool(&cfg, &mut SimRng::seed_from(0));
    }
}
