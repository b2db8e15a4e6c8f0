//! Random compound jobs per §4.
//!
//! "Strategies for more than 12000 jobs with a fixed completion time were
//! studied. Every task of a job had randomized completion time estimations,
//! computation volumes, data transfer times and volumes with a uniform
//! distribution. These parameters for various tasks had difference which
//! was equal to 2...3."
//!
//! Jobs are layered fork-join DAGs in the style of the paper's Fig. 2:
//! an entry stage, a few parallel middle layers, and a join stage.

use gridsched_model::ids::JobId;
use gridsched_model::job::{Job, JobBuilder};
use gridsched_model::perf::Perf;
use gridsched_model::volume::Volume;
use gridsched_sim::rng::SimRng;
use gridsched_sim::time::{SimDuration, SimTime};

/// Configuration of the random job generator.
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    /// Minimum number of DAG layers, including entry and exit (≥ 2).
    pub layers_min: usize,
    /// Maximum number of DAG layers.
    pub layers_max: usize,
    /// Maximum parallel tasks per middle layer (the "task parallelism
    /// degree" the pool size is conformed to).
    pub width_max: usize,
    /// Base computation volume; per-task volumes get the paper's 2–3×
    /// uniform spread on top.
    pub base_volume: u64,
    /// Base data volume per transfer arc, same spread.
    pub base_edge_volume: u64,
    /// Deadline = `deadline_factor` × the job's critical path on a
    /// performance-1.0 node. The paper studies jobs "with a fixed
    /// completion time"; the factor expresses how tight that time is.
    pub deadline_factor: f64,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            layers_min: 3,
            layers_max: 5,
            width_max: 3,
            base_volume: 20,
            base_edge_volume: 5,
            deadline_factor: 3.0,
        }
    }
}

impl JobConfig {
    fn validate(&self) {
        assert!(
            self.layers_min >= 2 && self.layers_min <= self.layers_max,
            "invalid layer range [{}, {}]",
            self.layers_min,
            self.layers_max
        );
        assert!(self.width_max >= 1, "width_max must be at least 1");
        assert!(self.base_volume >= 1, "base_volume must be at least 1");
        assert!(
            self.deadline_factor.is_finite() && self.deadline_factor > 0.0,
            "deadline_factor must be positive, got {}",
            self.deadline_factor
        );
    }
}

/// Generates one random compound job.
///
/// The DAG has a single entry task and a single exit task (like Fig. 2);
/// middle layers have 1–`width_max` tasks, each wired to at least one task
/// of the previous layer.
///
/// # Panics
///
/// Panics if the configuration is invalid.
#[must_use]
pub fn generate_job(config: &JobConfig, id: JobId, release: SimTime, rng: &mut SimRng) -> Job {
    config.validate();
    let layers = rng.uniform_u64(config.layers_min as u64, config.layers_max as u64) as usize;
    let mut builder = JobBuilder::new();
    let mut previous_layer = vec![builder.add_task(random_volume(config.base_volume, rng))];
    for layer in 1..layers {
        let width = if layer == layers - 1 {
            1 // single exit task
        } else {
            rng.uniform_u64(1, config.width_max as u64) as usize
        };
        let current: Vec<_> = (0..width)
            .map(|_| builder.add_task(random_volume(config.base_volume, rng)))
            .collect();
        // `consumed[i]`: whether `previous_layer[i]` feeds a task yet.
        let mut consumed = vec![false; previous_layer.len()];
        for &to in &current {
            // Wire to one random predecessor, then sprinkle extras.
            let first = rng.index(previous_layer.len());
            consumed[first] = true;
            builder.add_edge(
                previous_layer[first],
                to,
                random_volume(config.base_edge_volume, rng),
            );
            for (i, &from) in previous_layer.iter().enumerate() {
                if i != first && rng.chance(0.4) {
                    consumed[i] = true;
                    builder.add_edge(from, to, random_volume(config.base_edge_volume, rng));
                }
            }
        }
        // Every previous-layer task needs at least one consumer; rewire
        // orphans to a random current task.
        for (&from, _) in previous_layer.iter().zip(&consumed).filter(|(_, &c)| !c) {
            let to = current[rng.index(current.len())];
            builder.add_edge(from, to, random_volume(config.base_edge_volume, rng));
        }
        previous_layer = current;
    }
    // Set deadline from the critical path of a provisional build.
    builder.release_at(release);
    let provisional = builder
        .clone()
        .build(id)
        .expect("layered generation yields a valid DAG");
    let critical = provisional.critical_path(Perf::FULL);
    let deadline = critical.scale_ceil(config.deadline_factor);
    builder.deadline(deadline.max(SimDuration::TICK));
    builder
        .build(id)
        .expect("layered generation yields a valid DAG")
}

fn random_volume(base: u64, rng: &mut SimRng) -> Volume {
    Volume::new(rng.spread_2_to_3(base) as f64)
}

/// Generates `count` jobs with releases spaced by a uniform inter-arrival
/// in `[0, max_gap]` ticks.
///
/// A zero `max_gap` consumes **no** randomness for the gaps (there is
/// nothing to draw), exactly like a degenerate all-zero
/// [`ArrivalProcess::Trace`](crate::arrivals::ArrivalProcess): the batch
/// stream and the online arrival stream then produce identical jobs from
/// the same rng — the equivalence the chaos harness's batch-vs-online
/// differential axis rests on.
#[must_use]
pub fn generate_stream(
    config: &JobConfig,
    count: usize,
    max_gap: SimDuration,
    rng: &mut SimRng,
) -> Vec<Job> {
    let mut out = Vec::with_capacity(count);
    let mut clock = SimTime::ZERO;
    for i in 0..count {
        if !max_gap.is_zero() {
            clock += rng.uniform_duration(SimDuration::ZERO, max_gap);
        }
        out.push(generate_job(config, JobId::new(i as u64), clock, rng));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_are_valid_dags_with_deadlines() {
        let cfg = JobConfig::default();
        for seed in 0..30 {
            let mut rng = SimRng::seed_from(seed);
            let job = generate_job(&cfg, JobId::new(seed), SimTime::ZERO, &mut rng);
            assert!(job.task_count() >= 3);
            assert!(job.deadline() > SimDuration::ZERO);
            assert!(job.deadline().ticks() < u64::MAX / 2, "finite deadline");
            // Every non-entry task has a predecessor; every non-exit a
            // successor — guaranteed by construction, double-check.
            for t in job.tasks() {
                let id = t.id();
                let preds = job.predecessors(id).count();
                let succs = job.successors(id).count();
                assert!(preds > 0 || succs > 0 || job.task_count() == 1);
            }
        }
    }

    #[test]
    fn single_entry_and_exit() {
        let cfg = JobConfig::default();
        for seed in 0..20 {
            let mut rng = SimRng::seed_from(seed + 100);
            let job = generate_job(&cfg, JobId::new(seed), SimTime::ZERO, &mut rng);
            assert_eq!(job.entry_tasks().count(), 1, "seed {seed}");
            let exits = job
                .topo_order()
                .iter()
                .filter(|&&t| job.successors(t).next().is_none())
                .count();
            assert_eq!(exits, 1, "seed {seed}");
        }
    }

    #[test]
    fn deadline_scales_with_factor() {
        let tight = JobConfig {
            deadline_factor: 1.5,
            ..JobConfig::default()
        };
        let loose = JobConfig {
            deadline_factor: 6.0,
            ..JobConfig::default()
        };
        let a = generate_job(
            &tight,
            JobId::new(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(5),
        );
        let b = generate_job(
            &loose,
            JobId::new(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(5),
        );
        // Same seed -> same DAG, different deadline.
        assert_eq!(a.task_count(), b.task_count());
        assert!(b.deadline() > a.deadline());
    }

    #[test]
    fn volumes_respect_spread_band() {
        let cfg = JobConfig::default();
        let mut rng = SimRng::seed_from(9);
        let job = generate_job(&cfg, JobId::new(0), SimTime::ZERO, &mut rng);
        for t in job.tasks() {
            let v = t.volume().units();
            assert!(
                (cfg.base_volume as f64..=3.0 * cfg.base_volume as f64).contains(&v),
                "volume {v} outside [20, 60]"
            );
        }
    }

    #[test]
    fn parallelism_bounded_by_width() {
        let cfg = JobConfig {
            width_max: 2,
            ..JobConfig::default()
        };
        for seed in 0..10 {
            let mut rng = SimRng::seed_from(seed);
            let job = generate_job(&cfg, JobId::new(0), SimTime::ZERO, &mut rng);
            assert!(job.parallelism_degree() <= 2);
        }
    }

    #[test]
    fn stream_releases_are_monotone() {
        let cfg = JobConfig::default();
        let mut rng = SimRng::seed_from(4);
        let jobs = generate_stream(&cfg, 10, SimDuration::from_ticks(5), &mut rng);
        assert_eq!(jobs.len(), 10);
        for pair in jobs.windows(2) {
            assert!(pair[0].release() <= pair[1].release());
        }
        // Ids are sequential.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id(), JobId::new(i as u64));
        }
    }

    #[test]
    fn zero_gap_stream_consumes_no_gap_randomness() {
        // A zero max_gap must draw nothing for the gaps, so the stream is
        // identical to generating the jobs back to back at t0 — and, by
        // the same token, to a degenerate all-zero arrival trace (the
        // chaos harness's batch-vs-online axis rests on this).
        let cfg = JobConfig::default();
        let stream = generate_stream(&cfg, 6, SimDuration::ZERO, &mut SimRng::seed_from(77));
        let mut rng = SimRng::seed_from(77);
        let direct: Vec<Job> = (0..6)
            .map(|i| generate_job(&cfg, JobId::new(i), SimTime::ZERO, &mut rng))
            .collect();
        assert_eq!(stream, direct);
        assert!(stream.iter().all(|j| j.release() == SimTime::ZERO));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = JobConfig::default();
        let a = generate_job(
            &cfg,
            JobId::new(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(11),
        );
        let b = generate_job(
            &cfg,
            JobId::new(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(11),
        );
        assert_eq!(a.task_count(), b.task_count());
        assert_eq!(a.edges().len(), b.edges().len());
        assert_eq!(a.total_volume(), b.total_volume());
        assert_eq!(a.deadline(), b.deadline());
    }
}
