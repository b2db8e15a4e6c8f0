//! The paper's cost function.
//!
//! §3 defines a job's execution cost as `CF = Σ V_ij / T_i` over its tasks,
//! "where `V_ij` is the relative computation volume, and `T_i` is the real
//! load time of processor node `j` by task `i` (rounded to nearest
//! not-smaller integer)". `T_i` is the node's *reserved wall time* for the
//! task — input-data staging plus execution — so occupying a fast node
//! briefly costs more quota units than occupying a slow node for long:
//! "user should pay additional cost in order to use more powerful resource
//! or to start the task faster".

use gridsched_sim::time::{ceil_u64, SimDuration};

use gridsched_model::volume::Volume;

/// Cost, in the virtual organization's conventional quota units.
pub type Cost = u64;

/// Cost of loading a node with a task of `volume` for `wall_time`:
/// `ceil(V / T)`.
///
/// # Panics
///
/// Panics if `wall_time` is zero — a task always occupies its node for at
/// least one tick.
#[must_use]
pub fn task_cost(volume: Volume, wall_time: SimDuration) -> Cost {
    assert!(
        !wall_time.is_zero(),
        "task wall time must be positive for cost evaluation"
    );
    let ratio = volume.units() / wall_time.ticks() as f64;
    ceil_u64(ratio - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(x: u64) -> SimDuration {
        SimDuration::from_ticks(x)
    }

    #[test]
    fn fig2_distribution2_task_costs() {
        // Fig. 2, Distribution 2: P1/1, P2/1, P3/3, P4/3, P5/4, P6/1 with
        // wall times equal to the type-j estimates.
        assert_eq!(task_cost(Volume::new(20.0), d(2)), 10); // P1 on type 1
        assert_eq!(task_cost(Volume::new(30.0), d(3)), 10); // P2 on type 1
        assert_eq!(task_cost(Volume::new(10.0), d(3)), 4); // P3 on type 3
        assert_eq!(task_cost(Volume::new(20.0), d(6)), 4); // P4 on type 3
        assert_eq!(task_cost(Volume::new(10.0), d(4)), 3); // P5 on type 4
        assert_eq!(task_cost(Volume::new(20.0), d(2)), 10); // P6 on type 1
    }

    #[test]
    fn cost_decreases_with_longer_occupation() {
        let v = Volume::new(20.0);
        assert!(task_cost(v, d(2)) > task_cost(v, d(4)));
        assert!(task_cost(v, d(4)) > task_cost(v, d(8)));
    }

    #[test]
    fn exact_division_does_not_round_up() {
        assert_eq!(task_cost(Volume::new(20.0), d(4)), 5);
        assert_eq!(task_cost(Volume::new(20.0), d(3)), 7); // 6.67 -> 7
    }

    #[test]
    fn zero_volume_is_free() {
        assert_eq!(task_cost(Volume::ZERO, d(5)), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_wall_time_rejected() {
        let _ = task_cost(Volume::new(1.0), SimDuration::ZERO);
    }
}
