//! ASCII Gantt charts for distributions, in the style of Fig. 2b.

use std::fmt::Write as _;

use gridsched_model::node::ResourcePool;

use crate::distribution::Distribution;

/// Renders a per-node Gantt chart of a distribution.
///
/// Each node gets a row; each task paints its wall window with its id
/// (staging stall shown as `.`, execution as the task number). One column
/// is one tick, starting at the earliest window start.
///
/// # Examples
///
/// ```
/// use gridsched_core::gantt::render_gantt;
/// use gridsched_core::method::ScheduleRequest;
/// use gridsched_core::session::PlanningSession;
/// use gridsched_data::policy::DataPolicy;
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
/// let chart = render_gantt(&dist, &pool);
/// assert!(chart.contains("N0"));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn render_gantt(dist: &Distribution, pool: &ResourcePool) -> String {
    let start = dist
        .placements()
        .iter()
        .map(|p| p.window.start().ticks())
        .min()
        .unwrap_or(0);
    let end = dist.makespan().ticks();
    let width = (end - start) as usize;

    let mut out = String::new();
    // Per-node rows.
    for node in pool.nodes() {
        let mut row = vec![' '; width];
        let mut used = false;
        for p in dist.placements().iter().filter(|p| p.node == node.id()) {
            used = true;
            let s = (p.window.start().ticks() - start) as usize;
            let e = (p.window.end().ticks() - start) as usize;
            let stall_end = s + p.stall.ticks() as usize;
            let glyph = task_glyph(p.task.raw());
            for (i, cell) in row.iter_mut().enumerate().take(e).skip(s) {
                *cell = if i < stall_end { '.' } else { glyph };
            }
        }
        if used {
            let _ = writeln!(
                out,
                "{:>4} |{}|",
                node.id().to_string(),
                row.iter().collect::<String>()
            );
        }
    }
    // Time axis with a mark every 5 ticks.
    let mut axis = String::new();
    for i in 0..width {
        let t = start + i as u64;
        axis.push(if t.is_multiple_of(5) { '+' } else { '-' });
    }
    let _ = writeln!(out, "{:>4}  {axis}", "");
    let _ = writeln!(out, "{:>4}  t{start}..t{end} ('.' = input staging)", "");
    out
}

/// One printable character per task id: `0..9`, then `a..z`, then `*`.
fn task_glyph(raw: u32) -> char {
    match raw {
        0..=9 => char::from(b'0' + raw as u8),
        10..=35 => char::from(b'a' + (raw - 10) as u8),
        _ => '*',
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::ScheduleRequest;
    use crate::session::PlanningSession;
    use gridsched_data::policy::DataPolicy;
    use gridsched_model::estimate::EstimateScenario;
    use gridsched_model::fixtures::fig2_job;
    use gridsched_model::ids::DomainId;
    use gridsched_model::perf::Perf;
    use gridsched_sim::time::SimTime;

    fn fig2_chart() -> (String, Distribution, ResourcePool) {
        let job = fig2_job();
        let mut pool = ResourcePool::new();
        for j in 1..=4u32 {
            pool.add_node(DomainId::new(0), Perf::new(1.0 / f64::from(j)).unwrap());
        }
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
        (render_gantt(&dist, &pool), dist, pool)
    }

    #[test]
    fn chart_mentions_every_used_node_and_task() {
        let (chart, dist, _pool) = fig2_chart();
        for p in dist.placements() {
            assert!(
                chart.contains(&p.node.to_string()),
                "node {} missing from chart:\n{chart}",
                p.node
            );
            assert!(
                chart.contains(task_glyph(p.task.raw())),
                "task {} missing from chart:\n{chart}",
                p.task
            );
        }
    }

    #[test]
    fn row_lengths_are_uniform() {
        let (chart, _, _) = fig2_chart();
        let lengths: Vec<usize> = chart
            .lines()
            .filter(|l| l.contains('|'))
            .map(str::len)
            .collect();
        assert!(!lengths.is_empty());
        assert!(lengths.windows(2).all(|w| w[0] == w[1]), "{chart}");
    }

    #[test]
    fn glyphs_cover_task_id_space() {
        assert_eq!(task_glyph(0), '0');
        assert_eq!(task_glyph(9), '9');
        assert_eq!(task_glyph(10), 'a');
        assert_eq!(task_glyph(35), 'z');
        assert_eq!(task_glyph(36), '*');
    }

    #[test]
    fn busy_cell_count_matches_wall_time() {
        let (chart, dist, _) = fig2_chart();
        let busy: usize = chart
            .lines()
            .filter(|l| l.contains('|'))
            .map(|l| l.chars().filter(|c| *c != ' ' && *c != '|').count() - 2)
            .sum();
        // Row labels contribute the "N?" prefix (2 non-space chars) which
        // we subtracted per line; the remainder is stall + exec cells.
        let expected: u64 = dist
            .placements()
            .iter()
            .map(|p| p.window.duration().ticks())
            .sum();
        assert_eq!(busy as u64, expected, "{chart}");
    }
}
