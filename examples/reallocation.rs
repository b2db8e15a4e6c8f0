//! Dynamic reallocation (§2): what happens when a resource is taken away
//! from an active schedule.
//!
//! Builds a schedule for the paper's Fig. 2 job, lets an independent local
//! job seize a reserved node mid-plan, and shows the job manager replanning
//! the not-yet-started tasks around the ones already running — the paper's
//! "special reallocation mechanism".
//!
//! Run with: `cargo run --example reallocation`

use std::collections::HashMap;

use gridsched::core::gantt::render_gantt;
use gridsched::core::method::ScheduleRequest;
use gridsched::core::objective::Objective;
use gridsched::core::session::PlanningSession;
use gridsched::data::policy::DataPolicy;
use gridsched::model::estimate::EstimateScenario;
use gridsched::model::fixtures::fig2_job_with_deadline;
use gridsched::model::ids::{DomainId, GlobalTaskId};
use gridsched::model::node::ResourcePool;
use gridsched::model::perf::Perf;
use gridsched::model::timetable::ReservationOwner;
use gridsched::model::window::TimeWindow;
use gridsched::sim::time::{SimDuration, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let job = fig2_job_with_deadline(SimDuration::from_ticks(40));
    let mut pool = ResourcePool::new();
    for j in 1..=4u32 {
        pool.add_node(DomainId::new(0), Perf::new(1.0 / f64::from(j))?);
    }
    let policy = DataPolicy::remote_access();

    // 1. Plan and activate.
    let plan = PlanningSession::open(&pool).build_distribution(&ScheduleRequest {
        job: &job,
        pool: &pool,
        policy: &policy,
        scenario: EstimateScenario::BEST,
        release: SimTime::ZERO,
    })?;
    println!(
        "activated schedule (CF = {}, makespan {}):",
        plan.cost(),
        plan.makespan()
    );
    print!("{}", render_gantt(&plan, &pool));
    let owner = |task| {
        ReservationOwner::Task(GlobalTaskId {
            job: job.id(),
            task,
        })
    };
    for p in plan.placements() {
        pool.timetable_mut(p.node)
            .reserve(p.window, owner(p.task))?;
    }

    // 2. At t = 4, an independent local job seizes the node hosting the
    //    latest-starting pending task for 10 ticks.
    let break_time = SimTime::from_ticks(4);
    let victim = plan
        .placements()
        .iter()
        .filter(|p| p.window.start() > break_time)
        .max_by_key(|p| p.window.start())
        .expect("some task is still pending at t4");
    println!(
        "\nat {break_time}: an independent job wants {} — task {}'s reservation is revoked",
        victim.node, victim.task
    );

    // Release every pending reservation (the local rules favour the
    // resource owner), then hand the node to the independent job.
    let mut fixed = HashMap::new();
    for p in plan.placements() {
        if p.window.start() > break_time {
            pool.timetable_mut(p.node).release(p.window, owner(p.task));
        } else {
            fixed.insert(p.task, *p);
        }
    }
    let seized = TimeWindow::starting_at(break_time, SimDuration::from_ticks(10))?;
    pool.timetable_mut(victim.node)
        .reserve(seized, ReservationOwner::Background(0))?;
    println!(
        "kept {} started task(s): {:?}",
        fixed.len(),
        fixed.keys().map(ToString::to_string).collect::<Vec<_>>()
    );

    // 3. Replan the remaining tasks from the break instant, keeping the
    //    original absolute deadline, under the paper's default criterion.
    let replanned = PlanningSession::open(&pool).reschedule_with_objective(
        &ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: &policy,
            scenario: EstimateScenario::BEST,
            release: break_time,
        },
        &fixed,
        SimTime::ZERO.saturating_add(job.deadline()),
        Objective::MinCost,
    )?;
    println!(
        "\nreplanned schedule (CF = {}, makespan {}):",
        replanned.cost(),
        replanned.makespan()
    );
    print!("{}", render_gantt(&replanned, &pool));
    println!(
        "\nthe job still meets its deadline of t{}: {}",
        job.deadline().ticks(),
        replanned.meets_deadline(SimTime::ZERO.saturating_add(job.deadline()))
    );
    Ok(())
}
