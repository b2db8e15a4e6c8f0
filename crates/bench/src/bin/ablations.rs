//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Two-phase collision handling vs. direct allocation** — the paper's
//!    method allocates each critical work against the *background* first
//!    and resolves collisions afterwards; the ablation allocates directly
//!    against the true availability. Compares cost, makespan and the
//!    collision statistics that only the two-phase variant can produce.
//! 2. **VO-wide co-allocation vs. per-domain dispatch** — Fig. 1's job
//!    managers each control one domain; the metascheduler reallocates a
//!    job to another domain when its manager cannot place it. Compares
//!    admissibility and cost against scheduling across the whole VO.
//!
//! Run with: `cargo run --release -p gridsched-bench --bin ablations`
//! Knobs: `--jobs N --seed N --load F`

use gridsched::core::method::ScheduleRequest;
use gridsched::core::session::PlanningSession;
use gridsched::core::strategy::{StrategyConfig, StrategyKind};
use gridsched::metrics::summary::Summary;
use gridsched::metrics::table::{pct, ratio, Table};
use gridsched::model::ids::JobId;
use gridsched::sim::rng::SimRng;
use gridsched::sim::time::SimTime;
use gridsched::workload::background::{apply_background_load, BackgroundConfig};
use gridsched::workload::jobs::{generate_job, JobConfig};
use gridsched::workload::pool::{generate_pool, PoolConfig};
use gridsched_bench::{keys, verdict, Args};

fn main() {
    let args = Args::capture_validated(keys::ABLATIONS);
    let jobs: usize = args.get("jobs", 1_000);
    let load: f64 = args.get("load", 0.5);
    let seed: u64 = args.get("seed", 2009);
    let job_config = JobConfig {
        deadline_factor: args.get("deadline-factor", 3.0),
        ..JobConfig::default()
    };
    println!("ablations: {jobs} jobs, background load {load}, seed {seed}\n");

    let mut master = SimRng::seed_from(seed);

    // --- Ablation 1: two-phase vs direct -------------------------------
    let mut tp_cost = Summary::new();
    let mut di_cost = Summary::new();
    let mut tp_makespan = Summary::new();
    let mut di_makespan = Summary::new();
    let mut tp_ok = 0usize;
    let mut di_ok = 0usize;
    let mut collisions = 0usize;

    // --- Ablation 2: VO-wide vs domain dispatch ------------------------
    let mut vo_ok = 0usize;
    let mut dom_first_ok = 0usize;
    let mut dom_realloc_ok = 0usize;
    let mut vo_cost = Summary::new();
    let mut dom_cost = Summary::new();

    for i in 0..jobs {
        let mut rng = master.fork(i as u64);
        let mut pool = generate_pool(&PoolConfig::default(), &mut rng);
        apply_background_load(
            &mut pool,
            &BackgroundConfig {
                load,
                ..BackgroundConfig::default()
            },
            &mut rng,
        );
        let job = generate_job(&job_config, JobId::new(i as u64), SimTime::ZERO, &mut rng);
        let config = StrategyConfig::for_kind(StrategyKind::S2, &pool);
        let req = ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: config.policy(),
            scenario: gridsched::model::estimate::EstimateScenario::BEST,
            release: SimTime::ZERO,
        };
        let session = PlanningSession::open(&pool);

        if let Ok(d) = session.build_distribution(&req) {
            tp_ok += 1;
            tp_cost.record(d.cost() as f64);
            tp_makespan.record(d.makespan().ticks() as f64);
            collisions += d.collisions().len();
            vo_ok += 1;
            vo_cost.record(d.cost() as f64);
        }
        if let Ok(d) = session.build_distribution_direct(&req) {
            di_ok += 1;
            di_cost.record(d.cost() as f64);
            di_makespan.record(d.makespan().ticks() as f64);
        }

        // Domain dispatch: the metascheduler ranks domains by forecast
        // booked load (§5's "load level forecasting"), least-loaded first.
        let domains = gridsched::metrics::forecast::rank_domains_by_forecast(
            &pool,
            SimTime::ZERO,
            gridsched::sim::time::SimDuration::from_ticks(200),
        );
        for (attempt, domain) in domains.into_iter().enumerate() {
            if let Ok(d) = session.build_distribution_in_domain(&req, domain) {
                if attempt == 0 {
                    dom_first_ok += 1;
                } else {
                    dom_realloc_ok += 1;
                }
                dom_cost.record(d.cost() as f64);
                break;
            }
        }
    }

    let mut t1 = Table::new(vec![
        "variant",
        "admissible %",
        "mean CF",
        "mean makespan",
        "collisions",
    ]);
    t1.row(vec![
        "two-phase (paper)".into(),
        pct(tp_ok as f64 / jobs as f64),
        ratio(tp_cost.mean()),
        ratio(tp_makespan.mean()),
        collisions.to_string(),
    ]);
    t1.row(vec![
        "direct (ablation)".into(),
        pct(di_ok as f64 / jobs as f64),
        ratio(di_cost.mean()),
        ratio(di_makespan.mean()),
        "0 (by construction)".into(),
    ]);
    println!("ablation 1 — collision handling:\n{t1}");
    verdict(
        "two-phase and direct admit comparably many jobs (resolution is safe)",
        (tp_ok as f64 - di_ok as f64).abs() / jobs as f64 <= 0.02,
    );
    verdict(
        "only the two-phase variant observes collisions (the Fig. 3b statistic)",
        collisions > 0,
    );

    let dom_ok = dom_first_ok + dom_realloc_ok;
    let mut t2 = Table::new(vec!["variant", "admissible %", "mean CF", "note"]);
    t2.row(vec![
        "VO-wide co-allocation".into(),
        pct(vo_ok as f64 / jobs as f64),
        ratio(vo_cost.mean()),
        String::new(),
    ]);
    t2.row(vec![
        "per-domain dispatch".into(),
        pct(dom_ok as f64 / jobs as f64),
        ratio(dom_cost.mean()),
        format!("{dom_realloc_ok} jobs needed inter-domain reallocation"),
    ]);
    println!("\nablation 2 — co-allocation scope:\n{t2}");
    // Note: the critical-works heuristic is not monotone in the node set —
    // VO-wide chains may spread early tasks across domains and strand the
    // later chains, while domain-local placement keeps transfers short.
    verdict(
        "locality helps admissibility under remote access (domain dispatch >= VO-wide)",
        dom_ok >= vo_ok,
    );
    verdict(
        "locality costs quota: domain dispatch has a higher mean CF than VO-wide",
        dom_cost.mean() > vo_cost.mean(),
    );
    verdict(
        "the metascheduler's inter-domain reallocation rescues some jobs",
        dom_realloc_ok > 0,
    );
}
