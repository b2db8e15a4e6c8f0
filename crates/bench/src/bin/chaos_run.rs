//! `chaos_run` — the differential chaos sweep as a CLI.
//!
//! Normal mode generates campaigns from a master seed and runs each one
//! across all three differential axes (executors, telemetry,
//! batch-vs-online). A clean sweep exits 0; a divergence or
//! oracle violation is shrunk to a minimal campaign, written as a
//! self-contained `chaos-repro.json`, and the exact replay command is
//! printed before exiting 1.
//!
//! Flags:
//!
//! * `--seed N` — master seed of the sweep (default `0xC4A05EED`).
//! * `--seed-from-run-id` — derive the master seed from the
//!   `GITHUB_RUN_ID` environment variable instead, so every CI run
//!   fuzzes a fresh slice of the campaign space while staying exactly
//!   reproducible from the run id printed in the log.
//! * `--campaigns N` — campaign budget (default 64).
//! * `--budget-ms N` — wall-clock budget; no new campaign starts after
//!   it elapses. `0` disables the cutoff (default 2000).
//! * `--artifact PATH` — where to write the repro on failure
//!   (default `chaos-repro.json`).
//! * `--out PATH` — also write a flat JSON sweep summary.
//! * `--inject AXIS` — test-only divergence injection
//!   (`executors|telemetry|batch-online`);
//!   exercises the
//!   catch → shrink → replay pipeline against a forced failure.
//! * `--replay PATH` — replay a previously written artifact instead of
//!   sweeping: exit 0 if the recorded failure still reproduces, 1 if it
//!   no longer does (the signal a fix landed).

use std::time::{Duration, Instant};

use gridsched::metrics::telemetry::{Counter, Telemetry};
use gridsched_bench::{keys, Args};
use gridsched_chaos::{replay, run_sweep, Axis, ReproArtifact, SweepConfig};

fn main() {
    let args = Args::capture_validated(keys::CHAOS_RUN);
    if args.has("replay") {
        let path: String = args.get("replay", String::new());
        std::process::exit(replay_artifact(&path));
    }
    std::process::exit(sweep(&args));
}

fn replay_artifact(path: &str) -> i32 {
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return 2;
        }
    };
    let artifact = match ReproArtifact::from_json(&json) {
        Ok(artifact) => artifact,
        Err(e) => {
            eprintln!("error: cannot parse {path}: {e}");
            return 2;
        }
    };
    println!("replaying {path}");
    println!("  recorded: {}", artifact.message);
    match replay(&artifact) {
        Some(failure) => {
            println!("  observed: {failure}");
            println!("REPRODUCED");
            0
        }
        None => {
            println!("  observed: all axes agree, oracle clean");
            println!("NOT REPRODUCED (fixed?)");
            1
        }
    }
}

fn sweep(args: &Args) -> i32 {
    let mut master_seed: u64 = args.get("seed", 0xC4A0_5EED);
    if args.get("seed-from-run-id", false) {
        match std::env::var("GITHUB_RUN_ID")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            Some(run_id) => master_seed = run_id,
            None => eprintln!(
                "warning: --seed-from-run-id without a numeric GITHUB_RUN_ID; \
                 using seed {master_seed:#x}"
            ),
        }
    }
    let budget_ms: u64 = args.get("budget-ms", 2_000);
    let inject = args.has("inject").then(|| {
        let name: String = args.get("inject", String::new());
        Axis::parse(&name).unwrap_or_else(|| {
            eprintln!("error: --inject {name}: unknown axis");
            std::process::exit(2);
        })
    });
    let config = SweepConfig {
        master_seed,
        campaigns: args.get("campaigns", 64),
        deadline: (budget_ms > 0).then(|| Instant::now() + Duration::from_millis(budget_ms)),
        inject,
        ..SweepConfig::default()
    };

    println!("chaos_run: differential sweep");
    println!("  master seed  {master_seed:#x}");
    println!(
        "  campaigns    {} (budget {budget_ms} ms)",
        config.campaigns
    );
    if let Some(axis) = inject {
        println!("  injecting    {axis} (test-only)");
    }
    let telemetry = Telemetry::new();
    let started = Instant::now();
    let outcome = run_sweep(&config, &telemetry);
    let elapsed = started.elapsed();
    println!(
        "  ran {} campaigns in {:.1} ms ({} online-compared, {} skipped as incomparable)",
        outcome.campaigns_run,
        elapsed.as_secs_f64() * 1e3,
        outcome.online_compared,
        outcome.online_skipped,
    );

    if let Some(path) = args
        .has("out")
        .then(|| args.get("out", "BENCH_chaos.json".to_owned()))
    {
        let summary = summary_json(master_seed, &outcome, elapsed, &telemetry);
        if let Err(e) = std::fs::write(&path, summary) {
            eprintln!("error: cannot write {path}: {e}");
            return 2;
        }
        println!("  summary -> {path}");
    }

    let Some(repro) = outcome.repro else {
        println!("CLEAN");
        return 0;
    };
    let artifact_path: String = args.get("artifact", "chaos-repro.json".to_owned());
    println!("FAILURE: {}", repro.message);
    println!(
        "  shrunk to jobs={} domains={} nodes={}..{} faults={} horizon={} ({} attempts)",
        repro.campaign.jobs,
        repro.campaign.domains,
        repro.campaign.nodes_min,
        repro.campaign.nodes_max,
        repro.campaign.outages + repro.campaign.degradations + repro.campaign.transfer_faults,
        repro.campaign.horizon,
        repro.shrink_attempts,
    );
    if let Err(e) = std::fs::write(&artifact_path, repro.to_json(&artifact_path)) {
        eprintln!("error: cannot write {artifact_path}: {e}");
        return 2;
    }
    println!("  repro -> {artifact_path}");
    println!("  replay with: {}", repro.replay_command(&artifact_path));
    1
}

fn summary_json(
    master_seed: u64,
    outcome: &gridsched_chaos::SweepOutcome,
    elapsed: Duration,
    telemetry: &Telemetry,
) -> String {
    format!(
        "{{\n  \"master_seed\": \"{master_seed:#x}\",\n  \"campaigns_run\": {},\n  \
         \"online_compared\": {},\n  \"online_skipped\": {},\n  \"divergences\": {},\n  \
         \"clean\": {},\n  \"elapsed_ms\": {:.3}\n}}\n",
        outcome.campaigns_run,
        outcome.online_compared,
        outcome.online_skipped,
        telemetry.counter(Counter::ChaosDivergences),
        outcome.clean(),
        elapsed.as_secs_f64() * 1e3,
    )
}
