//! Probe-cost scaling: gap-indexed descent vs. the linear jump-walk.
//!
//! The planning hot path asks one question millions of times per
//! campaign: *earliest start ≥ t where a `duration`-long slot is free*.
//! Before the gap index, a cold probe walked the node's reservation list
//! from the first window ending after `t` — O(R) when the calendar is
//! packed tighter than the slot being placed. The [`GapIndex`] built
//! lazily per [`AvailabilitySnapshot`] answers the same question by
//! descending a max-free-gap tree in O(log R), with **bit-identical**
//! results (the contract pinned by `crates/model/tests/prop_gap_index.rs`
//! and the `probe-index` chaos axis).
//!
//! This binary makes the scaling claim measurable. For each pool size it
//! synthesizes one dense calendar (committed with
//! [`Timetable::from_sorted`], the bulk build) and times:
//!
//! * `cold/hard`    — probes whose duration exceeds every interior gap,
//!   the worst case: the walk scans the whole calendar, the index proves
//!   "no interior gap fits" in O(log R). The ratio at the largest pool
//!   is reported as `probe_index_speedup_cold`.
//! * `cold/typical` — short slots from random positions, the common case:
//!   the walk usually stops after a few windows, so the index roughly
//!   ties (reported as `probe_index_speedup_typical`).
//! * `warm/memo`    — a repeated overlay probe served by the `FitMemo`,
//!   for scale: both cold paths sit above this floor.
//! * `index build`  — the one-off O(R) cost a snapshot pays on its first
//!   probe of a node, amortized over every session sharing the snapshot.
//! * `cold/warm capture` — a full [`AvailabilitySnapshot`] capture with
//!   the calendar cache disabled (every capture refreezes the window
//!   slice, O(R)) vs. enabled and primed (the capture reuses the frozen
//!   calendar and its already-built index by `Arc`). The ratio at the
//!   largest pool is reported as `index_cache_warm_speedup`, and the
//!   shape also asserts that the warm capture serves probes with **zero**
//!   rebuilds.
//!
//! Results land in `BENCH_probe_scaling.json` (override with `--out`).
//! This is a manual tool; CI does not run it, because wall-time ratios
//! on a shared runner are noise. The properties behind the ratios are
//! tested deterministically instead: the index search's O(log R) step
//! bound (`gap_index`'s unit tests), indexed == linear at ≥ 100k windows
//! (`crates/model/tests/prop_gap_index.rs`) and a warm capture's zero
//! rebuilds and cache hits (`crates/model/tests/prop_index_cache.rs`).
//!
//! Run with: `cargo bench-probe` (alias for
//! `cargo run --release -p gridsched-bench --bin probe_scaling`).
//! Knobs: `--seed N --budget-ms N --probes N --max-reservations N
//! --out PATH`
//!
//! [`AvailabilitySnapshot`]: gridsched::model::availability::AvailabilitySnapshot
//! [`GapIndex`]: gridsched::model::gap_index::GapIndex
//! [`Timetable::from_sorted`]: gridsched::model::timetable::Timetable::from_sorted

use std::time::{Duration, Instant};

use gridsched::model::availability::{ProbeConfig, TimetableOverlay};
use gridsched::model::gap_index::GapIndex;
use gridsched::model::ids::DomainId;
use gridsched::model::node::ResourcePool;
use gridsched::model::perf::Perf;
use gridsched::model::timetable::{ReservationOwner, Timetable};
use gridsched::model::window::TimeWindow;
use gridsched::sim::rng::SimRng;
use gridsched::sim::time::{SimDuration, SimTime};
use gridsched_bench::timing::Group;
use gridsched_bench::{keys, verdict, Args};

/// Pool sizes swept, in reservations per node. 143k is the seed
/// corpus's reference calendar; 200k is headroom past it.
const SIZES: &[usize] = &[1_000, 10_000, 50_000, 100_000, 143_000, 200_000];

/// One synthesized calendar: sorted windows, the largest interior gap,
/// and the horizon (end of the last window).
struct Calendar {
    windows: Vec<TimeWindow>,
    max_gap: u64,
    horizon: u64,
}

/// Dense random calendar: busy chunks of 3–12 ticks separated by gaps of
/// 0–10, so most interior gaps are smaller than a typical slot and *all*
/// of them are smaller than a hard probe's.
fn synthesize(reservations: usize, rng: &mut SimRng) -> Calendar {
    let mut windows = Vec::with_capacity(reservations);
    let mut cursor = 0u64;
    let mut max_gap = 0u64;
    for i in 0..reservations {
        let gap = rng.uniform_u64(0, 10);
        if i > 0 {
            max_gap = max_gap.max(gap);
        }
        let start = cursor + gap;
        let end = start + rng.uniform_u64(3, 12);
        windows.push(
            TimeWindow::new(SimTime::from_ticks(start), SimTime::from_ticks(end))
                .expect("busy chunk >= 3 ticks"),
        );
        cursor = end;
    }
    Calendar {
        windows,
        max_gap,
        horizon: cursor,
    }
}

struct SizeResult {
    reservations: usize,
    linear_hard_ns: u128,
    indexed_hard_ns: u128,
    linear_typical_ns: u128,
    indexed_typical_ns: u128,
    warm_memo_ns: u128,
    index_build_ns: u128,
    capture_cold_ns: u128,
    capture_warm_ns: u128,
    speedup_hard: f64,
    speedup_typical: f64,
    speedup_capture: f64,
}

fn json_line(r: &SizeResult) -> String {
    format!(
        concat!(
            "    {{\"reservations\": {}, ",
            "\"linear_hard_ns\": {}, \"indexed_hard_ns\": {}, ",
            "\"linear_typical_ns\": {}, \"indexed_typical_ns\": {}, ",
            "\"warm_memo_ns\": {}, \"index_build_ns\": {}, ",
            "\"capture_cold_ns\": {}, \"capture_warm_ns\": {}, ",
            "\"speedup_hard\": {:.3}, \"speedup_typical\": {:.3}, ",
            "\"speedup_capture\": {:.3}}}"
        ),
        r.reservations,
        r.linear_hard_ns,
        r.indexed_hard_ns,
        r.linear_typical_ns,
        r.indexed_typical_ns,
        r.warm_memo_ns,
        r.index_build_ns,
        r.capture_cold_ns,
        r.capture_warm_ns,
        r.speedup_hard,
        r.speedup_typical,
        r.speedup_capture,
    )
}

fn main() {
    let args = Args::capture_validated(keys::PROBE_SCALING);
    let seed: u64 = args.get("seed", 2009);
    let budget_ms: u64 = args.get("budget-ms", 150);
    let probe_count: usize = args.get("probes", 256);
    let max_reservations: usize = args.get("max-reservations", 200_000);
    let out: String = args.get("out", "BENCH_probe_scaling.json".to_owned());

    let sizes: Vec<usize> = SIZES
        .iter()
        .copied()
        .filter(|&n| n <= max_reservations)
        .collect();
    assert!(
        !sizes.is_empty(),
        "--max-reservations {max_reservations} excludes every sweep size"
    );
    let mut master = SimRng::seed_from(seed);
    println!(
        "probe_scaling: {} pool sizes up to {} reservations, {probe_count} probes/shape, seed {seed}\n",
        sizes.len(),
        sizes.last().copied().unwrap_or(0),
    );

    let mut results: Vec<SizeResult> = Vec::new();
    // Cache counters from the *largest* size's warm-capture shape; the
    // headline keys below report these.
    let mut warm_capture_hits = 0u64;
    let mut warm_capture_rebuilds = 0u64;
    for (idx, &n) in sizes.iter().enumerate() {
        let cal = synthesize(n, &mut master.fork(idx as u64 + 1));
        let mut probe_rng = master.fork(1_000 + idx as u64);

        // Hard probes: duration strictly wider than every interior gap,
        // from early positions — the walk traverses essentially the whole
        // calendar before settling on the trailing gap.
        let hard_duration = SimDuration::from_ticks(cal.max_gap + 1);
        let hard: Vec<SimTime> = (0..probe_count)
            .map(|_| SimTime::from_ticks(probe_rng.uniform_u64(0, cal.horizon / 50)))
            .collect();
        // Typical probes: short slots from anywhere in the calendar.
        let typical: Vec<(SimTime, SimDuration)> = (0..probe_count)
            .map(|_| {
                (
                    SimTime::from_ticks(probe_rng.uniform_u64(0, cal.horizon)),
                    SimDuration::from_ticks(probe_rng.uniform_u64(1, 16)),
                )
            })
            .collect();

        // Build the timetable through the bulk path (the same one
        // `workload::background` uses) and time the one-off index build.
        let mut pool = ResourcePool::new();
        let node = pool.add_node(DomainId::new(0), Perf::FULL);
        *pool.timetable_mut(node) = Timetable::from_sorted(
            cal.windows
                .iter()
                .enumerate()
                .map(|(i, &w)| (w, ReservationOwner::Background(i as u64))),
        );
        let tt = pool.timetable(node);
        let build_started = Instant::now();
        let index = GapIndex::build(&cal.windows);
        let index_build = build_started.elapsed();

        // The timings below only mean anything if the two paths agree.
        for &nb in &hard {
            assert_eq!(
                index.earliest_fit(&cal.windows, nb, hard_duration, SimTime::MAX),
                tt.earliest_fit(nb, hard_duration, SimTime::MAX),
                "hard probe diverged at {n} reservations"
            );
        }
        for &(nb, d) in &typical {
            assert_eq!(
                index.earliest_fit(&cal.windows, nb, d, SimTime::MAX),
                tt.earliest_fit(nb, d, SimTime::MAX),
                "typical probe diverged at {n} reservations"
            );
        }

        let group =
            Group::new(&format!("{n} reservations")).with_budget(Duration::from_millis(budget_ms));
        let mut cursor = 0usize;
        let linear_hard = group.bench("cold hard probe, linear walk", || {
            let nb = hard[cursor % hard.len()];
            cursor += 1;
            tt.earliest_fit(nb, hard_duration, SimTime::MAX)
        });
        cursor = 0;
        let indexed_hard = group.bench("cold hard probe, gap index", || {
            let nb = hard[cursor % hard.len()];
            cursor += 1;
            index.earliest_fit(&cal.windows, nb, hard_duration, SimTime::MAX)
        });
        cursor = 0;
        let linear_typical = group.bench("cold typical probe, linear walk", || {
            let (nb, d) = typical[cursor % typical.len()];
            cursor += 1;
            tt.earliest_fit(nb, d, SimTime::MAX)
        });
        cursor = 0;
        let indexed_typical = group.bench("cold typical probe, gap index", || {
            let (nb, d) = typical[cursor % typical.len()];
            cursor += 1;
            index.earliest_fit(&cal.windows, nb, d, SimTime::MAX)
        });
        // Warm floor: one overlay probe repeated, served by the FitMemo
        // after its first (cold, indexed) answer.
        let overlay = TimetableOverlay::new(pool.snapshot());
        let (warm_nb, warm_d) = typical[0];
        let warm = group.bench("warm repeat probe, overlay memo", || {
            overlay.earliest_fit(node, warm_nb, warm_d, SimTime::MAX)
        });

        // Capture shapes: a full snapshot with the pool's calendar cache
        // disabled (every capture refreezes the window slice, O(R)) vs.
        // enabled and primed (the capture reuses the frozen calendar —
        // and its already-built index — by `Arc`).
        pool.set_probe_config(ProbeConfig {
            calendar_cache: false,
            ..ProbeConfig::default()
        });
        let capture_cold = group.bench("cold capture, cache disabled", || {
            pool.snapshot().windows(node).len()
        });
        pool.set_probe_config(ProbeConfig::default());
        // Prime: one capture inserts the frozen calendar, one cold probe
        // builds its index inside the shared calendar.
        let primed = TimetableOverlay::new(pool.snapshot());
        let _ = primed.earliest_fit(node, hard[0], hard_duration, SimTime::MAX);
        let _ = primed.take_index_stats();
        let _ = pool.index_cache().take_stats();
        let capture_warm = group.bench("warm capture, cache hit", || {
            pool.snapshot().windows(node).len()
        });
        let cache_stats = pool.index_cache().take_stats();
        assert!(
            cache_stats.hits >= 1 && cache_stats.misses == 0,
            "warm captures at {n} reservations must all hit the cache \
             (hits {}, misses {})",
            cache_stats.hits,
            cache_stats.misses,
        );
        // A fresh overlay over a warm capture probes without rebuilding:
        // the cached calendar carries its index across generations.
        let warm_capture = TimetableOverlay::new(pool.snapshot());
        let _ = warm_capture.earliest_fit(node, hard[0], hard_duration, SimTime::MAX);
        let warm_stats = warm_capture.take_index_stats();
        assert_eq!(
            warm_stats.builds, 0,
            "warm capture at {n} reservations rebuilt its index"
        );
        assert!(warm_stats.seeks >= 1, "warm probe must use the index");
        warm_capture_hits = cache_stats.hits;
        warm_capture_rebuilds = warm_stats.builds;

        let speedup_hard = linear_hard.speedup_over(&indexed_hard);
        let speedup_typical = linear_typical.speedup_over(&indexed_typical);
        let speedup_capture = capture_cold.speedup_over(&capture_warm);
        println!(
            "  -> hard {speedup_hard:.2}x, typical {speedup_typical:.2}x, \
             warm capture {speedup_capture:.2}x, index built in {index_build:?}\n"
        );
        results.push(SizeResult {
            reservations: n,
            linear_hard_ns: linear_hard.mean.as_nanos(),
            indexed_hard_ns: indexed_hard.mean.as_nanos(),
            linear_typical_ns: linear_typical.mean.as_nanos(),
            indexed_typical_ns: indexed_typical.mean.as_nanos(),
            warm_memo_ns: warm.mean.as_nanos(),
            index_build_ns: index_build.as_nanos(),
            capture_cold_ns: capture_cold.mean.as_nanos(),
            capture_warm_ns: capture_warm.mean.as_nanos(),
            speedup_hard,
            speedup_typical,
            speedup_capture,
        });
    }

    let largest = results.last().expect("at least one size");
    let sizes_json = results
        .iter()
        .map(json_line)
        .collect::<Vec<_>>()
        .join(",\n");
    // Headline keys first, then the per-size records.
    let json = format!(
        concat!(
            "{{\n",
            "  \"probe_index_speedup_cold\": {cold:.3},\n",
            "  \"probe_index_speedup_typical\": {typ:.3},\n",
            "  \"max_reservations\": {max_res},\n",
            "  \"index_cache_warm_speedup\": {cache:.3},\n",
            "  \"index_cache_windows\": {cache_windows},\n",
            "  \"index_cache_warm_rebuilds\": {cache_rebuilds},\n",
            "  \"index_cache_warm_hits\": {cache_hits},\n",
            "  \"bench\": \"probe_scaling\",\n",
            "  \"seed\": {seed},\n",
            "  \"budget_ms\": {budget_ms},\n",
            "  \"probes_per_shape\": {probes},\n",
            "  \"sizes\": [\n{sizes}\n  ]\n",
            "}}\n"
        ),
        cold = largest.speedup_hard,
        typ = largest.speedup_typical,
        max_res = largest.reservations,
        cache = largest.speedup_capture,
        cache_windows = largest.reservations,
        cache_rebuilds = warm_capture_rebuilds,
        cache_hits = warm_capture_hits,
        seed = seed,
        budget_ms = budget_ms,
        probes = probe_count,
        sizes = sizes_json,
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");

    verdict(
        "indexed and linear probes agree on every measured input",
        true, // asserted above, per size and shape
    );
    verdict(
        "gap index beats the linear walk on hard probes at the largest pool",
        largest.speedup_hard >= 1.0,
    );
    if largest.reservations >= 143_000 {
        verdict(
            "hard-probe speedup at >= 143k reservations clears the 5x target",
            largest.speedup_hard >= 5.0,
        );
    }
    verdict(
        "warm capture of the unchanged largest pool had zero index rebuilds",
        warm_capture_rebuilds == 0 && warm_capture_hits >= 1,
    );
    if largest.reservations >= 100_000 {
        verdict(
            "warm capture at >= 100k reservations clears the 10x target",
            largest.speedup_capture >= 10.0,
        );
    }
}
