//! A small wall-clock timing harness for the `benches/` targets.
//!
//! Replaces the previous Criterion dependency with a self-contained
//! measure-and-print loop: each benchmark warms up, then runs batches until
//! a time budget is exhausted, and reports min/mean per-iteration times.
//! The numbers are indicative, not statistically rigorous — good enough to
//! compare orders of magnitude and catch regressions by eye.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Default measurement budget per benchmark.
pub const DEFAULT_BUDGET: Duration = Duration::from_millis(300);

/// Per-benchmark statistics, also returned to the caller so bins can
/// post-process them (JSON reports).
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Timed iterations (the warm-up call is not counted).
    pub iters: u64,
    /// Mean wall-clock time per iteration.
    pub mean: Duration,
    /// Fastest observed iteration.
    pub min: Duration,
}

/// One benchmark group, printed as an indented block.
pub struct Group {
    name: String,
    budget: Duration,
}

impl Group {
    /// Starts a named group.
    #[must_use]
    pub fn new(name: &str) -> Self {
        println!("group {name}");
        Group {
            name: name.to_owned(),
            budget: DEFAULT_BUDGET,
        }
    }

    /// Overrides the per-benchmark time budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }

    /// Measures `f`, printing and returning per-iteration statistics.
    pub fn bench<R>(&self, label: &str, mut f: impl FnMut() -> R) -> Stats {
        // Warm-up: one untimed call (fills caches, faults pages).
        black_box(f());
        let mut iters: u64 = 0;
        let mut best = Duration::MAX;
        let started = Instant::now();
        while started.elapsed() < self.budget {
            let t0 = Instant::now();
            black_box(f());
            let dt = t0.elapsed();
            best = best.min(dt);
            iters += 1;
        }
        let mean = started.elapsed() / u32::try_from(iters.max(1)).unwrap_or(u32::MAX);
        println!(
            "  {label:<40} {iters:>8} iters   mean {:>12?}   min {:>12?}",
            mean, best
        );
        Stats {
            iters,
            mean,
            min: best,
        }
    }

    /// The group's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_at_least_once() {
        let g = Group::new("test").with_budget(Duration::from_millis(5));
        let counter = std::cell::Cell::new(0u64);
        let stats = g.bench("noop", || counter.set(counter.get() + 1));
        assert!(counter.get() >= 1);
        assert!(stats.iters >= 1);
        assert!(stats.min <= stats.mean || stats.iters == 1);
        assert_eq!(g.name(), "test");
    }
}
