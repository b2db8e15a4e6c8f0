//! Critical-work extraction.
//!
//! §3: the critical works method "is searching for a next critical work —
//! the longest (in terms of estimated execution time) chain of unassigned
//! tasks". A *chain* is a path in the job's information graph; its length
//! is the sum of estimated task durations on the fastest node class plus
//! estimated transfer times along its arcs.

use std::collections::HashSet;

use gridsched_sim::time::SimDuration;

use gridsched_model::ids::TaskId;
use gridsched_model::job::{DataEdge, Job};

/// A critical work: a path of tasks, longest-first order of extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalWork {
    /// Tasks along the path, in precedence order.
    pub tasks: Vec<TaskId>,
    /// Estimated length (execution + transfers) used for ranking.
    pub length: SimDuration,
}

/// Reusable per-task buffers for [`next_critical_work_into`].
///
/// The longest-chain DP needs a `finish` duration and a `pred` back-pointer
/// per task. Allocating them anew for every extraction dominated the
/// allocation profile of a scheduling pass (one extraction per critical
/// work, several works per job, one pass per scenario). A `ChainScratch`
/// keeps both buffers alive across extractions so steady-state planning
/// reuses their capacity instead of round-tripping the allocator.
#[derive(Debug, Default)]
pub struct ChainScratch {
    finish: Vec<SimDuration>,
    pred: Vec<Option<TaskId>>,
}

/// Finds the longest chain among `unassigned` tasks only — the next
/// critical work. Edges are considered only when both endpoints are
/// unassigned.
///
/// Returns `None` when `unassigned` is empty. Ties break deterministically
/// towards smaller task ids.
///
/// Hot paths should prefer [`next_critical_work_into`], which takes a
/// task-indexed membership mask and reuses caller-owned buffers; this
/// wrapper builds the mask and fresh buffers per call and is kept for tests
/// and one-shot callers.
pub fn next_critical_work(
    job: &Job,
    unassigned: &HashSet<TaskId>,
    task_weight: impl FnMut(TaskId) -> SimDuration,
    edge_weight: impl FnMut(&DataEdge) -> SimDuration,
) -> Option<CriticalWork> {
    let mut mask = vec![false; job.task_count()];
    for t in unassigned {
        if let Some(slot) = mask.get_mut(t.index()) {
            *slot = true;
        }
    }
    let mut scratch = ChainScratch::default();
    let mut tasks = Vec::new();
    let length = next_critical_work_into(
        job,
        &mask,
        task_weight,
        edge_weight,
        &mut scratch,
        &mut tasks,
    )?;
    Some(CriticalWork { tasks, length })
}

/// Allocation-free variant of [`next_critical_work`].
///
/// `unassigned[t.index()]` says whether task `t` is still unassigned (the
/// mask has one entry per task of `job`). Fills `tasks` (cleared first)
/// with the chain in precedence order and returns its length, reusing the
/// DP buffers in `scratch`; `None` when no task is unassigned. Produces
/// bit-identical results to the allocating wrapper.
pub fn next_critical_work_into(
    job: &Job,
    unassigned: &[bool],
    mut task_weight: impl FnMut(TaskId) -> SimDuration,
    mut edge_weight: impl FnMut(&DataEdge) -> SimDuration,
    scratch: &mut ChainScratch,
    tasks: &mut Vec<TaskId>,
) -> Option<SimDuration> {
    tasks.clear();
    let n = job.task_count();
    debug_assert_eq!(unassigned.len(), n, "one mask entry per task");
    scratch.finish.clear();
    scratch.finish.resize(n, SimDuration::ZERO);
    scratch.pred.clear();
    scratch.pred.resize(n, None);
    let finish = &mut scratch.finish;
    let pred = &mut scratch.pred;
    let mut best_end: Option<TaskId> = None;
    let mut best_len = SimDuration::ZERO;
    for &t in job.topo_order() {
        if !unassigned[t.index()] {
            continue;
        }
        let mut start = SimDuration::ZERO;
        let mut via = None;
        for e in job.incoming(t) {
            if !unassigned[e.from().index()] {
                continue;
            }
            let candidate = finish[e.from().index()] + edge_weight(e);
            if candidate > start {
                start = candidate;
                via = Some(e.from());
            }
        }
        let f = start + task_weight(t);
        finish[t.index()] = f;
        pred[t.index()] = via;
        let better = match best_end {
            None => true,
            Some(b) => f > best_len || (f == best_len && t < b),
        };
        if better {
            best_len = f;
            best_end = Some(t);
        }
    }
    let end = best_end?;
    tasks.push(end);
    while let Some(p) = pred[tasks.last().expect("non-empty chain").index()] {
        tasks.push(p);
    }
    tasks.reverse();
    Some(best_len)
}

/// Decomposes the whole job into vertex-disjoint critical works, longest
/// first. Every task appears in exactly one work.
pub fn chain_decomposition(
    job: &Job,
    mut task_weight: impl FnMut(TaskId) -> SimDuration,
    mut edge_weight: impl FnMut(&DataEdge) -> SimDuration,
) -> Vec<CriticalWork> {
    let mut unassigned = vec![true; job.task_count()];
    let mut scratch = ChainScratch::default();
    let mut works = Vec::new();
    loop {
        let mut tasks = Vec::new();
        let Some(length) = next_critical_work_into(
            job,
            &unassigned,
            &mut task_weight,
            &mut edge_weight,
            &mut scratch,
            &mut tasks,
        ) else {
            return works;
        };
        for t in &tasks {
            unassigned[t.index()] = false;
        }
        works.push(CriticalWork { tasks, length });
    }
}

/// Enumerates every maximal source→sink path with its length, sorted
/// longest first (ties towards lexicographically smaller task sequences).
///
/// This reproduces the paper's enumeration of "four critical works 12, 11,
/// 10, and 9 time units long" for the Fig. 2 job. Exponential in the worst
/// case; `limit` caps the number of paths explored.
pub fn ranked_maximal_paths(
    job: &Job,
    mut task_weight: impl FnMut(TaskId) -> SimDuration,
    mut edge_weight: impl FnMut(&DataEdge) -> SimDuration,
    limit: usize,
) -> Vec<CriticalWork> {
    let mut out: Vec<CriticalWork> = Vec::new();
    let mut stack: Vec<(Vec<TaskId>, SimDuration)> = job
        .entry_tasks()
        .map(|t| (vec![t], task_weight(t)))
        .collect();
    while let Some((path, len)) = stack.pop() {
        if out.len() >= limit {
            break;
        }
        let last = *path.last().expect("paths are non-empty");
        let mut extended = false;
        for e in job.outgoing(last) {
            extended = true;
            let mut next = path.clone();
            next.push(e.to());
            let next_len = len + edge_weight(e) + task_weight(e.to());
            stack.push((next, next_len));
        }
        if !extended {
            out.push(CriticalWork {
                tasks: path,
                length: len,
            });
        }
    }
    out.sort_by(|a, b| b.length.cmp(&a.length).then_with(|| a.tasks.cmp(&b.tasks)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_model::fixtures::fig2_job;
    use gridsched_model::perf::Perf;

    fn tid(i: u32) -> TaskId {
        TaskId::new(i)
    }

    /// Fig. 2 weights: execution on the fastest node class, one tick per
    /// transfer arc (volume 5 at speed 5).
    fn fig2_weights(
        job: &Job,
    ) -> (
        impl FnMut(TaskId) -> SimDuration + '_,
        impl FnMut(&DataEdge) -> SimDuration,
    ) {
        (
            move |t| job.task(t).duration_on(Perf::FULL),
            |e: &DataEdge| SimDuration::from_ticks((e.volume().units() / 5.0).ceil() as u64),
        )
    }

    #[test]
    fn fig2_ranked_paths_match_paper() {
        let job = fig2_job();
        let (tw, ew) = fig2_weights(&job);
        let paths = ranked_maximal_paths(&job, tw, ew, 100);
        let lengths: Vec<u64> = paths.iter().map(|p| p.length.ticks()).collect();
        // "four critical works 12, 11, 10, and 9 time units long" (§3).
        assert_eq!(lengths, vec![12, 11, 10, 9]);
        // Longest: P1-P2-P4-P6 (0-based: 0,1,3,5).
        assert_eq!(paths[0].tasks, vec![tid(0), tid(1), tid(3), tid(5)]);
        assert_eq!(paths[1].tasks, vec![tid(0), tid(1), tid(4), tid(5)]);
        assert_eq!(paths[2].tasks, vec![tid(0), tid(2), tid(3), tid(5)]);
        assert_eq!(paths[3].tasks, vec![tid(0), tid(2), tid(4), tid(5)]);
    }

    #[test]
    fn fig2_first_critical_work() {
        let job = fig2_job();
        let unassigned: HashSet<TaskId> = job.tasks().iter().map(|t| t.id()).collect();
        let (tw, ew) = fig2_weights(&job);
        let work = next_critical_work(&job, &unassigned, tw, ew).unwrap();
        assert_eq!(work.tasks, vec![tid(0), tid(1), tid(3), tid(5)]);
        assert_eq!(work.length.ticks(), 12);
    }

    #[test]
    fn fig2_decomposition_covers_all_tasks_disjointly() {
        let job = fig2_job();
        let (tw, ew) = fig2_weights(&job);
        let works = chain_decomposition(&job, tw, ew);
        // CW1 = P1,P2,P4,P6; CW2 = P3,P5 (the only unassigned chain left).
        assert_eq!(works.len(), 2);
        assert_eq!(works[0].tasks, vec![tid(0), tid(1), tid(3), tid(5)]);
        assert_eq!(works[1].tasks, vec![tid(2), tid(4)]);
        let mut seen = HashSet::new();
        for w in &works {
            for t in &w.tasks {
                assert!(seen.insert(*t), "task {t} in two works");
            }
        }
        assert_eq!(seen.len(), job.task_count());
    }

    #[test]
    fn decomposition_lengths_are_non_increasing() {
        let job = fig2_job();
        let (tw, ew) = fig2_weights(&job);
        let works = chain_decomposition(&job, tw, ew);
        for pair in works.windows(2) {
            assert!(pair[0].length >= pair[1].length);
        }
    }

    #[test]
    fn chains_are_paths_in_the_dag() {
        let job = fig2_job();
        let (tw, ew) = fig2_weights(&job);
        for work in chain_decomposition(&job, tw, ew) {
            for pair in work.tasks.windows(2) {
                assert!(
                    job.successors(pair[0]).any(|s| s == pair[1]),
                    "{} -> {} is not an edge",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn ranked_paths_respect_the_limit() {
        let job = fig2_job();
        let (tw, ew) = fig2_weights(&job);
        let paths = ranked_maximal_paths(&job, tw, ew, 2);
        assert!(paths.len() <= 2);
        // Whatever survives the cap is still sorted longest-first.
        for pair in paths.windows(2) {
            assert!(pair[0].length >= pair[1].length);
        }
    }

    #[test]
    fn multi_source_multi_sink_graphs_enumerate_all_paths() {
        // Two independent pipelines: A->B and C->D.
        let v = gridsched_model::volume::Volume::new;
        let mut b = gridsched_model::job::JobBuilder::new();
        let a = b.add_task(v(10.0));
        let b2 = b.add_task(v(10.0));
        let c = b.add_task(v(20.0));
        let d = b.add_task(v(20.0));
        b.add_edge(a, b2, v(5.0));
        b.add_edge(c, d, v(5.0));
        let job = b.build(gridsched_model::ids::JobId::new(2)).unwrap();
        let paths = ranked_maximal_paths(
            &job,
            |t| job.task(t).duration_on(Perf::FULL),
            |_| SimDuration::from_ticks(1),
            100,
        );
        assert_eq!(paths.len(), 2);
        // The heavier pipeline (C-D: 2+1+2=5) ranks first.
        assert_eq!(paths[0].tasks, vec![tid(2), tid(3)]);
        assert_eq!(paths[0].length.ticks(), 5);
        // Decomposition covers both pipelines disjointly.
        let works = chain_decomposition(
            &job,
            |t| job.task(t).duration_on(Perf::FULL),
            |_| SimDuration::from_ticks(1),
        );
        assert_eq!(works.len(), 2);
    }

    #[test]
    fn empty_unassigned_returns_none() {
        let job = fig2_job();
        let (tw, ew) = fig2_weights(&job);
        assert!(next_critical_work(&job, &HashSet::new(), tw, ew).is_none());
    }

    #[test]
    fn single_task_job_is_one_work() {
        let mut b = gridsched_model::job::JobBuilder::new();
        b.add_task(gridsched_model::volume::Volume::new(10.0));
        let job = b.build(gridsched_model::ids::JobId::new(1)).unwrap();
        let works = chain_decomposition(
            &job,
            |t| job.task(t).duration_on(Perf::FULL),
            |_| SimDuration::ZERO,
        );
        assert_eq!(works.len(), 1);
        assert_eq!(works[0].tasks, vec![tid(0)]);
    }
}
