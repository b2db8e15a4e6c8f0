//! Reusable planning scratch: a thread-local arena of overlay views and
//! engine buffers.
//!
//! A strategy sweep runs the critical-works engine once per scenario, and
//! a VO campaign runs thousands of sweeps. Before this module, every pass
//! allocated its working set from scratch — two availability overlays, the
//! unassigned/remaining task sets, the critical-work task vectors, the
//! placed-map and the Pareto frontier triple-vector — then dropped it all
//! on exit. A [`Scratch`] arena keeps that working set alive per thread
//! (planning threads are exactly the sweep workers, so one arena per
//! worker) and the engine reuses the buffers' capacity, making the
//! steady-state hot path allocation-free apart from the output
//! [`crate::distribution::Distribution`] itself.
//!
//! Reuse never changes results: every buffer is cleared (or
//! [`gridsched_model::availability::TimetableOverlay::reset_to`]) before
//! use, and the determinism suite pins the scratch path bit-identical to
//! the allocating baselines.

use std::cell::RefCell;
use std::collections::HashMap;

use gridsched_model::availability::{AvailabilitySnapshot, TimetableOverlay};
use gridsched_model::ids::TaskId;

use crate::allocate::AllocScratch;
use crate::chains::{ChainScratch, CriticalWork};
use crate::distribution::Placement;

/// Reusable buffers of one critical-works engine pass.
///
/// All fields are crate-internal; the engine
/// (`crate::method::run_method_chains`) clears each one before use, so a
/// default-constructed value and a recycled one behave identically.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// Tasks not fixed by the caller, indexed by task index.
    pub(crate) unassigned: Vec<bool>,
    /// Working copy of `unassigned` consumed by chain decomposition.
    pub(crate) remaining: Vec<bool>,
    /// The pass's critical works (task vectors recycled via `spare_tasks`).
    pub(crate) works: Vec<CriticalWork>,
    /// Retired task vectors awaiting reuse by the next decomposition.
    pub(crate) spare_tasks: Vec<Vec<TaskId>>,
    /// Longest-chain DP buffers.
    pub(crate) chain: ChainScratch,
    /// Co-allocation DP buffers (pass-invariant tables + Pareto frontiers).
    pub(crate) alloc: AllocScratch,
    /// Placements committed so far in the pass.
    pub(crate) placed: HashMap<TaskId, Placement>,
    /// Phase-1 (ideal, background-only) placements of the current chain.
    pub(crate) ideal: Vec<Placement>,
    /// Phase-2 (collision-resolved) placements of the current chain.
    pub(crate) resolved: Vec<Placement>,
}

/// Cap on retained overlays per thread; a pass needs two, a little slack
/// covers re-entrant planning without hoarding memory.
const MAX_RETAINED_OVERLAYS: usize = 8;

/// A per-thread planning arena: recycled overlay views plus the engine's
/// [`EngineScratch`].
#[derive(Debug, Default)]
pub struct Scratch {
    overlays: Vec<TimetableOverlay>,
    pub(crate) engine: EngineScratch,
}

impl Scratch {
    /// Runs `f` with this thread's arena.
    ///
    /// Re-entrant calls (a planner invoked from inside a planner) get a
    /// fresh throwaway arena instead of panicking on the occupied
    /// thread-local.
    pub fn with<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
        thread_local! {
            static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
        }
        SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => f(&mut scratch),
            Err(_) => f(&mut Scratch::default()),
        })
    }

    /// An overlay over `base`: recycled (rebased via
    /// [`TimetableOverlay::reset_to`]) when one is cached, fresh otherwise.
    pub(crate) fn take_overlay(&mut self, base: &AvailabilitySnapshot) -> TimetableOverlay {
        match self.overlays.pop() {
            Some(mut overlay) => {
                overlay.reset_to(base.clone());
                overlay
            }
            None => TimetableOverlay::new(base.clone()),
        }
    }

    /// Returns an overlay to the arena for later reuse.
    pub(crate) fn recycle_overlay(&mut self, overlay: TimetableOverlay) {
        if self.overlays.len() < MAX_RETAINED_OVERLAYS {
            self.overlays.push(overlay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_model::ids::{DomainId, NodeId};
    use gridsched_model::node::ResourcePool;
    use gridsched_model::perf::Perf;
    use gridsched_model::window::TimeWindow;
    use gridsched_sim::time::SimTime;

    fn snapshot() -> AvailabilitySnapshot {
        let mut pool = ResourcePool::new();
        pool.add_node(DomainId::new(0), Perf::FULL);
        pool.add_node(DomainId::new(0), Perf::FULL);
        pool.snapshot()
    }

    #[test]
    fn recycled_overlays_forget_previous_tentative_state() {
        let snap = snapshot();
        let node = NodeId::new(0);
        let w = TimeWindow::new(SimTime::ZERO, SimTime::from_ticks(5)).unwrap();
        Scratch::with(|scratch| {
            let mut a = scratch.take_overlay(&snap);
            a.reserve_window(node, w).unwrap();
            assert!(!a.is_free(node, w));
            scratch.recycle_overlay(a);
            let b = scratch.take_overlay(&snap);
            assert!(b.is_free(node, w), "recycled overlay must start clean");
            scratch.recycle_overlay(b);
        });
    }

    #[test]
    fn reentrant_with_does_not_panic() {
        let outer = Scratch::with(|_| Scratch::with(|_| 42));
        assert_eq!(outer, 42);
    }

    #[test]
    fn overlay_retention_is_bounded() {
        let snap = snapshot();
        Scratch::with(|scratch| {
            let taken: Vec<_> = (0..20).map(|_| scratch.take_overlay(&snap)).collect();
            for overlay in taken {
                scratch.recycle_overlay(overlay);
            }
            assert!(scratch.overlays.len() <= MAX_RETAINED_OVERLAYS);
        });
    }
}
