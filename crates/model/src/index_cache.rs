//! Cross-snapshot cache of per-node window slices and gap indexes.
//!
//! The paper's cyclic scheme re-runs strategy generation every scheduling
//! cycle over a slowly mutating pool, and `Strategy::generate`-per-job
//! online workloads capture one [`AvailabilitySnapshot`] per job — yet
//! before this cache every capture re-copied every node's windows and
//! rebuilt every engaged [`GapIndex`] from scratch, even for nodes whose
//! timetable had not changed since the previous capture. The cache keys
//! one frozen [`NodeCalendar`] (window slice + lazily built index) per
//! node by the timetable's revision tag
//! ([`Timetable::revision`](crate::timetable::Timetable::revision)):
//! equal revision ⇒ equal windows, so a warm capture of an unchanged node
//! is an `Arc` bump — no copy, no rebuild — and only changed nodes pay.
//!
//! Correctness leans entirely on the revision contract (a nonzero
//! revision is assigned exactly once, process-globally; revision 0 only
//! ever tags an empty calendar), which survives wholesale timetable
//! replacement and pool clones. The differential property suite
//! (`crates/model/tests/prop_index_cache.rs`) pins "cache never serves a
//! stale calendar" on random mutate/capture interleavings.
//!
//! Memory is bounded by a byte budget: when resident calendars exceed it,
//! least-recently-used node entries are dropped (never the entry being
//! inserted). Eviction only costs future warm hits — a dropped calendar
//! that is still referenced by a live snapshot stays alive through its
//! `Arc` until that snapshot dies.
//!
//! [`AvailabilitySnapshot`]: crate::availability::AvailabilitySnapshot

use std::sync::{Arc, Mutex, OnceLock};

use crate::gap_index::GapIndex;
use crate::window::TimeWindow;

/// Default byte budget for resident cached calendars: generous enough for
/// the §4 reference scale (64 nodes × ~143k windows ≈ 150 MiB of windows
/// plus trees) while still bounding pathological pools.
pub const DEFAULT_INDEX_CACHE_BUDGET_BYTES: usize = 256 * 1024 * 1024;

/// One node's frozen calendar: the reserved windows captured at one
/// timetable revision, plus the lazily built gap index over them.
///
/// The `OnceLock` gives the same at-most-once build guarantee the
/// per-snapshot locks used to give — but because the calendar is shared
/// *across* snapshots through the cache, a build now amortizes over every
/// capture of the unchanged node, not just one snapshot's lifetime.
#[derive(Debug)]
pub struct NodeCalendar {
    windows: Box<[TimeWindow]>,
    index: OnceLock<GapIndex>,
}

impl NodeCalendar {
    /// Freezes a window slice (sorted by start, pairwise non-overlapping
    /// — the invariant every `Timetable` maintains).
    #[must_use]
    pub fn new(windows: Box<[TimeWindow]>) -> Self {
        NodeCalendar {
            windows,
            index: OnceLock::new(),
        }
    }

    /// The frozen windows, in start order.
    #[must_use]
    pub fn windows(&self) -> &[TimeWindow] {
        &self.windows
    }

    /// The gap index over the frozen windows, building it on first use;
    /// `built` records whether *this call* performed the build (across
    /// all holders at most one call ever observes `true`).
    #[must_use]
    pub fn gap_index_tracked(&self, built: &mut bool) -> &GapIndex {
        self.index.get_or_init(|| {
            *built = true;
            GapIndex::build(&self.windows)
        })
    }

    /// Whether the gap index has already been built.
    #[must_use]
    pub fn index_built(&self) -> bool {
        self.index.get().is_some()
    }

    /// Approximate heap footprint: the window slice plus the gap-index
    /// tree (its eventual size if not yet built — the tree's shape is a
    /// pure function of the window count, so the estimate is exact once
    /// built).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let windows = self.windows.len() * std::mem::size_of::<TimeWindow>();
        let gaps = self.windows.len().saturating_sub(1);
        let tree = if gaps == 0 {
            0
        } else {
            2 * gaps.next_power_of_two() * std::mem::size_of::<u64>()
        };
        windows + tree
    }
}

/// Cache activity since the last drain, destined for the workspace
/// telemetry counters (`index_cache_hits` / `index_cache_evictions`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCacheStats {
    /// Captures of a node answered by a cached calendar (no copy, no
    /// rebuild).
    pub hits: u64,
    /// Captures that found no entry at the node's current revision and
    /// froze a fresh calendar.
    pub misses: u64,
    /// Entries dropped to respect the byte budget.
    pub evictions: u64,
}

#[derive(Debug)]
struct CacheEntry {
    revision: u64,
    calendar: Arc<NodeCalendar>,
    /// Logical clock of the last hit or insert; smallest = LRU victim.
    last_used: u64,
    bytes: usize,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// One slot per node index (dense, grown on demand). At most one
    /// calendar per node: a capture at a new revision replaces the old
    /// entry, which was stale anyway.
    entries: Vec<Option<CacheEntry>>,
    clock: u64,
    resident_bytes: usize,
    stats: IndexCacheStats,
}

/// The pool-wide cross-snapshot calendar cache. Lives inside
/// [`ResourcePool`](crate::node::ResourcePool); `Clone` yields a fresh
/// empty cache (a cloned pool's captures re-warm independently), so the
/// pool's derived `Clone` keeps working unchanged.
#[derive(Debug)]
pub struct IndexCache {
    budget_bytes: usize,
    inner: Mutex<CacheInner>,
}

impl Default for IndexCache {
    fn default() -> Self {
        IndexCache::new()
    }
}

impl Clone for IndexCache {
    fn clone(&self) -> Self {
        IndexCache::with_budget(self.budget_bytes)
    }
}

impl IndexCache {
    /// An empty cache with the default byte budget.
    #[must_use]
    pub fn new() -> Self {
        IndexCache::with_budget(DEFAULT_INDEX_CACHE_BUDGET_BYTES)
    }

    /// An empty cache bounded to `budget_bytes` of resident calendars.
    #[must_use]
    pub fn with_budget(budget_bytes: usize) -> Self {
        IndexCache {
            budget_bytes,
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// The calendar cached for `node` at `revision`, bumping its LRU
    /// stamp; `None` (and a recorded miss) when the node is uncached or
    /// cached at a different revision.
    #[must_use]
    pub fn lookup(&self, node: usize, revision: u64) -> Option<Arc<NodeCalendar>> {
        let mut inner = self.inner.lock().expect("index cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(node).and_then(Option::as_mut) {
            Some(entry) if entry.revision == revision => {
                entry.last_used = clock;
                let calendar = Arc::clone(&entry.calendar);
                inner.stats.hits += 1;
                Some(calendar)
            }
            _ => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Installs `calendar` as the cached capture of `node` at `revision`,
    /// replacing any previous entry for the node, then evicts
    /// least-recently-used entries (never this one) until the byte budget
    /// holds.
    pub fn insert(&self, node: usize, revision: u64, calendar: Arc<NodeCalendar>) {
        let bytes = calendar.approx_bytes();
        let mut inner = self.inner.lock().expect("index cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        if inner.entries.len() <= node {
            inner.entries.resize_with(node + 1, || None);
        }
        if let Some(old) = inner.entries[node].take() {
            inner.resident_bytes -= old.bytes;
        }
        inner.entries[node] = Some(CacheEntry {
            revision,
            calendar,
            last_used: clock,
            bytes,
        });
        inner.resident_bytes += bytes;
        while inner.resident_bytes > self.budget_bytes {
            let victim = inner
                .entries
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.as_ref().map(|e| (e.last_used, i)))
                .filter(|&(_, i)| i != node)
                .min();
            let Some((_, i)) = victim else {
                // Only the just-inserted entry remains; an over-budget
                // singleton stays resident rather than thrashing.
                break;
            };
            let evicted = inner.entries[i].take().expect("victim exists");
            inner.resident_bytes -= evicted.bytes;
            inner.stats.evictions += 1;
        }
    }

    /// Drains (returns and zeroes) the cache activity since the last
    /// drain.
    pub fn take_stats(&self) -> IndexCacheStats {
        let mut inner = self.inner.lock().expect("index cache poisoned");
        std::mem::take(&mut inner.stats)
    }

    /// Bytes of calendars currently resident.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.inner
            .lock()
            .expect("index cache poisoned")
            .resident_bytes
    }

    /// Number of nodes with a resident calendar.
    #[must_use]
    pub fn resident_entries(&self) -> usize {
        self.inner
            .lock()
            .expect("index cache poisoned")
            .entries
            .iter()
            .filter(|e| e.is_some())
            .count()
    }

    /// Drops every entry (stats survive until drained).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("index cache poisoned");
        inner.entries.clear();
        inner.resident_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_sim::time::SimTime;

    fn w(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_ticks(a), SimTime::from_ticks(b)).unwrap()
    }

    fn calendar(windows: &[TimeWindow]) -> Arc<NodeCalendar> {
        Arc::new(NodeCalendar::new(windows.to_vec().into_boxed_slice()))
    }

    #[test]
    fn lookup_hits_only_the_matching_revision() {
        let cache = IndexCache::new();
        assert!(cache.lookup(0, 7).is_none());
        let cal = calendar(&[w(0, 3)]);
        cache.insert(0, 7, Arc::clone(&cal));
        let hit = cache.lookup(0, 7).expect("revision matches");
        assert!(Arc::ptr_eq(&hit, &cal), "hit shares the frozen calendar");
        assert!(cache.lookup(0, 8).is_none(), "newer revision misses");
        assert!(cache.lookup(1, 7).is_none(), "other node misses");
        let stats = cache.take_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 0));
        assert_eq!(cache.take_stats(), IndexCacheStats::default(), "drained");
    }

    #[test]
    fn insert_replaces_the_nodes_previous_entry() {
        let cache = IndexCache::new();
        cache.insert(2, 1, calendar(&[w(0, 3)]));
        cache.insert(2, 5, calendar(&[w(0, 3), w(4, 6)]));
        assert!(cache.lookup(2, 1).is_none(), "stale revision is gone");
        assert!(cache.lookup(2, 5).is_some());
        assert_eq!(cache.resident_entries(), 1);
    }

    #[test]
    fn lru_eviction_respects_the_budget_and_spares_the_insert() {
        // Each calendar: 2 windows = 32 bytes + a 2-leaf tree (32 bytes).
        let one = calendar(&[w(0, 1), w(2, 3)]).approx_bytes();
        let cache = IndexCache::with_budget(2 * one);
        cache.insert(0, 1, calendar(&[w(0, 1), w(2, 3)]));
        cache.insert(1, 2, calendar(&[w(0, 1), w(2, 3)]));
        // Touch node 0 so node 1 becomes the LRU victim.
        assert!(cache.lookup(0, 1).is_some());
        cache.insert(2, 3, calendar(&[w(0, 1), w(2, 3)]));
        assert!(cache.lookup(1, 2).is_none(), "LRU entry evicted");
        assert!(cache.lookup(0, 1).is_some());
        assert!(cache.lookup(2, 3).is_some(), "inserted entry never evicted");
        assert_eq!(cache.take_stats().evictions, 1);
        assert!(cache.resident_bytes() <= 2 * one);
    }

    #[test]
    fn clone_is_a_fresh_cache() {
        let cache = IndexCache::new();
        cache.insert(0, 1, calendar(&[w(0, 1)]));
        let fresh = cache.clone();
        assert_eq!(fresh.resident_entries(), 0);
        assert!(fresh.lookup(0, 1).is_none());
    }

    #[test]
    fn calendar_builds_its_index_once() {
        let cal = calendar(&[w(0, 2), w(5, 7), w(9, 12)]);
        assert!(!cal.index_built());
        let mut built = false;
        let idx = cal.gap_index_tracked(&mut built);
        assert!(built);
        assert_eq!(idx.gap_count(), 2);
        let mut again = false;
        let _ = cal.gap_index_tracked(&mut again);
        assert!(!again, "second call reuses the build");
        assert!(cal.index_built());
    }
}
