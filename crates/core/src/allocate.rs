//! Dynamic-programming co-allocation of one critical work.
//!
//! §2: "The strategy is built by using methods of dynamic programming in a
//! way that allows optimizing scheduling and resource allocation for a set
//! of tasks". For one critical work (a chain of tasks) we run a Pareto
//! dynamic program over `(chain position, candidate node)`:
//! each state keeps the non-dominated `(finish time, accumulated cost)`
//! frontier, so the final choice can minimize the paper's cost function
//! `CF` subject to the job's deadline.
//!
//! Constraints honoured per task:
//!
//! - node availability windows (the local timetables' free slots);
//! - precedence against *already placed* tasks: placed producers set the
//!   earliest start and the input-staging stall, placed consumers bound the
//!   latest finish (minus the transfer back);
//! - the job deadline, tightened by an optimistic estimate of the work
//!   remaining downstream of each task.

use std::collections::HashMap;
use std::fmt;

use gridsched_sim::time::{SimDuration, SimTime};

use gridsched_data::policy::{ArcTimes, DataPolicy};
use gridsched_model::availability::TimetableOverlay;
use gridsched_model::estimate::EstimateScenario;
use gridsched_model::ids::{NodeId, TaskId};
use gridsched_model::job::Job;
use gridsched_model::node::ResourcePool;
use gridsched_model::window::TimeWindow;

use crate::cost::{task_cost, Cost};
use crate::distribution::Placement;
use crate::objective::Objective;

/// Shared inputs of one scheduling run.
#[derive(Debug)]
pub struct AllocationContext<'a> {
    /// The compound job being scheduled.
    pub job: &'a Job,
    /// The virtual organization's nodes.
    pub pool: &'a ResourcePool,
    /// Data-access policy (decides staging delays).
    pub policy: &'a DataPolicy,
    /// Estimation scenario (duration multiplier).
    pub scenario: EstimateScenario,
    /// Earliest instant any task may start.
    pub release: SimTime,
    /// Absolute completion deadline.
    pub deadline: SimTime,
    /// Restrict placement to one domain's nodes (Fig. 1: a job manager
    /// controls a single domain). `None` allocates VO-wide.
    pub domain: Option<gridsched_model::ids::DomainId>,
    /// Optimization criterion for picking among Pareto-optimal schedules.
    pub objective: crate::objective::Objective,
}

impl AllocationContext<'_> {
    /// Optimistic remaining work downstream of each task: longest path of
    /// scenario-scaled durations on the fastest node class, zero transfer.
    /// Used to tighten per-task finish bounds under the job deadline.
    ///
    /// Hot paths should prefer [`Self::remaining_optimistic_into`] (or the
    /// [`AllocScratch`] pass machinery, which computes this once per pass);
    /// this wrapper allocates a fresh vector per call and is kept for tests
    /// and one-shot callers.
    #[must_use]
    pub fn remaining_optimistic(&self) -> Vec<SimDuration> {
        let mut rem = Vec::new();
        self.remaining_optimistic_into(&mut rem);
        rem
    }

    /// Allocation-free variant of [`Self::remaining_optimistic`]: fills
    /// `rem` (cleared first) in place, reusing its capacity.
    pub fn remaining_optimistic_into(&self, rem: &mut Vec<SimDuration>) {
        let fastest = self.pool.fastest_perf();
        let n = self.job.task_count();
        rem.clear();
        rem.resize(n, SimDuration::ZERO);
        for &t in self.job.topo_order().iter().rev() {
            let mut best = SimDuration::ZERO;
            for e in self.job.outgoing(t) {
                let succ = e.to();
                let candidate =
                    self.scenario.duration(self.job.task(succ), fastest) + rem[succ.index()];
                if candidate > best {
                    best = candidate;
                }
            }
            rem[t.index()] = best;
        }
    }
}

/// Failure to allocate a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocateError {
    /// The first task for which no feasible placement exists.
    pub task: TaskId,
}

impl fmt::Display for AllocateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no feasible placement for task {}", self.task)
    }
}

impl std::error::Error for AllocateError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct State {
    start: SimTime,
    finish: SimTime,
    stall: SimDuration,
    cost: Cost,
    /// `(node index at previous position, state index in its frontier)`.
    parent: Option<(usize, usize)>,
}

/// Per-class constants and fits of one DP step (rules 1 and 11 in
/// DESIGN §4): the input stall, reserved wall time and step cost shared
/// by every predecessor of one class, and what the class's fits so far
/// say about the fits still to come. The cost is filled when a first
/// state of the class gets past the finish-bound test.
///
/// Every fit of one class is on the same node, with the same wall time
/// and finish bound, so they differ only in their ready time, in which
/// `earliest_fit` is monotone: `None` from `r` means `None` from every
/// later ready, and a start `s` from `r` is the start from every ready
/// in `[r, s]`.
#[derive(Debug, Clone, Copy)]
struct ClassStep {
    stall: SimDuration,
    dur: SimDuration,
    cost: Option<Cost>,
    /// The up-front fit at the class's least ready time.
    base: BaseFit,
    /// The least ready time a fit of the class failed from (`MAX`:
    /// none has): every fit from it on fails.
    fail_at: SimTime,
    /// `(ready, start)` of the class's last fit that succeeded.
    last: Option<(SimTime, SimTime)>,
}

/// The up-front fit of a [`ClassStep`] (rule 11).
#[derive(Debug, Clone, Copy)]
enum BaseFit {
    /// Not made: fewer than two of the class's predecessor nodes are
    /// occupied, so the first state's own fit is as good.
    Skipped,
    /// To be made at this ready time, the least of the class, before
    /// the class's first fit.
    Pending(SimTime),
    /// Made, and found this start: it answers every ready of the class
    /// up to it.
    Fits(SimTime),
}

impl ClassStep {
    fn new(stall: SimDuration, exec: SimDuration, least_ready: Option<SimTime>) -> Self {
        ClassStep {
            stall,
            dur: stall + exec,
            cost: None,
            base: least_ready.map_or(BaseFit::Skipped, BaseFit::Pending),
            fail_at: SimTime::MAX,
            last: None,
        }
    }

    /// The start of this class's fit on `node` from `ready`, answered
    /// from the class's earlier fits where they decide it (rule 11).
    fn fit(
        &mut self,
        availability: &TimetableOverlay,
        node: NodeId,
        ready: SimTime,
        finish_bound: SimTime,
    ) -> Option<SimTime> {
        if ready >= self.fail_at {
            return None;
        }
        if let BaseFit::Pending(least) = self.base {
            debug_assert!(least <= ready, "no ready of the class is below its least");
            match availability.earliest_fit(node, least, self.dur, finish_bound) {
                Some(start) => self.base = BaseFit::Fits(start),
                None => {
                    self.base = BaseFit::Skipped;
                    self.fail_at = least;
                    return None;
                }
            }
        }
        if let BaseFit::Fits(start) = self.base {
            if ready <= start {
                return Some(start);
            }
        }
        if let Some((from, start)) = self.last {
            if from <= ready && ready <= start {
                return Some(start);
            }
        }
        let start = availability.earliest_fit(node, ready, self.dur, finish_bound);
        match start {
            Some(start) => self.last = Some((ready, start)),
            None => self.fail_at = ready,
        }
        start
    }
}

/// What placed neighbours impose on one `(task, node)`, whatever the DP
/// predecessor state.
#[derive(Debug, Clone, Copy)]
struct NodeStep {
    /// The task's scenario-scaled execution time on the node.
    exec: SimDuration,
    /// Earliest start: the release, or the end of a placed producer.
    ready: SimTime,
    /// Input-staging stall from placed producers.
    stall: SimDuration,
    /// Latest finish: the deadline less the optimistic remaining work, or
    /// a placed consumer's start less the transfer to it.
    finish_bound: SimTime,
}

/// A placed neighbour of the task being stepped: the instant it bounds
/// (a producer's end, a consumer's start), its node and the arc's
/// transfer times.
#[derive(Debug, Clone, Copy)]
struct Neighbour {
    at: SimTime,
    node: NodeId,
    arc: ArcTimes,
}

/// One chain position of the Pareto DP.
#[derive(Debug, Default)]
struct Level {
    /// `states[node index]` -> Pareto states.
    states: Vec<Vec<State>>,
    /// The node indices whose frontier is non-empty, ascending (rule 6 in
    /// DESIGN §4).
    occupied: Vec<usize>,
}

/// One domain's nodes in a DP level (rule 11): how many are occupied,
/// and the two least first finishes of their frontiers with the node
/// indices they belong to.
#[derive(Debug, Clone, Copy, Default)]
struct DomainFirsts {
    occupied: usize,
    top: [Option<(SimTime, usize)>; 2],
}

/// A pass-1 fit candidate: `ready + dur`, the least finish any fit from
/// it can reach, then the fit's ready time and wall time.
type Candidate = (SimTime, SimTime, SimDuration);

/// A fit candidate of the incumbent dive: `ready + dur`, the node index,
/// the fit's ready time, wall time and finish bound.
type DiveCandidate = (SimTime, usize, SimTime, SimDuration, SimTime);

/// Reusable buffers for the co-allocation dynamic program.
///
/// One scheduling pass allocates several chains against the same
/// [`AllocationContext`]; the downstream-slack table (`rem`), the node
/// list, each node's domain class and each job arc's transfer times are
/// invariant across those chains. An `AllocScratch` computes the
/// invariants once per pass ([`Self::begin_pass`]) and recycles the
/// frontier levels across chains so steady-state planning performs no
/// per-chain heap allocation.
#[derive(Debug, Default)]
pub struct AllocScratch {
    rem: Vec<SimDuration>,
    nodes: Vec<NodeId>,
    /// `node_class[node index]` = the position of the node's domain in
    /// the pool's domain registry.
    node_class: Vec<usize>,
    /// `arcs[edge index]`: the transfer times of each job arc (rule 5 in
    /// DESIGN §4).
    arcs: Vec<ArcTimes>,
    /// `steps[position * nodes + node index]`: the chain's placed-neighbour
    /// constraints, `None` where the DP does not consider the node (rule
    /// 5). Both passes read it.
    steps: Vec<Option<NodeStep>>,
    /// The placed producers and consumers of the task being stepped.
    producers: Vec<Neighbour>,
    consumers: Vec<Neighbour>,
    /// Lazily filled per-class step constants of the current
    /// `(position, node)`: one slot per domain, then one for the node
    /// itself.
    classes: Vec<Option<ClassStep>>,
    /// `levels[position]`. Levels beyond the current chain length are
    /// stale leftovers from longer chains and are ignored.
    levels: Vec<Level>,
    /// Earliest-finish pass (rule 4 in DESIGN §4):
    /// `earliest[position * nodes + node index]` is the earliest finish of
    /// any state there (`None`: no state).
    earliest: Vec<Option<SimTime>>,
    /// Per domain, the two earliest previous-position finishes and the
    /// node indices they belong to (the second stands in for the domain
    /// when the first is the target node itself).
    domain_earliest: Vec<[Option<(SimTime, usize)>; 2]>,
    /// Per domain, the previous level's occupied nodes and their least
    /// frontier-first finishes, for the class fits of both DP passes
    /// (rule 11).
    domain_firsts: Vec<DomainFirsts>,
    /// The fit candidates of one earliest-finish `(position, node)`, at
    /// most one per domain plus the node itself (rule 7).
    candidates: Vec<Candidate>,
    /// `tail[position]`: `S(position)`, the least execution time of the
    /// chain after `position`.
    tail: Vec<SimDuration>,
    /// The fit candidates of one incumbent-dive position, one per node
    /// (rule 10).
    dive: Vec<DiveCandidate>,
    /// Cost-to-go bound (rule 9 in DESIGN §4):
    /// `ctg[position * nodes + node index]` is the least cost of the chain
    /// after `position` from that node, availability windows ignored
    /// (`None`: the DP does not consider the node there, or no node
    /// continues the chain from it).
    ctg: Vec<Option<Cost>>,
    /// Per domain, the two least `step cost + ctg` over the next
    /// position's nodes for a predecessor in that domain, and the node
    /// indices they belong to (the second stands in when the first is the
    /// predecessor itself).
    domain_cheapest: Vec<[Option<(Cost, usize)>; 2]>,
    /// Per domain, its first two node indices: one of them other than the
    /// target stands for every predecessor node of the domain (rule 1).
    domain_reps: Vec<[Option<usize>; 2]>,
    /// `C_lb` of the prepared `MinCost` chain (rule 9).
    cost_lb: Option<Cost>,
    /// The DP's work tallies since the last drain.
    stats: AllocStats,
}

/// Work tallies of the co-allocation DP, drained per planning-session
/// run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AllocStats {
    /// `MinCost` chain allocations the cost-to-go bound (rule 9 in
    /// DESIGN §4) decided on its own.
    pub(crate) cost_bound_held: u64,
    /// `MinCost` chain allocations where the unbounded Pareto pass ran
    /// after the bounded one. Held plus fallbacks is the number of
    /// `MinCost` chain allocations.
    pub(crate) cost_bound_fallbacks: u64,
    /// `FASTEST` chain allocations whose incumbent dive completed, so the
    /// earliest-finish pass ran capped (rule 10).
    pub(crate) fastest_capped: u64,
    /// `FASTEST` chain allocations whose dive failed, so the
    /// earliest-finish pass ran uncapped. Capped plus uncapped is the
    /// number of `FASTEST` chain allocations.
    pub(crate) fastest_uncapped: u64,
    /// `earliest_fit` calls made by the earliest-finish pass (rule 4),
    /// the dive's own not included.
    pub(crate) first_pass_fits: u64,
}

impl AllocScratch {
    /// Prepares the pass-invariant tables (`rem`, `nodes`, domain
    /// classes and their representatives, arc transfer times) for `ctx`.
    ///
    /// Must be called once before the first [`allocate_chain_into`] of a
    /// pass and again whenever the context changes (different scenario,
    /// deadline, pool, ...).
    pub fn begin_pass(&mut self, ctx: &AllocationContext<'_>) {
        ctx.remaining_optimistic_into(&mut self.rem);
        self.nodes.clear();
        self.nodes.extend(ctx.pool.nodes().map(|n| n.id()));
        let domains = ctx.pool.domain_registry();
        self.node_class.clear();
        self.node_class.extend(ctx.pool.nodes().map(|n| {
            domains
                .binary_search(&n.domain())
                .expect("every node's domain is registered")
        }));
        self.arcs.clear();
        self.arcs.extend(
            ctx.job
                .edges()
                .iter()
                .map(|e| ctx.policy.arc_times(e.volume())),
        );
        self.classes.clear();
        self.classes.resize(domains.len() + 1, None);
        self.domain_earliest.clear();
        self.domain_earliest.resize(domains.len(), [None; 2]);
        self.domain_firsts.clear();
        self.domain_firsts
            .resize(domains.len(), DomainFirsts::default());
        self.domain_cheapest.clear();
        self.domain_cheapest.resize(domains.len(), [None; 2]);
        self.domain_reps.clear();
        self.domain_reps.resize(domains.len(), [None; 2]);
        for (ni, &class) in self.node_class.iter().enumerate() {
            let reps = &mut self.domain_reps[class];
            if let Some(slot) = reps.iter_mut().find(|r| r.is_none()) {
                *slot = Some(ni);
            }
        }
        self.candidates.clear();
        self.candidates.reserve(domains.len() + 1);
    }

    /// Fills the availability-free tables of `chain` under `placed`: the
    /// step table, then `tail` for [`Objective::FASTEST`] or `ctg` and
    /// `C_lb` for [`Objective::MinCost`]. They stay valid for every
    /// [`allocate_prepared`] of the same chain and placed map, whatever
    /// the availability.
    pub(crate) fn prepare_chain(
        &mut self,
        ctx: &AllocationContext<'_>,
        chain: &[TaskId],
        placed: &HashMap<TaskId, Placement>,
    ) {
        assert!(!chain.is_empty(), "cannot allocate an empty chain");
        self.fill_steps(ctx, chain, placed);
        match ctx.objective {
            Objective::MinCost => self.cost_lb = self.fill_cost_to_go(ctx, chain),
            Objective::FASTEST => self.fill_tail(chain.len()),
            Objective::MinTime { budget: Some(_) } => {}
        }
    }

    /// Fills `steps` for `chain`: one [`NodeStep`] per `(position, node)`,
    /// with each placed neighbour looked up once per position.
    fn fill_steps(
        &mut self,
        ctx: &AllocationContext<'_>,
        chain: &[TaskId],
        placed: &HashMap<TaskId, Placement>,
    ) {
        let AllocScratch {
            rem,
            nodes,
            arcs,
            steps,
            producers,
            consumers,
            ..
        } = self;
        let edges = ctx.job.edges();
        steps.clear();
        for &task_id in chain {
            let task = ctx.job.task(task_id);
            producers.clear();
            for &ei in ctx.job.incoming_indices(task_id) {
                if let Some(p) = placed.get(&edges[ei].from()) {
                    producers.push(Neighbour {
                        at: p.window.end(),
                        node: p.node,
                        arc: arcs[ei],
                    });
                }
            }
            consumers.clear();
            for &ei in ctx.job.outgoing_indices(task_id) {
                if let Some(p) = placed.get(&edges[ei].to()) {
                    consumers.push(Neighbour {
                        at: p.window.start(),
                        node: p.node,
                        arc: arcs[ei],
                    });
                }
            }
            let deadline_bound = saturating_deadline(ctx.deadline, rem[task_id.index()]);
            steps.extend(nodes.iter().map(|&node_id| {
                let node = ctx.pool.node(node_id);
                if ctx.domain.is_some_and(|domain| node.domain() != domain)
                    || !task.runs_on(node.perf())
                {
                    return None;
                }
                let mut ready = ctx.release;
                let mut stall = SimDuration::ZERO;
                for p in producers.iter() {
                    ready = ready.max_of(p.at);
                    stall = stall.max(ctx.policy.delay_from(p.arc, p.node, node_id, ctx.pool));
                }
                let mut finish_bound = deadline_bound;
                for c in consumers.iter() {
                    let d = ctx.policy.delay_from(c.arc, node_id, c.node, ctx.pool);
                    finish_bound = finish_bound.min(saturating_deadline(c.at, d));
                }
                Some(NodeStep {
                    exec: ctx.scenario.duration(task, node.perf()),
                    ready,
                    stall,
                    finish_bound,
                })
            }));
        }
    }

    /// Rule 9 (DESIGN §4): fills `ctg` for `chain` from the step table and
    /// returns `C_lb`, the least cost of the whole chain with availability
    /// windows and finish bounds ignored (`None`: no sequence of
    /// considered nodes spans the chain).
    ///
    /// A step is charged what the Pareto pass charges it:
    /// `task_cost(V, max(placed stall, chain stall) + exec)`. The chain
    /// stall depends on the predecessor only through its class (rule 1),
    /// so each domain's cheapest continuation is found once per position
    /// from a per-domain top two, and a node takes the better of staying
    /// put and its domain's cheapest other node.
    fn fill_cost_to_go(&mut self, ctx: &AllocationContext<'_>, chain: &[TaskId]) -> Option<Cost> {
        let AllocScratch {
            nodes,
            node_class,
            arcs,
            steps,
            ctg,
            domain_cheapest,
            domain_reps,
            ..
        } = self;
        let n = nodes.len();
        let step_cost = |task: TaskId, step: NodeStep, stall: SimDuration| {
            task_cost(
                ctx.job.task(task).volume(),
                step.stall.max(stall) + step.exec,
            )
        };
        ctg.clear();
        ctg.resize(chain.len() * n, None);
        let last = (chain.len() - 1) * n;
        for (rest, step) in ctg[last..].iter_mut().zip(&steps[last..]) {
            if step.is_some() {
                *rest = Some(0);
            }
        }
        for pos in (0..chain.len() - 1).rev() {
            let next_task = chain[pos + 1];
            let arc = chain_arc(ctx.job, arcs, chain[pos], next_task);
            let (here, next) = ctg[pos * n..].split_at_mut(n);
            let next = &next[..n];
            let next_steps = &steps[(pos + 1) * n..][..n];
            domain_cheapest.fill([None; 2]);
            for (nj, (&step, &rest)) in next_steps.iter().zip(next).enumerate() {
                let (Some(step), Some(rest)) = (step, rest) else {
                    continue;
                };
                for (top, reps) in domain_cheapest.iter_mut().zip(domain_reps.iter()) {
                    let Some(rep) = reps.iter().flatten().copied().find(|&r| r != nj) else {
                        // The domain has no node but `nj`: no predecessor
                        // of it moves to `nj`.
                        continue;
                    };
                    let chain_stall = ctx.policy.delay_from(arc, nodes[rep], nodes[nj], ctx.pool);
                    push_top_two(top, step_cost(next_task, step, chain_stall) + rest, nj);
                }
            }
            let row = &steps[pos * n..][..n];
            for (ni, rest) in here.iter_mut().enumerate() {
                if row[ni].is_none() {
                    continue;
                }
                // Staying on the node pays no chain stall.
                let stay = next_steps[ni]
                    .zip(next[ni])
                    .map(|(step, rest)| step_cost(next_task, step, SimDuration::ZERO) + rest);
                let moved = other_than(&domain_cheapest[node_class[ni]], ni).map(|(c, _)| c);
                *rest = match (stay, moved) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
        }
        steps[..n]
            .iter()
            .zip(&ctg[..n])
            .filter_map(|(&step, &rest)| {
                Some(step_cost(chain[0], step?, SimDuration::ZERO) + rest?)
            })
            .min()
    }

    /// Fills `tail[pos]` with `S(pos)`, the least execution time of the
    /// tasks after `pos` over the nodes the DP considers for them.
    fn fill_tail(&mut self, len: usize) {
        let n = self.nodes.len();
        self.tail.clear();
        self.tail.resize(len, SimDuration::ZERO);
        let mut after = SimDuration::ZERO;
        for pos in (0..len).rev() {
            self.tail[pos] = after;
            // A position no node can run empties its level in both passes
            // and in the dive, so no tail before it is read.
            after += self.steps[pos * n..][..n]
                .iter()
                .flatten()
                .map(|step| step.exec)
                .min()
                .unwrap_or(SimDuration::ZERO);
        }
    }

    /// Drains the DP's work tallies.
    pub(crate) fn take_stats(&mut self) -> AllocStats {
        std::mem::take(&mut self.stats)
    }
}

/// Allocates `chain` onto `availability` (a planning-session
/// [`TimetableOverlay`]), minimizing accumulated cost subject to the
/// deadline.
///
/// `placed` holds placements committed by earlier critical works of the
/// same job; their times constrain this chain.
///
/// # Errors
///
/// Returns [`AllocateError`] naming the first chain task that cannot be
/// placed feasibly.
///
/// # Panics
///
/// Panics if `chain` is empty or `availability.node_count() != pool.len()`.
///
/// Hot paths should prefer [`allocate_chain_into`], which reuses a
/// caller-owned [`AllocScratch`] and output vector; this wrapper allocates
/// fresh ones per call and is kept for tests and one-shot callers.
pub fn allocate_chain(
    ctx: &AllocationContext<'_>,
    chain: &[TaskId],
    placed: &HashMap<TaskId, Placement>,
    availability: &TimetableOverlay,
) -> Result<Vec<Placement>, AllocateError> {
    let mut scratch = AllocScratch::default();
    scratch.begin_pass(ctx);
    let mut out = Vec::new();
    allocate_chain_into(ctx, chain, placed, availability, &mut scratch, &mut out)?;
    Ok(out)
}

/// Allocation-free variant of [`allocate_chain`].
///
/// Fills `out` (cleared first) with the chain's placements, reusing the DP
/// buffers in `scratch`. [`AllocScratch::begin_pass`] must have been called
/// for this `ctx` beforehand. Produces bit-identical results to the
/// allocating wrapper.
///
/// Under [`Objective::FASTEST`] a cheap earliest-finish pass first fixes
/// the chain's earliest final finish `F*`, and the Pareto pass then keeps
/// only states that can still reach it (rule 4 in DESIGN §4); a one-path
/// dive caps that first pass by a finish the chain can reach (rule 10).
/// Under [`Objective::MinCost`] the Pareto pass first runs with every
/// state that cannot reach the availability-free least chain cost `C_lb`
/// left out, and runs again unbounded only when that leaves the last
/// position empty (rule 9). The placements and errors are those of the
/// unbounded Pareto pass alone.
///
/// # Errors
///
/// Returns [`AllocateError`] naming the first chain task that cannot be
/// placed feasibly.
///
/// # Panics
///
/// Panics if `chain` is empty or `availability.node_count() != pool.len()`.
pub fn allocate_chain_into(
    ctx: &AllocationContext<'_>,
    chain: &[TaskId],
    placed: &HashMap<TaskId, Placement>,
    availability: &TimetableOverlay,
    scratch: &mut AllocScratch,
    out: &mut Vec<Placement>,
) -> Result<(), AllocateError> {
    scratch.prepare_chain(ctx, chain, placed);
    allocate_prepared(ctx, chain, availability, scratch, out)
}

/// [`allocate_chain_into`] on the tables [`AllocScratch::prepare_chain`]
/// filled for this `ctx`, `chain` and placed map: phase 2 of the
/// critical-works method re-allocates a collided chain against another
/// availability view without refilling them.
pub(crate) fn allocate_prepared(
    ctx: &AllocationContext<'_>,
    chain: &[TaskId],
    availability: &TimetableOverlay,
    scratch: &mut AllocScratch,
    out: &mut Vec<Placement>,
) -> Result<(), AllocateError> {
    assert_eq!(
        availability.node_count(),
        ctx.pool.len(),
        "availability view must cover every node"
    );
    out.clear();
    match ctx.objective {
        Objective::MinCost => {
            let held = scratch
                .cost_lb
                .is_some_and(|bound| tight_pass(ctx, chain, availability, scratch, bound).is_ok());
            if held {
                scratch.stats.cost_bound_held += 1;
            } else {
                scratch.stats.cost_bound_fallbacks += 1;
                pareto_pass(ctx, chain, availability, scratch, None)?;
            }
        }
        Objective::FASTEST => {
            let cap = incumbent_dive(ctx, chain, availability, scratch);
            if cap.is_some() {
                scratch.stats.fastest_capped += 1;
            } else {
                scratch.stats.fastest_uncapped += 1;
            }
            let fastest_finish = earliest_finish_pass(ctx, chain, availability, scratch, cap)?;
            pareto_pass(ctx, chain, availability, scratch, Some(fastest_finish))?;
        }
        Objective::MinTime { budget: Some(_) } => {
            pareto_pass(ctx, chain, availability, scratch, None)?;
        }
    }
    pick_into(ctx, chain, scratch, out);
    Ok(())
}

/// The Pareto DP over `chain`, filling `scratch.levels`.
///
/// With `fastest_finish` (`F*` of the earliest-finish pass) every finish
/// bound at position `k` is tightened to `F* - S(k)` (rule 4). Each fit
/// goes through its predecessor class's [`ClassStep::fit`] (rule 11).
///
/// # Errors
///
/// Names the task of the first position left with no state.
fn pareto_pass(
    ctx: &AllocationContext<'_>,
    chain: &[TaskId],
    availability: &TimetableOverlay,
    scratch: &mut AllocScratch,
    fastest_finish: Option<SimTime>,
) -> Result<(), AllocateError> {
    let AllocScratch {
        nodes,
        node_class,
        arcs,
        steps,
        earliest,
        domain_firsts,
        classes,
        levels,
        tail,
        ..
    } = scratch;
    let nodes: &[NodeId] = nodes;
    let n = nodes.len();
    let self_class = classes.len() - 1;
    recycle_levels(levels, chain.len(), n);
    for (pos, &task_id) in chain.iter().enumerate() {
        let task = ctx.job.task(task_id);
        // Split so the previous level stays readable while this one fills.
        let (done, rest) = levels.split_at_mut(pos);
        let level = &mut rest[0];
        // The previous level and the transfer times of the arc connecting
        // the previous chain element to this one.
        let chain_step = done
            .last()
            .map(|prev| (prev, chain_arc(ctx.job, arcs, chain[pos - 1], task_id)));
        if let Some((prev, _)) = chain_step {
            fill_domain_firsts(prev, node_class, domain_firsts);
        }
        // A state finishing after `F* - S(pos)` cannot be on the path to
        // `F*`: the tasks after it need at least `S(pos)`.
        let reach_bound = fastest_finish.map(|f| saturating_deadline(f, tail[pos]));
        let row = &steps[pos * n..][..n];
        for (ni, &node_id) in nodes.iter().enumerate() {
            if let Some(bound) = reach_bound {
                // No state here finishes before the first pass's earliest
                // finish, so none would survive the bound (rule 6).
                if earliest[pos * n + ni].is_none_or(|e| e > bound) {
                    continue;
                }
            }
            let Some(NodeStep {
                exec,
                ready: ready_placed,
                stall: stall_placed,
                finish_bound,
            }) = row[ni]
            else {
                continue;
            };
            let finish_bound = reach_bound.map_or(finish_bound, |b| finish_bound.min(b));
            let frontier = &mut level.states[ni];
            let Some((prev, arc)) = chain_step else {
                let dur = stall_placed + exec;
                if let Some(state) = fit_state(
                    availability,
                    node_id,
                    ready_placed,
                    dur,
                    stall_placed,
                    finish_bound,
                    task_cost(task.volume(), dur),
                    None,
                ) {
                    frontier.push(state);
                }
                continue;
            };
            // The chain stall depends on the predecessor's node only
            // through "same node" and its domain (`consumer_delay`'s
            // documented invariant), so each class's step is computed
            // once, from its first predecessor.
            classes.fill(None);
            for &pni in &prev.occupied {
                let class = if pni == ni {
                    self_class
                } else {
                    node_class[pni]
                };
                let step = classes[class].get_or_insert_with(|| {
                    let chain_stall = ctx.policy.delay_from(arc, nodes[pni], node_id, ctx.pool);
                    ClassStep::new(
                        stall_placed.max(chain_stall),
                        exec,
                        least_ready(domain_firsts, prev, node_class, class, ni, ready_placed),
                    )
                });
                for (si, prev_state) in prev.states[pni].iter().enumerate() {
                    let ready = ready_placed.max_of(prev_state.finish);
                    // No fit finishes before `earliest_finish` (`dur` is
                    // positive: execution takes at least one tick).
                    let earliest_finish = ready.saturating_add(step.dur);
                    if earliest_finish > finish_bound {
                        // The fit would fail, and so would every later
                        // state: they are sorted by finish.
                        break;
                    }
                    let step_cost = *step
                        .cost
                        .get_or_insert_with(|| task_cost(task.volume(), step.dur));
                    let cost = prev_state.cost + step_cost;
                    if covered(frontier, earliest_finish, cost) {
                        // Whatever the fit returned, a kept state would
                        // dominate it.
                        continue;
                    }
                    let Some(start) = step.fit(availability, node_id, ready, finish_bound) else {
                        // Every later state is ready no earlier, so its
                        // fit fails too.
                        break;
                    };
                    insert_pareto(
                        frontier,
                        State {
                            start,
                            finish: start + step.dur,
                            stall: step.stall,
                            cost,
                            parent: Some((pni, si)),
                        },
                    );
                }
            }
        }
        close_level(level, task_id)?;
    }
    Ok(())
}

/// Rule 9 (DESIGN §4), the cost-bounded pass of a [`Objective::MinCost`]
/// chain: the DP over `chain` with every state that cannot reach `C_lb`
/// (`cost_lb`) left out, filling `scratch.levels`.
///
/// Every prefix the DP builds at `(pos, node)` has `cost + ctg ≥ C_lb`
/// (`ctg` is the least cost of any completion from there, each step
/// charged what the DP charges it), and the bound admits `cost + ctg ≤
/// C_lb`. So every admitted state costs exactly `C_lb − ctg(pos, node)`,
/// and a frontier of equal costs holds one state: the earliest finish,
/// ties going to the first predecessor in node order, which is what
/// [`insert_pareto`] keeps. The pass keeps just that state, with no
/// frontier to search. Its fits go through [`ClassStep::fit`] (rule 11).
///
/// # Errors
///
/// Names the task of the first position left with no state.
fn tight_pass(
    ctx: &AllocationContext<'_>,
    chain: &[TaskId],
    availability: &TimetableOverlay,
    scratch: &mut AllocScratch,
    cost_lb: Cost,
) -> Result<(), AllocateError> {
    let AllocScratch {
        nodes,
        node_class,
        arcs,
        steps,
        domain_firsts,
        classes,
        levels,
        ctg,
        ..
    } = scratch;
    let nodes: &[NodeId] = nodes;
    let n = nodes.len();
    let self_class = classes.len() - 1;
    recycle_levels(levels, chain.len(), n);
    for (pos, &task_id) in chain.iter().enumerate() {
        let task = ctx.job.task(task_id);
        let (done, rest) = levels.split_at_mut(pos);
        let level = &mut rest[0];
        let chain_step = done
            .last()
            .map(|prev| (prev, chain_arc(ctx.job, arcs, chain[pos - 1], task_id)));
        if let Some((prev, _)) = chain_step {
            fill_domain_firsts(prev, node_class, domain_firsts);
        }
        let row = &steps[pos * n..][..n];
        for (ni, &node_id) in nodes.iter().enumerate() {
            // The cost of every state here.
            let Some(target) = ctg[pos * n + ni].and_then(|rest| cost_lb.checked_sub(rest)) else {
                continue;
            };
            let Some(NodeStep {
                exec,
                ready: ready_placed,
                stall: stall_placed,
                finish_bound,
            }) = row[ni]
            else {
                continue;
            };
            let Some((prev, arc)) = chain_step else {
                let dur = stall_placed + exec;
                let cost = task_cost(task.volume(), dur);
                debug_assert!(cost >= target, "C_lb is the least chain cost");
                if cost > target {
                    continue;
                }
                level.states[ni].extend(fit_state(
                    availability,
                    node_id,
                    ready_placed,
                    dur,
                    stall_placed,
                    finish_bound,
                    cost,
                    None,
                ));
                continue;
            };
            // One class step per predecessor class, as in the Pareto pass.
            classes.fill(None);
            let mut best: Option<State> = None;
            for &pni in &prev.occupied {
                let class = if pni == ni {
                    self_class
                } else {
                    node_class[pni]
                };
                let step = classes[class].get_or_insert_with(|| {
                    let chain_stall = ctx.policy.delay_from(arc, nodes[pni], node_id, ctx.pool);
                    ClassStep::new(
                        stall_placed.max(chain_stall),
                        exec,
                        least_ready(domain_firsts, prev, node_class, class, ni, ready_placed),
                    )
                });
                let prev_state = prev.states[pni][0];
                let ready = ready_placed.max_of(prev_state.finish);
                let earliest_finish = ready.saturating_add(step.dur);
                if earliest_finish > finish_bound
                    || best.is_some_and(|b| b.finish <= earliest_finish)
                {
                    // The fit fails, or cannot beat the kept state (a tie
                    // keeps the earlier predecessor).
                    continue;
                }
                let step_cost = *step
                    .cost
                    .get_or_insert_with(|| task_cost(task.volume(), step.dur));
                let cost = prev_state.cost + step_cost;
                debug_assert!(cost >= target, "C_lb is the least chain cost");
                if cost > target {
                    continue;
                }
                let Some(start) = step.fit(availability, node_id, ready, finish_bound) else {
                    continue;
                };
                let finish = start + step.dur;
                if best.is_none_or(|b| finish < b.finish) {
                    best = Some(State {
                        start,
                        finish,
                        stall: step.stall,
                        cost,
                        parent: Some((pni, 0)),
                    });
                }
            }
            level.states[ni].extend(best);
        }
        close_level(level, task_id)?;
    }
    Ok(())
}

/// Makes sure `levels` holds `len` levels of `n` frontiers and clears
/// them, keeping their capacity; levels past `len` are left stale.
fn recycle_levels(levels: &mut Vec<Level>, len: usize, n: usize) {
    if levels.len() < len {
        levels.resize_with(len, Level::default);
    }
    for level in levels.iter_mut().take(len) {
        for states in &mut level.states {
            states.clear();
        }
        if level.states.len() != n {
            level.states.resize_with(n, Vec::new);
        }
        level.occupied.clear();
    }
}

/// Lists a filled level's non-empty frontiers (rule 6).
///
/// # Errors
///
/// Names `task` when the level is empty.
fn close_level(level: &mut Level, task: TaskId) -> Result<(), AllocateError> {
    level.occupied.extend(
        level
            .states
            .iter()
            .enumerate()
            .filter(|(_, states)| !states.is_empty())
            .map(|(ni, _)| ni),
    );
    if level.occupied.is_empty() {
        return Err(AllocateError { task });
    }
    Ok(())
}

/// Fills `firsts` from `level`: per domain, its number of occupied nodes
/// and the two least first finishes of their frontiers (rule 11).
fn fill_domain_firsts(level: &Level, node_class: &[usize], firsts: &mut [DomainFirsts]) {
    firsts.fill(DomainFirsts::default());
    for &ni in &level.occupied {
        let first = &mut firsts[node_class[ni]];
        first.occupied += 1;
        push_top_two(&mut first.top, level.states[ni][0].finish, ni);
    }
}

/// The least ready time of class `class`'s predecessors of the target
/// node `ni` (rule 11): the target's placed ready time or the least
/// frontier-first finish of the domain's occupied nodes other than `ni`,
/// whichever is later. `None` when fewer than two of those nodes are
/// occupied, and for the self class, which has no domain slot.
fn least_ready(
    firsts: &[DomainFirsts],
    prev: &Level,
    node_class: &[usize],
    class: usize,
    ni: usize,
    ready_placed: SimTime,
) -> Option<SimTime> {
    let first = firsts.get(class)?;
    let own = node_class[ni] == class && !prev.states[ni].is_empty();
    if first.occupied - usize::from(own) < 2 {
        return None;
    }
    other_than(&first.top, ni).map(|(finish, _)| ready_placed.max_of(finish))
}

/// Keeps `top` the two least `(value, node index)` pairs pushed, least
/// first; a tie keeps the pair pushed first.
fn push_top_two<T: PartialOrd + Copy>(top: &mut [Option<(T, usize)>; 2], value: T, ni: usize) {
    if top[0].is_none_or(|(v, _)| value < v) {
        top[1] = top[0];
        top[0] = Some((value, ni));
    } else if top[1].is_none_or(|(v, _)| value < v) {
        top[1] = Some((value, ni));
    }
}

/// The least pair of `top` whose node is not `ni`: the second stands in
/// when the first is `ni` itself.
fn other_than<T: Copy>(top: &[Option<(T, usize)>; 2], ni: usize) -> Option<(T, usize)> {
    match top[0] {
        Some((_, first)) if first == ni => top[1],
        first => first,
    }
}

/// Picks the best final state of the Pareto pass under the objective
/// (ties: smaller node index, for determinism) and backtracks its
/// placements into `out`. A MinTime budget filters the frontier; if
/// nothing fits the budget the cheapest state is the fallback.
fn pick_into(
    ctx: &AllocationContext<'_>,
    chain: &[TaskId],
    scratch: &AllocScratch,
    out: &mut Vec<Placement>,
) {
    let AllocScratch { nodes, levels, .. } = scratch;
    let last = &levels[chain.len() - 1];
    let mut best: Option<(usize, usize)> = None;
    let mut cheapest: Option<(usize, usize)> = None;
    for &ni in &last.occupied {
        for (si, s) in last.states[ni].iter().enumerate() {
            let key = (s.finish.ticks(), s.cost);
            if ctx.objective.admits(s.cost) {
                let better = match best {
                    None => true,
                    Some((bni, bsi)) => {
                        let b = &last.states[bni][bsi];
                        let bkey = (b.finish.ticks(), b.cost);
                        ctx.objective.prefers(key, bkey) || (key == bkey && ni < bni)
                    }
                };
                if better {
                    best = Some((ni, si));
                }
            }
            let cheaper = match cheapest {
                None => true,
                Some((bni, bsi)) => {
                    let b = &last.states[bni][bsi];
                    (s.cost, s.finish, ni) < (b.cost, b.finish, bni)
                }
            };
            if cheaper {
                cheapest = Some((ni, si));
            }
        }
    }
    let (mut ni, mut si) = best.or(cheapest).expect("non-empty final frontier");

    for pos in (0..chain.len()).rev() {
        let state = levels[pos].states[ni][si];
        let prev_cost = state
            .parent
            .map(|(pni, psi)| levels[pos - 1].states[pni][psi].cost)
            .unwrap_or(0);
        out.push(Placement {
            task: chain[pos],
            node: nodes[ni],
            window: TimeWindow::new(state.start, state.finish)
                .expect("placement windows are non-empty"),
            stall: state.stall,
            cost: state.cost - prev_cost,
        });
        if let Some((pni, psi)) = state.parent {
            ni = pni;
            si = psi;
        }
    }
    out.reverse();
}

/// Rule 4 (DESIGN §4), the earliest-finish pass of a [`Objective::FASTEST`]
/// chain: the earliest finish any Pareto-pass state at each
/// `(position, node)` has, one level at a time.
///
/// `earliest_fit` is monotone in its ready time (a later one never
/// finishes earlier and never fits where an earlier one failed), and the
/// chain stall depends on the predecessor only through its class (rule
/// 1). So of all predecessor states only each class's earliest-finishing
/// one matters: at most one fit per class, where the Pareto pass makes
/// one per predecessor state. The classes are tried in order of
/// `ready + dur`, the least finish a fit from them can reach, and the
/// first that cannot beat the best finish found so far ends the search
/// (rule 7).
///
/// With `cap` (the final finish `U` of a completed [`incumbent_dive`])
/// every finish bound at `pos` is tightened to `U - S(pos)` (rule 10).
/// `U ≥ F*`, so every state on a path to `F*` still fits, and a
/// `(position, node)` keeps its uncapped earliest finish when that is
/// within the cap and is left empty otherwise.
///
/// Returns `F*`, the chain's earliest final finish, and fills
/// `scratch.earliest` with every `(position, node)`'s earliest finish.
/// Reads the step table and `tail` [`AllocScratch::prepare_chain`]
/// filled.
///
/// # Errors
///
/// A level is empty here exactly when it is empty in the Pareto pass, so
/// the error names the same task. A completed dive leaves no level empty.
fn earliest_finish_pass(
    ctx: &AllocationContext<'_>,
    chain: &[TaskId],
    availability: &TimetableOverlay,
    scratch: &mut AllocScratch,
    cap: Option<SimTime>,
) -> Result<SimTime, AllocateError> {
    let AllocScratch {
        nodes,
        node_class,
        arcs,
        steps,
        earliest,
        domain_earliest,
        candidates,
        tail,
        stats,
        ..
    } = scratch;
    let n = nodes.len();
    earliest.clear();
    earliest.resize(chain.len() * n, None);
    for (pos, &task_id) in chain.iter().enumerate() {
        let (before, rest) = earliest.split_at_mut(pos * n);
        let earliest_prev = &before[before.len().saturating_sub(n)..];
        let earliest = &mut rest[..n];
        let arc = (pos > 0).then(|| chain_arc(ctx.job, arcs, chain[pos - 1], task_id));
        // The earliest previous finish: no candidate is ready before it.
        let mut least_prev = SimTime::ZERO;
        if pos > 0 {
            least_prev = SimTime::MAX;
            domain_earliest.fill([None; 2]);
            for (pni, &finish) in earliest_prev.iter().enumerate() {
                let Some(finish) = finish else {
                    continue;
                };
                least_prev = least_prev.min(finish);
                push_top_two(&mut domain_earliest[node_class[pni]], finish, pni);
            }
        }
        let row = &steps[pos * n..][..n];
        let reach_cap = cap.map(|u| saturating_deadline(u, tail[pos]));
        for (ni, &node_id) in nodes.iter().enumerate() {
            let Some(step) = row[ni] else {
                continue;
            };
            let finish_bound = reach_cap.map_or(step.finish_bound, |c| step.finish_bound.min(c));
            // No candidate's `ready + dur` is below this.
            let least_reach = step
                .ready
                .max_of(least_prev)
                .saturating_add(step.stall + step.exec);
            if least_reach > finish_bound {
                continue;
            }
            candidates.clear();
            let mut push = |ready: SimTime, dur: SimDuration| {
                let reach = ready.saturating_add(dur);
                // A fit from past the finish bound fails; the rest stay
                // sorted by `reach`.
                if reach <= finish_bound {
                    let at = candidates.partition_point(|&(r, ..)| r <= reach);
                    candidates.insert(at, (reach, ready, dur));
                }
            };
            match arc {
                None => push(step.ready, step.stall + step.exec),
                Some(arc) => {
                    // The node itself, then each domain's earliest other
                    // node.
                    let own = earliest_prev[ni].map(|finish| (finish, ni));
                    let others = domain_earliest.iter().filter_map(|top| other_than(top, ni));
                    for (finish, pni) in own.into_iter().chain(others) {
                        let chain_stall = ctx.policy.delay_from(arc, nodes[pni], node_id, ctx.pool);
                        push(
                            step.ready.max_of(finish),
                            step.stall.max(chain_stall) + step.exec,
                        );
                    }
                }
            }
            for &(reach, ready, dur) in candidates.iter() {
                if earliest[ni].is_some_and(|e| reach >= e) {
                    // Neither this fit nor any later one finishes earlier
                    // than one found.
                    break;
                }
                stats.first_pass_fits += 1;
                if let Some(start) = availability.earliest_fit(node_id, ready, dur, finish_bound) {
                    let finish = start + dur;
                    if earliest[ni].is_none_or(|e| finish < e) {
                        earliest[ni] = Some(finish);
                    }
                }
            }
        }
        if earliest.iter().all(Option::is_none) {
            return Err(AllocateError { task: task_id });
        }
    }
    Ok(earliest[(chain.len() - 1) * n..]
        .iter()
        .flatten()
        .copied()
        .min()
        .expect("the last level is non-empty"))
}

/// Rule 10 (DESIGN §4), the incumbent dive of a [`Objective::FASTEST`]
/// chain: one path through the chain under the earliest-finish pass's own
/// transition, greedily earliest-finishing at each position.
///
/// From the current node and finish, every node the DP considers at the
/// next position is a candidate with ready time
/// `max(step ready, current finish)`, wall time
/// `max(placed stall, chain stall) + exec` and its step's finish bound.
/// Candidates are tried in `(ready + dur, node index)` order until one
/// cannot beat the best finish found, and the path continues from the
/// earliest finish (ties: the first found).
///
/// Returns the final finish `U`, or `None` when some position has no
/// candidate that fits. The path is a sequence of states the Pareto pass
/// can reach (or beat, by monotonicity of `earliest_fit` in its ready
/// time), so `U ≥ F*`.
fn incumbent_dive(
    ctx: &AllocationContext<'_>,
    chain: &[TaskId],
    availability: &TimetableOverlay,
    scratch: &mut AllocScratch,
) -> Option<SimTime> {
    let AllocScratch {
        nodes,
        arcs,
        steps,
        dive,
        ..
    } = scratch;
    let n = nodes.len();
    // The path's last `(finish, node index)`.
    let mut at: Option<(SimTime, usize)> = None;
    for (pos, &task_id) in chain.iter().enumerate() {
        let from = at.map(|(finish, ni)| {
            let arc = chain_arc(ctx.job, arcs, chain[pos - 1], task_id);
            (finish, nodes[ni], arc)
        });
        dive.clear();
        for (ni, step) in steps[pos * n..][..n].iter().enumerate() {
            let Some(step) = step else {
                continue;
            };
            let ready = from.map_or(step.ready, |(finish, ..)| step.ready.max_of(finish));
            if ready.saturating_add(step.stall + step.exec) > step.finish_bound {
                // No chain stall makes the fit fit.
                continue;
            }
            let stall = from.map_or(step.stall, |(_, prev_node, arc)| {
                step.stall
                    .max(ctx.policy.delay_from(arc, prev_node, nodes[ni], ctx.pool))
            });
            let dur = stall + step.exec;
            let reach = ready.saturating_add(dur);
            if reach <= step.finish_bound {
                dive.push((reach, ni, ready, dur, step.finish_bound));
            }
        }
        let mut best: Option<(SimTime, usize)> = None;
        // Take the candidates in `(reach, node index)` order by selection:
        // few are tried before the scan stops.
        while let Some(i) = (0..dive.len()).min_by_key(|&i| (dive[i].0, dive[i].1)) {
            let (reach, ni, ready, dur, finish_bound) = dive.swap_remove(i);
            if best.is_some_and(|(finish, _)| reach >= finish) {
                // Neither this fit nor any later one finishes earlier.
                break;
            }
            if let Some(start) = availability.earliest_fit(nodes[ni], ready, dur, finish_bound) {
                let finish = start + dur;
                if best.is_none_or(|(f, _)| finish < f) {
                    best = Some((finish, ni));
                }
            }
        }
        at = Some(best?);
    }
    at.map(|(finish, _)| finish)
}

/// The transfer times of the arc from `prev` to `task`, consecutive chain
/// tasks.
fn chain_arc(job: &Job, arcs: &[ArcTimes], prev: TaskId, task: TaskId) -> ArcTimes {
    let edges = job.edges();
    let ei = *job
        .incoming_indices(task)
        .iter()
        .find(|&&ei| edges[ei].from() == prev)
        .expect("consecutive chain tasks are connected");
    arcs[ei]
}

/// `deadline - slack`, clamped at the epoch.
fn saturating_deadline(deadline: SimTime, slack: SimDuration) -> SimTime {
    SimTime::from_ticks(deadline.ticks().saturating_sub(slack.ticks()))
}

#[allow(clippy::too_many_arguments)]
fn fit_state(
    availability: &TimetableOverlay,
    node: NodeId,
    ready: SimTime,
    duration: SimDuration,
    stall: SimDuration,
    finish_bound: SimTime,
    cost: Cost,
    parent: Option<(usize, usize)>,
) -> Option<State> {
    let start = availability.earliest_fit(node, ready, duration, finish_bound)?;
    Some(State {
        start,
        finish: start + duration,
        stall,
        cost,
        parent,
    })
}

/// Whether some state of `frontier` (sorted by finish, strictly
/// decreasing cost) finishes no later than `finish` at no greater cost.
fn covered(frontier: &[State], finish: SimTime, cost: Cost) -> bool {
    let p = frontier.partition_point(|s| s.finish <= finish);
    p > 0 && frontier[p - 1].cost <= cost
}

/// Adds `cand` to a Pareto frontier kept sorted by finish with strictly
/// decreasing cost.
///
/// A candidate some kept state weakly dominates is dropped — on an exact
/// `(finish, cost)` tie the earlier state stays. Otherwise it goes in and
/// every kept state it weakly dominates goes out. Inserting a sequence
/// one by one keeps exactly the states, in the same order, that pushing
/// them all and running the stable-sort prune (`prune_pareto`, kept in
/// the tests as the reference) would keep.
fn insert_pareto(frontier: &mut Vec<State>, cand: State) {
    if covered(frontier, cand.finish, cand.cost) {
        return;
    }
    // States finishing at or after `cand` and costing at least as much
    // form one run: costs fall as finishes rise, and a kept state with
    // the same finish costs more (else it covered `cand`).
    let p = frontier.partition_point(|s| s.finish < cand.finish);
    let q = p + frontier[p..]
        .iter()
        .take_while(|s| s.cost >= cand.cost)
        .count();
    if p == q {
        frontier.insert(p, cand);
    } else {
        frontier[p] = cand;
        frontier.drain(p + 1..q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_model::fixtures::pipeline_job;
    use gridsched_model::ids::{DomainId, JobId};
    use gridsched_model::job::JobBuilder;
    use gridsched_model::perf::Perf;
    use gridsched_model::timetable::ReservationOwner;
    use gridsched_model::volume::Volume;
    use gridsched_sim::check::{check, Gen};

    /// The reference prune [`insert_pareto`] must agree with: push every
    /// candidate, stable-sort by `(finish, cost)`, keep the states that
    /// are cheaper than everything before them.
    fn prune_pareto(states: &mut Vec<State>) {
        states.sort_by_key(|s| (s.finish, s.cost));
        let mut best_cost = Cost::MAX;
        states.retain(|s| {
            if s.cost < best_cost {
                best_cost = s.cost;
                true
            } else {
                false
            }
        });
    }

    fn pool_two_nodes() -> ResourcePool {
        let mut pool = ResourcePool::new();
        pool.add_node(DomainId::new(0), Perf::FULL); // N0 fast
        pool.add_node(DomainId::new(0), Perf::new(0.5).unwrap()); // N1 slow
        pool
    }

    fn ctx<'a>(
        job: &'a Job,
        pool: &'a ResourcePool,
        policy: &'a DataPolicy,
        deadline: u64,
    ) -> AllocationContext<'a> {
        AllocationContext {
            job,
            pool,
            policy,
            scenario: EstimateScenario::BEST,
            release: SimTime::ZERO,
            deadline: SimTime::from_ticks(deadline),
            domain: None,
            objective: crate::objective::Objective::MinCost,
        }
    }

    #[test]
    fn single_task_prefers_cheaper_slow_node_when_deadline_allows() {
        let job = pipeline_job(JobId::new(0), &[20.0], SimDuration::from_ticks(100));
        let pool = pool_two_nodes();
        let policy = DataPolicy::remote_access();
        let c = ctx(&job, &pool, &policy, 100);
        let view = TimetableOverlay::new(pool.snapshot());
        let ps = allocate_chain(&c, &[TaskId::new(0)], &HashMap::new(), &view).unwrap();
        // N1 (perf 0.5): dur 4, cost ceil(20/4)=5 < N0: dur 2, cost 10.
        assert_eq!(ps[0].node, NodeId::new(1));
        assert_eq!(ps[0].cost, 5);
        assert_eq!(ps[0].window.duration().ticks(), 4);
    }

    #[test]
    fn tight_deadline_forces_fast_node() {
        let job = pipeline_job(JobId::new(0), &[20.0], SimDuration::from_ticks(3));
        let pool = pool_two_nodes();
        let policy = DataPolicy::remote_access();
        let c = ctx(&job, &pool, &policy, 3);
        let view = TimetableOverlay::new(pool.snapshot());
        let ps = allocate_chain(&c, &[TaskId::new(0)], &HashMap::new(), &view).unwrap();
        assert_eq!(ps[0].node, NodeId::new(0));
        assert_eq!(ps[0].cost, 10);
    }

    #[test]
    fn impossible_deadline_reports_task() {
        let job = pipeline_job(JobId::new(0), &[20.0], SimDuration::from_ticks(1));
        let pool = pool_two_nodes();
        let policy = DataPolicy::remote_access();
        let c = ctx(&job, &pool, &policy, 1);
        let view = TimetableOverlay::new(pool.snapshot());
        let err = allocate_chain(&c, &[TaskId::new(0)], &HashMap::new(), &view).unwrap_err();
        assert_eq!(err.task, TaskId::new(0));
        assert!(err.to_string().contains("P0"));
    }

    #[test]
    fn chain_respects_precedence_and_transfers() {
        let job = pipeline_job(JobId::new(0), &[20.0, 20.0], SimDuration::from_ticks(100));
        let pool = pool_two_nodes();
        let policy = DataPolicy::remote_access();
        let c = ctx(&job, &pool, &policy, 100);
        let view = TimetableOverlay::new(pool.snapshot());
        let chain = [TaskId::new(0), TaskId::new(1)];
        let ps = allocate_chain(&c, &chain, &HashMap::new(), &view).unwrap();
        assert!(ps[1].window.start() >= ps[0].window.end());
        if ps[0].node != ps[1].node {
            // Cross-node hop pays a staging stall inside the second window.
            assert!(ps[1].stall.ticks() > 0);
        }
    }

    #[test]
    fn busy_timetable_delays_start() {
        let job = pipeline_job(JobId::new(0), &[20.0], SimDuration::from_ticks(10));
        let mut pool = pool_two_nodes();
        let policy = DataPolicy::remote_access();
        // Block the slow node entirely and the fast node until t3.
        pool.timetable_mut(NodeId::new(1))
            .reserve(
                TimeWindow::new(SimTime::ZERO, SimTime::from_ticks(10)).unwrap(),
                ReservationOwner::Background(0),
            )
            .unwrap();
        pool.timetable_mut(NodeId::new(0))
            .reserve(
                TimeWindow::new(SimTime::ZERO, SimTime::from_ticks(3)).unwrap(),
                ReservationOwner::Background(1),
            )
            .unwrap();
        let c = ctx(&job, &pool, &policy, 10);
        let view = TimetableOverlay::new(pool.snapshot());
        let ps = allocate_chain(&c, &[TaskId::new(0)], &HashMap::new(), &view).unwrap();
        assert_eq!(ps[0].node, NodeId::new(0));
        assert_eq!(ps[0].window.start(), SimTime::from_ticks(3));
    }

    #[test]
    fn placed_predecessor_sets_ready_time_and_stall() {
        let job = pipeline_job(JobId::new(0), &[20.0, 20.0], SimDuration::from_ticks(100));
        let pool = pool_two_nodes();
        let policy = DataPolicy::remote_access();
        let c = ctx(&job, &pool, &policy, 100);
        let view = TimetableOverlay::new(pool.snapshot());
        let mut placed = HashMap::new();
        placed.insert(
            TaskId::new(0),
            Placement {
                task: TaskId::new(0),
                node: NodeId::new(0),
                window: TimeWindow::new(SimTime::from_ticks(5), SimTime::from_ticks(7)).unwrap(),
                stall: SimDuration::ZERO,
                cost: 10,
            },
        );
        let ps = allocate_chain(&c, &[TaskId::new(1)], &placed, &view).unwrap();
        assert!(ps[0].window.start() >= SimTime::from_ticks(7));
    }

    #[test]
    fn placed_successor_bounds_finish() {
        let job = pipeline_job(JobId::new(0), &[20.0, 20.0], SimDuration::from_ticks(100));
        let pool = pool_two_nodes();
        let policy = DataPolicy::remote_access();
        let c = ctx(&job, &pool, &policy, 100);
        let view = TimetableOverlay::new(pool.snapshot());
        let mut placed = HashMap::new();
        // Successor starts at t4 on N0: producer must finish by then
        // (minus the transfer if cross-node).
        placed.insert(
            TaskId::new(1),
            Placement {
                task: TaskId::new(1),
                node: NodeId::new(0),
                window: TimeWindow::new(SimTime::from_ticks(4), SimTime::from_ticks(6)).unwrap(),
                stall: SimDuration::ZERO,
                cost: 10,
            },
        );
        let ps = allocate_chain(&c, &[TaskId::new(0)], &placed, &view).unwrap();
        assert!(ps[0].window.end() <= SimTime::from_ticks(4));
        // Only the fast node can run 20 units in ≤4 ticks from t0 — well,
        // the slow node needs 4 ticks exactly, but then the cross-node
        // transfer bound bites. Verify feasibility was respected instead:
        let slack = if ps[0].node == NodeId::new(0) {
            SimDuration::ZERO
        } else {
            policy.consumer_delay(
                Volume::new(gridsched_model::fixtures::FIG2_EDGE_VOLUME),
                ps[0].node,
                NodeId::new(0),
                &pool,
            )
        };
        assert!(ps[0].window.end() + slack <= SimTime::from_ticks(4));
    }

    #[test]
    fn pareto_prune_keeps_tradeoff_frontier() {
        let mk = |finish: u64, cost: Cost| State {
            start: SimTime::ZERO,
            finish: SimTime::from_ticks(finish),
            stall: SimDuration::ZERO,
            cost,
            parent: None,
        };
        let mut states = vec![mk(10, 5), mk(5, 10), mk(7, 7), mk(12, 5), mk(6, 12)];
        prune_pareto(&mut states);
        let kept: Vec<(u64, Cost)> = states.iter().map(|s| (s.finish.ticks(), s.cost)).collect();
        // Sorted by finish, strictly decreasing cost: (5,10), (7,7), (10,5).
        assert_eq!(kept, vec![(5, 10), (7, 7), (10, 5)]);
    }

    /// Inserting candidates one by one keeps the same survivors, in the
    /// same order and with the same parent tags, as pushing them all and
    /// pruning — including on exact `(finish, cost)` ties, where the
    /// earliest-inserted state must win.
    #[test]
    fn incremental_frontier_matches_push_all_and_prune() {
        check(512, |g| {
            // Narrow ranges force many exact ties.
            let span = g.u64_in(1, 12);
            let candidates = g.vec_of(0, 40, |g| (g.u64_in(0, span), g.u64_in(0, span)));
            let states: Vec<State> = candidates
                .iter()
                .enumerate()
                .map(|(i, &(finish, cost))| State {
                    start: SimTime::ZERO,
                    finish: SimTime::from_ticks(finish),
                    stall: SimDuration::ZERO,
                    cost,
                    parent: Some((i % 3, i)),
                })
                .collect();
            let mut reference = states.clone();
            prune_pareto(&mut reference);
            let mut incremental = Vec::new();
            for &s in &states {
                insert_pareto(&mut incremental, s);
            }
            let key = |s: &State| (s.finish, s.cost, s.parent);
            assert_eq!(
                incremental.iter().map(key).collect::<Vec<_>>(),
                reference.iter().map(key).collect::<Vec<_>>(),
                "candidates {candidates:?}"
            );
        });
    }

    fn perf(g: &mut Gen, levels: &[f64]) -> Perf {
        Perf::new(*g.pick(levels)).unwrap()
    }

    /// A random placed window starting in `[lo, hi]`.
    fn placed_on(g: &mut Gen, task: TaskId, pool: &ResourcePool, lo: u64, hi: u64) -> Placement {
        let start = g.u64_in(lo, hi);
        Placement {
            task,
            node: NodeId::new(g.u64_in(0, pool.len() as u64 - 1) as u32),
            window: TimeWindow::new(
                SimTime::from_ticks(start),
                SimTime::from_ticks(start + g.u64_in(1, 10)),
            )
            .unwrap(),
            stall: SimDuration::ZERO,
            cost: 1,
        }
    }

    /// A random chain allocation: pools of one to nine domains under
    /// background load, tasks with `min_perf`, a chain cut from a pipeline
    /// whose tasks before and after it are placed, extra placed producers
    /// and consumers on random chain tasks, both scenarios, all three data
    /// policies, VO-wide and single-domain contexts. [`Self::crowded`]
    /// draws busier calendars with several nodes per domain.
    struct ChainCase {
        pool: ResourcePool,
        job: Job,
        chain: Vec<TaskId>,
        placed: HashMap<TaskId, Placement>,
        policy: DataPolicy,
        scenario: EstimateScenario,
        release: SimTime,
        domain: Option<DomainId>,
    }

    impl ChainCase {
        fn generate(g: &mut Gen) -> Self {
            // Up to nine domains: the earliest-finish pass tries up to
            // `#domains + 1` candidates per `(position, node)`, the
            // cost-to-go table keeps a top two per domain.
            Self::generate_with(g, 9, 1, 12)
        }

        /// Up to three domains of up to four nodes each on average, and
        /// gaps of at most four ticks between background windows: the
        /// class fits of rule 11 see several predecessors per domain and
        /// fits that fail.
        fn crowded(g: &mut Gen) -> Self {
            Self::generate_with(g, 3, 4, 4)
        }

        /// A case on up to `max_domains` domains and
        /// `4 + domains × nodes_per_domain` nodes, with background
        /// windows at most `max_gap` ticks apart.
        fn generate_with(
            g: &mut Gen,
            max_domains: u64,
            nodes_per_domain: usize,
            max_gap: u64,
        ) -> Self {
            let domains = g.u64_in(1, max_domains);
            let mut pool = ResourcePool::new();
            let mut owner = 0;
            for _ in 0..g.usize_in(2, 4 + domains as usize * nodes_per_domain) {
                let domain = DomainId::new(g.u64_in(0, domains - 1) as u32);
                let node = pool.add_node(domain, perf(g, &[0.25, 0.5, 0.75, 1.0]));
                let mut t = g.u64_in(0, 8);
                while t < 150 {
                    let len = g.u64_in(1, 8);
                    let window =
                        TimeWindow::new(SimTime::from_ticks(t), SimTime::from_ticks(t + len))
                            .unwrap();
                    pool.timetable_mut(node)
                        .reserve(window, ReservationOwner::Background(owner))
                        .unwrap();
                    owner += 1;
                    t += len + g.u64_in(1, max_gap);
                }
            }

            let mut b = JobBuilder::new();
            let pipeline: Vec<TaskId> = (0..g.usize_in(1, 8))
                .map(|_| {
                    let min_perf = g.chance(0.3).then(|| perf(g, &[0.5, 0.75]));
                    b.add_task_with(Volume::new(g.f64_in(4.0, 40.0)), min_perf)
                })
                .collect();
            for w in pipeline.windows(2) {
                b.add_edge(w[0], w[1], Volume::new(g.f64_in(0.0, 30.0)));
            }
            // Mostly long chains: the bounds bite from the second task on.
            let first = g.usize_in(0, 1).min(pipeline.len() - 1);
            let end = pipeline.len() - g.usize_in(0, 1).min(pipeline.len() - first - 1);
            let chain = pipeline[first..end].to_vec();
            // Placed producers finish early, placed consumers start late.
            let mut producers: Vec<TaskId> = pipeline[..first].to_vec();
            let mut consumers: Vec<TaskId> = pipeline[end..].to_vec();
            for _ in 0..g.usize_in(0, 2) {
                let side = b.add_task(Volume::new(10.0));
                let on = *g.pick(&chain);
                let volume = Volume::new(g.f64_in(0.0, 30.0));
                if g.chance(0.5) {
                    b.add_edge(side, on, volume);
                    producers.push(side);
                } else {
                    b.add_edge(on, side, volume);
                    consumers.push(side);
                }
            }
            b.deadline(SimDuration::from_ticks(g.u64_in(30, 250)));
            let job = b.build(JobId::new(0)).unwrap();
            let mut placed = HashMap::new();
            for t in producers {
                placed.insert(t, placed_on(g, t, &pool, 0, 25));
            }
            for t in consumers {
                placed.insert(t, placed_on(g, t, &pool, 40, 160));
            }

            let policy = match g.usize_in(0, 2) {
                0 => DataPolicy::active_replication(),
                1 => DataPolicy::remote_access(),
                _ => DataPolicy::static_storage(NodeId::new(0)),
            };
            let release = SimTime::from_ticks(g.u64_in(0, 20));
            let scenario = *g.pick(&[EstimateScenario::BEST, EstimateScenario::WORST]);
            let domain = g
                .chance(0.5)
                .then(|| DomainId::new(g.u64_in(0, domains - 1) as u32));
            ChainCase {
                pool,
                job,
                chain,
                placed,
                policy,
                scenario,
                release,
                domain,
            }
        }

        fn ctx(&self, objective: Objective) -> AllocationContext<'_> {
            AllocationContext {
                job: &self.job,
                pool: &self.pool,
                policy: &self.policy,
                scenario: self.scenario,
                release: self.release,
                deadline: self.release + self.job.deadline(),
                domain: self.domain,
                objective,
            }
        }
    }

    /// Rule 4 is exact: `FASTEST` (the earliest-finish pass, then the
    /// Pareto pass bounded by `F* - S(k)`) picks exactly what
    /// `MinTime { budget: Some(Cost::MAX) }` picks. That objective prefers
    /// the same states but runs the plain Pareto pass, so it is the
    /// unbounded reference. Both must give identical placements or fail on
    /// the same task, on every [`ChainCase`].
    #[test]
    fn fastest_matches_the_unbounded_pareto_pass() {
        check(512, |g| {
            let case = ChainCase::generate(g);
            let reference = case.ctx(Objective::MinTime {
                budget: Some(Cost::MAX),
            });
            let fastest = case.ctx(Objective::FASTEST);
            let view = TimetableOverlay::new(case.pool.snapshot());
            assert_eq!(
                allocate_chain(&fastest, &case.chain, &case.placed, &view),
                allocate_chain(&reference, &case.chain, &case.placed, &view),
                "chain {:?}, placed {:?}",
                case.chain,
                case.placed
            );
        });
    }

    /// Rule 10 is exact: whenever the incumbent dive completes, its finish
    /// `U` is at least the uncapped first pass's `F*`, and the capped first
    /// pass returns the same `F*`. At every `(pos, node)` it keeps the
    /// uncapped earliest finish where that is within `U - S(pos)` (so at
    /// every one within `F* - S(pos)`) and leaves the rest empty. A dive
    /// that fails leaves the uncapped pass to decide, success or error.
    #[test]
    fn fastest_cap_matches_the_uncapped_first_pass() {
        // Dive completed; dive failed, pass placed; pass failed.
        let outcomes = std::cell::Cell::new([0u32; 3]);
        check(512, |g| {
            let case = ChainCase::generate(g);
            let ctx = case.ctx(Objective::FASTEST);
            let view = TimetableOverlay::new(case.pool.snapshot());
            let mut scratch = AllocScratch::default();
            scratch.begin_pass(&ctx);
            scratch.prepare_chain(&ctx, &case.chain, &case.placed);
            let uncapped = earliest_finish_pass(&ctx, &case.chain, &view, &mut scratch, None);
            let uncapped_earliest = scratch.earliest.clone();
            let dive = incumbent_dive(&ctx, &case.chain, &view, &mut scratch);
            let mut tally = outcomes.get();
            tally[match (dive, &uncapped) {
                (Some(_), _) => 0,
                (None, Ok(_)) => 1,
                (None, Err(_)) => 2,
            }] += 1;
            outcomes.set(tally);
            let Some(u) = dive else {
                return;
            };
            let fastest = uncapped.expect("a completed dive is a schedule");
            assert!(u >= fastest, "U {u} < F* {fastest}");
            let capped = earliest_finish_pass(&ctx, &case.chain, &view, &mut scratch, Some(u));
            assert_eq!(capped, Ok(fastest), "chain {:?}", case.chain);
            let n = scratch.nodes.len();
            for (i, (&capped, &uncapped)) in
                scratch.earliest.iter().zip(&uncapped_earliest).enumerate()
            {
                let pos = i / n;
                let within = |bound: SimTime| {
                    uncapped.filter(|&e| e <= saturating_deadline(bound, scratch.tail[pos]))
                };
                assert_eq!(capped, within(u), "pos {pos}, node {}", i % n);
                if within(fastest).is_some() {
                    assert_eq!(capped, uncapped, "pos {pos}, node {}", i % n);
                }
            }
        });
        let tally = outcomes.get();
        assert!(tally.iter().all(|&n| n > 0), "outcomes {tally:?}");
    }

    /// The Pareto DP as it was before rule 9's tight pass and rule 11:
    /// one `earliest_fit` per predecessor state, and with `COST_BOUND`
    /// every candidate whose cost plus `ctg` exceeds `cost_bound` skipped
    /// before its fit. The reference [`pareto_pass`] and [`tight_pass`]
    /// must agree with.
    fn reference_pass<const COST_BOUND: bool>(
        ctx: &AllocationContext<'_>,
        chain: &[TaskId],
        availability: &TimetableOverlay,
        scratch: &mut AllocScratch,
        fastest_finish: Option<SimTime>,
        cost_bound: Cost,
    ) -> Result<(), AllocateError> {
        let AllocScratch {
            nodes,
            node_class,
            arcs,
            steps,
            earliest,
            classes,
            levels,
            tail,
            ctg,
            ..
        } = scratch;
        let nodes: &[NodeId] = nodes;
        let node_class: &[usize] = node_class;
        let self_class = classes.len() - 1;
        // Recycle levels: make sure there are enough, clear the ones this
        // chain will use (keeping inner capacity), leave the rest stale.
        if levels.len() < chain.len() {
            levels.resize_with(chain.len(), Level::default);
        }
        for level in levels.iter_mut().take(chain.len()) {
            for states in &mut level.states {
                states.clear();
            }
            if level.states.len() != nodes.len() {
                level.states.resize_with(nodes.len(), Vec::new);
            }
            level.occupied.clear();
        }

        for (pos, &task_id) in chain.iter().enumerate() {
            let task = ctx.job.task(task_id);
            // Split so the previous level stays readable while this one fills.
            let (done, rest) = levels.split_at_mut(pos);
            let level = &mut rest[0];
            // The previous level and the transfer times of the arc connecting
            // the previous chain element to this one.
            let chain_step = done
                .last()
                .map(|prev| (prev, chain_arc(ctx.job, arcs, chain[pos - 1], task_id)));
            // A state finishing after `F* - S(pos)` cannot be on the path to
            // `F*`: the tasks after it need at least `S(pos)`.
            let reach_bound = fastest_finish.map(|f| saturating_deadline(f, tail[pos]));
            let row = &steps[pos * nodes.len()..][..nodes.len()];
            for (ni, &node_id) in nodes.iter().enumerate() {
                if let Some(bound) = reach_bound {
                    // No state here finishes before the first pass's earliest
                    // finish, so none would survive the bound (rule 6).
                    if earliest[pos * nodes.len() + ni].is_none_or(|e| e > bound) {
                        continue;
                    }
                }
                // The most a state here may cost and still reach `C_lb`.
                let max_cost = if COST_BOUND {
                    match ctg[pos * nodes.len() + ni].and_then(|rest| cost_bound.checked_sub(rest))
                    {
                        Some(max_cost) => max_cost,
                        None => continue,
                    }
                } else {
                    Cost::MAX
                };
                let Some(NodeStep {
                    exec,
                    ready: ready_placed,
                    stall: stall_placed,
                    finish_bound,
                }) = row[ni]
                else {
                    continue;
                };
                let finish_bound = reach_bound.map_or(finish_bound, |b| finish_bound.min(b));
                let frontier = &mut level.states[ni];
                let Some((prev, arc)) = chain_step else {
                    let dur = stall_placed + exec;
                    let cost = task_cost(task.volume(), dur);
                    if COST_BOUND && cost > max_cost {
                        continue;
                    }
                    if let Some(state) = fit_state(
                        availability,
                        node_id,
                        ready_placed,
                        dur,
                        stall_placed,
                        finish_bound,
                        cost,
                        None,
                    ) {
                        frontier.push(state);
                    }
                    continue;
                };
                // The chain stall depends on the predecessor's node only
                // through "same node" and its domain (`consumer_delay`'s
                // documented invariant), so each class's step is computed
                // once, from its first predecessor.
                classes.fill(None);
                for &pni in &prev.occupied {
                    let class = if pni == ni {
                        self_class
                    } else {
                        node_class[pni]
                    };
                    let step = classes[class].get_or_insert_with(|| {
                        let chain_stall = ctx.policy.delay_from(arc, nodes[pni], node_id, ctx.pool);
                        ClassStep::new(stall_placed.max(chain_stall), exec, None)
                    });
                    for (si, prev_state) in prev.states[pni].iter().enumerate() {
                        let ready = ready_placed.max_of(prev_state.finish);
                        // No fit finishes before `earliest_finish` (`dur` is
                        // positive: execution takes at least one tick).
                        let earliest_finish = ready.saturating_add(step.dur);
                        if earliest_finish > finish_bound {
                            // The fit would fail, and so would every later
                            // state: they are sorted by finish.
                            break;
                        }
                        let step_cost = *step
                            .cost
                            .get_or_insert_with(|| task_cost(task.volume(), step.dur));
                        let cost = prev_state.cost + step_cost;
                        if COST_BOUND && cost > max_cost {
                            // Every completion from here costs more than
                            // `C_lb`.
                            continue;
                        }
                        if covered(frontier, earliest_finish, cost) {
                            // Whatever the fit returned, a kept state would
                            // dominate it.
                            continue;
                        }
                        if let Some(state) = fit_state(
                            availability,
                            node_id,
                            ready,
                            step.dur,
                            step.stall,
                            finish_bound,
                            cost,
                            Some((pni, si)),
                        ) {
                            insert_pareto(frontier, state);
                        }
                    }
                }
            }
            level.occupied.extend(
                level
                    .states
                    .iter()
                    .enumerate()
                    .filter(|(_, states)| !states.is_empty())
                    .map(|(ni, _)| ni),
            );
            if level.occupied.is_empty() {
                return Err(AllocateError { task: task_id });
            }
        }
        Ok(())
    }

    /// The unbounded Pareto pass and pick, as before rule 9.
    fn unbounded_pareto(
        ctx: &AllocationContext<'_>,
        chain: &[TaskId],
        placed: &HashMap<TaskId, Placement>,
        view: &TimetableOverlay,
    ) -> Result<Vec<Placement>, AllocateError> {
        let mut scratch = AllocScratch::default();
        scratch.begin_pass(ctx);
        scratch.fill_steps(ctx, chain, placed);
        reference_pass::<false>(ctx, chain, view, &mut scratch, None, 0)?;
        let mut out = Vec::new();
        pick_into(ctx, chain, &scratch, &mut out);
        Ok(out)
    }

    /// The least cost of `chain` with availability windows and finish
    /// bounds ignored, by brute force over every pair of consecutive
    /// nodes, straight from the job, the placed map and the policy.
    fn reference_least_cost(
        ctx: &AllocationContext<'_>,
        chain: &[TaskId],
        placed: &HashMap<TaskId, Placement>,
    ) -> Option<Cost> {
        let nodes: Vec<NodeId> = ctx.pool.nodes().map(|n| n.id()).collect();
        let charge = |task_id: TaskId, node_id: NodeId, chain_stall: SimDuration| {
            let task = ctx.job.task(task_id);
            let node = ctx.pool.node(node_id);
            if ctx.domain.is_some_and(|d| node.domain() != d) || !task.runs_on(node.perf()) {
                return None;
            }
            let placed_stall = ctx
                .job
                .incoming(task_id)
                .filter_map(|e| {
                    let p = placed.get(&e.from())?;
                    Some(
                        ctx.policy
                            .consumer_delay(e.volume(), p.node, node_id, ctx.pool),
                    )
                })
                .max()
                .unwrap_or(SimDuration::ZERO);
            let wall = placed_stall.max(chain_stall) + ctx.scenario.duration(task, node.perf());
            Some(task_cost(task.volume(), wall))
        };
        let mut least: Vec<Option<Cost>> = nodes
            .iter()
            .map(|&n| charge(chain[0], n, SimDuration::ZERO))
            .collect();
        for w in chain.windows(2) {
            let volume = ctx
                .job
                .incoming(w[1])
                .find(|e| e.from() == w[0])
                .unwrap()
                .volume();
            least = nodes
                .iter()
                .map(|&to| {
                    nodes
                        .iter()
                        .zip(&least)
                        .filter_map(|(&from, &so_far)| {
                            let stall = ctx.policy.consumer_delay(volume, from, to, ctx.pool);
                            Some(so_far? + charge(w[1], to, stall)?)
                        })
                        .min()
                })
                .collect();
        }
        least.into_iter().flatten().min()
    }

    /// Rule 9 is exact and engages exactly when it can: a `MinCost`
    /// allocation (the cost-bounded pass, then the unbounded one if that
    /// kept no final state) gives bit for bit the placements or the error
    /// of the unbounded pass alone, on every [`ChainCase`]. The bounded
    /// pass decides the chain on its own exactly when the chain's least
    /// cost equals the availability-free least cost `C_lb`, which a brute
    /// force over node pairs recomputes independently of the cost-to-go
    /// table; it is never above the least cost.
    #[test]
    fn min_cost_bound_matches_the_unbounded_pareto_pass() {
        // Held; fell back and placed; failed.
        let outcomes = std::cell::Cell::new([0u32; 3]);
        check(512, |g| {
            let case = ChainCase::generate(g);
            let ctx = case.ctx(Objective::MinCost);
            let view = TimetableOverlay::new(case.pool.snapshot());
            let mut scratch = AllocScratch::default();
            scratch.begin_pass(&ctx);
            let mut out = Vec::new();
            let bounded = allocate_chain_into(
                &ctx,
                &case.chain,
                &case.placed,
                &view,
                &mut scratch,
                &mut out,
            )
            .map(|()| out);
            let unbounded = unbounded_pareto(&ctx, &case.chain, &case.placed, &view);
            assert_eq!(
                bounded, unbounded,
                "chain {:?}, placed {:?}",
                case.chain, case.placed
            );
            let stats = scratch.take_stats();
            assert_eq!(stats.cost_bound_held + stats.cost_bound_fallbacks, 1);
            let least = reference_least_cost(&ctx, &case.chain, &case.placed);
            let cost = unbounded
                .as_ref()
                .ok()
                .map(|ps| ps.iter().map(|p| p.cost).sum::<Cost>());
            if let Some(cost) = cost {
                assert!(
                    least.is_some_and(|l| l <= cost),
                    "C_lb {least:?} > cost {cost}"
                );
            }
            assert_eq!(
                stats.cost_bound_held == 1,
                cost.is_some() && cost == least,
                "held {}, cost {cost:?}, C_lb {least:?}",
                stats.cost_bound_held
            );
            let mut tally = outcomes.get();
            tally[match (stats.cost_bound_held, &unbounded) {
                (1, _) => 0,
                (_, Ok(_)) => 1,
                (_, Err(_)) => 2,
            }] += 1;
            outcomes.set(tally);
        });
        let tally = outcomes.get();
        assert!(tally.iter().all(|&n| n > 0), "outcomes {tally:?}");
    }

    /// The first `len` levels of the DP: every frontier, in order and
    /// with its parents, and the occupied list.
    fn levels_of(scratch: &AllocScratch, len: usize) -> Vec<(Vec<Vec<State>>, Vec<usize>)> {
        scratch.levels[..len]
            .iter()
            .map(|level| (level.states.clone(), level.occupied.clone()))
            .collect()
    }

    /// Either generator, half the time each.
    fn any_case(g: &mut Gen) -> ChainCase {
        if g.chance(0.5) {
            ChainCase::generate(g)
        } else {
            ChainCase::crowded(g)
        }
    }

    /// Rule 11 is exact: the Pareto pass, with each fit answered through
    /// its predecessor class, fills the same levels (every frontier in the
    /// same order with the same parents) and fails on the same task as
    /// the per-state fit loop, on `MinCost`, capped `FASTEST` and
    /// `MinTime { budget }`.
    #[test]
    fn pareto_pass_matches_the_per_state_fit_loop() {
        // Per objective: placed, failed.
        let outcomes = std::cell::Cell::new([[0u32; 2]; 3]);
        check(512, |g| {
            let case = any_case(g);
            let (which, objective) = match g.usize_in(0, 2) {
                0 => (0, Objective::MinCost),
                1 => (1, Objective::FASTEST),
                _ => (
                    2,
                    Objective::MinTime {
                        budget: Some(g.u64_in(0, 400)),
                    },
                ),
            };
            let ctx = case.ctx(objective);
            let view = TimetableOverlay::new(case.pool.snapshot());
            let mut scratch = AllocScratch::default();
            scratch.begin_pass(&ctx);
            scratch.prepare_chain(&ctx, &case.chain, &case.placed);
            let fastest = if objective == Objective::FASTEST {
                let cap = incumbent_dive(&ctx, &case.chain, &view, &mut scratch);
                match earliest_finish_pass(&ctx, &case.chain, &view, &mut scratch, cap) {
                    Ok(fastest) => Some(fastest),
                    // The Pareto pass does not run.
                    Err(_) => return,
                }
            } else {
                None
            };
            let reference =
                reference_pass::<false>(&ctx, &case.chain, &view, &mut scratch, fastest, 0);
            let expected = levels_of(&scratch, case.chain.len());
            let result = pareto_pass(&ctx, &case.chain, &view, &mut scratch, fastest);
            assert_eq!(result, reference, "chain {:?}", case.chain);
            assert_eq!(
                levels_of(&scratch, case.chain.len()),
                expected,
                "chain {:?}, placed {:?}",
                case.chain,
                case.placed
            );
            let mut tally = outcomes.get();
            tally[which][usize::from(result.is_err())] += 1;
            outcomes.set(tally);
        });
        // A `FASTEST` Pareto pass never fails once its first pass placed
        // the chain (rule 4).
        let tally = outcomes.get();
        assert!(
            tally.iter().all(|t| t[0] > 0) && tally[0][1] > 0 && tally[2][1] > 0,
            "outcomes {tally:?}"
        );
    }

    /// Rule 9's pass is tight and exact: every state the cost-bounded
    /// per-state loop admits costs exactly `C_lb − ctg(pos, node)`, so
    /// each of its frontiers holds at most one state; and the tight pass
    /// holds exactly when that loop does, with the same levels (the same
    /// parents: a tie keeps the earlier predecessor).
    #[test]
    fn tight_pass_matches_the_cost_bounded_loop() {
        // Held; emptied a level.
        let outcomes = std::cell::Cell::new([0u32; 2]);
        check(512, |g| {
            let case = any_case(g);
            let ctx = case.ctx(Objective::MinCost);
            let view = TimetableOverlay::new(case.pool.snapshot());
            let mut scratch = AllocScratch::default();
            scratch.begin_pass(&ctx);
            scratch.prepare_chain(&ctx, &case.chain, &case.placed);
            let Some(bound) = scratch.cost_lb else {
                return;
            };
            let reference =
                reference_pass::<true>(&ctx, &case.chain, &view, &mut scratch, None, bound);
            let expected = levels_of(&scratch, case.chain.len());
            let n = scratch.nodes.len();
            for (pos, (states, _)) in expected.iter().enumerate() {
                for (ni, frontier) in states.iter().enumerate() {
                    assert!(frontier.len() <= 1, "pos {pos}, node {ni}: {frontier:?}");
                    for state in frontier {
                        assert_eq!(
                            scratch.ctg[pos * n + ni].map(|rest| state.cost + rest),
                            Some(bound),
                            "pos {pos}, node {ni}"
                        );
                    }
                }
            }
            let result = tight_pass(&ctx, &case.chain, &view, &mut scratch, bound);
            assert_eq!(result, reference, "chain {:?}", case.chain);
            assert_eq!(
                levels_of(&scratch, case.chain.len()),
                expected,
                "chain {:?}, placed {:?}",
                case.chain,
                case.placed
            );
            let mut tally = outcomes.get();
            tally[usize::from(result.is_err())] += 1;
            outcomes.set(tally);
        });
        let tally = outcomes.get();
        assert!(tally.iter().all(|&n| n > 0), "outcomes {tally:?}");
    }
}
