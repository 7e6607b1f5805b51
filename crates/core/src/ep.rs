//! The EP / EP_ECS schedule search algorithm (Sec. 5), incremental
//! path-state edition.
//!
//! The algorithm grows a rooted tree of markings. For a tree node `v` it
//! looks for an *entering point*: an ancestor of `v` whose marking can be
//! reached again no matter how the data-dependent choices (ECSs with more
//! than one transition) are resolved. If the entering point of the child of
//! the root is the root itself, the retained part of the tree — closed by
//! merging each leaf with the equal-marking ancestor it points back to —
//! is a schedule.
//!
//! # Incremental path state
//!
//! The search is a depth-first traversal, so all per-node context — the
//! ancestor markings consulted by the irrelevance criterion, the on-path
//! firing counts consulted by the T-invariant heuristic, the equal-marking
//! ancestor lookup that closes cycles — lives on *one* root-to-node path
//! at a time. Instead of re-deriving that context by walking the parent
//! chain at every node (`O(depth × places)` per node, superlinear in tree
//! depth overall), the engine maintains a [`PathTracker`] that is updated
//! in `O(changed places)` on every descent and backtrack:
//!
//! * one scratch [`Marking`](qss_petri::Marking) mutated in place via
//!   [`PetriNet::fire_into`]/[`PetriNet::unfire_into`] — the search never
//!   clones markings on the main path (schedule markings are rebuilt by
//!   replaying the retained tree at the end),
//! * cumulative per-transition firing counts (a slice read instead of an
//!   `O(depth + |T|)` chain walk per heuristic evaluation),
//! * an incrementally-maintained marking hash plus an interned index over
//!   on-path ancestors, making the equal-marking-ancestor query one store
//!   probe instead of a full chain scan,
//! * a count of the places above their degree. Definition 4.5 ("some
//!   ancestor is covered and was saturated everywhere it grew") can only
//!   hold while that count is non-zero, so most nodes answer the
//!   irrelevance question from the counter alone; the others scan the
//!   on-path entries, prefiltered on the over-degree places and the
//!   marking hash (see the [`PathTracker`] docs).
//!
//! Ancestor tests (`is_ancestor`) degenerate to depth comparisons because
//! every candidate entering point is on the current path. The original
//! recompute-from-scratch implementation is retained unchanged in
//! [`crate::reference`] as the differential-testing oracle; the two
//! engines produce identical trees, schedules and statistics.
//!
//! # Explicit frames
//!
//! The figure's EP and EP_ECS call each other once per path node. Here
//! they are one loop over a `Vec` of frames, one per expanded node on
//! the path, each holding that node's candidate ECSs, the cursor into
//! them, and the state of the ECS being explored. A path tens of
//! thousands of nodes deep therefore costs heap, not call stack, and
//! the search runs on any thread's default stack. Path depth is bounded
//! by the nodes created, so `max_nodes` bounds it too. A search the
//! budget or `max_nodes` stops just returns, dropping its frames. The
//! schedule build walks the retained tree with an explicit stack as
//! well.

use crate::budget::{BudgetChecker, BudgetStop, SearchBudget};
use crate::error::{Result, ScheduleError};
use crate::heuristics::EcsSorter;
use crate::independence::{channel_bounds, is_independent_set};
use crate::schedule::{NodeId, Schedule};
use crate::termination::{PathTracker, TerminationKind};
use qss_flowc::LinkedSystem;
use qss_petri::{
    EcsId, EcsInfo, MarkingId, MarkingStore, PetriNet, PlaceId, TransitionId, TransitionKind,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Options controlling the schedule search.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleOptions {
    /// Pruning criterion (irrelevant markings by default).
    pub termination: TerminationKind,
    /// Safety cap on the number of tree nodes created by one search.
    pub max_nodes: usize,
    /// Generate only single-source schedules (required for the
    /// independence guarantee of Proposition 4.3). Enabled by default.
    pub single_source: bool,
    /// Sort ECSs using the T-invariant promising vector (Sec. 5.5.2).
    pub use_invariant_heuristic: bool,
    /// Explore source-transition ECSs last ("fire a source transition only
    /// when the system cannot fire anything else").
    pub source_last: bool,
    /// Prefer ECSs with a single transition over data-dependent choices.
    pub prefer_singleton_ecs: bool,
    /// Stop exploring alternative ECSs at a node as soon as one of them has
    /// a defined entering point, instead of searching all of them for the
    /// entering point closest to the root. Combined with the source-last
    /// ordering this keeps reactions maximal (the schedule only waits for
    /// the environment when nothing else can run) and keeps channel bounds
    /// tight. If the greedy pass fails, the search automatically retries
    /// exhaustively.
    pub greedy_entering_point: bool,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            termination: TerminationKind::Irrelevance,
            max_nodes: 200_000,
            single_source: true,
            use_invariant_heuristic: true,
            source_last: true,
            prefer_singleton_ecs: true,
            greedy_entering_point: true,
        }
    }
}

impl ScheduleOptions {
    /// Options using a uniform pre-defined place bound instead of the
    /// irrelevance criterion (the comparison baseline of Sec. 4.4).
    pub fn with_place_bounds(default: u32) -> Self {
        ScheduleOptions {
            termination: TerminationKind::PlaceBounds { default },
            ..Default::default()
        }
    }

    /// Disables all search-ordering heuristics (used by the ablation
    /// benchmarks).
    pub fn without_heuristics(mut self) -> Self {
        self.use_invariant_heuristic = false;
        self.source_last = false;
        self.prefer_singleton_ecs = false;
        self.greedy_entering_point = false;
        self
    }
}

/// Statistics about one schedule search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of tree nodes created during the search.
    pub nodes_created: usize,
    /// Number of nodes in the resulting schedule.
    pub schedule_nodes: usize,
    /// Number of edges in the resulting schedule.
    pub schedule_edges: usize,
}

/// A cost breakdown of one or more schedule searches.
///
/// Where [`SearchStats`] describes the *result* (tree and schedule
/// sizes), the profile describes the *work*: how many nodes the search
/// expanded, where it pruned, how often it swept for enabled candidates,
/// and how the wall clock split across the phases
/// (context build / greedy pass / exhaustive retry). Profiles of
/// separate searches aggregate with [`SearchProfile::absorb`]; the
/// system-level entry points return one profile spanning every source.
///
/// Collecting the profile costs a handful of plain (non-atomic) integer
/// increments on the search's own stack frame — it is always on, and the
/// `obs/overhead` benchmark cases pin the cost at noise level. What is
/// *opt-in* is shipping it: artifacts serialize the profile only when
/// `PipelineConfig` asks for it, so default wire bytes are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SearchProfile {
    /// Per-source searches aggregated into this profile.
    pub searches: u64,
    /// Tree nodes expanded (one cooperative-budget step each).
    pub nodes_expanded: u64,
    /// Candidate ECS explorations abandoned because a child had no
    /// acceptable entering point.
    pub backtracks: u64,
    /// Equal-marking-ancestor hash probes.
    pub equal_ancestor_probes: u64,
    /// Probes that found an equal-marking ancestor (an entering point).
    pub equal_ancestor_hits: u64,
    /// Nodes cut by the termination criterion (irrelevance or place
    /// bounds).
    pub irrelevance_cuts: u64,
    /// Candidate-ECS enabledness sweeps (one per expanded EP node).
    pub ecs_sweeps: u64,
    /// Cooperative budget checks charged (0 under an unlimited budget).
    pub budget_checks: u64,
    /// Exhaustive retries after a failed greedy pass.
    pub exhaustive_retries: u64,
    /// Wall time spent building the [`SearchContext`] (0 when the
    /// context was reused — cache hits skip the build).
    pub context_build_micros: u64,
    /// Wall time of greedy entering-point passes.
    pub greedy_micros: u64,
    /// Wall time of exhaustive (minimum-entering-point) passes.
    pub exhaustive_micros: u64,
}

impl SearchProfile {
    /// Adds `other`'s counts and times into `self` (field-wise sum).
    pub fn absorb(&mut self, other: &SearchProfile) {
        self.searches += other.searches;
        self.nodes_expanded += other.nodes_expanded;
        self.backtracks += other.backtracks;
        self.equal_ancestor_probes += other.equal_ancestor_probes;
        self.equal_ancestor_hits += other.equal_ancestor_hits;
        self.irrelevance_cuts += other.irrelevance_cuts;
        self.ecs_sweeps += other.ecs_sweeps;
        self.budget_checks += other.budget_checks;
        self.exhaustive_retries += other.exhaustive_retries;
        self.context_build_micros += other.context_build_micros;
        self.greedy_micros += other.greedy_micros;
        self.exhaustive_micros += other.exhaustive_micros;
    }

    /// The profile as `(label, value)` rows in a fixed order — the
    /// vocabulary shared by `qssc build --search-profile` and the
    /// `metrics` snapshot.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("searches", self.searches),
            ("nodes_expanded", self.nodes_expanded),
            ("backtracks", self.backtracks),
            ("equal_ancestor_probes", self.equal_ancestor_probes),
            ("equal_ancestor_hits", self.equal_ancestor_hits),
            ("irrelevance_cuts", self.irrelevance_cuts),
            ("ecs_sweeps", self.ecs_sweeps),
            ("budget_checks", self.budget_checks),
            ("exhaustive_retries", self.exhaustive_retries),
            ("context_build_micros", self.context_build_micros),
            ("greedy_micros", self.greedy_micros),
            ("exhaustive_micros", self.exhaustive_micros),
        ]
    }
}

/// Reusable per-net scheduling context.
///
/// The ECS partition and the non-negative T-invariant basis depend only on
/// the net structure, and for small reactive nets (e.g. the PFC case
/// study) the Farkas elimination behind the basis dominates the cost of a
/// whole schedule search. Build the context once and every
/// [`SearchContext::find_schedule_profiled`] call — across sources, option
/// profiles and the greedy→exhaustive retry — shares the precomputed
/// analyses. [`schedule_system`] does this for all the sources of a
/// linked system, and the `qss` facade's `ScheduleArtifact` carries the
/// context forward so repeated scheduling requests against the same net
/// skip the analyses entirely.
///
/// The context is an owned value (no borrow of the net): the net is
/// passed to each call instead, and — like
/// [`Marking`](qss_petri::Marking) — the caller is responsible for only
/// combining a context with the net it was computed from. All fields are
/// immutable after construction.
#[derive(Debug, Clone)]
pub struct SearchContext {
    ecs: EcsInfo,
    sorter: EcsSorter,
    /// Per-net marking store seeded with the initial marking; every search
    /// clones it so the path tracker's interning starts from the shared
    /// base instead of re-hashing the initial marking per call.
    base_store: MarkingStore,
    /// Wall time the per-net analyses took, reported as the
    /// `context_build_micros` phase of a [`SearchProfile`].
    build_micros: u64,
}

impl SearchContext {
    /// Computes the per-net analyses (ECS partition, T-invariant basis)
    /// and seeds the per-net marking store.
    pub fn new(net: &PetriNet) -> Self {
        let build_start = std::time::Instant::now();
        let mut base_store = MarkingStore::with_stride(net.num_places());
        let _ = base_store.intern(net.initial_marking().as_slice());
        let ecs = EcsInfo::compute(net);
        let sorter = EcsSorter::new(net);
        SearchContext {
            ecs,
            sorter,
            base_store,
            build_micros: build_start.elapsed().as_micros() as u64,
        }
    }

    /// Wall time the per-net analyses behind this context took to build.
    pub fn build_micros(&self) -> u64 {
        self.build_micros
    }

    /// The ECS partition of the net.
    pub fn ecs(&self) -> &EcsInfo {
        &self.ecs
    }

    /// The per-net marking store the searches start from (holds the
    /// interned initial marking).
    pub fn base_store(&self) -> &MarkingStore {
        &self.base_store
    }

    /// Finds a single-source schedule for the uncontrollable source
    /// transition `source` using the precomputed analyses, and returns it
    /// with its search statistics. `net` must be the net this context was
    /// built from.
    ///
    /// The search runs under the cooperative `budget`: it charges one
    /// budget step per tree-node expansion and stops with
    /// [`ScheduleError::BudgetExhausted`] when the step cap runs out, the
    /// deadline passes, or the budget's cancellation flag is raised. One
    /// budget state spans the whole call, including the automatic
    /// greedy→exhaustive retry, so the retry cannot reset the allowance.
    /// An [unlimited](SearchBudget::is_unlimited) budget adds no
    /// observable work.
    ///
    /// A [`SearchProfile`] of the work done is aggregated into `profile`
    /// (absorbed, not overwritten, so one profile can span several calls).
    /// Profiling changes which numbers are *kept*, never which tree is
    /// explored. `context_build_micros` is not charged here; system-level
    /// callers attribute the (shared, possibly cached) context build once
    /// via [`SearchContext::build_micros`].
    ///
    /// # Errors
    /// * [`ScheduleError::NotUncontrollableSource`] if `source` has the
    ///   wrong kind,
    /// * [`ScheduleError::NoTInvariants`] if the net has no T-invariants
    ///   (no cyclic schedule can exist),
    /// * [`ScheduleError::SourceNotEnabled`] if `source` cannot fire at the
    ///   initial marking,
    /// * [`ScheduleError::NoSchedule`] if the bounded search space contains
    ///   no schedule,
    /// * [`ScheduleError::SearchBudgetExhausted`] if the safety node
    ///   budget ran out first,
    /// * [`ScheduleError::BudgetExhausted`] if `budget` stopped the search.
    pub fn find_schedule_profiled(
        &self,
        net: &PetriNet,
        source: TransitionId,
        options: &ScheduleOptions,
        budget: &SearchBudget,
        profile: &mut SearchProfile,
    ) -> Result<(Schedule, SearchStats)> {
        profile.searches += 1;
        if net.transition(source).kind != TransitionKind::UncontrollableSource {
            return Err(ScheduleError::NotUncontrollableSource(source));
        }
        if self.sorter.has_no_invariants() && net.num_transitions() > 0 {
            return Err(ScheduleError::NoTInvariants);
        }
        // The search fires the source at the root unconditionally; a
        // source gated behind an unmarked place must fail here instead.
        if !net.is_enabled(source, &net.initial_marking()) {
            return Err(ScheduleError::SourceNotEnabled(source));
        }
        // One checker for the whole call: the greedy→exhaustive retry
        // below continues charging the same allowance.
        let mut checker = budget.checker();
        let run_once = |opts: &ScheduleOptions,
                        checker: &mut Option<BudgetChecker>,
                        profile: &mut SearchProfile| {
            let phase_start = std::time::Instant::now();
            let mut search = Search {
                net,
                ecs: &self.ecs,
                tracker: PathTracker::with_store(net, opts.termination, self.base_store.clone()),
                options: opts,
                source,
                sorter: &self.sorter,
                nodes: Vec::new(),
                budget: checker.as_mut(),
                combo_buf: Vec::new(),
                promising_buf: Vec::new(),
                profile: SearchProfile::default(),
            };
            let result = search.run();
            profile.absorb(&search.profile);
            let phase_micros = phase_start.elapsed().as_micros() as u64;
            if opts.greedy_entering_point {
                profile.greedy_micros += phase_micros;
            } else {
                profile.exhaustive_micros += phase_micros;
            }
            result
        };
        match run_once(options, &mut checker, profile) {
            Ok(result) => Ok(result),
            Err(first_error)
                if options.greedy_entering_point
                    && !matches!(first_error, ScheduleError::BudgetExhausted { .. }) =>
            {
                // The greedy pass is incomplete; fall back to the
                // exhaustive minimum-entering-point search of the paper
                // before giving up. (A budget-exhausted greedy pass skips
                // the retry — the allowance is spent; and if the budget
                // runs out mid-retry, the budget error wins below.)
                let exhaustive = ScheduleOptions {
                    greedy_entering_point: false,
                    ..options.clone()
                };
                profile.exhaustive_retries += 1;
                run_once(&exhaustive, &mut checker, profile).map_err(|retry_error| {
                    if matches!(retry_error, ScheduleError::BudgetExhausted { .. }) {
                        retry_error
                    } else {
                        first_error
                    }
                })
            }
            Err(e) => Err(e),
        }
    }
}

/// The schedules of a whole linked system: one per uncontrollable input.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemSchedules {
    /// One schedule per uncontrollable source transition, in the order the
    /// environment inputs appear in the linked system.
    pub schedules: Vec<Schedule>,
    /// Static bound on every place involved in some schedule — for channel
    /// places this is the buffer size needed by the implementation.
    pub channel_bounds: BTreeMap<PlaceId, u32>,
    /// Per-schedule search statistics.
    pub stats: Vec<SearchStats>,
}

impl SystemSchedules {
    /// The schedule serving the given source transition, if any.
    pub fn schedule_for(&self, source: TransitionId) -> Option<&Schedule> {
        self.schedules.iter().find(|s| s.source() == source)
    }

    /// The buffer bound computed for `place` (0 if the place is involved in
    /// no schedule).
    pub fn bound(&self, place: PlaceId) -> u32 {
        self.channel_bounds.get(&place).copied().unwrap_or(0)
    }
}

/// Computes one schedule per uncontrollable input port of a linked system
/// on `context` (which must have been computed from `system.net`) and
/// verifies that the resulting set is independent (Proposition 4.3
/// guarantees this for nets generated from FlowC, but the check is cheap
/// and validates the construction). Also returns the aggregated
/// [`SearchProfile`] of every per-source search, including the context
/// build time of `context`.
///
/// The sources are searched one after another in source order, and the
/// first failing source's error is returned. Every per-source search runs
/// under `budget`: the deadline (an absolute instant) bounds the
/// *combined* wall clock of all sources, and the step cap is charged per
/// source.
///
/// # Errors
/// Propagates [`SearchContext::find_schedule_profiled`] errors, and
/// returns [`ScheduleError::NotIndependent`] if two schedules interfere.
pub fn schedule_system(
    system: &LinkedSystem,
    context: &SearchContext,
    options: &ScheduleOptions,
    budget: &SearchBudget,
) -> Result<(SystemSchedules, SearchProfile)> {
    let net = &system.net;
    let mut profile = SearchProfile {
        context_build_micros: context.build_micros(),
        ..SearchProfile::default()
    };
    let mut schedules = Vec::new();
    let mut stats = Vec::new();
    for source in system.uncontrollable_sources() {
        let outcome = context.find_schedule_profiled(net, source, options, budget, &mut profile);
        let (schedule, source_stats) = outcome?;
        schedules.push(schedule);
        stats.push(source_stats);
    }
    if let Err((first, second)) = is_independent_set(&schedules, net) {
        return Err(ScheduleError::NotIndependent { first, second });
    }
    let channel_bounds = channel_bounds(&schedules, net);
    let schedules = SystemSchedules {
        schedules,
        channel_bounds,
        stats,
    };
    Ok((schedules, profile))
}

/// One node of the search tree.
///
/// Markings are *not* stored per node: the search works on the
/// [`PathTracker`]'s single scratch marking and [`Search::build_schedule`]
/// reconstructs the retained markings by replaying transitions.
struct TreeNode {
    in_transition: Option<TransitionId>,
    depth: usize,
    children: Vec<(TransitionId, usize)>,
    chosen_ecs: Option<EcsId>,
    /// For retained leaves: the minimal equal-marking ancestor the leaf
    /// merges with, recorded when the entering point was found.
    merge_with: Option<usize>,
}

/// One expanded node on the search path: the state of its EP call (the
/// candidate-ECS loop) and of the EP_ECS call in progress inside it.
///
/// Frames live in one `Vec` indexed by path position; a popped frame's
/// slot (and its candidate buffer) is reused by the next node expanded
/// at that position, so the per-node ECS sweep allocates nothing once
/// the path has been this deep before.
#[derive(Default)]
struct Frame {
    /// The expanded tree node.
    v: usize,
    /// EP's `target`: an entering point that is an ancestor of it ends
    /// the candidate loop early.
    target: usize,
    /// Enabled candidate ECSs at `v`, in heuristic order.
    candidates: Vec<EcsId>,
    /// Index into `candidates` of the ECS being explored.
    cursor: usize,
    /// Best entering point over the finished ECSs (exhaustive mode).
    best: Option<usize>,
    /// The current ECS's next member to expand.
    member: usize,
    /// The current ECS's best entering point over its finished members.
    ecs_best: Option<usize>,
    /// Target handed to the current ECS's next child.
    current_target: usize,
}

/// What the search loop does next.
enum Step {
    /// Evaluate the freshly created node (the tracker carries its
    /// marking) against the target.
    Enter(usize, usize),
    /// Hand the entering point of the node just evaluated to the frame
    /// that created it (or out of the search, below the first frame).
    Return(Option<usize>),
    /// Expand the current ECS's next member at the top frame.
    NextMember,
    /// The current ECS of the top frame is decided with this entering
    /// point.
    EcsDone(Option<usize>),
    /// Start the top frame's next candidate ECS, or finish the frame.
    NextEcs,
}

/// Why a search pass stopped before the root was decided.
enum Abandon {
    /// `max_nodes` tree nodes exist and the search needed another.
    MaxNodes,
    /// The cooperative budget stopped the pass.
    Budget(BudgetStop),
}

struct Search<'a> {
    net: &'a PetriNet,
    ecs: &'a EcsInfo,
    tracker: PathTracker,
    options: &'a ScheduleOptions,
    source: TransitionId,
    sorter: &'a EcsSorter,
    nodes: Vec<TreeNode>,
    /// The cooperative budget's charging state (`None` when unlimited,
    /// which keeps the hot path free of clock reads). Borrowed from the
    /// caller so the greedy→exhaustive retry shares one allowance.
    budget: Option<&'a mut BudgetChecker>,
    /// Scratch buffers of [`EcsSorter::promising_into`], reused across
    /// nodes so the heuristic allocates nothing on the hot path.
    combo_buf: Vec<u64>,
    promising_buf: Vec<u64>,
    /// Work counters for this pass, absorbed into the caller's
    /// [`SearchProfile`] when the pass returns. Plain integers on the
    /// search's own frame: bumping them costs no atomics, no branches.
    profile: SearchProfile,
}

impl<'a> Search<'a> {
    fn run(&mut self) -> Result<(Schedule, SearchStats)> {
        let root_ecs = self.ecs.ecs_of(self.source);
        // The tracker starts with the root entry (initial marking) on the
        // path; mirror it in the tree and descend along the source.
        self.nodes.push(TreeNode {
            in_transition: None,
            depth: 0,
            children: Vec::new(),
            chosen_ecs: Some(root_ecs),
            merge_with: None,
        });
        self.tracker.fire(self.net, self.source);
        self.nodes.push(TreeNode {
            in_transition: Some(self.source),
            depth: 1,
            children: Vec::new(),
            chosen_ecs: None,
            merge_with: None,
        });
        self.nodes[0].children.push((self.source, 1));

        match self.ep() {
            Ok(Some(0)) => {
                let schedule = self.build_schedule();
                let stats = SearchStats {
                    nodes_created: self.nodes.len(),
                    schedule_nodes: schedule.num_nodes(),
                    schedule_edges: schedule.num_edges(),
                };
                Ok((schedule, stats))
            }
            Ok(_) => Err(ScheduleError::NoSchedule {
                source: self.source,
                explored_nodes: self.nodes.len(),
            }),
            Err(Abandon::Budget(stop)) => Err(ScheduleError::BudgetExhausted {
                source: self.source,
                stop,
                steps: self.budget.as_ref().map_or(0, |c| c.steps()),
            }),
            Err(Abandon::MaxNodes) => Err(ScheduleError::SearchBudgetExhausted {
                source: self.source,
                max_nodes: self.options.max_nodes,
            }),
        }
    }

    /// `u` is an ancestor of `v` (possibly `u == v`), for nodes that are
    /// both on the current search path: a depth comparison. Every
    /// entering-point candidate the search handles is on the path, so the
    /// reference engine's parent-chain walk is never needed.
    fn on_path_is_ancestor(&self, u: usize, v: usize) -> bool {
        self.nodes[u].depth <= self.nodes[v].depth
    }

    /// Enabled ECSs at the node currently carried by the tracker, filtered
    /// by the single-source constraint and ordered by the search
    /// heuristics. Fills the caller's reused buffer — the whole sweep is
    /// allocation-free once the scratch has warmed up.
    fn fill_candidate_ecs(&mut self, candidates: &mut Vec<EcsId>) {
        self.profile.ecs_sweeps += 1;
        self.ecs
            .enabled_ecs_into(self.net, self.tracker.marking().as_slice(), candidates);
        if self.options.single_source {
            // Exclude other uncontrollable sources (Sec. 5.5.1).
            candidates.retain(|e| {
                self.ecs.members(*e).iter().all(|t| {
                    self.net.transition(*t).kind != TransitionKind::UncontrollableSource
                        || *t == self.source
                })
            });
        }
        let promising: Option<&[u64]> = if self.options.use_invariant_heuristic
            // Cumulative on-path firing counts: a slice read, not a walk;
            // the promising vector lands in a reused scratch buffer.
            && self.sorter.promising_into(
                self.tracker.fired(),
                &mut self.combo_buf,
                &mut self.promising_buf,
            ) {
            Some(&self.promising_buf)
        } else {
            None
        };
        candidates.sort_by_key(|e| {
            let members = self.ecs.members(*e);
            let promising_rank = match &promising {
                Some(p) => {
                    if members.iter().any(|t| EcsSorter::is_promising(p, *t)) {
                        0
                    } else {
                        1
                    }
                }
                None => 0,
            };
            let source_rank = if self.options.source_last
                && members
                    .iter()
                    .any(|t| self.net.transition(*t).kind.is_source())
            {
                1
            } else {
                0
            };
            let singleton_rank = if self.options.prefer_singleton_ecs && members.len() > 1 {
                1
            } else {
                0
            };
            // SELECT arms carry an explicit priority (lower = preferred);
            // non-SELECT transitions rank as priority 0.
            let select_priority = members
                .iter()
                .map(|t| self.net.transition(*t).priority.unwrap_or(0))
                .min()
                .unwrap_or(0);
            (
                promising_rank,
                source_rank,
                singleton_rank,
                select_priority,
                e.index(),
            )
        });
    }

    /// The EP function of Figure 9(a) and the EP_ECS function of
    /// Figure 9(b), run for the source's child (node 1) with the root as
    /// target: the entering point of node 1, `Some(0)` when the retained
    /// tree is a schedule.
    ///
    /// EP(v, target) finds an entering point of `v` that is an ancestor of
    /// `target` if possible, otherwise the one closest to the root,
    /// otherwise `None`; EP_ECS(e, v) is the minimum over the entering
    /// points of the children created for each member of ECS `e`,
    /// provided each is `v` or an ancestor of `v`. The mutual recursion of
    /// the figure becomes one loop over a stack of [`Frame`]s, one per
    /// expanded node on the path. While a frame is live its node is a path
    /// entry of the tracker; a node that is pruned or closes a cycle never
    /// gets one.
    fn ep(&mut self) -> std::result::Result<Option<usize>, Abandon> {
        let net = self.net;
        let ecs = self.ecs;
        let mut frames: Vec<Frame> = Vec::new();
        let mut live = 0;
        let mut step = Step::Enter(1, 0);
        loop {
            step = match step {
                Step::Enter(v, target) => {
                    let first_equal = self.tracker.first_equal_ancestor();
                    self.profile.equal_ancestor_probes += 1;
                    if self.tracker.should_prune() {
                        self.profile.irrelevance_cuts += 1;
                        Step::Return(None)
                    } else if let Some(depth) = first_equal {
                        // Equal-marking ancestor: unique entering point.
                        // Record the merge target now — build_schedule has
                        // no stored markings to re-derive it from later.
                        self.profile.equal_ancestor_hits += 1;
                        let u = self.tracker.node_at(depth);
                        self.nodes[v].merge_with = Some(u);
                        Step::Return(Some(u))
                    } else {
                        self.tracker.push_entry(v);
                        if live == frames.len() {
                            frames.push(Frame::default());
                        }
                        let frame = &mut frames[live];
                        live += 1;
                        frame.v = v;
                        frame.target = target;
                        frame.cursor = 0;
                        frame.best = None;
                        self.fill_candidate_ecs(&mut frame.candidates);
                        Step::NextEcs
                    }
                }
                Step::Return(ep) => {
                    let Some(top) = live.checked_sub(1) else {
                        return Ok(ep);
                    };
                    let frame = &mut frames[top];
                    let t = ecs.members(frame.candidates[frame.cursor])[frame.member];
                    self.tracker.unfire(net, t);
                    match ep {
                        // The child's entering point must be `v` itself or
                        // an ancestor of `v` (Sec. 5.1); anything deeper
                        // (or UNDEF) means this ECS has no entering point.
                        Some(u) if self.on_path_is_ancestor(u, frame.v) => {
                            let best = match frame.ecs_best {
                                Some(b) if self.nodes[b].depth <= self.nodes[u].depth => b,
                                _ => u,
                            };
                            frame.ecs_best = Some(best);
                            if self.on_path_is_ancestor(best, frame.target) {
                                frame.current_target = frame.v;
                            }
                            frame.member += 1;
                            Step::NextMember
                        }
                        _ => {
                            self.profile.backtracks += 1;
                            Step::EcsDone(None)
                        }
                    }
                }
                Step::NextMember => {
                    let frame = &frames[live - 1];
                    let members = ecs.members(frame.candidates[frame.cursor]);
                    match members.get(frame.member) {
                        None => Step::EcsDone(frame.ecs_best),
                        Some(&t) => {
                            if self.nodes.len() >= self.options.max_nodes {
                                return Err(Abandon::MaxNodes);
                            }
                            // The cooperative budget charges one step per
                            // node expansion (clock and cancellation flag
                            // amortized inside the checker).
                            if let Some(checker) = self.budget.as_deref_mut() {
                                self.profile.budget_checks += 1;
                                if let Some(stop) = checker.step() {
                                    return Err(Abandon::Budget(stop));
                                }
                            }
                            self.tracker.fire(net, t);
                            self.profile.nodes_expanded += 1;
                            let w = self.nodes.len();
                            let v = frame.v;
                            self.nodes.push(TreeNode {
                                in_transition: Some(t),
                                depth: self.nodes[v].depth + 1,
                                children: Vec::new(),
                                chosen_ecs: None,
                                merge_with: None,
                            });
                            self.nodes[v].children.push((t, w));
                            Step::Enter(w, frame.current_target)
                        }
                    }
                }
                Step::EcsDone(ep) => {
                    let frame = &mut frames[live - 1];
                    let e = frame.candidates[frame.cursor];
                    frame.cursor += 1;
                    match ep {
                        // An ancestor of the target is always good enough;
                        // in greedy mode any defined entering point is
                        // accepted rather than searching all ECSs for the
                        // minimum.
                        Some(u)
                            if self.on_path_is_ancestor(u, frame.target)
                                || self.options.greedy_entering_point =>
                        {
                            self.nodes[frame.v].chosen_ecs = Some(e);
                            frame.best = Some(u);
                            // Skip the remaining candidates.
                            frame.cursor = frame.candidates.len();
                        }
                        Some(u)
                            if frame
                                .best
                                .is_none_or(|b| self.nodes[u].depth < self.nodes[b].depth) =>
                        {
                            self.nodes[frame.v].chosen_ecs = Some(e);
                            frame.best = Some(u);
                        }
                        _ => {}
                    }
                    Step::NextEcs
                }
                Step::NextEcs => {
                    let frame = &mut frames[live - 1];
                    if frame.cursor < frame.candidates.len() {
                        frame.member = 0;
                        frame.ecs_best = None;
                        frame.current_target = frame.target;
                        Step::NextMember
                    } else {
                        live -= 1;
                        self.tracker.pop_entry();
                        Step::Return(frame.best)
                    }
                }
            };
        }
    }

    /// Post-processing: retain the chosen-ECS part of the tree and close
    /// the cycles by merging each retained leaf with its equal-marking
    /// ancestor. Markings are reconstructed by replaying transitions over
    /// one scratch marking along a depth-first walk of the retained tree
    /// (the search itself stored none) and hash-consed straight into the
    /// schedule's [`MarkingStore`] — revisited markings never get a second
    /// slab slot. Schedule nodes are numbered in pre-order.
    fn build_schedule(&self) -> Schedule {
        let mut store = MarkingStore::with_stride(self.net.num_places());
        let mut scratch = self.net.initial_marking();
        let mut nodes: Vec<(MarkingId, Vec<(TransitionId, NodeId)>)> =
            vec![(store.intern(scratch.as_slice()), Vec::new())];
        // Schedule node of every retained interior tree node.
        let mut ids: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        ids[0] = Some(NodeId(0));
        // The retained interior nodes on the walk's path, each with the
        // index of its next child to visit.
        let mut path = vec![(0, 0)];
        while let Some((v, next)) = path.last_mut() {
            let v = *v;
            let Some(&(t, w)) = self.nodes[v].children.get(*next) else {
                path.pop();
                if let Some(t) = self.nodes[v].in_transition {
                    self.net.unfire_into(t, &mut scratch);
                }
                continue;
            };
            *next += 1;
            if Some(self.ecs.ecs_of(t)) != self.nodes[v].chosen_ecs {
                continue;
            }
            let target = if self.nodes[w].chosen_ecs.is_some() {
                self.net.fire_into(t, &mut scratch);
                let id = NodeId(nodes.len() as u32);
                nodes.push((store.intern(scratch.as_slice()), Vec::new()));
                ids[w] = Some(id);
                path.push((w, 0));
                id
            } else {
                // Leaf: merge with the (minimal) equal-marking ancestor
                // recorded when the entering point was found. The
                // ancestor lies on this walk's path, so it has been
                // numbered already.
                let u = self.nodes[w]
                    .merge_with
                    .expect("retained leaf must have an equal-marking ancestor");
                ids[u].expect("merge ancestor numbered before its leaves")
            };
            let parent = ids[v].expect("interior node numbered on entry");
            nodes[parent.index()].1.push((t, target));
        }
        Schedule::from_interned(self.source, store, nodes)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qss_petri::NetBuilder;

    /// One search on a fresh context under `budget`.
    fn find_budgeted(
        net: &PetriNet,
        source: TransitionId,
        options: &ScheduleOptions,
        budget: &SearchBudget,
    ) -> Result<(Schedule, SearchStats)> {
        let mut profile = SearchProfile::default();
        SearchContext::new(net).find_schedule_profiled(net, source, options, budget, &mut profile)
    }

    fn find_with_stats(
        net: &PetriNet,
        source: TransitionId,
        options: &ScheduleOptions,
    ) -> Result<(Schedule, SearchStats)> {
        find_budgeted(net, source, options, &SearchBudget::unlimited())
    }

    /// One search on a fresh context under an unlimited budget (shared by
    /// the crate's unit tests).
    pub(crate) fn find(
        net: &PetriNet,
        source: TransitionId,
        options: &ScheduleOptions,
    ) -> Result<Schedule> {
        find_with_stats(net, source, options).map(|(s, _)| s)
    }

    /// The Figure 8(a) net.
    fn figure8() -> PetriNet {
        let mut bl = NetBuilder::new("fig8");
        let p1 = bl.place("p1", 0);
        let p2 = bl.place("p2", 0);
        let p3 = bl.place("p3", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let b = bl.transition("b", TransitionKind::Internal);
        let c = bl.transition("c", TransitionKind::Internal);
        let d = bl.transition("d", TransitionKind::Internal);
        let e = bl.transition("e", TransitionKind::Internal);
        bl.arc_t2p(a, p1, 1);
        bl.arc_p2t(p1, b, 1);
        bl.arc_p2t(p1, c, 1);
        bl.arc_t2p(b, p2, 1);
        bl.arc_p2t(p2, d, 1);
        bl.arc_t2p(c, p3, 1);
        bl.arc_p2t(p3, e, 2);
        bl.arc_t2p(e, p1, 1);
        bl.build().unwrap()
    }

    #[test]
    fn schedules_figure8_net() {
        let net = figure8();
        let a = net.transition_by_name("a").unwrap();
        let (schedule, stats) = find_with_stats(&net, a, &ScheduleOptions::default()).unwrap();
        schedule.validate(&net).unwrap();
        assert!(schedule.is_single_source(&net));
        assert!(stats.nodes_created >= schedule.num_nodes());
        // The schedule of Figure 8(b) has 10 nodes before merging; after
        // cycle closure it must involve all five transitions.
        assert_eq!(schedule.involved_transitions().len(), 5);
    }

    #[test]
    fn tiny_pipeline_schedule_is_two_nodes() {
        let mut b = NetBuilder::new("tiny");
        let p = b.place("p", 0);
        let src = b.transition("in", TransitionKind::UncontrollableSource);
        let t = b.transition("consume", TransitionKind::Internal);
        b.arc_t2p(src, p, 1);
        b.arc_p2t(p, t, 1);
        let net = b.build().unwrap();
        let src = net.transition_by_name("in").unwrap();
        let schedule = find(&net, src, &ScheduleOptions::default()).unwrap();
        schedule.validate(&net).unwrap();
        assert_eq!(schedule.num_nodes(), 2);
        assert_eq!(schedule.num_edges(), 2);
    }

    #[test]
    fn non_source_transition_is_rejected() {
        let net = figure8();
        let b = net.transition_by_name("b").unwrap();
        assert!(matches!(
            find(&net, b, &ScheduleOptions::default()),
            Err(ScheduleError::NotUncontrollableSource(_))
        ));
    }

    #[test]
    fn accumulator_net_has_no_schedule() {
        let mut b = NetBuilder::new("acc");
        let p = b.place("p", 0);
        let src = b.transition("in", TransitionKind::UncontrollableSource);
        b.arc_t2p(src, p, 1);
        let net = b.build().unwrap();
        let src = net.transition_by_name("in").unwrap();
        let err = find(&net, src, &ScheduleOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::NoTInvariants | ScheduleError::NoSchedule { .. }
        ));
    }

    /// Figure 4(b): two uncontrollable sources feeding one synchronising
    /// transition — no single-source schedule exists for either.
    #[test]
    fn figure4b_has_no_single_source_schedule() {
        let mut bl = NetBuilder::new("fig4b");
        let p1 = bl.place("p1", 0);
        let p2 = bl.place("p2", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let b = bl.transition("b", TransitionKind::UncontrollableSource);
        let c = bl.transition("c", TransitionKind::Internal);
        bl.arc_t2p(a, p1, 1);
        bl.arc_t2p(b, p2, 1);
        bl.arc_p2t(p1, c, 1);
        bl.arc_p2t(p2, c, 1);
        let net = bl.build().unwrap();
        let a = net.transition_by_name("a").unwrap();
        let err = find(&net, a, &ScheduleOptions::default()).unwrap_err();
        assert!(matches!(err, ScheduleError::NoSchedule { .. }));
        // With the single-source restriction lifted, a (multi-source)
        // schedule exists.
        let opts = ScheduleOptions {
            single_source: false,
            ..Default::default()
        };
        let s = find(&net, a, &opts).unwrap();
        s.validate(&net).unwrap();
        assert!(!s.is_single_source(&net));
    }

    /// Figure 4(a): weights of 2 around place p1 force two firings of `a`
    /// per reaction cycle, giving a schedule with an intermediate await
    /// node, exactly as SSS(a) in the figure.
    #[test]
    fn figure4a_schedule_has_intermediate_await_node() {
        let mut bl = NetBuilder::new("fig4a");
        let p1 = bl.place("p1", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let c = bl.transition("c", TransitionKind::Internal);
        bl.arc_t2p(a, p1, 1);
        bl.arc_p2t(p1, c, 2);
        let net = bl.build().unwrap();
        let a = net.transition_by_name("a").unwrap();
        let s = find(&net, a, &ScheduleOptions::default()).unwrap();
        s.validate(&net).unwrap();
        // r plus the intermediate await node.
        assert_eq!(s.await_nodes(&net).len(), 2);
    }

    #[test]
    fn place_bounds_termination_can_fail_where_irrelevance_succeeds() {
        // Figure 7-style divider: b consumes k tokens of p1 at once, so the
        // search must accumulate k tokens in p1 before b can fire. With a
        // pre-defined bound smaller than k the search fails; the
        // irrelevance criterion finds the schedule.
        let k = 5;
        let mut bl = NetBuilder::new("divider");
        let p1 = bl.place("p1", 0);
        let p2 = bl.place("p2", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let b = bl.transition("b", TransitionKind::Internal);
        let c = bl.transition("c", TransitionKind::Internal);
        bl.arc_t2p(a, p1, 1);
        bl.arc_p2t(p1, b, k);
        bl.arc_t2p(b, p2, 1);
        bl.arc_p2t(p2, c, 1);
        let net = bl.build().unwrap();
        let a = net.transition_by_name("a").unwrap();
        let tight = ScheduleOptions::with_place_bounds(k - 2);
        assert!(matches!(
            find(&net, a, &tight),
            Err(ScheduleError::NoSchedule { .. })
        ));
        let s = find(&net, a, &ScheduleOptions::default()).unwrap();
        s.validate(&net).unwrap();
        // The schedule needs k await nodes (one per arrival of `a`).
        assert_eq!(s.await_nodes(&net).len() as u32, k);
    }

    #[test]
    fn heuristics_do_not_change_existence() {
        let net = figure8();
        let a = net.transition_by_name("a").unwrap();
        let with = find_with_stats(&net, a, &ScheduleOptions::default()).unwrap();
        let without =
            find_with_stats(&net, a, &ScheduleOptions::default().without_heuristics()).unwrap();
        with.0.validate(&net).unwrap();
        without.0.validate(&net).unwrap();
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let net = figure8();
        let a = net.transition_by_name("a").unwrap();
        let opts = ScheduleOptions {
            max_nodes: 3,
            ..Default::default()
        };
        assert!(matches!(
            find(&net, a, &opts),
            Err(ScheduleError::SearchBudgetExhausted { .. })
        ));
    }

    /// A divider chain: each stage consumes `k` tokens of the previous
    /// one, so reaching the last internal transition takes k^depth source
    /// firings — plenty of expansion steps for budget tests.
    fn divider_chain(depth: u32, k: u32) -> PetriNet {
        let mut bl = NetBuilder::new("chain");
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let mut prev = bl.place("p0", 0);
        bl.arc_t2p(a, prev, 1);
        for i in 0..depth {
            let t = bl.transition(format!("t{i}"), TransitionKind::Internal);
            let next = bl.place(format!("p{}", i + 1), 0);
            bl.arc_p2t(prev, t, k);
            bl.arc_t2p(t, next, 1);
            prev = next;
        }
        let sink = bl.transition("sink", TransitionKind::Internal);
        bl.arc_p2t(prev, sink, 1);
        bl.build().unwrap()
    }

    #[test]
    fn step_budget_stops_the_search_with_a_typed_error() {
        let net = divider_chain(4, 4);
        let a = net.transition_by_name("a").unwrap();
        let opts = ScheduleOptions::default();
        let budget = SearchBudget::unlimited().with_max_steps(20);
        let err = find_budgeted(&net, a, &opts, &budget).unwrap_err();
        match err {
            ScheduleError::BudgetExhausted {
                source,
                stop,
                steps,
            } => {
                assert_eq!(source, a);
                assert_eq!(stop, crate::budget::BudgetStop::Steps);
                assert_eq!(steps, 21);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_stops_the_search() {
        let net = divider_chain(4, 4);
        let a = net.transition_by_name("a").unwrap();
        let opts = ScheduleOptions::default();
        let budget = SearchBudget::unlimited().with_deadline(std::time::Instant::now());
        let err = find_budgeted(&net, a, &opts, &budget).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::BudgetExhausted {
                stop: crate::budget::BudgetStop::Deadline,
                ..
            }
        ));
    }

    #[test]
    fn raised_cancel_flag_stops_the_search() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let net = divider_chain(4, 4);
        let a = net.transition_by_name("a").unwrap();
        let flag = Arc::new(AtomicBool::new(false));
        flag.store(true, Ordering::Relaxed);
        let budget = SearchBudget::unlimited().with_cancel(flag);
        let err = find_budgeted(&net, a, &ScheduleOptions::default(), &budget).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::BudgetExhausted {
                stop: crate::budget::BudgetStop::Cancelled,
                ..
            }
        ));
    }

    #[test]
    fn unarmed_budget_changes_nothing() {
        // The same searches, unlimited and under an armed budget that
        // never trips, must produce identical schedules and statistics.
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let armed = SearchBudget::unlimited()
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(3600))
            .with_cancel(Arc::new(AtomicBool::new(false)));
        for net in [figure8(), divider_chain(2, 3)] {
            let a = net.transition_by_name("a").unwrap();
            let opts = ScheduleOptions::default();
            let plain = find_with_stats(&net, a, &opts).unwrap();
            let budgeted = find_budgeted(&net, a, &opts, &armed).unwrap();
            assert_eq!(plain, budgeted);
        }
    }

    #[test]
    fn generous_budget_still_finds_the_schedule() {
        let net = figure8();
        let a = net.transition_by_name("a").unwrap();
        let budget = SearchBudget::unlimited()
            .with_max_steps(1_000_000)
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(60));
        let (s, _) = find_budgeted(&net, a, &ScheduleOptions::default(), &budget).unwrap();
        s.validate(&net).unwrap();
    }
}
