//! Reference (recompute-from-scratch) implementation of the EP / EP_ECS
//! schedule search — the differential-testing oracle for the incremental
//! engine in [`crate::ep`].
//!
//! This is the original, straightforward transcription of Figure 9 of the
//! paper: every per-node context is re-derived by walking the parent chain
//! (`ancestor_markings`, `equal_marking_ancestor`, `path_firings`), which
//! makes the search superlinear in tree depth. It is retained verbatim
//! because its simplicity makes it easy to audit against the paper, and
//! the differential tests + `bench_json` emitter compare the incremental
//! engine against it node for node. Do not use it in production paths.

use crate::ep::{ScheduleOptions, SearchStats};
use crate::error::{Result, ScheduleError};
use crate::heuristics::EcsSorter;
use crate::schedule::{NodeId, Schedule, ScheduleNode};
use crate::termination::Termination;
use qss_petri::{EcsId, EcsInfo, Marking, PetriNet, TransitionId, TransitionKind};
use std::collections::BTreeMap;

/// Reference counterpart of [`crate::SearchContext::find_schedule_profiled`],
/// without the statistics.
///
/// # Errors
/// Same contract as [`crate::SearchContext::find_schedule_profiled`].
pub fn find_schedule(
    net: &PetriNet,
    source: TransitionId,
    options: &ScheduleOptions,
) -> Result<Schedule> {
    find_schedule_with_stats(net, source, options).map(|(s, _)| s)
}

/// Reference counterpart of [`crate::SearchContext::find_schedule_profiled`]
/// under an unlimited budget.
///
/// # Errors
/// Same contract as [`crate::SearchContext::find_schedule_profiled`].
pub fn find_schedule_with_stats(
    net: &PetriNet,
    source: TransitionId,
    options: &ScheduleOptions,
) -> Result<(Schedule, SearchStats)> {
    if net.transition(source).kind != TransitionKind::UncontrollableSource {
        return Err(ScheduleError::NotUncontrollableSource(source));
    }
    let sorter = EcsSorter::new(net);
    if sorter.has_no_invariants() && net.num_transitions() > 0 {
        return Err(ScheduleError::NoTInvariants);
    }
    let run_once = |opts: &ScheduleOptions| {
        let mut search = Search {
            net,
            ecs: EcsInfo::compute(net),
            term: Termination::new(net, opts.termination),
            options: opts,
            source,
            sorter: sorter.clone(),
            nodes: Vec::new(),
            budget_exhausted: false,
        };
        search.run()
    };
    match run_once(options) {
        Ok(result) => Ok(result),
        Err(first_error) if options.greedy_entering_point => {
            // The greedy pass is incomplete; fall back to the exhaustive
            // minimum-entering-point search of the paper before giving up.
            let exhaustive = ScheduleOptions {
                greedy_entering_point: false,
                ..options.clone()
            };
            run_once(&exhaustive).map_err(|_| first_error)
        }
        Err(e) => Err(e),
    }
}

/// One node of the search tree.
struct TreeNode {
    marking: Marking,
    parent: Option<usize>,
    in_transition: Option<TransitionId>,
    depth: usize,
    children: Vec<(TransitionId, usize)>,
    chosen_ecs: Option<EcsId>,
}

struct Search<'a> {
    net: &'a PetriNet,
    ecs: EcsInfo,
    term: Termination,
    options: &'a ScheduleOptions,
    source: TransitionId,
    sorter: EcsSorter,
    nodes: Vec<TreeNode>,
    budget_exhausted: bool,
}

impl<'a> Search<'a> {
    fn run(&mut self) -> Result<(Schedule, SearchStats)> {
        let m0 = self.net.initial_marking();
        let root_ecs = self.ecs.ecs_of(self.source);
        self.nodes.push(TreeNode {
            marking: m0.clone(),
            parent: None,
            in_transition: None,
            depth: 0,
            children: Vec::new(),
            chosen_ecs: Some(root_ecs),
        });
        let m1 = self.net.fire_unchecked(self.source, &m0);
        self.nodes.push(TreeNode {
            marking: m1,
            parent: Some(0),
            in_transition: Some(self.source),
            depth: 1,
            children: Vec::new(),
            chosen_ecs: None,
        });
        self.nodes[0].children.push((self.source, 1));

        let result = self.ep(1, 0);
        if self.budget_exhausted {
            return Err(ScheduleError::SearchBudgetExhausted {
                source: self.source,
                max_nodes: self.options.max_nodes,
            });
        }
        match result {
            Some(0) => {
                let schedule = self.build_schedule();
                let stats = SearchStats {
                    nodes_created: self.nodes.len(),
                    schedule_nodes: schedule.num_nodes(),
                    schedule_edges: schedule.num_edges(),
                };
                Ok((schedule, stats))
            }
            _ => Err(ScheduleError::NoSchedule {
                source: self.source,
                explored_nodes: self.nodes.len(),
            }),
        }
    }

    /// `u` is an ancestor of `v` (possibly `u == v`).
    fn is_ancestor(&self, u: usize, v: usize) -> bool {
        let mut cur = v;
        loop {
            if cur == u {
                return true;
            }
            if self.nodes[cur].depth <= self.nodes[u].depth {
                return false;
            }
            match self.nodes[cur].parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// The minimal (closest to the root) proper ancestor of `v` with the
    /// same marking, if any.
    fn equal_marking_ancestor(&self, v: usize) -> Option<usize> {
        let mut found = None;
        let mut cur = self.nodes[v].parent;
        while let Some(u) = cur {
            if self.nodes[u].marking == self.nodes[v].marking {
                found = Some(u);
            }
            cur = self.nodes[u].parent;
        }
        found
    }

    /// Markings of the proper ancestors of `v` (used by the irrelevance
    /// criterion).
    fn ancestor_markings(&self, v: usize) -> Vec<&Marking> {
        let mut result = Vec::with_capacity(self.nodes[v].depth);
        let mut cur = self.nodes[v].parent;
        while let Some(u) = cur {
            result.push(&self.nodes[u].marking);
            cur = self.nodes[u].parent;
        }
        result
    }

    /// Firing counts of every transition along the path from the root to
    /// `v` (inclusive).
    fn path_firings(&self, v: usize) -> Vec<u64> {
        let mut fired = vec![0u64; self.net.num_transitions()];
        let mut cur = Some(v);
        while let Some(u) = cur {
            if let Some(t) = self.nodes[u].in_transition {
                fired[t.index()] += 1;
            }
            cur = self.nodes[u].parent;
        }
        fired
    }

    /// Enabled ECSs at `v`, filtered by the single-source constraint and
    /// ordered by the search heuristics.
    fn candidate_ecs(&self, v: usize) -> Vec<EcsId> {
        let marking = &self.nodes[v].marking;
        let mut candidates: Vec<EcsId> = self
            .ecs
            .enabled_ecs(self.net, marking)
            .into_iter()
            .filter(|e| {
                if !self.options.single_source {
                    return true;
                }
                // Exclude other uncontrollable sources (Sec. 5.5.1).
                self.ecs.members(*e).iter().all(|t| {
                    self.net.transition(*t).kind != TransitionKind::UncontrollableSource
                        || *t == self.source
                })
            })
            .collect();
        let promising = if self.options.use_invariant_heuristic {
            self.sorter.promising_vector(&self.path_firings(v))
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
        candidates
    }

    /// The EP function of Figure 9(a): finds an entering point of `v` that
    /// is an ancestor of `target` if possible, otherwise the entering point
    /// closest to the root, otherwise `None`.
    fn ep(&mut self, v: usize, target: usize) -> Option<usize> {
        if self.budget_exhausted {
            return None;
        }
        // Termination conditions.
        let ancestors = self.ancestor_markings(v);
        if self
            .term
            .should_prune(&self.nodes[v].marking.clone(), &ancestors)
        {
            return None;
        }
        // Equal-marking ancestor: unique entering point.
        if let Some(u) = self.equal_marking_ancestor(v) {
            return Some(u);
        }
        let mut best: Option<usize> = None;
        for e in self.candidate_ecs(v) {
            let result = self.ep_ecs(e, v, target);
            if self.budget_exhausted {
                return None;
            }
            if let Some(u) = result {
                if self.is_ancestor(u, target) {
                    self.nodes[v].chosen_ecs = Some(e);
                    return Some(u);
                }
                if self.options.greedy_entering_point {
                    // Greedy mode: accept the first defined entering point
                    // rather than searching all ECSs for the minimum.
                    self.nodes[v].chosen_ecs = Some(e);
                    return Some(u);
                }
                let better = match best {
                    None => true,
                    Some(b) => self.nodes[u].depth < self.nodes[b].depth,
                };
                if better {
                    self.nodes[v].chosen_ecs = Some(e);
                    best = Some(u);
                }
            }
        }
        best
    }

    /// The EP_ECS function of Figure 9(b): the entering point of ECS `e`
    /// enabled at node `v`, i.e. the minimum over the entering points of
    /// the children created for each transition of the ECS, provided each
    /// of them is a proper ancestor of `v`.
    fn ep_ecs(&mut self, e: EcsId, v: usize, target: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut current_target = target;
        let members: Vec<TransitionId> = self.ecs.members(e).to_vec();
        for t in members {
            if self.nodes.len() >= self.options.max_nodes {
                self.budget_exhausted = true;
                return None;
            }
            let marking = self.net.fire_unchecked(t, &self.nodes[v].marking);
            let w = self.nodes.len();
            let depth = self.nodes[v].depth + 1;
            self.nodes.push(TreeNode {
                marking,
                parent: Some(v),
                in_transition: Some(t),
                depth,
                children: Vec::new(),
                chosen_ecs: None,
            });
            self.nodes[v].children.push((t, w));
            let ep = self.ep(w, current_target);
            match ep {
                // The child's entering point must be `v` itself or an
                // ancestor of `v` (Sec. 5.1); anything deeper (or UNDEF)
                // means this ECS has no entering point.
                Some(u) if self.is_ancestor(u, v) => {
                    best = Some(match best {
                        None => u,
                        Some(b) => {
                            if self.nodes[u].depth < self.nodes[b].depth {
                                u
                            } else {
                                b
                            }
                        }
                    });
                    if self.is_ancestor(best.unwrap(), target) {
                        current_target = v;
                    }
                }
                _ => return None,
            }
        }
        best
    }

    /// Post-processing: retain the chosen-ECS part of the tree and close
    /// the cycles by merging each retained leaf with its equal-marking
    /// ancestor.
    fn build_schedule(&self) -> Schedule {
        let mut map: BTreeMap<usize, usize> = BTreeMap::new();
        let mut nodes: Vec<ScheduleNode> = Vec::new();
        self.assign(0, &mut map, &mut nodes);
        Schedule::from_parts(
            self.source,
            nodes
                .into_iter()
                .map(|n| ScheduleNode {
                    marking: n.marking,
                    edges: n.edges,
                })
                .collect(),
        )
    }

    fn assign(
        &self,
        v: usize,
        map: &mut BTreeMap<usize, usize>,
        nodes: &mut Vec<ScheduleNode>,
    ) -> usize {
        if let Some(&id) = map.get(&v) {
            return id;
        }
        match self.nodes[v].chosen_ecs {
            Some(ecs) => {
                let id = nodes.len();
                nodes.push(ScheduleNode {
                    marking: self.nodes[v].marking.clone(),
                    edges: Vec::new(),
                });
                map.insert(v, id);
                let mut edges = Vec::new();
                for (t, w) in &self.nodes[v].children {
                    if self.ecs.ecs_of(*t) == ecs {
                        let target = self.assign(*w, map, nodes);
                        edges.push((*t, NodeId(target as u32)));
                    }
                }
                nodes[id].edges = edges;
                id
            }
            None => {
                // Leaf: merge with the (minimal) equal-marking ancestor.
                let u = self
                    .equal_marking_ancestor(v)
                    .expect("retained leaf must have an equal-marking ancestor");
                let id = self.assign(u, map, nodes);
                map.insert(v, id);
                id
            }
        }
    }
}
