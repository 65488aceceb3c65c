//! Differential test of the indexed candidate computation: over random
//! nested sessions, after every call, what `candidates_for` hands the
//! solver (closed order on the node + maintained candidate lists) must be
//! exactly what the original computation produced — the closure of the raw
//! order rebuilt from scratch, every non-aborted sibling walked with
//! `subtree_last_version`, rules 1–3 over all of them, then sorted and
//! deduplicated by value. Likewise every node's `live` set must be its
//! children filtered by state, and `commit` must report the pending sibling
//! or child a scan of every child finds. The references live here and
//! nowhere else.

use super::*;
use ks_kernel::{Domain, UniqueState};
use ks_predicate::random::SplitMix64;
use ks_predicate::{Atom, Clause, CmpOp};
use ks_schedule::DiGraph;
use std::borrow::Cow;

impl ProtocolManager {
    /// Transitive closure of the partial order over `parent`'s child
    /// slots, rebuilt from the edges as defined.
    fn paths_of(&self, parent_idx: usize) -> DiGraph {
        let pnode = &self.nodes[parent_idx];
        let mut g = DiGraph::new(pnode.children.len().max(1));
        for &(a, b) in &pnode.order {
            g.add_edge(a, b);
        }
        g.transitive_closure()
    }

    /// `candidates_for` as it was before the closure and the writer index.
    fn reference_candidates_for(&self, idx: usize, e: EntityId) -> Vec<VersionId> {
        let node = &self.nodes[idx];
        let parent_idx = node.parent.expect("root never validates");
        let paths = self.paths_of(parent_idx);
        let siblings: Vec<(usize, Option<VersionId>)> = self.nodes[parent_idx]
            .children
            .iter()
            .filter(|&&c| c != idx && self.nodes[c].state != TxnState::Aborted)
            .map(|&c| (self.nodes[c].slot, self.subtree_last_version(c, e)))
            .collect();
        let target = node.slot;
        let qualifying: Vec<(usize, VersionId)> = siblings
            .iter()
            .filter(|&&(s, _)| s != target && !paths.has_edge(target, s))
            .filter_map(|&(s, last)| Some((s, last?)))
            .filter(|&(s, _)| {
                !siblings.iter().any(|&(k, k_last)| {
                    k != s
                        && k != target
                        && k_last.is_some()
                        && paths.has_edge(s, k)
                        && paths.has_edge(k, target)
                })
            })
            .collect();
        let predecessors: Vec<VersionId> = qualifying
            .iter()
            .filter(|&&(s, _)| paths.has_edge(s, target))
            .map(|&(_, v)| v)
            .collect();
        let allowed = if predecessors.is_empty() {
            let mut out: Vec<VersionId> = qualifying.iter().map(|&(_, v)| v).collect();
            let parent_version = self.parent_version(parent_idx, e);
            if !out.contains(&parent_version) {
                out.push(parent_version);
            }
            out
        } else {
            predecessors
        };
        allowed
            .into_iter()
            .filter(|v| {
                self.provenance.get(v).is_none_or(|prov| {
                    !prov.iter().any(|&src| {
                        self.slot_of_author(parent_idx, src)
                            .is_some_and(|s| s != target && paths.has_edge(target, s))
                    })
                })
            })
            .collect()
    }

    /// What `assign_versions` made of a reference candidate set: the
    /// distinct values in stamp order, and the newest version per value.
    fn reference_view(&self, idx: usize, e: EntityId) -> CandidateView {
        let mut versions = self.reference_candidates_for(idx, e);
        versions.sort_unstable_by_key(|v| v.index);
        let valued: Vec<(VersionId, Value)> = versions
            .into_iter()
            .map(|v| (v, self.store.read(v).expect("candidate exists")))
            .collect();
        let mut values: Vec<Value> = Vec::new();
        for &(_, val) in &valued {
            if !values.contains(&val) {
                values.push(val);
            }
        }
        let newest = values
            .iter()
            .map(|&val| {
                let v = valued
                    .iter()
                    .rev()
                    .find(|&&(_, x)| x == val)
                    .expect("listed");
                (val, v.0)
            })
            .collect();
        CandidateView {
            count: valued.len(),
            values,
            newest,
        }
    }

    /// The pending outcome `commit` reported before the live sets existed,
    /// plus the author rule: a sibling whose subtree wrote an assigned
    /// input that is not the parent's version must have committed.
    fn reference_commit_gate(&self, t: usize) -> Option<CommitOutcome> {
        let live =
            |c: usize| matches!(self.nodes[c].state, TxnState::Defined | TxnState::Validated);
        if let Some(p) = self.nodes[t].parent {
            let paths = &self.nodes[p].closure;
            let slot = self.nodes[t].slot;
            for &c in &self.nodes[p].children {
                if paths.has_edge(self.nodes[c].slot, slot) && live(c) {
                    return Some(CommitOutcome::PredecessorsPending(Txn(c)));
                }
            }
        }
        if let Some(&c) = self.nodes[t].children.iter().find(|&&c| live(c)) {
            return Some(CommitOutcome::ChildrenPending(Txn(c)));
        }
        let p = self.nodes[t].parent?;
        let node = &self.nodes[t];
        node.input_set.iter().find_map(|&e| {
            let v = node.snapshot.version_of(e)?;
            if v == self.parent_version(p, e) {
                return None;
            }
            let author = self.store.meta(v).expect("assigned").author.0 as usize;
            let sibling = self.nodes[p]
                .children
                .iter()
                .copied()
                .find(|&c| c != t && self.in_subtree(c, author))?;
            (self.nodes[sibling].state != TxnState::Committed)
                .then_some(CommitOutcome::PredecessorsPending(Txn(sibling)))
        })
    }

    /// Is node `idx` in the subtree rooted at `top`?
    fn in_subtree(&self, top: usize, idx: usize) -> bool {
        idx == top
            || self.nodes[top]
                .children
                .iter()
                .any(|&c| self.in_subtree(c, idx))
    }

    /// The live author of node `t`'s assigned version of `e`, if another
    /// node is.
    fn live_author(&self, t: usize, e: EntityId) -> Option<usize> {
        let v = self.nodes[t].snapshot.version_of(e)?;
        let author = self.store.meta(v).expect("assigned").author.0 as usize;
        let live = author != t && author != 0 && self.nodes[author].state == TxnState::Validated;
        live.then_some(author)
    }

    /// Every node's closure equals the closure recomputed from its raw
    /// order, and its `live` set is its children filtered by state. Every
    /// node that can still be (re-)assigned × every entity: indexed view
    /// equals reference view.
    fn assert_index_matches_reference(&self, after: &str, cov: &mut Coverage) {
        for idx in 0..self.nodes.len() {
            let node = &self.nodes[idx];
            let closed: Vec<_> = node.closure.edges().collect();
            let recomputed: Vec<_> = self.paths_of(idx).edges().collect();
            assert_eq!(closed, recomputed, "closure of node {idx} after {after}");
            let live: BTreeSet<usize> = node
                .children
                .iter()
                .copied()
                .filter(|&c| matches!(self.nodes[c].state, TxnState::Defined | TxnState::Validated))
                .collect();
            assert_eq!(node.live, live, "live children of node {idx} after {after}");
            if idx == 0 || !matches!(node.state, TxnState::Defined | TxnState::Validated) {
                continue;
            }
            for e in self.schema.entity_ids() {
                let indexed = self.candidates_for(idx, e);
                let shared = matches!(indexed, Cow::Borrowed(_));
                cov.borrowed_multi += u64::from(shared && indexed.values().len() > 2);
                cov.filtered += u64::from(!shared);
                assert_eq!(
                    CandidateView::of(&indexed),
                    self.reference_view(idx, e),
                    "candidates of node {idx} for {e} after {after}"
                );
            }
        }
    }

    fn depth(&self, idx: usize) -> usize {
        std::iter::successors(self.nodes[idx].parent, |&p| self.nodes[p].parent).count()
    }
}

/// A candidate list as the solver and the back-mapping see it.
#[derive(Debug, PartialEq)]
struct CandidateView {
    count: usize,
    values: Vec<Value>,
    newest: Vec<(Value, VersionId)>,
}

impl CandidateView {
    fn of(list: &CandidateList) -> CandidateView {
        CandidateView {
            count: list.len(),
            values: list.values().to_vec(),
            newest: list
                .values()
                .iter()
                .map(|&val| (val, list.newest_with(val).expect("listed value")))
                .collect(),
        }
    }
}

const ENTITIES: usize = 3;

/// What a batch of random sessions exercised; each must be non-zero or
/// the differential test is not testing what it says.
#[derive(Debug, Default)]
struct Coverage {
    nested_writes: u64,
    nested_aborts_after_write: u64,
    /// Committed transactions aborted with an ancestor (a commit is
    /// relative to its parent); a sibling's abort never undoes one.
    undone_by_ancestor: u64,
    split_writes: u64,
    ordered_defines: u64,
    cycles_rejected: u64,
    /// Checks that borrowed a maintained list of more than two values.
    borrowed_multi: u64,
    /// Checks that filtered the list by the order instead.
    filtered: u64,
    /// Commits refused because a sibling or child was pending.
    gated_commits: u64,
}

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.index(items.len())])
}

/// `e >= 0` for each chosen entity (always true: the value assigned never
/// matters), or now and then `e <= k`, which some candidate sets cannot
/// meet — unsatisfiable validations and failed re-assignments.
fn random_spec(rng: &mut SplitMix64) -> Specification {
    let mut clauses = Vec::new();
    for e in 0..ENTITIES {
        if rng.below(3) < 2 {
            let atom = if rng.below(5) == 0 {
                Atom::cmp_const(EntityId(e as u32), CmpOp::Le, rng.below(6) as i64)
            } else {
                Atom::cmp_const(EntityId(e as u32), CmpOp::Ge, 0)
            };
            clauses.push(Clause::unit(atom));
        }
    }
    Specification::new(Cnf::new(clauses), Cnf::truth())
}

fn random_session(seed: u64, steps: usize, cov: &mut Coverage) -> ProtocolStats {
    let schema = Schema::uniform(
        (0..ENTITIES).map(|i| format!("d{i}")),
        Domain::Range { min: 0, max: 9 },
    );
    let initial = UniqueState::from_values_unchecked(vec![0; ENTITIES]);
    let mut pm = ProtocolManager::new(schema, &initial, Specification::trivial());
    let mut rng = SplitMix64::new(seed);
    // A `begin_write` not yet finished.
    let mut pending: Option<(Txn, EntityId)> = None;
    for step in 0..steps {
        let in_state = |pm: &ProtocolManager, want: TxnState| -> Vec<usize> {
            (1..pm.nodes.len())
                .filter(|&i| pm.nodes[i].state == want)
                .collect()
        };
        let validated = in_state(&pm, TxnState::Validated);
        let committed_before = in_state(&pm, TxnState::Committed);
        let e = EntityId(rng.index(ENTITIES) as u32);
        let what = match rng.below(12) {
            0..=2 => {
                // define, under the root or a validated node, ordered
                // after/before random siblings
                let mut parents: Vec<usize> = validated
                    .iter()
                    .copied()
                    .filter(|&i| pm.depth(i) < 3)
                    .collect();
                parents.push(0);
                parents.push(0);
                let parent = pick(&mut rng, &parents).expect("root");
                let siblings = pm.nodes[parent].children.clone();
                let mut after = Vec::new();
                let mut before = Vec::new();
                for &s in &siblings {
                    match rng.below(8) {
                        0 | 1 => after.push(Txn(s)),
                        2 => before.push(Txn(s)),
                        _ => {}
                    }
                }
                match pm.define(Txn(parent), random_spec(&mut rng), &after, &before) {
                    Ok(_) => {
                        cov.ordered_defines += u64::from(!after.is_empty() || !before.is_empty())
                    }
                    Err(ProtocolError::CyclicPartialOrder) => cov.cycles_rejected += 1,
                    Err(_) => {}
                }
                format!("define under {parent} after {after:?} before {before:?}")
            }
            3 | 4 => {
                let defined = in_state(&pm, TxnState::Defined);
                let Some(t) = pick(&mut rng, &defined) else {
                    continue;
                };
                let strategy = if rng.coin() {
                    Strategy::GreedyLatest
                } else {
                    Strategy::Backtracking
                };
                let _ = pm.validate(Txn(t), strategy);
                format!("validate {t}")
            }
            5 => {
                // Mostly read a version whose author is still live: the
                // reads a later abort of that author has to cascade to.
                let dirty: Vec<(usize, EntityId)> = validated
                    .iter()
                    .flat_map(|&t| pm.nodes[t].input_set.iter().map(move |&e| (t, e)))
                    .filter(|&(t, e)| pm.live_author(t, e).is_some())
                    .collect();
                let (t, e) = match pick(&mut rng, &dirty) {
                    Some(pair) if rng.coin() => pair,
                    _ => match pick(&mut rng, &validated) {
                        Some(t) => (t, e),
                        None => continue,
                    },
                };
                let _ = pm.read(Txn(t), e);
                format!("read {t} {e}")
            }
            6 | 7 => {
                let Some(t) = pick(&mut rng, &validated) else {
                    continue;
                };
                if pending.is_some_and(|(_, locked)| locked == e) {
                    continue;
                }
                pm.write(Txn(t), e, rng.below(10) as i64)
                    .expect("in domain");
                cov.nested_writes += u64::from(pm.depth(t) >= 2);
                format!("write {t} {e}")
            }
            8 => match pending.take() {
                // finish the split write, unless its writer was aborted
                // underneath it in the meantime
                Some((t, locked)) => {
                    if pm.nodes[t.0].state != TxnState::Validated {
                        continue;
                    }
                    pm.finish_write(t, locked, rng.below(10) as i64)
                        .expect("in domain");
                    cov.split_writes += 1;
                    format!("finish_write {} {locked}", t.0)
                }
                None => {
                    let Some(t) = pick(&mut rng, &validated) else {
                        continue;
                    };
                    pm.begin_write(Txn(t), e).expect("validated");
                    pending = Some((Txn(t), e));
                    format!("begin_write {t} {e}")
                }
            },
            9 | 10 => {
                let Some(t) = pick(&mut rng, &validated) else {
                    continue;
                };
                let gate = pm.reference_commit_gate(t);
                let outcome = pm.commit(Txn(t)).expect("validated");
                if let Some(pending) = gate {
                    assert_eq!(outcome, pending, "commit {t} at step {step} of seed {seed}");
                    cov.gated_commits += 1;
                }
                format!("commit {t}")
            }
            _ => {
                let mut live = in_state(&pm, TxnState::Defined);
                live.extend(&validated);
                // Mostly abort the live author of a version another
                // transaction has read.
                let read_from: Vec<usize> = validated
                    .iter()
                    .flat_map(|&r| pm.nodes[r].reads_done.keys().map(move |&e| (r, e)))
                    .filter_map(|(r, e)| pm.live_author(r, e))
                    .collect();
                let t = match pick(&mut rng, &read_from) {
                    Some(t) if rng.coin() => t,
                    _ => match pick(&mut rng, &live) {
                        Some(t) => t,
                        None => continue,
                    },
                };
                let wrote_below_a_child = pm.depth(t) >= 2
                    && pm
                        .schema
                        .entity_ids()
                        .any(|e| pm.subtree_last_version(t, e).is_some());
                pm.abort(Txn(t)).expect("live");
                cov.nested_aborts_after_write += u64::from(wrote_below_a_child);
                format!("abort {t}")
            }
        };
        for &c in &committed_before {
            if pm.nodes[c].state != TxnState::Aborted {
                continue;
            }
            let parent = pm.nodes[c].parent.expect("non-root");
            assert!(
                pm.nodes[parent].state == TxnState::Aborted,
                "committed {c} undone by a sibling cascade at step {step} of seed {seed}: {what}"
            );
            cov.undone_by_ancestor += 1;
        }
        pm.assert_index_matches_reference(&format!("step {step} of seed {seed}: {what}"), cov);
    }
    pm.stats()
}

#[test]
fn indexed_candidates_equal_the_reference_after_every_call() {
    let mut cov = Coverage::default();
    let mut stats = ProtocolStats::default();
    for seed in 0..40 {
        let s = random_session(0xC0FFEE + seed, 100, &mut cov);
        stats.re_assigns += s.re_assigns;
        stats.reeval_aborts += s.reeval_aborts;
        stats.cascade_aborts += s.cascade_aborts;
        stats.validation_failures += s.validation_failures;
    }
    // The sessions reached the cases the index has to get right.
    assert!(cov.nested_writes > 0, "{cov:?}");
    assert!(cov.nested_aborts_after_write > 0, "{cov:?}");
    assert!(cov.undone_by_ancestor > 0, "{cov:?}");
    assert!(cov.split_writes > 0, "{cov:?}");
    assert!(
        cov.ordered_defines > 0 && cov.cycles_rejected > 0,
        "{cov:?}"
    );
    assert!(
        cov.borrowed_multi > 0 && cov.filtered > 0 && cov.gated_commits > 0,
        "{cov:?}"
    );
    assert!(stats.re_assigns > 0, "{stats:?}");
    assert!(stats.reeval_aborts > 0, "{stats:?}");
    assert!(stats.cascade_aborts > 0, "{stats:?}");
    assert!(stats.validation_failures > 0, "{stats:?}");
}
