//! Convert a finished protocol session into model-level objects so the
//! `ks-core` checkers can verify Lemma 4 (parent-based) and Theorem 2
//! (correct) on *actual protocol output*.
//!
//! The extraction is per-level: for a parent transaction, each child
//! becomes a model transaction whose leaf steps replay its observed reads
//! and its written values (as constant writes — the model only needs the
//! state transformation, not the program that computed it); the child's
//! assigned snapshot becomes its input version state `X(t_i)`; reads-from
//! edges connect children whose assigned versions were authored inside a
//! sibling's subtree; and the parent's result view is `X(t_f)`.

use crate::manager::{ProtocolManager, Txn, TxnState};
use crate::ProtocolError;
use ks_core::{Execution, Expr, Specification, Step, Transaction, TreeExecution, TxnName};
use ks_kernel::{DatabaseState, UniqueState};
use ks_mvstore::{VersionId, INITIAL_AUTHOR};
use std::collections::{BTreeMap, BTreeSet};

/// Build the model [`Transaction`] of one protocol node (recursively).
pub fn model_transaction(pm: &ProtocolManager, t: Txn) -> Result<Transaction, ProtocolError> {
    let children = pm.children_of(t)?;
    let spec = Specification {
        input: pm_spec(pm, t)?.input,
        output: pm_spec(pm, t)?.output,
    };
    if children.is_empty() {
        let mut steps: Vec<Step> = pm.reads_of(t)?.into_iter().map(Step::Read).collect();
        for &v in pm.writes_of(t)? {
            let value = pm.store().read(v)?;
            steps.push(Step::Write(v.entity, Expr::Const(value)));
        }
        Ok(Transaction::leaf(TxnName::root(), spec, steps))
    } else {
        // Restrict to committed children at every level so the model
        // transaction matches the committed TreeExecution shape; aborted
        // subtrees are outside the final static computation.
        let committed: Vec<Txn> = children
            .iter()
            .copied()
            .filter(|&c| pm.state_of(c).unwrap_or(TxnState::Aborted) == TxnState::Committed)
            .collect();
        let kids: Result<Vec<Transaction>, ProtocolError> = committed
            .iter()
            .map(|&c| model_transaction(pm, c))
            .collect();
        let slot_to_new: BTreeMap<usize, usize> = committed
            .iter()
            .enumerate()
            .map(|(new, &c)| (slot_of(pm, c), new))
            .collect();
        let order: Vec<(usize, usize)> = pm
            .order_of(t)?
            .iter()
            .filter_map(|&(a, b)| Some((*slot_to_new.get(&a)?, *slot_to_new.get(&b)?)))
            .collect();
        Transaction::nested(TxnName::root(), spec, kids?, order)
            .map_err(|_| ProtocolError::UnknownTxn)
    }
}

fn pm_spec(pm: &ProtocolManager, t: Txn) -> Result<Specification, ProtocolError> {
    // The manager stores the spec; expose it through snapshot-independent
    // introspection. (We reconstruct from the node's own accessors.)
    pm.spec_of(t)
}

/// Build the model [`Execution`] of the children of `parent`.
///
/// Only committed children participate (aborted subtrees are outside the
/// final execution, matching the paper's static view of a completed
/// computation). Returns the execution plus the matching transaction whose
/// children are the committed ones in slot order.
pub fn model_execution(
    pm: &ProtocolManager,
    parent: Txn,
) -> Result<(Transaction, DatabaseState, Execution), ProtocolError> {
    let all_children = pm.children_of(parent)?;
    let committed: Vec<Txn> = all_children
        .iter()
        .copied()
        .filter(|&c| pm.state_of(c).unwrap_or(TxnState::Aborted) == TxnState::Committed)
        .collect();
    // Model transaction over committed children, with the order projected.
    let kids: Result<Vec<Transaction>, ProtocolError> = committed
        .iter()
        .map(|&c| model_transaction(pm, c))
        .collect();
    let slot_to_new: BTreeMap<usize, usize> = committed
        .iter()
        .enumerate()
        .map(|(new, &c)| (slot_of(pm, c), new))
        .collect();
    let order: Vec<(usize, usize)> = pm
        .order_of(parent)?
        .iter()
        .filter_map(|&(a, b)| Some((*slot_to_new.get(&a)?, *slot_to_new.get(&b)?)))
        .collect();
    let spec = pm.spec_of(parent)?;
    let txn = Transaction::nested(TxnName::root(), spec, kids?, order)
        .map_err(|_| ProtocolError::UnknownTxn)?;

    // X(t_i): materialized snapshots. R edges: input versions authored in
    // a committed sibling's subtree.
    let mut inputs = Vec::with_capacity(committed.len());
    let mut reads_from: Vec<(usize, usize)> = Vec::new();
    let mut seen_edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (i, &c) in committed.iter().enumerate() {
        let snap = pm.snapshot_of(c)?;
        inputs.push(pm.store().materialize(snap)?);
        for e in pm.schema().entity_ids() {
            let v = snap.version_of(e).unwrap_or(VersionId {
                entity: e,
                index: 0,
            });
            let author = pm.store().meta(v)?.author;
            if author == INITIAL_AUTHOR {
                continue;
            }
            if let Some(src_slot) = author_slot_under(pm, parent, author.0 as usize) {
                if let Some(&j) = slot_to_new.get(&src_slot) {
                    if j != i && seen_edges.insert((j, i)) {
                        reads_from.push((j, i));
                    }
                }
            }
        }
    }
    let final_input: UniqueState = pm.result_view(parent)?;
    let parent_state = DatabaseState::singleton(pm.store().materialize(pm.snapshot_of(parent)?)?);
    Ok((
        txn,
        parent_state,
        Execution {
            reads_from,
            inputs,
            final_input,
        },
    ))
}

fn slot_of(pm: &ProtocolManager, t: Txn) -> usize {
    pm.slot_of(t).expect("valid handle")
}

/// The slot (under `parent`) of the child whose subtree contains the node
/// with raw index `author_idx`, if any.
fn author_slot_under(pm: &ProtocolManager, parent: Txn, author_idx: usize) -> Option<usize> {
    pm.child_slot_containing(parent, Txn(author_idx))
}

/// Build the full [`TreeExecution`] of `parent`'s committed subtree: the
/// execution at this level plus, recursively, at every committed internal
/// child — the input to `ks_core::check_tree` (the paper's multi-level
/// correctness criterion).
pub fn model_execution_tree(
    pm: &ProtocolManager,
    parent: Txn,
) -> Result<(Transaction, DatabaseState, TreeExecution), ProtocolError> {
    let (txn, parent_state, exec) = model_execution(pm, parent)?;
    let committed: Vec<Txn> = pm
        .children_of(parent)?
        .into_iter()
        .filter(|&c| pm.state_of(c).unwrap_or(TxnState::Aborted) == TxnState::Committed)
        .collect();
    let mut children = Vec::with_capacity(committed.len());
    for &c in &committed {
        if pm.children_of(c)?.is_empty() {
            children.push(None);
        } else {
            let (_, _, sub) = model_execution_tree(pm, c)?;
            children.push(Some(sub));
        }
    }
    Ok((txn, parent_state, TreeExecution { exec, children }))
}
