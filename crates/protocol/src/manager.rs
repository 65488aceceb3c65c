//! The phased transaction manager — the protocol of Section 5.1.

use crate::candidates::{allowed_versions, CandidateList, SiblingInfo};
use crate::ProtocolError;
use ks_core::{Specification, TxnName};
use ks_kernel::{EntityId, Schema, UniqueState, Value};
use ks_mvstore::{AuthorId, MvStore, Snapshot, VersionId};
use ks_obs::{ObsKind, ObsSink};
use ks_predicate::{solve_pinned, Cnf, SolveOutcome, Strategy};
use ks_schedule::OrderClosure;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Handle to a transaction managed by [`ProtocolManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Txn(pub usize);

/// Lifecycle state (the four phases; "execution" spans `Validated`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Defined, awaiting validation.
    Defined,
    /// Validated: versions assigned, may read/write/define children.
    Validated,
    /// Terminated successfully.
    Committed,
    /// Terminated by abort.
    Aborted,
}

impl TxnState {
    /// The phase name error messages use.
    pub(crate) fn label(self) -> &'static str {
        match self {
            TxnState::Defined => "defined",
            TxnState::Validated => "validated",
            TxnState::Committed => "committed",
            TxnState::Aborted => "aborted",
        }
    }
}

/// Outcome of validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationOutcome {
    /// Versions assigned; the transaction may execute.
    Validated,
    /// A momentary `W` lock on this entity blocks validation ("false" in
    /// Figure 3); retry shortly.
    Blocked(EntityId),
    /// No allowed version assignment satisfies `I_t` right now. The caller
    /// may retry later (new versions may appear) or abort.
    CannotSatisfy,
    /// (Pessimistic variant only.) A sibling predecessor that may still
    /// write this transaction's inputs has not terminated; wait for it.
    MustWait(Txn),
}

/// Outcome of a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The value of the assigned version.
    Value(Value),
    /// Blocked on a momentary `W` lock.
    Blocked(EntityId),
}

/// What `re-eval` did to one affected sibling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReEvalAction {
    /// The sibling held only `R_v`; its versions were re-assigned.
    Reassigned(Txn),
    /// The sibling had already read the entity — aborted (Figure 4).
    Aborted(Txn),
    /// Re-assignment failed; the sibling was aborted.
    ReassignFailedAborted(Txn),
}

/// Result of a successful write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReport {
    /// The created version.
    pub version: VersionId,
    /// What `re-eval` did to sibling readers.
    pub reeval: Vec<ReEvalAction>,
}

/// Outcome of a commit attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Committed.
    Committed,
    /// A sibling predecessor has not committed yet; retry later.
    PredecessorsPending(Txn),
    /// A child has not terminated yet; retry later.
    ChildrenPending(Txn),
    /// `O_t` does not hold on the transaction's final state. No state
    /// change — the caller decides (usually: more work, or abort).
    OutputViolated,
}

/// Counters for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Successful validations.
    pub validations: u64,
    /// Validation attempts that found no satisfying assignment.
    pub validation_failures: u64,
    /// Reads served.
    pub reads: u64,
    /// Reads that returned a version other than the parent's, i.e. another
    /// transaction's write (SSI and 2PL: any version but the initial one).
    pub fresh_reads: u64,
    /// Versions written.
    pub writes: u64,
    /// `re-eval` invocations (one per write).
    pub re_evals: u64,
    /// Successful re-assignments of `R_v` holders.
    pub re_assigns: u64,
    /// Aborts caused by `re-eval` (read holders + failed re-assigns).
    pub reeval_aborts: u64,
    /// Aborts cascaded from explicit aborts.
    pub cascade_aborts: u64,
}

#[derive(Debug, Clone)]
struct Node {
    name: TxnName,
    parent: Option<usize>,
    children: Vec<usize>,
    /// Partial order over child *slots* of this node, as defined.
    order: Vec<(usize, usize)>,
    /// `order`, transitively closed — the one place that answers "is slot
    /// `a` before slot `b`"; `define` closes it edge by edge.
    closure: OrderClosure,
    /// The one place that knows the last writes: entity → this node's own
    /// version of it plus, per live child slot, the newest version written
    /// inside that child's subtree. A write updates every ancestor, an
    /// abort drops the child and recomputes the enclosing subtrees'
    /// entries, and a re-assignment of this node rebases its lists.
    writers: BTreeMap<EntityId, CandidateList>,
    /// Children not yet terminated (defined or validated), by node index:
    /// what `re-eval` and the commit gate visit instead of every child
    /// ever defined.
    live: BTreeSet<usize>,
    spec: Specification,
    /// `spec.input_set()`, computed once (specs never change).
    input_set: BTreeSet<EntityId>,
    state: TxnState,
    /// Slot within the parent's child list.
    slot: usize,
    /// Version assignment (valid once `Validated`). Entities outside the
    /// input set default to the parent's version at materialization.
    snapshot: Snapshot,
    /// Entities actually read, with the value consumed (`R` locks; also
    /// the pins for `re-assign`).
    reads_done: BTreeMap<EntityId, Value>,
    /// Versions written by this node itself.
    writes: Vec<VersionId>,
    /// The store's next stamp when this node was defined: no version its
    /// subtree writes is older.
    born: u64,
    /// The re-assignment log, the only provenance kept: each assignment
    /// this node wrote under before a re-assignment replaced it, oldest
    /// first, with `writes.len()` at that moment. `writes[k]` consumed the
    /// first logged assignment whose count exceeds `k`, else `snapshot`.
    /// Empty unless the node is re-assigned after it wrote.
    superseded: Vec<(usize, Snapshot)>,
}

impl Node {
    fn new(
        name: TxnName,
        parent: Option<usize>,
        slot: usize,
        spec: Specification,
        state: TxnState,
        born: u64,
    ) -> Node {
        Node {
            name,
            parent,
            children: Vec::new(),
            order: Vec::new(),
            closure: OrderClosure::new(),
            writers: BTreeMap::new(),
            live: BTreeSet::new(),
            input_set: spec.input_set(),
            spec,
            state,
            slot,
            snapshot: Snapshot::new(),
            reads_done: BTreeMap::new(),
            writes: Vec::new(),
            born,
            superseded: Vec::new(),
        }
    }
}

/// The protocol manager: a nested-transaction scheduler over a
/// multi-version store that admits only correct executions (Theorem 2).
///
/// A minimal four-phase session:
///
/// ```
/// use ks_core::Specification;
/// use ks_kernel::{Domain, EntityId, Schema, UniqueState};
/// use ks_predicate::{parse_cnf, Strategy};
/// use ks_protocol::{CommitOutcome, ProtocolManager, ReadOutcome, ValidationOutcome};
///
/// let schema = Schema::uniform(["x"], Domain::Range { min: 0, max: 99 });
/// let initial = UniqueState::new(&schema, vec![5]).unwrap();
/// let mut pm = ProtocolManager::new(schema.clone(), &initial, Specification::trivial());
///
/// // 1. definition
/// let spec = Specification::new(parse_cnf(&schema, "x >= 0").unwrap(),
///                               parse_cnf(&schema, "x = 6").unwrap());
/// let t = pm.define(pm.root(), spec, &[], &[]).unwrap();
/// // 2. validation (R_v locks + version assignment)
/// assert_eq!(pm.validate(t, Strategy::Backtracking).unwrap(),
///            ValidationOutcome::Validated);
/// // 3. execution
/// assert_eq!(pm.read(t, EntityId(0)).unwrap(), ReadOutcome::Value(5));
/// pm.write(t, EntityId(0), 6).unwrap();
/// // 4. termination (output condition checked)
/// assert_eq!(pm.commit(t).unwrap(), CommitOutcome::Committed);
/// ```
pub struct ProtocolManager {
    schema: Schema,
    store: MvStore,
    nodes: Vec<Node>,
    /// Momentary `W` locks (entity → holder), exposed so tests and the
    /// concurrent adapter can exercise the "false" matrix entries.
    write_locks: BTreeMap<EntityId, usize>,
    stats: ProtocolStats,
    /// Flight-recorder sink; when attached, every protocol decision is
    /// emitted as a structured event (see `ks-obs`).
    obs: Option<ObsSink>,
}

impl ProtocolManager {
    /// Create a manager over a fresh store. The root transaction carries
    /// `root_spec` (typically `Specification::classical(C)`); it is born
    /// validated, with the initial versions as its assignment.
    pub fn new(schema: Schema, initial: &UniqueState, root_spec: Specification) -> Self {
        let store = MvStore::new(schema.clone(), initial);
        let root = Node::new(TxnName::root(), None, 0, root_spec, TxnState::Validated, 0);
        ProtocolManager {
            schema,
            store,
            nodes: vec![root],
            write_locks: BTreeMap::new(),
            stats: ProtocolStats::default(),
            obs: None,
        }
    }

    /// Attach a flight-recorder sink. Subsequent protocol decisions —
    /// candidate consideration, version assignment, unsatisfiable
    /// validations (with the failed clause), `re-eval` repairs, and
    /// cascade edges — are recorded as structured events.
    pub fn attach_obs(&mut self, sink: ObsSink) {
        self.obs = Some(sink);
    }

    /// The attached observability sink, if any.
    pub fn obs(&self) -> Option<&ObsSink> {
        self.obs.as_ref()
    }

    fn emit(&self, txn: usize, kind: ObsKind) {
        if let Some(sink) = &self.obs {
            sink.emit(txn as u32, kind);
        }
    }

    fn obs_enabled(&self) -> bool {
        self.obs.as_ref().is_some_and(|s| s.is_enabled())
    }

    /// The root transaction.
    pub fn root(&self) -> Txn {
        Txn(0)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The underlying store (read-only access).
    pub fn store(&self) -> &MvStore {
        &self.store
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ProtocolStats {
        self.stats
    }

    fn node(&self, t: Txn) -> Result<&Node, ProtocolError> {
        self.nodes.get(t.0).ok_or(ProtocolError::UnknownTxn)
    }

    /// Current state of a transaction.
    pub fn state_of(&self, t: Txn) -> Result<TxnState, ProtocolError> {
        Ok(self.node(t)?.state)
    }

    /// Hierarchical name of a transaction.
    pub fn name_of(&self, t: Txn) -> Result<TxnName, ProtocolError> {
        Ok(self.node(t)?.name.clone())
    }

    /// The assigned snapshot (after validation).
    pub fn snapshot_of(&self, t: Txn) -> Result<&Snapshot, ProtocolError> {
        Ok(&self.node(t)?.snapshot)
    }

    /// Children handles of a transaction, in slot order.
    pub fn children_of(&self, t: Txn) -> Result<Vec<Txn>, ProtocolError> {
        Ok(self.node(t)?.children.iter().map(|&i| Txn(i)).collect())
    }

    /// Assignments kept in re-assignment logs: those a node wrote under
    /// before a re-assignment replaced them. This is all the provenance the
    /// manager stores; otherwise a version's taint is derived from its
    /// author's current assignment.
    pub fn logged_assignments(&self) -> usize {
        self.nodes.iter().map(|n| n.superseded.len()).sum()
    }

    /// Versions written directly by a transaction.
    pub fn writes_of(&self, t: Txn) -> Result<&[VersionId], ProtocolError> {
        Ok(&self.node(t)?.writes)
    }

    /// Entities read so far (the `R` locks).
    pub fn reads_of(&self, t: Txn) -> Result<Vec<EntityId>, ProtocolError> {
        Ok(self.node(t)?.reads_done.keys().copied().collect())
    }

    /// The partial order among `parent`'s children, as slot pairs.
    pub fn order_of(&self, parent: Txn) -> Result<&[(usize, usize)], ProtocolError> {
        Ok(&self.node(parent)?.order)
    }

    /// The transaction's specification.
    pub fn spec_of(&self, t: Txn) -> Result<Specification, ProtocolError> {
        Ok(self.node(t)?.spec.clone())
    }

    /// The slot of a transaction within its parent's child list.
    pub fn slot_of(&self, t: Txn) -> Result<usize, ProtocolError> {
        Ok(self.node(t)?.slot)
    }

    /// The slot (under `parent`) of the child whose subtree contains
    /// `node`, or `None` if `node` is outside `parent`'s subtree.
    pub fn child_slot_containing(&self, parent: Txn, node: Txn) -> Option<usize> {
        let mut cur = node.0;
        loop {
            let n = self.nodes.get(cur)?;
            match n.parent {
                Some(p) if p == parent.0 => return Some(n.slot),
                Some(p) => cur = p,
                None => return None,
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 1: transaction definition
    // ------------------------------------------------------------------

    /// Define a subtransaction of `parent` with specification `spec`,
    /// ordered after the siblings in `after` and before those in `before`.
    pub fn define(
        &mut self,
        parent: Txn,
        spec: Specification,
        after: &[Txn],
        before: &[Txn],
    ) -> Result<Txn, ProtocolError> {
        let pstate = self.node(parent)?.state;
        if pstate != TxnState::Validated {
            return Err(ProtocolError::WrongPhase {
                attempted: "define a subtransaction",
                state: pstate.label(),
            });
        }
        // Resolve siblings to slots.
        let mut after_slots = Vec::new();
        for &a in after {
            let n = self.node(a)?;
            if n.parent != Some(parent.0) {
                return Err(ProtocolError::NotASibling);
            }
            after_slots.push(n.slot);
        }
        let mut before_slots = Vec::new();
        for &b in before {
            let n = self.node(b)?;
            if n.parent != Some(parent.0) {
                return Err(ProtocolError::NotASibling);
            }
            // The prohibition option: refuse to precede a committed
            // sibling whose input set overlaps our output objects.
            if n.state == TxnState::Committed {
                let my_outputs = spec.output.entities();
                if my_outputs.intersection(&n.input_set).next().is_some() {
                    return Err(ProtocolError::PrecedesCommittedReader);
                }
            }
            before_slots.push(n.slot);
        }
        // Cycle check on the extended order: the new slot has no edges
        // yet, so a cycle can only run `after` sibling → new → `before`
        // sibling ⇝ that `after` sibling.
        let pnode = self.node(parent)?;
        let closes_cycle = before_slots.iter().any(|&b| {
            after_slots
                .iter()
                .any(|&a| a == b || pnode.closure.has_edge(b, a))
        });
        if closes_cycle {
            return Err(ProtocolError::CyclicPartialOrder);
        }
        let slot = pnode.children.len();
        let name = pnode.name.child(slot as u32);
        let idx = self.nodes.len();
        self.nodes.push(Node::new(
            name,
            Some(parent.0),
            slot,
            spec,
            TxnState::Defined,
            self.store.next_stamp(),
        ));
        let pnode = &mut self.nodes[parent.0];
        pnode.children.push(idx);
        pnode.live.insert(idx);
        let edges = after_slots
            .into_iter()
            .map(|a| (a, slot))
            .chain(before_slots.into_iter().map(|b| (slot, b)));
        for (a, b) in edges {
            pnode.order.push((a, b));
            let acyclic = pnode.closure.insert(a, b);
            debug_assert!(acyclic, "checked above");
        }
        self.emit(idx, ObsKind::TxnBegin);
        Ok(Txn(idx))
    }

    // ------------------------------------------------------------------
    // Phase 2: validation
    // ------------------------------------------------------------------

    /// The parent's assigned version of an entity (initial version for the
    /// root's empty snapshot).
    fn parent_version(&self, parent_idx: usize, e: EntityId) -> VersionId {
        self.nodes[parent_idx]
            .snapshot
            .version_of(e)
            .unwrap_or(VersionId {
                entity: e,
                index: 0,
            })
    }

    /// Last version of `e` written by the subtree of node `idx`
    /// (non-aborted nodes only), by walking it: what `writers` memoises,
    /// recomputed after an abort inside the subtree.
    fn subtree_last_version(&self, idx: usize, e: EntityId) -> Option<VersionId> {
        let node = &self.nodes[idx];
        if node.state == TxnState::Aborted {
            return None;
        }
        let mut best: Option<(u64, VersionId)> = None;
        let mut consider = |v: VersionId, store: &MvStore| {
            if v.entity == e {
                let stamp = store.meta(v).expect("written version").stamp;
                if best.is_none_or(|(s, _)| stamp > s) {
                    best = Some((stamp, v));
                }
            }
        };
        for &v in &node.writes {
            consider(v, &self.store);
        }
        for &c in &node.children {
            if let Some(v) = self.subtree_last_version(c, e) {
                consider(v, &self.store);
            }
        }
        best.map(|(_, v)| v)
    }

    /// Candidate versions for `e` when validating node `idx` (rules 1–3 +
    /// predecessor filter of Section 5.1), from the siblings that wrote `e`.
    /// When no order edge constrains `idx` for `e` the parent's maintained
    /// list is the answer, borrowed; otherwise the rules filter its writers.
    /// `clean` carries the versions the transitive filter has cleared
    /// across the calls of one validation.
    fn candidates_for(
        &self,
        idx: usize,
        e: EntityId,
        clean: &mut HashSet<VersionId>,
    ) -> Cow<'_, CandidateList> {
        let target_slot = self.nodes[idx].slot;
        let parent_idx = self.nodes[idx].parent.expect("root never validates");
        let parent = &self.nodes[parent_idx];
        let list = parent.writers.get(&e);
        if let Some(list) = list {
            let unordered = !parent.closure.has_successors(target_slot)
                && !list.has_writer(target_slot)
                && !parent
                    .closure
                    .predecessors(target_slot)
                    .any(|p| list.has_writer(p));
            if unordered {
                return Cow::Borrowed(list);
            }
        }
        let siblings: Vec<SiblingInfo> = list
            .into_iter()
            .flat_map(CandidateList::writers)
            .filter(|s| s.slot != target_slot)
            .collect();
        let mut allowed = allowed_versions(
            target_slot,
            &siblings,
            &parent.closure,
            self.parent_version(parent_idx, e),
        );
        // Transitive rule 1: drop versions a successor's data reached (the
        // paper filters only direct authorship).
        if let Some(horizon) = parent
            .closure
            .successors(target_slot)
            .map(|s| self.nodes[parent.children[s]].born)
            .min()
        {
            allowed.retain(|&v| !self.tainted(v, parent_idx, target_slot, horizon, clean));
        }
        let valued = allowed
            .into_iter()
            .map(|v| (v, self.store.read(v).expect("candidate exists")));
        Cow::Owned(CandidateList::of_versions(e, valued))
    }

    /// Does data written in the subtree of a successor of slot `target`
    /// (under `parent_idx`) reach version `v`? Without this, a successor's
    /// data reaches a predecessor through an unordered middleman, against
    /// the execution definition `(i,j) ∈ P⁺ ⇒ (j,i) ∉ R⁺` (see DESIGN.md).
    ///
    /// A backward search over consumed sets: a version consumed its
    /// author's whole assigned version state over `I_t` at the write, not
    /// just the performed reads (the model's R relation justifies
    /// `X(t_i)`), and each of those versions consumed its own author's.
    /// It stops at the first version a successor's subtree wrote. A
    /// version consumes only older ones, so nothing stamped below
    /// `horizon`, the oldest stamp a successor's subtree can have written,
    /// is searched. `clean` grows by the versions of each search that
    /// finds nothing.
    fn tainted(
        &self,
        v: VersionId,
        parent_idx: usize,
        target: usize,
        horizon: u64,
        clean: &mut HashSet<VersionId>,
    ) -> bool {
        let closure = &self.nodes[parent_idx].closure;
        let mut searched = Vec::new();
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            // Initial versions consume nothing.
            if u.index == 0 || clean.contains(&u) {
                continue;
            }
            let meta = self.store.meta(u).expect("consumed version exists");
            if meta.stamp < horizon {
                continue;
            }
            clean.insert(u);
            searched.push(u);
            let author = meta.author.0 as usize;
            if self
                .slot_of_author(parent_idx, author)
                .is_some_and(|s| closure.has_edge(target, s))
            {
                for u in searched {
                    clean.remove(&u);
                }
                return true;
            }
            let node = &self.nodes[author];
            let assigned = self.assignment_of(author, u);
            stack.extend(
                node.input_set
                    .iter()
                    .filter_map(|&e| assigned.version_of(e)),
            );
        }
        false
    }

    /// The assignment node `author` wrote its version `v` under.
    fn assignment_of(&self, author: usize, v: VersionId) -> &Snapshot {
        let node = &self.nodes[author];
        if node.superseded.is_empty() {
            return &node.snapshot;
        }
        let k = node
            .writes
            .iter()
            .position(|&w| w == v)
            .expect("the author wrote the version");
        node.superseded
            .iter()
            .find(|&&(upto, _)| k < upto)
            .map_or(&node.snapshot, |(_, snapshot)| snapshot)
    }

    /// Solve the input predicate of node `idx` over its candidate version
    /// sets, honouring `pins` (entities whose value is already fixed by
    /// performed reads). Returns the chosen snapshot. The work is per entity
    /// of `I_t`: the predicate mentions no other, and outside `I_t` the
    /// transaction keeps its parent's versions.
    fn assign_versions(
        &self,
        idx: usize,
        pins: &[(EntityId, Value)],
        strategy: Strategy,
    ) -> Option<Snapshot> {
        let node = &self.nodes[idx];
        let mut lists: Vec<(EntityId, Cow<'_, CandidateList>)> =
            Vec::with_capacity(node.input_set.len());
        let mut clean = HashSet::new();
        for &e in &node.input_set {
            let list = self.candidates_for(idx, e, &mut clean);
            self.emit(
                idx,
                ObsKind::CandidatesConsidered {
                    entity: e.index() as u32,
                    count: list.len() as u32,
                },
            );
            if list.is_empty() {
                // Every allowed version carries a successor's data: nothing
                // to assign (the solver requires a candidate per entity).
                return None;
            }
            lists.push((e, list));
        }
        // The solver wants a list per schema entity; one it never reads
        // takes any value. A list's values come in stamp order, one per
        // value, so GreedyLatest prefers the newest.
        const UNREAD: &[Value] = &[0];
        let mut candidates: Vec<&[Value]> = vec![UNREAD; self.schema.len()];
        for (e, list) in &lists {
            candidates[e.index()] = list.values();
        }
        let input = &node.spec.input;
        let (outcome, _) = solve_pinned(input, &candidates, pins, strategy);
        let values = match outcome {
            SolveOutcome::Sat(v) => v,
            SolveOutcome::Unsat => {
                // The *why*: name the clause no candidate combination can
                // satisfy (u32::MAX = clauses individually satisfiable but
                // jointly conflicting). Computed only when someone listens.
                if self.obs_enabled() {
                    let clause = unsat_clause_witness(input, &candidates, pins);
                    self.emit(idx, ObsKind::ValidationUnsat { clause });
                }
                return None;
            }
        };
        let mut snapshot = Snapshot::new();
        let parent_idx = node.parent.expect("root never validates");
        let parent = &self.nodes[parent_idx];
        for e in parent.snapshot.entities() {
            if !node.input_set.contains(&e) {
                snapshot.select(parent.snapshot.version_of(e).expect("selected"));
            }
        }
        // Map chosen values back to versions: the parent's own when it
        // carries the value, else the newest version carrying it.
        for (e, list) in &lists {
            match list.version_with(values[e.index()], self.parent_version(parent_idx, *e)) {
                Some(v) => {
                    self.emit(
                        idx,
                        ObsKind::VersionAssigned {
                            entity: e.index() as u32,
                            version: v.index,
                            forced: false,
                        },
                    );
                    snapshot.select(v);
                }
                // A pinned value from an already-read version that has
                // since left the candidate set: keep the read version.
                None => {
                    snapshot.select(node.snapshot.version_of(*e)?);
                }
            }
        }
        Some(snapshot)
    }

    /// Install a (re-)assignment. This node's version is the base of every
    /// candidate list it keeps for its children, so those follow.
    fn set_snapshot(&mut self, idx: usize, snapshot: Snapshot) {
        self.replace_snapshot(idx, snapshot);
        let entities: Vec<EntityId> = self.nodes[idx].writers.keys().copied().collect();
        for e in entities {
            self.rebase(idx, e);
        }
    }

    /// Replace node `idx`'s assignment. When the node wrote under the
    /// outgoing one, it goes to the re-assignment log: those versions
    /// consumed it.
    fn replace_snapshot(&mut self, idx: usize, snapshot: Snapshot) {
        let node = &mut self.nodes[idx];
        let outgoing = std::mem::replace(&mut node.snapshot, snapshot);
        let upto = node.writes.len();
        if upto > node.superseded.last().map_or(0, |&(n, _)| n) {
            node.superseded.push((upto, outgoing));
        }
    }

    /// Point node `idx`'s list for `e` at its current version of `e`.
    fn rebase(&mut self, idx: usize, e: EntityId) {
        let version = self.parent_version(idx, e);
        let value = self.store.read(version).expect("assigned version");
        if let Some(list) = self.nodes[idx].writers.get_mut(&e) {
            list.rebase(version, value);
        }
    }

    /// Validate a defined transaction: acquire `R_v` locks on its input
    /// set and search for a satisfying version assignment.
    pub fn validate(
        &mut self,
        t: Txn,
        strategy: Strategy,
    ) -> Result<ValidationOutcome, ProtocolError> {
        let state = self.node(t)?.state;
        if state != TxnState::Defined {
            return Err(ProtocolError::WrongPhase {
                attempted: "validate",
                state: state.label(),
            });
        }
        // R_v vs a momentarily held W: "false" → block.
        for &e in &self.node(t)?.input_set {
            if let Some(&holder) = self.write_locks.get(&e) {
                if holder != t.0 {
                    return Ok(ValidationOutcome::Blocked(e));
                }
            }
        }
        match self.assign_versions(t.0, &[], strategy) {
            Some(snapshot) => {
                self.set_snapshot(t.0, snapshot);
                self.nodes[t.0].state = TxnState::Validated;
                self.stats.validations += 1;
                self.emit(t.0, ObsKind::TxnValidated);
                Ok(ValidationOutcome::Validated)
            }
            None => {
                self.stats.validation_failures += 1;
                Ok(ValidationOutcome::CannotSatisfy)
            }
        }
    }

    /// The **pessimistic** validation variant — the alternative Section 5.1
    /// rejects ("a pessimistic protocol could require the transaction block
    /// at this point until all predecessors have either committed or
    /// written every data item in the transaction's input set, but this
    /// could require an extremely long wait"). Blocks (returns
    /// [`ValidationOutcome::MustWait`]) while any sibling predecessor whose
    /// declared outputs overlap this transaction's input set is still live.
    /// Used by the `ablate-optimism` experiment; the protocol proper uses
    /// [`ProtocolManager::validate`].
    pub fn validate_pessimistic(
        &mut self,
        t: Txn,
        strategy: Strategy,
    ) -> Result<ValidationOutcome, ProtocolError> {
        let state = self.node(t)?.state;
        if state != TxnState::Defined {
            return Err(ProtocolError::WrongPhase {
                attempted: "validate",
                state: state.label(),
            });
        }
        let parent = &self.nodes[self.node(t)?.parent.ok_or(ProtocolError::RootImmutable)?];
        let my_inputs = &self.node(t)?.input_set;
        for slot in parent.closure.predecessors(self.node(t)?.slot) {
            let s = parent.children[slot];
            let sn = &self.nodes[s];
            let live = matches!(sn.state, TxnState::Defined | TxnState::Validated);
            if live
                && sn
                    .spec
                    .output
                    .entities()
                    .intersection(my_inputs)
                    .next()
                    .is_some()
            {
                return Ok(ValidationOutcome::MustWait(Txn(s)));
            }
        }
        self.validate(t, strategy)
    }

    // ------------------------------------------------------------------
    // Phase 3: execution
    // ------------------------------------------------------------------

    /// Read an entity: upgrade `R_v` → `R` and return the assigned
    /// version's value.
    pub fn read(&mut self, t: Txn, e: EntityId) -> Result<ReadOutcome, ProtocolError> {
        let state = self.node(t)?.state;
        if state != TxnState::Validated {
            return Err(ProtocolError::WrongPhase {
                attempted: "read",
                state: state.label(),
            });
        }
        if !self.node(t)?.input_set.contains(&e) {
            return Err(ProtocolError::ReadWithoutValidationLock(e));
        }
        if let Some(&holder) = self.write_locks.get(&e) {
            if holder != t.0 {
                return Ok(ReadOutcome::Blocked(e));
            }
        }
        let version = self.nodes[t.0].snapshot.version_of(e).unwrap_or(VersionId {
            entity: e,
            index: 0,
        });
        let value = self.store.read(version)?;
        self.nodes[t.0].reads_done.insert(e, value);
        self.stats.reads += 1;
        if let Some(p) = self.nodes[t.0].parent {
            self.stats.fresh_reads += u64::from(version != self.parent_version(p, e));
        }
        Ok(ReadOutcome::Value(value))
    }

    /// Take a `W` lock explicitly without completing the write — models a
    /// slow in-flight write so the Figure 3 "false" entries (readers and
    /// validators blocking on a held `W`) are observable. Call
    /// [`ProtocolManager::finish_write`] to create the version and run
    /// `re-eval`. The ordinary [`ProtocolManager::write`] performs both
    /// steps atomically.
    pub fn begin_write(&mut self, t: Txn, e: EntityId) -> Result<(), ProtocolError> {
        let state = self.node(t)?.state;
        if state != TxnState::Validated {
            return Err(ProtocolError::WrongPhase {
                attempted: "write",
                state: state.label(),
            });
        }
        self.write_locks.insert(e, t.0);
        Ok(())
    }

    /// Complete a write started with [`ProtocolManager::begin_write`].
    pub fn finish_write(
        &mut self,
        t: Txn,
        e: EntityId,
        value: Value,
    ) -> Result<WriteReport, ProtocolError> {
        debug_assert_eq!(self.write_locks.get(&e), Some(&t.0), "begin_write first");
        let version = self.store.write(e, value, AuthorId(t.0 as u64))?;
        self.nodes[t.0].writes.push(version);
        // The newest version of `e` is now the last one of every subtree
        // that encloses the writer.
        let mut inner = t.0;
        while let Some(outer) = self.nodes[inner].parent {
            let slot = self.nodes[inner].slot;
            self.list_of(outer, e).set_writer(slot, version, value);
            inner = outer;
        }
        self.stats.writes += 1;
        let reeval = self.re_eval(t.0, e, version);
        self.write_locks.remove(&e);
        Ok(WriteReport { version, reeval })
    }

    /// Node `idx`'s candidate list for `e`, created on the first write
    /// below it.
    fn list_of(&mut self, idx: usize, e: EntityId) -> &mut CandidateList {
        if !self.nodes[idx].writers.contains_key(&e) {
            let base = self.parent_version(idx, e);
            let value = self.store.read(base).expect("assigned version");
            self.nodes[idx]
                .writers
                .insert(e, CandidateList::new(base, value));
        }
        self.nodes[idx].writers.get_mut(&e).expect("inserted")
    }

    /// Write an entity: create a new version (immediately visible to
    /// siblings) and run the Figure 4 `re-eval` procedure.
    pub fn write(
        &mut self,
        t: Txn,
        e: EntityId,
        value: Value,
    ) -> Result<WriteReport, ProtocolError> {
        let state = self.node(t)?.state;
        if state != TxnState::Validated {
            return Err(ProtocolError::WrongPhase {
                attempted: "write",
                state: state.label(),
            });
        }
        // Momentary W lock (writes never wait for other writes).
        self.write_locks.insert(e, t.0);
        self.finish_write(t, e, value)
    }

    /// Figure 4: after node `writer` wrote `version` of `e`, interrupt
    /// sibling read-side holders that should have read it.
    fn re_eval(&mut self, writer: usize, e: EntityId, version: VersionId) -> Vec<ReEvalAction> {
        self.stats.re_evals += 1;
        let mut actions = Vec::new();
        let parent_idx = match self.nodes[writer].parent {
            Some(p) => p,
            None => return actions, // the root has no siblings
        };
        self.emit(
            writer,
            ObsKind::ReEvalTriggered {
                entity: e.index() as u32,
                version: version.index,
            },
        );
        let writer_slot = self.nodes[writer].slot;
        let holders: Vec<usize> = self.nodes[parent_idx]
            .live
            .iter()
            .copied()
            .filter(|&h| h != writer)
            // R or R_v "lock" on e: validated, e in input set, not finished
            .filter(|&h| {
                self.nodes[h].state == TxnState::Validated && self.nodes[h].input_set.contains(&e)
            })
            .collect();
        for h in holders {
            // An earlier repair's cascade may have aborted this holder.
            if self.nodes[h].state != TxnState::Validated {
                continue;
            }
            let h_slot = self.nodes[h].slot;
            // V = author of the version the holder was assigned for e.
            let assigned = self.nodes[h].snapshot.version_of(e).unwrap_or(VersionId {
                entity: e,
                index: 0,
            });
            let author = self.store.meta(assigned).expect("assigned version").author;
            // Supersede rule (model fidelity; see DESIGN.md): the new write
            // supersedes the writer's own earlier version of `e`. A sibling
            // assigned that stale version no longer reads "t_j(X(t_j))(e)"
            // — re-assign it (or abort it if the read already happened).
            if author.0 as usize == writer {
                self.repair_holder(writer, h, e, &mut actions);
                continue;
            }
            // `path(parent(W).P, W.name, R[i].name)`: writer precedes holder?
            let paths = &self.nodes[parent_idx].closure;
            if !paths.has_edge(writer_slot, h_slot) {
                continue;
            }
            // `path(parent(W).P, V.name, W.name)`: is V a predecessor of W?
            // The initial author / parent counts as preceding everything.
            let v_precedes_w = if author == ks_mvstore::INITIAL_AUTHOR
                || Some(author.0 as usize) == self.nodes[writer].parent
            {
                true
            } else {
                // author is (a descendant of) some sibling: find its slot.
                let author_slot = self.slot_of_author(parent_idx, author.0 as usize);
                match author_slot {
                    Some(s) => paths.has_edge(s, writer_slot),
                    None => true, // from an outer scope: treat as older
                }
            };
            if !v_precedes_w {
                continue;
            }
            self.repair_holder(writer, h, e, &mut actions);
        }
        actions
    }

    /// Figure 4's two repair outcomes for a holder whose assigned version
    /// of `e` became stale: abort if `e` was already read (`R` lock),
    /// otherwise re-assign with the performed reads pinned.
    fn repair_holder(
        &mut self,
        writer: usize,
        h: usize,
        e: EntityId,
        actions: &mut Vec<ReEvalAction>,
    ) {
        let parent_idx = self.nodes[h].parent.expect("holders are non-root");
        let entity = e.index() as u32;
        if self.nodes[h].reads_done.contains_key(&e) {
            // R lock: the stale version was already consumed — abort, and
            // cascade to siblings that consumed the holder's versions.
            self.emit(
                writer,
                ObsKind::ReEvalAbort {
                    holder: h as u32,
                    entity,
                },
            );
            let doomed = self.abort_subtree(h);
            self.stats.reeval_aborts += 1;
            actions.push(ReEvalAction::Aborted(Txn(h)));
            for c in self.cascade_from(parent_idx, doomed) {
                actions.push(ReEvalAction::Aborted(c));
            }
        } else {
            // R_v only: salvage by re-assignment with pins.
            let pins: Vec<(EntityId, Value)> = self.nodes[h]
                .reads_done
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect();
            match self.assign_versions(h, &pins, Strategy::GreedyLatest) {
                Some(snapshot) => {
                    self.set_snapshot(h, snapshot);
                    self.stats.re_assigns += 1;
                    self.emit(
                        writer,
                        ObsKind::ReAssigned {
                            holder: h as u32,
                            entity,
                        },
                    );
                    actions.push(ReEvalAction::Reassigned(Txn(h)));
                }
                None => {
                    self.emit(
                        writer,
                        ObsKind::ReassignFailed {
                            holder: h as u32,
                            entity,
                        },
                    );
                    let doomed = self.abort_subtree(h);
                    self.stats.reeval_aborts += 1;
                    actions.push(ReEvalAction::ReassignFailedAborted(Txn(h)));
                    for c in self.cascade_from(parent_idx, doomed) {
                        actions.push(ReEvalAction::Aborted(c));
                    }
                }
            }
        }
    }

    /// The slot (under `parent_idx`) of the child whose subtree contains
    /// node `author_idx`.
    fn slot_of_author(&self, parent_idx: usize, author_idx: usize) -> Option<usize> {
        self.child_slot_containing(Txn(parent_idx), Txn(author_idx))
    }

    // ------------------------------------------------------------------
    // Phase 4: termination
    // ------------------------------------------------------------------

    /// The transaction's final view: its assigned snapshot overlaid with
    /// its own and its committed descendants' writes, in stamp order.
    /// For the root this is `X(t_f)` of the whole execution: a child
    /// that has not committed contributes nothing.
    pub fn result_view(&self, t: Txn) -> Result<UniqueState, ProtocolError> {
        let node = self.node(t)?;
        let mut state = self.store.materialize(&node.snapshot)?;
        let mut writes: Vec<(u64, VersionId)> = Vec::new();
        self.collect_committed_writes(t.0, &mut writes);
        writes.sort_by_key(|&(s, _)| s);
        for (_, v) in writes {
            let meta = self.store.meta(v)?;
            state = UniqueState::from_values_unchecked({
                let mut vals = state.values().to_vec();
                vals[v.entity.index()] = meta.value;
                vals
            });
        }
        Ok(state)
    }

    fn collect_committed_writes(&self, idx: usize, out: &mut Vec<(u64, VersionId)>) {
        let node = &self.nodes[idx];
        for &v in &node.writes {
            let stamp = self.store.meta(v).expect("written").stamp;
            out.push((stamp, v));
        }
        for &c in &node.children {
            if self.nodes[c].state == TxnState::Committed {
                self.collect_committed_writes(c, out);
            }
        }
    }

    /// Attempt to commit: all sibling predecessors committed, all children
    /// terminated, every sibling that wrote an assigned version committed
    /// (a commit is final: it never rests on a version whose author may
    /// still overwrite or abort it), output condition satisfied.
    pub fn commit(&mut self, t: Txn) -> Result<CommitOutcome, ProtocolError> {
        let state = self.node(t)?.state;
        if state != TxnState::Validated {
            return Err(ProtocolError::WrongPhase {
                attempted: "commit",
                state: state.label(),
            });
        }
        // Sibling predecessors must have committed.
        let parent_idx = self.node(t)?.parent;
        if let Some(parent) = parent_idx.map(|p| &self.nodes[p]) {
            let pending = parent
                .closure
                .predecessors(self.node(t)?.slot)
                .map(|slot| parent.children[slot])
                .find(|c| parent.live.contains(c));
            if let Some(c) = pending {
                return Ok(CommitOutcome::PredecessorsPending(Txn(c)));
            }
        }
        // Children must have terminated.
        if let Some(&c) = self.node(t)?.live.first() {
            return Ok(CommitOutcome::ChildrenPending(Txn(c)));
        }
        // Authors of assigned inputs must have committed (Lemma 4: a child
        // reads its parent's version or a sibling's final output).
        if let Some(author) = self.uncommitted_author(t.0) {
            return Ok(CommitOutcome::PredecessorsPending(Txn(author)));
        }
        // Output condition on the final view.
        let view = self.result_view(t)?;
        if !self.node(t)?.spec.output_holds(&view) {
            return Ok(CommitOutcome::OutputViolated);
        }
        self.nodes[t.0].state = TxnState::Committed;
        if let Some(p) = parent_idx {
            self.nodes[p].live.remove(&t.0);
        }
        self.emit(t.0, ObsKind::TxnCommitted);
        Ok(CommitOutcome::Committed)
    }

    /// The first sibling of node `idx` that wrote one of its assigned
    /// inputs and has not committed yet.
    fn uncommitted_author(&self, idx: usize) -> Option<usize> {
        let node = &self.nodes[idx];
        let parent_idx = node.parent?;
        let parent = &self.nodes[parent_idx];
        node.input_set.iter().find_map(|&e| {
            let v = node.snapshot.version_of(e)?;
            if v == self.parent_version(parent_idx, e) {
                return None;
            }
            let author = self.store.meta(v).expect("assigned version").author.0 as usize;
            let sibling = parent.children[self.slot_of_author(parent_idx, author)?];
            (sibling != idx && self.nodes[sibling].state != TxnState::Committed).then_some(sibling)
        })
    }

    /// Abort a transaction and its descendants. Live transactions, at any
    /// enclosing level, that were assigned (or read) one of the aborted
    /// subtree's versions are re-assigned or cascade-aborted. Returns the
    /// cascaded aborts.
    pub fn abort(&mut self, t: Txn) -> Result<Vec<Txn>, ProtocolError> {
        if t.0 == 0 {
            return Err(ProtocolError::RootImmutable);
        }
        let state = self.node(t)?.state;
        if state == TxnState::Committed || state == TxnState::Aborted {
            return Err(ProtocolError::WrongPhase {
                attempted: "abort",
                state: state.label(),
            });
        }
        let parent_idx = self.nodes[t.0].parent.expect("non-root");
        let doomed = self.abort_subtree(t.0);
        Ok(self.cascade_from(parent_idx, doomed))
    }

    /// Worklist repair after versions become doomed, at every level that
    /// can see them: live children of `parent_idx`, then of each enclosing
    /// node up to the root (a version written below a child is that
    /// child's subtree's version to the child's siblings), whose
    /// assignment depends on a doomed version are salvaged (re-assign) or
    /// aborted. A committed child is never reached: it committed only on
    /// committed authors. Each new abort may doom further versions, hence
    /// the fixpoint loop per level. Returns the cascaded aborts.
    fn cascade_from(&mut self, parent_idx: usize, mut doomed_authors: BTreeSet<usize>) -> Vec<Txn> {
        let mut cascaded = Vec::new();
        let mut level = Some(parent_idx);
        while let Some(parent_idx) = level {
            loop {
                let mut changed = false;
                let siblings: Vec<usize> = self.nodes[parent_idx].live.iter().copied().collect();
                for s in siblings {
                    // Entities whose assigned version was authored by a
                    // doomed node, with that author — each pair is a causal
                    // cascade edge `doomed author → s`.
                    let depends: Vec<(EntityId, usize)> = self.nodes[s]
                        .input_set
                        .iter()
                        .copied()
                        .filter_map(|e| {
                            let v = self.nodes[s].snapshot.version_of(e)?;
                            let author = self.store.meta(v).expect("version").author.0 as usize;
                            doomed_authors.contains(&author).then_some((e, author))
                        })
                        .collect();
                    if depends.is_empty() {
                        continue;
                    }
                    let read_one = depends
                        .iter()
                        .any(|(e, _)| self.nodes[s].reads_done.contains_key(e));
                    let salvaged = if read_one {
                        None
                    } else {
                        let pins: Vec<(EntityId, Value)> = self.nodes[s]
                            .reads_done
                            .iter()
                            .map(|(&k, &v)| (k, v))
                            .collect();
                        self.assign_versions(s, &pins, Strategy::GreedyLatest)
                    };
                    match salvaged {
                        Some(snapshot) => {
                            self.set_snapshot(s, snapshot);
                            self.stats.re_assigns += 1;
                        }
                        None => {
                            self.emit_cascade_edges(s, &depends);
                            doomed_authors.extend(self.abort_subtree(s));
                            self.stats.cascade_aborts += 1;
                            cascaded.push(Txn(s));
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            level = self.nodes[parent_idx].parent;
        }
        // Defense in depth: dead versions leave the candidate space at the
        // store level too (VersionIds stay readable for introspection).
        let authors: BTreeSet<AuthorId> =
            doomed_authors.iter().map(|&i| AuthorId(i as u64)).collect();
        self.store.prune_authors(&authors);
        cascaded
    }

    /// One `CascadeEdge` per doomed-author dependency of victim `s`.
    fn emit_cascade_edges(&self, s: usize, depends: &[(EntityId, usize)]) {
        for &(e, author) in depends {
            self.emit(
                s,
                ObsKind::CascadeEdge {
                    from: author as u32,
                    to: s as u32,
                    entity: e.index() as u32,
                },
            );
        }
    }

    /// Mark a subtree aborted; returns the node indices (authors whose
    /// versions are now dead).
    fn abort_subtree(&mut self, idx: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        let mut stack = vec![idx];
        while let Some(i) = stack.pop() {
            // A commit "is only relative to the parent": aborting the
            // subtree undoes committed descendants as well.
            self.nodes[i].state = TxnState::Aborted;
            if let Some(p) = self.nodes[i].parent {
                self.nodes[p].live.remove(&i);
            }
            out.insert(i);
            stack.extend(self.nodes[i].children.iter().copied());
            self.emit(i, ObsKind::TxnAborted);
        }
        // `idx` leaves its parent's lists, and the subtrees enclosing the
        // parent, still live, may have listed a version that just died:
        // recompute their entries.
        let written: BTreeSet<EntityId> = out
            .iter()
            .flat_map(|&i| self.nodes[i].writes.iter().map(|v| v.entity))
            .collect();
        let mut inner = idx;
        while let Some(outer) = self.nodes[inner].parent {
            let slot = self.nodes[inner].slot;
            for &e in &written {
                match self.subtree_last_version(inner, e) {
                    Some(v) => {
                        let value = self.store.read(v).expect("written version");
                        self.list_of(outer, e).set_writer(slot, v, value);
                    }
                    None => self.list_of(outer, e).remove_writer(slot),
                }
            }
            inner = outer;
        }
        out
    }

    /// Fault-injection hook for tests and violation-dump demos: overwrite
    /// the validated assignment of `e` with an arbitrary existing store
    /// version, bypassing the candidate rules of Section 5.1. Emits
    /// `VersionAssigned { forced: true }` so a later model-check failure
    /// can be traced back to exactly this decision in the flight recorder.
    pub fn force_assign(&mut self, t: Txn, e: EntityId, index: u32) -> Result<(), ProtocolError> {
        let state = self.node(t)?.state;
        if state != TxnState::Validated {
            return Err(ProtocolError::WrongPhase {
                attempted: "force-assign a version",
                state: state.label(),
            });
        }
        let v = VersionId { entity: e, index };
        self.store.meta(v)?; // must name an existing version
        let mut snapshot = self.nodes[t.0].snapshot.clone();
        snapshot.select(v);
        self.replace_snapshot(t.0, snapshot);
        self.rebase(t.0, e);
        self.emit(
            t.0,
            ObsKind::VersionAssigned {
                entity: e.index() as u32,
                version: index,
                forced: true,
            },
        );
        Ok(())
    }
}

/// Name a clause of `input` that no combination of candidate values can
/// satisfy (honouring `pins`), or `u32::MAX` when every clause is
/// individually satisfiable and the conflict is cross-clause. Atoms
/// mention at most two entities, so per-clause checking is cheap.
fn unsat_clause_witness(input: &Cnf, candidates: &[&[Value]], pins: &[(EntityId, Value)]) -> u32 {
    let pinned: BTreeMap<EntityId, Value> = pins.iter().copied().collect();
    let values_of = |e: EntityId| -> Vec<Value> {
        match pinned.get(&e) {
            Some(&v) => vec![v],
            None => candidates.get(e.index()).map_or(Vec::new(), |c| c.to_vec()),
        }
    };
    'clauses: for (ci, clause) in input.clauses().iter().enumerate() {
        for atom in clause.atoms() {
            let mut ents: Vec<EntityId> = atom.entities().collect();
            ents.dedup();
            match ents.as_slice() {
                [] => {
                    if atom.eval(&BTreeMap::new()) {
                        continue 'clauses;
                    }
                }
                [a] => {
                    for va in values_of(*a) {
                        let m = BTreeMap::from([(*a, va)]);
                        if atom.eval(&m) {
                            continue 'clauses;
                        }
                    }
                }
                [a, b] => {
                    for va in values_of(*a) {
                        for vb in values_of(*b) {
                            let m = BTreeMap::from([(*a, va), (*b, vb)]);
                            if atom.eval(&m) {
                                continue 'clauses;
                            }
                        }
                    }
                }
                _ => continue 'clauses,
            }
        }
        // No atom of this clause can ever hold: the definitive witness.
        return ci as u32;
    }
    u32::MAX
}

#[cfg(test)]
mod tests;
