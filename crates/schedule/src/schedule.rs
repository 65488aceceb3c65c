//! The [`Schedule`] type: a totally-ordered interleaving of read/write steps.

use crate::{Action, Op, TxnId};
use ks_kernel::EntityId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Where a read obtains its value in single-version semantics: the initial
/// database, or the write step at a given schedule position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadSource {
    /// The value written by the initial pseudo-transaction `t_0`.
    Initial,
    /// The value written by the op at this schedule index.
    FromOp(usize),
}

/// A schedule: the standard model's unit of analysis.
///
/// Invariants: every `TxnId` in `0..num_txns` appears (no gaps are required,
/// but ids are dense by construction through [`ScheduleBuilder`]); entity ids
/// are dense likewise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    ops: Vec<Op>,
    num_txns: usize,
    num_entities: usize,
    /// Optional entity names for display (interned by the parser).
    entity_names: Option<Vec<String>>,
}

impl Schedule {
    /// Build from raw ops. Transaction and entity counts are inferred.
    pub fn from_ops(ops: Vec<Op>) -> Self {
        let num_txns = ops.iter().map(|o| o.txn.index() + 1).max().unwrap_or(0);
        let num_entities = ops.iter().map(|o| o.entity.index() + 1).max().unwrap_or(0);
        Schedule {
            ops,
            num_txns,
            num_entities,
            entity_names: None,
        }
    }

    /// Parse the paper's notation: whitespace-separated steps like
    /// `"R1(x) W1(x) R2(y)"`. Entity names are interned in order of first
    /// appearance; transaction numbers are 1-based as printed.
    ///
    /// ```
    /// use ks_schedule::Schedule;
    /// let s = Schedule::parse("R1(x) W1(x) R2(x)").unwrap();
    /// assert_eq!(s.num_txns(), 2);
    /// assert_eq!(s.to_string(), "R1(x) W1(x) R2(x)");
    /// ```
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let mut names: Vec<String> = Vec::new();
        let mut ops = Vec::new();
        for tok in text.split_whitespace() {
            let bytes = tok.as_bytes();
            let action = match bytes.first() {
                Some(b'R') | Some(b'r') => Action::Read,
                Some(b'W') | Some(b'w') => Action::Write,
                _ => return Err(format!("bad step {tok:?}: must start with R or W")),
            };
            let open = tok.find('(').ok_or_else(|| format!("bad step {tok:?}"))?;
            if !tok.ends_with(')') {
                return Err(format!("bad step {tok:?}: missing ')'"));
            }
            let num: u32 = tok[1..open]
                .parse()
                .map_err(|_| format!("bad transaction number in {tok:?}"))?;
            if num == 0 {
                return Err(format!("transaction numbers are 1-based: {tok:?}"));
            }
            let name = &tok[open + 1..tok.len() - 1];
            if name.is_empty() {
                return Err(format!("bad step {tok:?}: empty entity"));
            }
            let eid = match names.iter().position(|n| n == name) {
                Some(i) => i,
                None => {
                    names.push(name.to_string());
                    names.len() - 1
                }
            };
            ops.push(Op {
                txn: TxnId(num - 1),
                action,
                entity: EntityId(eid as u32),
            });
        }
        let mut s = Schedule::from_ops(ops);
        s.num_entities = names.len();
        s.entity_names = Some(names);
        Ok(s)
    }

    /// The steps in order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the schedule empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of transactions.
    pub fn num_txns(&self) -> usize {
        self.num_txns
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Transaction ids, ascending.
    pub fn txns(&self) -> impl Iterator<Item = TxnId> {
        (0..self.num_txns as u32).map(TxnId)
    }

    /// Entity name for display (falls back to `e{i}`).
    pub fn entity_name(&self, e: EntityId) -> String {
        match &self.entity_names {
            Some(names) if e.index() < names.len() => names[e.index()].clone(),
            _ => format!("{e}"),
        }
    }

    /// Schedule indices of the ops of `txn`, in schedule (= program) order.
    pub fn txn_op_indices(&self, txn: TxnId) -> Vec<usize> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.txn == txn)
            .map(|(i, _)| i)
            .collect()
    }

    /// The ops of `txn` in program order.
    pub fn txn_ops(&self, txn: TxnId) -> Vec<Op> {
        self.ops.iter().copied().filter(|o| o.txn == txn).collect()
    }

    /// Is every transaction contiguous (a serial schedule)?
    pub fn is_serial(&self) -> bool {
        let mut seen_done: BTreeSet<TxnId> = BTreeSet::new();
        let mut current: Option<TxnId> = None;
        for op in &self.ops {
            match current {
                Some(t) if t == op.txn => {}
                _ => {
                    if seen_done.contains(&op.txn) {
                        return false;
                    }
                    if let Some(t) = current {
                        seen_done.insert(t);
                    }
                    current = Some(op.txn);
                }
            }
        }
        true
    }

    /// Single-version reads-from: for every read step (by index), the source
    /// of its value — the last preceding write on the same entity (own
    /// writes included), or the initial database.
    pub fn reads_from(&self) -> BTreeMap<usize, ReadSource> {
        let mut last_write: BTreeMap<EntityId, usize> = BTreeMap::new();
        let mut out = BTreeMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            match op.action {
                Action::Read => {
                    let src = last_write
                        .get(&op.entity)
                        .map(|&w| ReadSource::FromOp(w))
                        .unwrap_or(ReadSource::Initial);
                    out.insert(i, src);
                }
                Action::Write => {
                    last_write.insert(op.entity, i);
                }
            }
        }
        out
    }

    /// The final writer of each entity (single-version semantics): the last
    /// write step on it, if any.
    pub fn final_writers(&self) -> BTreeMap<EntityId, TxnId> {
        let mut out = BTreeMap::new();
        for op in &self.ops {
            if op.action == Action::Write {
                out.insert(op.entity, op.txn);
            }
        }
        out
    }

    /// Identify a read op by `(txn, entity, k)` where `k` counts that
    /// transaction's reads of that entity in program order. Stable across
    /// re-interleavings of the same transactions.
    pub fn read_key(&self, idx: usize) -> (TxnId, EntityId, usize) {
        let op = self.ops[idx];
        debug_assert_eq!(op.action, Action::Read);
        let k = self.ops[..idx]
            .iter()
            .filter(|o| o.txn == op.txn && o.entity == op.entity && o.action == Action::Read)
            .count();
        (op.txn, op.entity, k)
    }

    /// Identify a write op by `(txn, entity, k)` — the `k`-th write of that
    /// entity by that transaction.
    pub fn write_key(&self, idx: usize) -> (TxnId, EntityId, usize) {
        let op = self.ops[idx];
        debug_assert_eq!(op.action, Action::Write);
        let k = self.ops[..idx]
            .iter()
            .filter(|o| o.txn == op.txn && o.entity == op.entity && o.action == Action::Write)
            .count();
        (op.txn, op.entity, k)
    }

    /// The serial schedule running this schedule's transactions in `order`,
    /// each in its program order. `order` must be a permutation of the
    /// transaction ids.
    pub fn serialized(&self, order: &[TxnId]) -> Schedule {
        let mut ops = Vec::with_capacity(self.ops.len());
        for &t in order {
            ops.extend(self.txn_ops(t));
        }
        Schedule {
            ops,
            num_txns: self.num_txns,
            num_entities: self.num_entities,
            entity_names: self.entity_names.clone(),
        }
    }

    /// Projection onto a set of entities: keep only steps touching them
    /// (the paper's restriction of a schedule by an object, used by the
    /// predicate-wise classes). Transaction ids are preserved.
    pub fn project_entities(&self, entities: &BTreeSet<EntityId>) -> Schedule {
        let ops: Vec<Op> = self
            .ops
            .iter()
            .copied()
            .filter(|o| entities.contains(&o.entity))
            .collect();
        Schedule {
            ops,
            num_txns: self.num_txns,
            num_entities: self.num_entities,
            entity_names: self.entity_names.clone(),
        }
    }

    /// Transactions that touch any of the given entities — the paper's
    /// `T^{x_i}`.
    pub fn txns_touching(&self, entities: &BTreeSet<EntityId>) -> BTreeSet<TxnId> {
        self.ops
            .iter()
            .filter(|o| entities.contains(&o.entity))
            .map(|o| o.txn)
            .collect()
    }

    /// Entities read by `txn`.
    pub fn read_set(&self, txn: TxnId) -> BTreeSet<EntityId> {
        self.ops
            .iter()
            .filter(|o| o.txn == txn && o.action == Action::Read)
            .map(|o| o.entity)
            .collect()
    }

    /// Entities written by `txn` — the update set `U_t` of the flat model.
    pub fn write_set(&self, txn: TxnId) -> BTreeSet<EntityId> {
        self.ops
            .iter()
            .filter(|o| o.txn == txn && o.action == Action::Write)
            .map(|o| o.entity)
            .collect()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            let a = match op.action {
                Action::Read => "R",
                Action::Write => "W",
            };
            write!(f, "{a}{}({})", op.txn.0 + 1, self.entity_name(op.entity))?;
        }
        Ok(())
    }
}

/// Fluent construction of schedules in tests and examples.
///
/// ```
/// use ks_schedule::ScheduleBuilder;
/// let s = ScheduleBuilder::new().r(1, "x").w(1, "x").r(2, "x").build();
/// assert_eq!(s.to_string(), "R1(x) W1(x) R2(x)");
/// ```
#[derive(Debug, Default)]
pub struct ScheduleBuilder {
    names: Vec<String>,
    ops: Vec<Op>,
}

impl ScheduleBuilder {
    /// Start an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, name: &str) -> EntityId {
        match self.names.iter().position(|n| n == name) {
            Some(i) => EntityId(i as u32),
            None => {
                self.names.push(name.to_string());
                EntityId(self.names.len() as u32 - 1)
            }
        }
    }

    /// Append a read step by 1-based transaction number.
    pub fn r(mut self, txn: u32, entity: &str) -> Self {
        assert!(txn >= 1, "transaction numbers are 1-based");
        let e = self.intern(entity);
        self.ops.push(Op::read(TxnId(txn - 1), e));
        self
    }

    /// Append a write step by 1-based transaction number.
    pub fn w(mut self, txn: u32, entity: &str) -> Self {
        assert!(txn >= 1, "transaction numbers are 1-based");
        let e = self.intern(entity);
        self.ops.push(Op::write(TxnId(txn - 1), e));
        self
    }

    /// Finish.
    pub fn build(self) -> Schedule {
        let mut s = Schedule::from_ops(self.ops);
        s.num_entities = self.names.len().max(s.num_entities);
        s.entity_names = Some(self.names);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example1() -> Schedule {
        // Paper Example 1: t1: R(x) W(x) R(y) W(y); t2: R(x) R(y) W(y)
        // interleaved as R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)
        Schedule::parse("R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)").unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        let s = example1();
        assert_eq!(s.to_string(), "R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)");
        assert_eq!(s.num_txns(), 2);
        assert_eq!(s.num_entities(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(Schedule::parse("X1(x)").is_err());
        assert!(Schedule::parse("R0(x)").is_err());
        assert!(Schedule::parse("R1x").is_err());
        assert!(Schedule::parse("R1()").is_err());
        assert!(Schedule::parse("R1(x").is_err());
        assert!(Schedule::parse("Rx(x)").is_err());
    }

    #[test]
    fn builder_equivalent_to_parse() {
        let b = ScheduleBuilder::new()
            .r(1, "x")
            .w(1, "x")
            .r(2, "x")
            .r(2, "y")
            .w(2, "y")
            .r(1, "y")
            .w(1, "y")
            .build();
        assert_eq!(b, example1());
    }

    #[test]
    fn reads_from_single_version() {
        let s = example1();
        let rf = s.reads_from();
        // R1(x) at 0 reads initial; R2(x) at 2 reads W1(x) at 1;
        // R2(y) at 3 reads initial; R1(y) at 5 reads W2(y) at 4.
        assert_eq!(rf[&0], ReadSource::Initial);
        assert_eq!(rf[&2], ReadSource::FromOp(1));
        assert_eq!(rf[&3], ReadSource::Initial);
        assert_eq!(rf[&5], ReadSource::FromOp(4));
    }

    #[test]
    fn final_writers() {
        let s = example1();
        let fw = s.final_writers();
        assert_eq!(fw[&EntityId(0)], TxnId(0)); // x: W1(x)
        assert_eq!(fw[&EntityId(1)], TxnId(0)); // y: W1(y) last
    }

    #[test]
    fn serial_detection() {
        let s = example1();
        assert!(!s.is_serial());
        let serial = s.serialized(&[TxnId(1), TxnId(0)]);
        assert!(serial.is_serial());
        assert_eq!(
            serial.to_string(),
            "R2(x) R2(y) W2(y) R1(x) W1(x) R1(y) W1(y)"
        );
        assert!(Schedule::parse("R1(x) W1(x)").unwrap().is_serial());
        // t1's steps split around t2 → not serial
        assert!(!Schedule::parse("R1(x) R2(x) W1(x)").unwrap().is_serial());
    }

    #[test]
    fn projection_keeps_only_named_entities() {
        let s = example1();
        let only_x: BTreeSet<EntityId> = [EntityId(0)].into_iter().collect();
        let p = s.project_entities(&only_x);
        assert_eq!(p.to_string(), "R1(x) W1(x) R2(x)");
        assert_eq!(
            s.txns_touching(&only_x),
            [TxnId(0), TxnId(1)].into_iter().collect()
        );
    }

    #[test]
    fn read_write_sets() {
        let s = example1();
        assert_eq!(
            s.read_set(TxnId(1)),
            [EntityId(0), EntityId(1)].into_iter().collect()
        );
        assert_eq!(s.write_set(TxnId(1)), [EntityId(1)].into_iter().collect());
    }

    #[test]
    fn occurrence_keys() {
        let s = Schedule::parse("R1(x) W1(x) R1(x) W1(x)").unwrap();
        assert_eq!(s.read_key(0).2, 0);
        assert_eq!(s.read_key(2).2, 1);
        assert_eq!(s.write_key(1).2, 0);
        assert_eq!(s.write_key(3).2, 1);
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::from_ops(vec![]);
        assert!(s.is_empty());
        assert!(s.is_serial());
        assert_eq!(s.num_txns(), 0);
        assert!(s.reads_from().is_empty());
        assert!(s.final_writers().is_empty());
    }
}
