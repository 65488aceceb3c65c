//! A small directed-graph utility: cycle detection and topological order.
//!
//! [`DiGraph`] is used for conflict graphs (`CSR`), reads-before-writes
//! graphs (`MVCSR`, `CPC`), the model's partial orders, and the waits-for
//! graphs of the 2PL baseline. [`OrderClosure`] is the protocol manager's
//! sibling order: a partial order that only grows, queried far more often
//! than it changes, so it is kept transitively closed as edges arrive.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// A directed graph over dense node ids `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    n: usize,
    edges: BTreeSet<(usize, usize)>,
}

impl DiGraph {
    /// An edgeless graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        DiGraph {
            n,
            edges: BTreeSet::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of distinct edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add edge `from → to` (idempotent). Self-loops are allowed and make
    /// the graph cyclic. Panics if a node is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(from < self.n && to < self.n, "node out of range");
        self.edges.insert((from, to));
    }

    /// Is `from → to` present?
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.edges.contains(&(from, to))
    }

    /// The edges, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// Successors of a node.
    pub fn successors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges
            .range((node, 0)..(node, usize::MAX))
            .map(|&(_, to)| to)
    }

    /// Kahn's algorithm: a topological order if the graph is acyclic,
    /// `None` otherwise. The smallest available node goes first, so the
    /// order is deterministic (the lexicographically least one).
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indegree = vec![0usize; self.n];
        for &(_, to) in &self.edges {
            indegree[to] += 1;
        }
        let mut ready: BinaryHeap<Reverse<usize>> = (0..self.n)
            .filter(|&v| indegree[v] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(Reverse(v)) = ready.pop() {
            order.push(v);
            for u in self.successors(v) {
                indegree[u] -= 1;
                if indegree[u] == 0 {
                    ready.push(Reverse(u));
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }

    /// Does the graph contain a directed cycle?
    pub fn has_cycle(&self) -> bool {
        self.topological_order().is_none()
    }

    /// Nodes reachable from `node` by a path of length ≥ 1 (so `node`
    /// itself only when it lies on a cycle), in discovery order.
    pub fn reachable_from(&self, node: usize) -> Vec<usize> {
        let mut seen = BTreeSet::new();
        let mut out: Vec<usize> = Vec::new();
        let mut stack: Vec<usize> = self.successors(node).collect();
        while let Some(v) = stack.pop() {
            if seen.insert(v) {
                out.push(v);
                stack.extend(self.successors(v));
            }
        }
        out
    }

    /// Transitive closure as an edge set (the paper's `P⁺` and `R⁺`): one
    /// search per node that has an out-edge, so the cost follows the edges
    /// present rather than the square of the node count.
    pub fn transitive_closure(&self) -> DiGraph {
        let mut g = DiGraph::new(self.n);
        let mut last_source = None;
        for &(from, _) in &self.edges {
            if last_source != Some(from) {
                last_source = Some(from);
                g.edges
                    .extend(self.reachable_from(from).into_iter().map(|to| (from, to)));
            }
        }
        g
    }

    /// Render as Graphviz DOT, with optional node labels (falls back to
    /// `n{i}`). Handy for visualising conflict and reads-before-writes
    /// graphs when debugging classifier verdicts.
    pub fn to_dot(&self, name: &str, labels: &[String]) -> String {
        let mut out = format!("digraph {name} {{\n");
        for i in 0..self.n {
            let label = labels.get(i).cloned().unwrap_or_else(|| format!("n{i}"));
            out.push_str(&format!("  n{i} [label=\"{label}\"];\n"));
        }
        for &(a, b) in &self.edges {
            out.push_str(&format!("  n{a} -> n{b};\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Is there a directed path `from ⇝ to` (length ≥ 1)?
    pub fn has_path(&self, from: usize, to: usize) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack: Vec<usize> = self.successors(from).collect();
        while let Some(v) = stack.pop() {
            if v == to {
                return true;
            }
            if !seen[v] {
                seen[v] = true;
                stack.extend(self.successors(v));
            }
        }
        false
    }
}

/// The transitive closure of a partial order that only ever grows, kept
/// closed edge by edge: what [`DiGraph::transitive_closure`] would return
/// after every insert, without recomputing it. Nodes are any `usize` ids; a
/// node with no edge costs nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OrderClosure {
    succs: BTreeMap<usize, BTreeSet<usize>>,
    preds: BTreeMap<usize, BTreeSet<usize>>,
}

impl OrderClosure {
    /// An empty order.
    pub fn new() -> Self {
        OrderClosure::default()
    }

    /// Is `from` ordered before `to` (directly or transitively)?
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.succs.get(&from).is_some_and(|s| s.contains(&to))
    }

    /// Does anything come after `node`?
    pub fn has_successors(&self, node: usize) -> bool {
        self.succs.contains_key(&node)
    }

    /// Everything ordered before `node`, ascending.
    pub fn predecessors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.preds.get(&node).into_iter().flatten().copied()
    }

    /// The closed edge set, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.succs
            .iter()
            .flat_map(|(&from, tos)| tos.iter().map(move |&to| (from, to)))
    }

    /// Order `from` before `to` and re-close: everything at or before
    /// `from` now precedes everything at or after `to`. Returns `false`,
    /// changing nothing, when the edge would close a cycle (`to` is, or
    /// already precedes, `from`).
    pub fn insert(&mut self, from: usize, to: usize) -> bool {
        if from == to || self.has_edge(to, from) {
            return false;
        }
        if self.has_edge(from, to) {
            return true;
        }
        let mut froms: Vec<usize> = self.predecessors(from).collect();
        froms.push(from);
        let mut tos: Vec<usize> = self.succs.get(&to).into_iter().flatten().copied().collect();
        tos.push(to);
        for &f in &froms {
            self.succs.entry(f).or_default().extend(&tos);
        }
        for &t in &tos {
            self.preds.entry(t).or_default().extend(&froms);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn acyclic_graph_topo_sorts() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 3);
        let order = g.topological_order().unwrap();
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(2) && pos(0) < pos(3));
        assert!(!g.has_cycle());
    }

    #[test]
    fn cycle_detected() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        assert!(g.has_cycle());
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new(1);
        g.add_edge(0, 0);
        assert!(g.has_cycle());
    }

    #[test]
    fn empty_and_edgeless() {
        assert!(!DiGraph::new(0).has_cycle());
        let g = DiGraph::new(5);
        assert_eq!(g.topological_order().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn idempotent_edges() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn closure_and_paths() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let c = g.transitive_closure();
        assert!(c.has_edge(0, 2));
        assert!(!c.has_edge(2, 0));
        assert!(g.has_path(0, 2));
        assert!(!g.has_path(2, 0));
        assert!(!g.has_path(0, 3));
        assert!(!g.has_path(0, 0)); // no cycle through 0
    }

    #[test]
    fn deterministic_topo_order() {
        let mut g = DiGraph::new(3);
        g.add_edge(2, 0);
        // 1 and 2 both sources; smallest first.
        assert_eq!(g.topological_order().unwrap(), vec![1, 2, 0]);
    }

    #[test]
    fn dot_rendering() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1);
        let dot = g.to_dot("conflicts", &["t1".into(), "t2".into()]);
        assert!(dot.contains("digraph conflicts"));
        assert!(dot.contains("n0 [label=\"t1\"]"));
        assert!(dot.contains("n0 -> n1;"));
        // missing labels fall back
        let dot2 = g.to_dot("g", &[]);
        assert!(dot2.contains("n1 [label=\"n1\"]"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        DiGraph::new(1).add_edge(0, 1);
    }

    #[test]
    fn closure_of_a_cycle_has_self_edges() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 2);
        let c = g.transitive_closure();
        let edges: Vec<_> = c.edges().collect();
        assert_eq!(edges, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn order_closure_chain_and_rejections() {
        let mut c = OrderClosure::new();
        assert!(c.insert(0, 1));
        assert!(c.insert(1, 2));
        assert!(c.has_edge(0, 2));
        assert!(c.has_successors(0) && !c.has_successors(2));
        assert_eq!(c.predecessors(2).collect::<Vec<_>>(), vec![0, 1]);
        let before = c.clone();
        assert!(!c.insert(2, 0), "closes a cycle");
        assert!(!c.insert(1, 1), "self-loop");
        assert_eq!(c, before, "a rejected insert changes nothing");
        assert!(c.insert(0, 2), "already implied");
        assert_eq!(c, before);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// After every insert the incremental closure is exactly
        /// `DiGraph::transitive_closure` of the accepted edges, and it
        /// rejects exactly the edges that would make the graph cyclic. Pairs
        /// are drawn in both directions, so a late ("new") node is ordered
        /// *before* older ones as often as after them — `define`'s `before`.
        #[test]
        fn order_closure_matches_recomputed_closure(
            n in 2usize..9,
            picks in prop::collection::vec((0usize..64, 0usize..64), 0..40),
        ) {
            let mut g = DiGraph::new(n);
            let mut c = OrderClosure::new();
            for (a, b) in picks {
                let (a, b) = (a % n, b % n);
                let mut extended = g.clone();
                extended.add_edge(a, b);
                let accepted = !extended.has_cycle();
                prop_assert_eq!(c.insert(a, b), accepted, "edge {} -> {}", a, b);
                if accepted {
                    g = extended;
                }
                let want = g.transitive_closure();
                prop_assert_eq!(c.edges().collect::<Vec<_>>(), want.edges().collect::<Vec<_>>());
                for v in 0..n {
                    let preds: Vec<usize> = (0..n).filter(|&u| want.has_edge(u, v)).collect();
                    prop_assert_eq!(c.predecessors(v).collect::<Vec<_>>(), preds);
                    prop_assert_eq!(c.has_successors(v), want.successors(v).next().is_some());
                }
            }
        }

        /// The sparse closure returns the edge set the dense
        /// Floyd–Warshall pass returned, cycles included.
        #[test]
        fn sparse_closure_matches_floyd_warshall(
            n in 1usize..9,
            picks in prop::collection::vec((0usize..64, 0usize..64), 0..30),
        ) {
            let mut g = DiGraph::new(n);
            let mut reach = vec![vec![false; n]; n];
            for (a, b) in picks {
                g.add_edge(a % n, b % n);
                reach[a % n][b % n] = true;
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        if reach[i][k] && reach[k][j] {
                            reach[i][j] = true;
                        }
                    }
                }
            }
            let c = g.transitive_closure();
            for (i, row) in reach.iter().enumerate() {
                for (j, &r) in row.iter().enumerate() {
                    prop_assert_eq!(c.has_edge(i, j), r, "{} -> {}", i, j);
                }
            }
        }
    }
}
