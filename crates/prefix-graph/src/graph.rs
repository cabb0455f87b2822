//! The legal prefix graph state and its legalization procedure.
//!
//! A [`PrefixGraph`] is fully determined by its set of *present* grid
//! positions: the paper's legalization procedure (Algorithm 1) assigns each
//! non-input node `(m, l)` a canonical **upper parent** — the present node in
//! row `m` with the next-highest LSB — and a **lower parent**
//! `(up.lsb - 1, l)`, adding any missing lower parents. The *minlist* (the
//! set of deletable nodes) is exactly the set of interior present nodes that
//! are not the lower parent of any other node, so deleting one is never
//! undone by legalization.

use crate::node::Node;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Sentinel for "no upper parent" (input nodes).
const NO_UP: u16 = u16::MAX;

/// Error returned by [`PrefixGraph::verify_legal`] when a structural
/// invariant of Eq. (1) of the paper is violated.
///
/// This should never occur for graphs built through the public API; it exists
/// to validate deserialized or hand-constructed graphs and as a test oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LegalityError {
    /// A required input or output node is missing.
    MissingTerminal(Node),
    /// A non-input node's upper parent is missing or mis-assigned.
    BadUpperParent(Node),
    /// A non-input node's lower parent is missing.
    MissingLowerParent(Node),
    /// A node lies outside the `N×N` grid.
    OutOfGrid(Node),
}

impl fmt::Display for LegalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalityError::MissingTerminal(n) => write!(f, "missing input/output node {n}"),
            LegalityError::BadUpperParent(n) => write!(f, "bad upper parent for node {n}"),
            LegalityError::MissingLowerParent(n) => write!(f, "missing lower parent for node {n}"),
            LegalityError::OutOfGrid(n) => write!(f, "node {n} outside grid"),
        }
    }
}

impl std::error::Error for LegalityError {}

/// Error returned by [`PrefixGraph::from_canonical_key`] for words that are
/// not the canonical key of any legal graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyError {
    /// The width word is unsupported or disagrees with the key's length.
    Width {
        /// The width word (`0` for an empty key).
        n: u64,
        /// The key's length in words.
        words: usize,
    },
    /// A set bit, by its row-major index, lies outside the grid: past
    /// `N²`, or at an LSB above its MSB.
    OutOfGrid(usize),
    /// Legalization would change the node set (a terminal or a lower
    /// parent is missing).
    NotLegal,
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::Width { n, words } => {
                write!(f, "key of {words} words cannot hold a width-{n} graph")
            }
            KeyError::OutOfGrid(i) => write!(f, "key bit {i} lies outside the grid"),
            KeyError::NotLegal => write!(f, "key names a node set that is not legal"),
        }
    }
}

impl std::error::Error for KeyError {}

/// The compact record of a [`PrefixGraph`]: its width and minlist, the
/// `{"n": …, "min_nodes": [[msb, lsb], …]}` form every serialized graph
/// takes. [`PrefixGraph::spec`] builds it; a graph is rebuilt from it by
/// legalization, so a spec whose minlist is not canonical (repeated
/// nodes, lower parents, any order) still names one legal graph.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphSpec {
    /// The number of inputs `N`.
    pub n: u16,
    /// The minlist as `(msb, lsb)` pairs, in row-major order when built by
    /// [`PrefixGraph::spec`].
    pub min_nodes: Vec<(u16, u16)>,
}

impl TryFrom<&GraphSpec> for PrefixGraph {
    type Error = String;

    /// Legalizes the spec's minlist, refusing (instead of panicking on) a
    /// width outside `2..=512` or a node outside the grid.
    fn try_from(s: &GraphSpec) -> Result<Self, String> {
        if !(2..=512).contains(&s.n) {
            return Err(format!("graph width {} outside 2..=512", s.n));
        }
        if let Some(&(m, l)) = s.min_nodes.iter().find(|&&(m, l)| m >= s.n || l > m) {
            return Err(format!("node ({m},{l}) outside the {}-input grid", s.n));
        }
        Ok(PrefixGraph::from_min_nodes(
            s.n,
            s.min_nodes.iter().map(|&(m, l)| Node::new(m, l)),
        ))
    }
}

impl Serialize for PrefixGraph {
    fn to_value(&self) -> serde::Value {
        self.spec().to_value()
    }
}

impl Deserialize for PrefixGraph {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        PrefixGraph::try_from(&GraphSpec::from_value(v)?)
    }
}

/// A legal `N`-input parallel prefix graph on the `N×N` grid.
///
/// The graph always contains the input nodes `(i, i)` and output nodes
/// `(i, 0)`, and every non-input node has exactly one upper and one lower
/// parent satisfying the legality constraints of the paper's Eq. (1). All
/// mutation goes through [`PrefixGraph::apply`], which runs the legalization
/// procedure, so a `PrefixGraph` can never be observed in an illegal state.
///
/// Equality, ordering-insensitive hashing and the [cache key]
/// (`PrefixGraph::canonical_key`) are all defined over the canonical set of
/// present positions.
///
/// # Example
///
/// ```
/// use prefix_graph::{PrefixGraph, Action, Node};
///
/// let mut g = PrefixGraph::ripple(6);
/// g.apply(Action::Add(Node::new(4, 2))).unwrap();
/// assert!(g.contains(Node::new(4, 2)));
/// // The lower parent (3, 2) was added by legalization:
/// assert!(g.contains(Node::new(3, 2)));
/// ```
#[derive(Clone)]
pub struct PrefixGraph {
    n: u16,
    /// Present grid positions (nodelist), row-major `msb * n + lsb`.
    present: Vec<bool>,
    /// Deletable nodes (minlist): interior present nodes that are not the
    /// lower parent of any present node.
    min: Vec<bool>,
    /// LSB of the upper parent for each present non-input node, else `NO_UP`.
    up_lsb: Vec<u16>,
    /// Topological level of each present node (inputs are level 0).
    level: Vec<u16>,
    /// Number of children of each present node.
    fanout: Vec<u16>,
}

impl PrefixGraph {
    /// Creates the ripple-carry graph: the unique legal graph with the
    /// minimum number of operator nodes (`N-1`) and maximum depth (`N-1`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 512` (grid sizes beyond 512 are
    /// unsupported).
    pub fn ripple(n: u16) -> Self {
        Self::from_min_nodes(n, std::iter::empty())
    }

    /// Builds the graph whose minlist is (the pruned closure of) `min_nodes`.
    ///
    /// Interior nodes in `min_nodes` are inserted and the graph legalized;
    /// non-interior nodes are ignored. This is the inverse of
    /// [`PrefixGraph::min_nodes`].
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 512`, or if any node's MSB is `>= n`.
    pub fn from_min_nodes(n: u16, min_nodes: impl IntoIterator<Item = Node>) -> Self {
        assert!((2..=512).contains(&n), "unsupported grid width {n}");
        let nn = n as usize;
        let mut requested = vec![false; nn * nn];
        for node in min_nodes {
            assert!(node.msb() < n, "node {node} outside {n}-input grid");
            if node.is_interior() {
                requested[node.msb() as usize * nn + node.lsb() as usize] = true;
            }
        }
        Self::rebuild(n, requested)
    }

    /// Builds the graph containing (at least) the given node positions.
    ///
    /// All interior positions are treated as intentional; the closure adds
    /// missing lower parents and the minlist is derived canonically. Used by
    /// the classical constructions in [`crate::structures`].
    pub fn from_nodes(n: u16, nodes: impl IntoIterator<Item = Node>) -> Self {
        Self::from_min_nodes(n, nodes)
    }

    /// Runs Algorithm 1's `Legalize` over the requested interior positions
    /// and derives all per-node attributes.
    fn rebuild(n: u16, requested: Vec<bool>) -> Self {
        let nn = n as usize;
        let mut present = requested;
        // Input and output nodes always exist.
        for m in 0..nn {
            present[m * nn + m] = true;
            present[m * nn] = true;
        }
        let mut up_lsb = vec![NO_UP; nn * nn];
        // `min` first holds whether a node is an interior lower parent;
        // the level pass turns that into the minlist.
        let mut min = vec![false; nn * nn];
        // Top-down closure: scan rows from high MSB to low. Within a row the
        // upper parent of (m, l) is the present node with the next-highest
        // LSB; its lower parent (up.lsb - 1, l) is added if missing. Lower
        // parents always land in strictly lower rows, so a single pass
        // suffices, and a row's nodes and parents are final when it is
        // scanned.
        for m in (1..nn).rev() {
            let mut last = m as u16;
            for l in (0..m).rev() {
                if present[m * nn + l] {
                    up_lsb[m * nn + l] = last;
                    let lp_msb = (last - 1) as usize;
                    present[lp_msb * nn + l] = true;
                    if lp_msb > l {
                        min[lp_msb * nn + l] = true;
                    }
                    last = l as u16;
                }
            }
        }
        // Levels: inputs are 0; level(v) = 1 + max(level(up), level(lp)).
        // Scanning rows ascending and LSBs descending makes both parents
        // available when needed. The minlist is every interior present
        // node that is not the lower parent of any node. (A present
        // interior node that is nobody's lower parent must have been
        // requested, so the minlist regenerates exactly this graph.)
        let mut level = vec![0u16; nn * nn];
        let mut fanout = vec![0u16; nn * nn];
        for m in 0..nn {
            for l in (0..m).rev() {
                let i = m * nn + l;
                if present[i] {
                    let k = up_lsb[i] as usize;
                    let up = m * nn + k;
                    let lp = (k - 1) * nn + l;
                    level[i] = 1 + level[up].max(level[lp]);
                    fanout[up] += 1;
                    fanout[lp] += 1;
                    min[i] = l > 0 && !min[i];
                }
            }
        }
        PrefixGraph {
            n,
            present,
            min,
            up_lsb,
            level,
            fanout,
        }
    }

    /// The number of inputs `N` (grid width).
    #[inline]
    pub fn n(&self) -> u16 {
        self.n
    }

    #[inline]
    fn idx(&self, node: Node) -> usize {
        node.msb() as usize * self.n as usize + node.lsb() as usize
    }

    /// Whether `node` is within this graph's grid.
    #[inline]
    pub fn in_grid(&self, node: Node) -> bool {
        node.msb() < self.n
    }

    /// Whether `node` is present (in the nodelist).
    #[inline]
    pub fn contains(&self, node: Node) -> bool {
        self.in_grid(node) && self.present[self.idx(node)]
    }

    /// Whether `node` is in the minlist, i.e. may be deleted.
    #[inline]
    pub fn is_deletable(&self, node: Node) -> bool {
        self.in_grid(node) && self.min[self.idx(node)]
    }

    /// Whether a node may be added at this position (interior and absent).
    #[inline]
    pub fn can_add(&self, node: Node) -> bool {
        self.in_grid(node) && node.is_interior() && !self.present[self.idx(node)]
    }

    /// The upper parent of a present non-input node.
    ///
    /// Returns `None` for absent or input nodes.
    pub fn up(&self, node: Node) -> Option<Node> {
        if !self.contains(node) || node.is_input() {
            return None;
        }
        Some(Node::new(node.msb(), self.up_lsb[self.idx(node)]))
    }

    /// The lower parent of a present non-input node.
    ///
    /// Returns `None` for absent or input nodes.
    pub fn lp(&self, node: Node) -> Option<Node> {
        if !self.contains(node) || node.is_input() {
            return None;
        }
        Some(Node::new(self.up_lsb[self.idx(node)] - 1, node.lsb()))
    }

    /// The topological level of a present node (inputs are level 0).
    ///
    /// Returns `None` for absent nodes.
    pub fn level(&self, node: Node) -> Option<u16> {
        self.contains(node).then(|| self.level[self.idx(node)])
    }

    /// The number of children of a present node.
    ///
    /// Returns `None` for absent nodes.
    pub fn fanout(&self, node: Node) -> Option<u16> {
        self.contains(node).then(|| self.fanout[self.idx(node)])
    }

    /// The logic depth: maximum level over all nodes.
    pub fn depth(&self) -> u16 {
        self.level.iter().copied().max().unwrap_or(0)
    }

    /// The maximum fanout over all nodes.
    pub fn max_fanout(&self) -> u16 {
        self.fanout.iter().copied().max().unwrap_or(0)
    }

    /// The number of operator nodes (present nodes that are not inputs).
    ///
    /// Ripple-carry has `N-1`; Sklansky has `(N/2)·log₂N` for powers of two.
    pub fn size(&self) -> usize {
        self.present.iter().filter(|&&p| p).count() - self.n as usize
    }

    /// Iterates over all present nodes in `(msb, lsb)` row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        let n = self.n as usize;
        self.present
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p)
            .map(move |(i, _)| Node::new((i / n) as u16, (i % n) as u16))
    }

    /// Iterates over present operator (non-input) nodes.
    pub fn op_nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.nodes().filter(|nd| !nd.is_input())
    }

    /// Iterates over the minlist (deletable nodes).
    pub fn min_nodes(&self) -> impl Iterator<Item = Node> + '_ {
        let n = self.n as usize;
        self.min
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p)
            .map(move |(i, _)| Node::new((i / n) as u16, (i % n) as u16))
    }

    /// The graph's compact record: width and minlist (see [`GraphSpec`]).
    pub fn spec(&self) -> GraphSpec {
        GraphSpec {
            n: self.n,
            min_nodes: self.min_nodes().map(|nd| (nd.msb(), nd.lsb())).collect(),
        }
    }

    /// Raw present-grid access for feature extraction, row-major.
    pub(crate) fn present_grid(&self) -> &[bool] {
        &self.present
    }

    /// Raw minlist-grid access for feature extraction, row-major.
    pub(crate) fn min_grid(&self) -> &[bool] {
        &self.min
    }

    /// Raw level-grid access for feature extraction, row-major.
    pub(crate) fn level_grid(&self) -> &[u16] {
        &self.level
    }

    /// Raw fanout-grid access for feature extraction, row-major.
    pub(crate) fn fanout_grid(&self) -> &[u16] {
        &self.fanout
    }

    /// Rebuilds this graph with `node` requested in addition to the current
    /// minlist. Used by [`crate::action`].
    pub(crate) fn rebuild_with(&self, node: Node, add: bool) -> PrefixGraph {
        let nn = self.n as usize;
        let mut requested = self.min.clone();
        requested[node.msb() as usize * nn + node.lsb() as usize] = add;
        Self::rebuild(self.n, requested)
    }

    /// A compact canonical key over present interior positions, suitable for
    /// hashing and synthesis-result caching. Two graphs have equal keys iff
    /// they are equal.
    pub fn canonical_key(&self) -> Vec<u64> {
        let mut words = vec![0u64; self.present.len().div_ceil(64) + 1];
        words[0] = self.n as u64;
        for (i, &p) in self.present.iter().enumerate() {
            if p {
                words[1 + i / 64] |= 1 << (i % 64);
            }
        }
        words
    }

    /// Rebuilds the graph whose [`canonical_key`](PrefixGraph::canonical_key)
    /// is `key`: the exact inverse of `canonical_key`, equal to the original
    /// graph in every field.
    ///
    /// # Errors
    ///
    /// Refuses, without panicking, a key whose width word is unsupported or
    /// disagrees with its length, a set bit outside the grid, and a node set
    /// that legalization would change.
    pub fn from_canonical_key(key: &[u64]) -> Result<PrefixGraph, KeyError> {
        let width = key.first().copied().unwrap_or(0);
        let nn = width as usize;
        if !(2..=512).contains(&width) || key.len() != (nn * nn).div_ceil(64) + 1 {
            return Err(KeyError::Width {
                n: width,
                words: key.len(),
            });
        }
        let mut present = vec![false; nn * nn];
        for (w, &word) in key[1..].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                if i >= nn * nn || i % nn > i / nn {
                    return Err(KeyError::OutOfGrid(i));
                }
                present[i] = true;
                bits &= bits - 1;
            }
        }
        let g = Self::rebuild(width as u16, present.clone());
        if g.present != present {
            return Err(KeyError::NotLegal);
        }
        Ok(g)
    }

    /// Verifies the full legality constraints of the paper's Eq. (1).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint. Graphs built through the
    /// public API never fail this check; it is an oracle for tests and
    /// deserialization.
    pub fn verify_legal(&self) -> Result<(), LegalityError> {
        let n = self.n;
        for i in 0..n {
            if !self.contains(Node::new(i, i)) {
                return Err(LegalityError::MissingTerminal(Node::new(i, i)));
            }
            if !self.contains(Node::new(i, 0)) {
                return Err(LegalityError::MissingTerminal(Node::new(i, 0)));
            }
        }
        for node in self.op_nodes().collect::<Vec<_>>() {
            let up = self.up(node).ok_or(LegalityError::BadUpperParent(node))?;
            let lp = self
                .lp(node)
                .ok_or(LegalityError::MissingLowerParent(node))?;
            // Eq. (1): LSB(lp)=LSB(node); MSB(lp)=LSB(up)-1; MSB(up)=MSB(node);
            // parents are valid spans; both parents exist.
            if up.msb() != node.msb()
                || up.lsb() > up.msb()
                || up.lsb() <= node.lsb()
                || !self.contains(up)
            {
                return Err(LegalityError::BadUpperParent(node));
            }
            if lp.lsb() != node.lsb() || lp.msb() != up.lsb() - 1 || !self.contains(lp) {
                return Err(LegalityError::MissingLowerParent(node));
            }
            // Canonical upper parent: no present node strictly between.
            for k in (node.lsb() + 1)..up.lsb() {
                if self.contains(Node::new(node.msb(), k)) {
                    return Err(LegalityError::BadUpperParent(node));
                }
            }
        }
        Ok(())
    }
}

impl PartialEq for PrefixGraph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.present == other.present
    }
}

impl Eq for PrefixGraph {}

impl std::hash::Hash for PrefixGraph {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.canonical_key().hash(state);
    }
}

impl fmt::Debug for PrefixGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrefixGraph")
            .field("n", &self.n)
            .field("size", &self.size())
            .field("depth", &self.depth())
            .field("min_nodes", &self.min_nodes().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Action;

    #[test]
    fn ripple_is_minimal() {
        for n in [2u16, 3, 4, 8, 16, 33] {
            let g = PrefixGraph::ripple(n);
            g.verify_legal().unwrap();
            assert_eq!(g.size(), (n - 1) as usize, "ripple op count for n={n}");
            assert_eq!(g.depth(), n - 1, "ripple depth for n={n}");
            assert_eq!(g.min_nodes().count(), 0);
        }
    }

    #[test]
    fn ripple_parents_chain() {
        let g = PrefixGraph::ripple(5);
        for i in 1..5u16 {
            let out = Node::new(i, 0);
            assert_eq!(g.up(out), Some(Node::new(i, i)));
            assert_eq!(g.lp(out), Some(Node::new(i - 1, 0)));
        }
    }

    #[test]
    fn add_creates_lower_parents() {
        let mut g = PrefixGraph::ripple(8);
        g.apply(Action::Add(Node::new(6, 3))).unwrap();
        g.verify_legal().unwrap();
        assert!(g.contains(Node::new(6, 3)));
        // Closure adds (5,3) and (4,3) as lower parents.
        assert!(g.contains(Node::new(5, 3)));
        assert!(g.contains(Node::new(4, 3)));
        // Only the explicitly added node is deletable.
        assert!(g.is_deletable(Node::new(6, 3)));
        assert!(!g.is_deletable(Node::new(5, 3)));
        assert!(!g.is_deletable(Node::new(4, 3)));
    }

    #[test]
    fn delete_cascades_unneeded_parents() {
        let mut g = PrefixGraph::ripple(8);
        g.apply(Action::Add(Node::new(6, 3))).unwrap();
        g.apply(Action::Delete(Node::new(6, 3))).unwrap();
        assert_eq!(g, PrefixGraph::ripple(8), "delete cascades back to ripple");
    }

    #[test]
    fn added_node_is_always_deletable() {
        let mut g = PrefixGraph::ripple(10);
        for node in [Node::new(7, 2), Node::new(9, 5), Node::new(5, 3)] {
            g.apply(Action::Add(node)).unwrap();
            assert!(g.is_deletable(node), "{node} should be deletable");
        }
    }

    #[test]
    fn up_assignment_is_next_highest_lsb() {
        let mut g = PrefixGraph::ripple(8);
        g.apply(Action::Add(Node::new(7, 2))).unwrap();
        g.apply(Action::Add(Node::new(7, 4))).unwrap();
        // Row 7 now has LSBs {0, 2, 4, 7}: up(7,2) must be (7,4), not (7,7).
        assert_eq!(g.up(Node::new(7, 2)), Some(Node::new(7, 4)));
        assert_eq!(g.lp(Node::new(7, 2)), Some(Node::new(3, 2)));
        assert_eq!(g.up(Node::new(7, 0)), Some(Node::new(7, 2)));
        g.verify_legal().unwrap();
    }

    #[test]
    fn adding_existing_interior_changes_upper_parents() {
        // Adding (5,3) between (5,2) and (5,4) re-parents (5,2) and drops
        // its old lower parent if no longer demanded.
        let mut g = PrefixGraph::ripple(8);
        g.apply(Action::Add(Node::new(5, 2))).unwrap();
        assert_eq!(g.lp(Node::new(5, 2)), Some(Node::new(4, 2)));
        assert!(g.contains(Node::new(4, 2)));
        g.apply(Action::Add(Node::new(5, 3))).unwrap();
        assert_eq!(g.up(Node::new(5, 2)), Some(Node::new(5, 3)));
        assert_eq!(g.lp(Node::new(5, 2)), Some(Node::new(2, 2)));
        // (4,2) was only demanded as the old lower parent; it is gone now.
        assert!(!g.contains(Node::new(4, 2)));
        g.verify_legal().unwrap();
    }

    #[test]
    fn levels_and_fanouts() {
        let g = PrefixGraph::ripple(4);
        assert_eq!(g.level(Node::new(0, 0)), Some(0));
        assert_eq!(g.level(Node::new(1, 0)), Some(1));
        assert_eq!(g.level(Node::new(3, 0)), Some(3));
        // (1,0) feeds (2,0) only.
        assert_eq!(g.fanout(Node::new(1, 0)), Some(1));
        // Input (2,2) feeds (2,0) only.
        assert_eq!(g.fanout(Node::new(2, 2)), Some(1));
        // Final output feeds nothing inside the graph.
        assert_eq!(g.fanout(Node::new(3, 0)), Some(0));
    }

    #[test]
    fn canonical_key_distinguishes_graphs() {
        let a = PrefixGraph::ripple(8);
        let mut b = a.clone();
        b.apply(Action::Add(Node::new(4, 2))).unwrap();
        assert_ne!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.canonical_key(), PrefixGraph::ripple(8).canonical_key());
    }

    #[test]
    fn from_canonical_key_refuses_foreign_words() {
        let mut g = PrefixGraph::ripple(8);
        g.apply(Action::Add(Node::new(6, 3))).unwrap();
        let key = g.canonical_key();
        assert_eq!(PrefixGraph::from_canonical_key(&key), Ok(g));
        // Width word and length disagree.
        let err = |k: &[u64]| PrefixGraph::from_canonical_key(k).unwrap_err();
        assert_eq!(err(&[]), KeyError::Width { n: 0, words: 0 });
        assert_eq!(err(&key[..1]), KeyError::Width { n: 8, words: 1 });
        let mut wide = key.clone();
        wide[0] = 16;
        assert_eq!(err(&wide), KeyError::Width { n: 16, words: 2 });
        let mut one = key.clone();
        one[0] = 1;
        assert!(matches!(err(&one), KeyError::Width { n: 1, .. }));
        // A bit above the diagonal (msb 2, lsb 5), and one past N² at 6b.
        let mut upper = key.clone();
        upper[1] |= 1 << (2 * 8 + 5);
        assert_eq!(err(&upper), KeyError::OutOfGrid(21));
        let mut past = PrefixGraph::ripple(6).canonical_key();
        past[1] |= 1 << 40;
        assert_eq!(err(&past), KeyError::OutOfGrid(40));
        // A missing input, and a node without its lower parent (5, 3).
        let mut no_input = key.clone();
        no_input[1] &= !(1 << (4 * 8 + 4));
        assert_eq!(err(&no_input), KeyError::NotLegal);
        let mut no_lp = key.clone();
        no_lp[1] &= !(1 << (5 * 8 + 3));
        assert_eq!(err(&no_lp), KeyError::NotLegal);
    }

    #[test]
    fn minlist_is_derived_canonically() {
        // Two construction orders reaching the same node set give equal
        // graphs and equal minlists.
        let mut a = PrefixGraph::ripple(8);
        a.apply(Action::Add(Node::new(6, 3))).unwrap();
        a.apply(Action::Add(Node::new(7, 3))).unwrap();
        let b = PrefixGraph::from_min_nodes(8, [Node::new(7, 3), Node::new(6, 3)]);
        assert_eq!(a, b);
        let am: Vec<_> = a.min_nodes().collect();
        let bm: Vec<_> = b.min_nodes().collect();
        assert_eq!(am, bm);
    }

    #[test]
    fn serde_roundtrip() {
        let mut g = PrefixGraph::ripple(8);
        g.apply(Action::Add(Node::new(6, 3))).unwrap();
        g.apply(Action::Add(Node::new(5, 2))).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        assert_eq!(json, r#"{"n":8,"min_nodes":[[5,2],[6,3]]}"#);
        let back: PrefixGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
        back.verify_legal().unwrap();
    }

    #[test]
    fn malformed_spec_is_an_error_not_a_panic() {
        for json in [
            r#"{"n":1,"min_nodes":[]}"#,
            r#"{"n":600,"min_nodes":[]}"#,
            r#"{"n":6,"min_nodes":[[2,4]]}"#,
            r#"{"n":6,"min_nodes":[[6,2]]}"#,
        ] {
            assert!(serde_json::from_str::<PrefixGraph>(json).is_err(), "{json}");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported grid width")]
    fn too_small_grid_panics() {
        let _ = PrefixGraph::ripple(1);
    }
}
