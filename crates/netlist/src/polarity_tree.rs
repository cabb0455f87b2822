//! The inverting-polarity prefix tree shared by the OR-prefix and
//! AND-prefix generators.
//!
//! Both map a prefix graph onto two-input inverting gates: a node on an odd
//! level takes its parents in true polarity and yields a complemented net,
//! a node on an even level takes them complemented and yields a true net,
//! and an INV (made once per net, on demand) fixes any parity mismatch. The
//! operator is chosen by the odd-level cell: NOR2 for OR (with NAND2 on
//! even levels, `NAND(!a, !b) = a | b`), NAND2 for AND (with NOR2,
//! `NOR(!a, !b) = a & b`).

use crate::cell::CellType;
use crate::ir::{NetId, Netlist};
use prefix_graph::{Node, PrefixGraph};

/// Polarity of a net against the prefix value it carries.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pol {
    True,
    Comp,
}

struct PolNet {
    net: NetId,
    pol: Pol,
    inv: Option<NetId>,
}

/// The built tree: one net per present node, with its lazily made inverse.
pub(crate) struct PolarityTree {
    n: usize,
    vals: Vec<Option<PolNet>>,
}

impl PolarityTree {
    /// Adds the gates of `graph` over `inputs` to `nl`, `odd` on odd
    /// levels and `even` on even levels, in `(msb ascending, lsb
    /// descending)` node order.
    pub(crate) fn build(
        nl: &mut Netlist,
        graph: &PrefixGraph,
        inputs: &[NetId],
        odd: CellType,
        even: CellType,
    ) -> Self {
        let n = graph.n() as usize;
        let mut tree = PolarityTree {
            n,
            vals: (0..n * n).map(|_| None).collect(),
        };
        for (i, &x) in inputs.iter().enumerate() {
            tree.vals[i * n + i] = Some(PolNet {
                net: x,
                pol: Pol::True,
                inv: None,
            });
        }
        let idx = |node: Node| node.msb() as usize * n + node.lsb() as usize;
        for m in 0..graph.n() {
            for l in (0..m).rev() {
                let node = Node::new(m, l);
                if !graph.contains(node) {
                    continue;
                }
                let level = graph.level(node).expect("present");
                let up = idx(graph.up(node).expect("op"));
                let lp = idx(graph.lp(node).expect("op"));
                let (want, cell, out_pol) = if level % 2 == 1 {
                    (Pol::True, odd, Pol::Comp)
                } else {
                    (Pol::Comp, even, Pol::True)
                };
                let a = tree.get(nl, up, want);
                let b = tree.get(nl, lp, want);
                let net = nl.add_gate(cell, &[a, b]);
                tree.vals[idx(node)] = Some(PolNet {
                    net,
                    pol: out_pol,
                    inv: None,
                });
            }
        }
        tree
    }

    /// Output prefix `msb:0` as its gate produced it, with its polarity.
    pub(crate) fn built(&self, msb: usize) -> (NetId, Pol) {
        let e = self.vals[msb * self.n].as_ref().expect("output present");
        (e.net, e.pol)
    }

    /// Output prefix `msb:0` in polarity `want`, adding its INV on first
    /// need.
    pub(crate) fn output(&mut self, nl: &mut Netlist, msb: usize, want: Pol) -> NetId {
        self.get(nl, msb * self.n, want)
    }

    fn get(&mut self, nl: &mut Netlist, i: usize, want: Pol) -> NetId {
        let e = self.vals[i].as_mut().expect("parent before child");
        if e.pol == want {
            return e.net;
        }
        *e.inv
            .get_or_insert_with(|| nl.add_gate(CellType::Inv, &[e.net]))
    }
}
