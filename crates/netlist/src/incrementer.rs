//! AND-prefix incrementers.
//!
//! The second non-adder application from the paper's introduction: an
//! incrementer `s = a + 1` needs the carry `c_i = a_i & a_{i-1} & … & a_0`,
//! i.e. an AND-prefix network, followed by `s_i = a_i ⊕ c_{i-1}`. The same
//! prefix graphs drive it, with NAND on odd levels and NOR on even levels
//! (`NOR(!a, !b) = a & b`).

use crate::cell::CellType;
use crate::ir::{NetId, Netlist};
use crate::polarity_tree::{Pol, PolarityTree};
use prefix_graph::PrefixGraph;

/// Generates the incrementer netlist of `graph`: inputs `a₀…a_{N-1}`,
/// outputs `s₀…s_{N-1}, cout` with `s = a + 1`.
///
/// # Example
///
/// ```
/// use prefix_graph::structures;
/// use netlist::{incrementer, sim};
///
/// let nl = incrementer::generate(&structures::sklansky(8));
/// assert_eq!(incrementer::increment(&nl, 41), 42);
/// assert_eq!(incrementer::increment(&nl, 255), 256); // carries out
/// ```
pub fn generate(graph: &PrefixGraph) -> Netlist {
    let n = graph.n() as usize;
    let mut nl = Netlist::new(format!("incrementer_{n}b"));
    let a: Vec<NetId> = (0..n).map(|_| nl.add_input()).collect();
    // Odd levels: NAND(a, b) = !(a & b) over true inputs. Even levels:
    // NOR(!a, !b) = a & b over complemented inputs.
    let mut tree = PolarityTree::build(&mut nl, graph, &a, CellType::Nand2, CellType::Nor2);
    // s_0 = !a_0 ; s_i = a_i ⊕ c_{i-1} with c = AND-prefix; cout = c_{N-1}.
    let s0 = tree.output(&mut nl, 0, Pol::Comp);
    let mut outs = vec![s0];
    for (i, &a_i) in a.iter().enumerate().take(n).skip(1) {
        // XOR(a, c) directly; with complemented carry use XNOR.
        let (c, pol) = tree.built(i - 1);
        let cell = match pol {
            Pol::True => CellType::Xor2,
            Pol::Comp => CellType::Xnor2,
        };
        outs.push(nl.add_gate(cell, &[a_i, c]));
    }
    let cout = tree.output(&mut nl, n - 1, Pol::True);
    for s in outs {
        nl.mark_output(s);
    }
    nl.mark_output(cout);
    nl.prune_dead();
    nl
}

/// The word-level golden model for testing: `a + 1` over an `n`-bit
/// operand, carry-out included in the result (mirrors
/// [`crate::prefix_or::reference`]; the bit-level generalization lives on
/// `prefixrl_core::task::Incrementer`).
///
/// # Panics
///
/// Panics if `n > 63` or the operand exceeds `n` bits.
pub fn reference(a: u64, n: usize) -> u64 {
    assert!(n <= 63, "width too large");
    assert!(a < (1u64 << n), "operand exceeds {n} bits");
    a + 1
}

/// Evaluates an incrementer netlist, returning `a + 1` (with carry-out as
/// the top bit).
///
/// # Panics
///
/// Panics if the netlist shape is not `N` inputs / `N+1` outputs, `N > 63`,
/// or the operand exceeds `N` bits.
pub fn increment(nl: &Netlist, a: u64) -> u64 {
    let n = nl.inputs().len();
    assert_eq!(nl.outputs().len(), n + 1, "expected N+1 outputs");
    assert!(n <= 63, "width too large");
    assert!(a < (1u64 << n), "operand exceeds {n} bits");
    let inputs: Vec<bool> = (0..n).map(|i| (a >> i) & 1 == 1).collect();
    let out = crate::sim::eval(nl, &inputs);
    out.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefix_graph::structures;

    #[test]
    fn increments_exhaustive_8b() {
        for (_, ctor) in structures::all_regular() {
            let nl = generate(&ctor(8));
            for a in 0..256u64 {
                assert_eq!(increment(&nl, a), reference(a, 8));
            }
        }
    }

    #[test]
    fn increments_random_32b() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(9);
        let nl = generate(&structures::han_carlson(32));
        for _ in 0..100 {
            let a = rng.random::<u64>() & 0xFFFF_FFFF;
            assert_eq!(increment(&nl, a), a + 1);
        }
    }

    #[test]
    fn carry_chain_overflow() {
        let nl = generate(&structures::brent_kung(16));
        assert_eq!(increment(&nl, 0xFFFF), 0x10000);
    }

    #[test]
    fn cheaper_than_full_adder() {
        let g = structures::sklansky(16);
        assert!(generate(&g).num_gates() < crate::adder::generate(&g).num_gates());
    }
}
