//! OR-prefix circuits: priority encoders and leading-zero logic.
//!
//! The paper's introduction motivates prefix graphs beyond adders: any
//! associative operator fits the same networks. With `∘ = OR`, the outputs
//! `y_i = x_i | x_{i-1} | … | x_0` form the spine of priority encoders and
//! leading-zero detectors. This generator maps a prefix graph to an
//! OR-prefix netlist using the same alternating-polarity discipline as the
//! adder (NOR on odd levels, NAND on even levels, INV for parity fixes), so
//! every synthesis and RL code path exercises non-adder circuits too.

use crate::cell::CellType;
use crate::ir::{NetId, Netlist};
use crate::polarity_tree::{Pol, PolarityTree};
use prefix_graph::PrefixGraph;

/// Generates the OR-prefix netlist of `graph`: inputs `x₀…x_{N-1}`,
/// outputs `y_i = x_i | … | x₀` for every bit.
///
/// # Example
///
/// ```
/// use prefix_graph::structures;
/// use netlist::{prefix_or, sim};
///
/// let nl = prefix_or::generate(&structures::brent_kung(8));
/// // Highest set bit of 0b0010_0000 propagates to all higher outputs.
/// let out = sim::eval(&nl, &[false, false, false, false, false, true, false, false]);
/// assert_eq!(out, vec![false, false, false, false, false, true, true, true]);
/// ```
pub fn generate(graph: &PrefixGraph) -> Netlist {
    let n = graph.n() as usize;
    let mut nl = Netlist::new(format!("prefix_or_{n}b"));
    let x: Vec<NetId> = (0..n).map(|_| nl.add_input()).collect();
    // Odd levels: NOR over true inputs → complemented output. Even
    // levels: NAND over complemented inputs → true output
    // (NAND(!a, !b) = a | b).
    let mut tree = PolarityTree::build(&mut nl, graph, &x, CellType::Nor2, CellType::Nand2);
    for i in 0..n {
        let out = tree.output(&mut nl, i, Pol::True);
        nl.mark_output(out);
    }
    nl.prune_dead();
    nl
}

/// Evaluates the reference OR-prefix for testing.
pub fn reference(x: u64, n: usize) -> u64 {
    let mut y = 0u64;
    let mut acc = false;
    for i in 0..n {
        acc |= (x >> i) & 1 == 1;
        if acc {
            y |= 1 << i;
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;
    use prefix_graph::structures;

    fn eval_bits(nl: &Netlist, x: u64, n: usize) -> u64 {
        let inputs: Vec<bool> = (0..n).map(|i| (x >> i) & 1 == 1).collect();
        let out = sim::eval(nl, &inputs);
        out.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
    }

    #[test]
    fn matches_reference_exhaustive_6b() {
        for (_, ctor) in structures::all_regular() {
            let nl = generate(&ctor(6));
            for x in 0..64u64 {
                assert_eq!(eval_bits(&nl, x, 6), reference(x, 6));
            }
        }
    }

    #[test]
    fn matches_reference_random_32b() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        let nl = generate(&structures::kogge_stone(32));
        for _ in 0..100 {
            let x = rng.random::<u64>() & 0xFFFF_FFFF;
            assert_eq!(eval_bits(&nl, x, 32), reference(x, 32));
        }
    }

    #[test]
    fn uses_only_inverting_gates() {
        let nl = generate(&structures::sklansky(16));
        for (ct, _) in nl.cell_histogram() {
            assert!(
                matches!(ct, CellType::Nand2 | CellType::Nor2 | CellType::Inv),
                "unexpected cell {ct}"
            );
        }
    }

    #[test]
    fn or_prefix_is_cheaper_than_adder() {
        // One gate per node instead of G/P pairs plus pre/postprocessing.
        let g = structures::brent_kung(16);
        let or = generate(&g);
        let add = crate::adder::generate(&g);
        assert!(or.num_gates() < add.num_gates() / 2);
    }
}
