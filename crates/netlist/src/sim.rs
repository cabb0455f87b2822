//! Functional simulation of netlists.
//!
//! Used throughout the test suite to verify that generated and optimized
//! adder netlists still compute `a + b` — the equivalence oracle for every
//! structural transform (sizing and buffering must be logic-preserving,
//! and the generator itself is checked against `u128` addition).

use crate::ir::Netlist;

/// Evaluates the netlist on the given primary input values.
///
/// Returns primary output values in declaration order.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the number of primary inputs.
pub fn eval(nl: &Netlist, inputs: &[bool]) -> Vec<bool> {
    assert_eq!(inputs.len(), nl.inputs().len(), "input width mismatch");
    let mut values = vec![false; nl.num_nets()];
    for (&net, &v) in nl.inputs().iter().zip(inputs) {
        values[net.index()] = v;
    }
    for id in nl.topo_order() {
        let gate = nl.gate(id);
        let ins: Vec<bool> = gate.inputs().iter().map(|&n| values[n.index()]).collect();
        values[gate.output().index()] = gate.kind.cell_type.eval(&ins);
    }
    nl.outputs().iter().map(|&n| values[n.index()]).collect()
}

/// Evaluates an adder netlist (as produced by [`crate::adder::generate`])
/// on operands `a` and `b`, returning the full `N+1`-bit sum.
///
/// # Panics
///
/// Panics if the netlist does not have `2N` inputs and `N+1` outputs, if
/// `N > 64`, or if the operands do not fit in `N` bits.
pub fn add(nl: &Netlist, a: u64, b: u64) -> u128 {
    let n = nl.inputs().len() / 2;
    assert_eq!(nl.inputs().len(), 2 * n, "expected 2N adder inputs");
    assert_eq!(nl.outputs().len(), n + 1, "expected N+1 adder outputs");
    assert!(n <= 64, "operand width {n} too large");
    if n < 64 {
        assert!(a < (1 << n) && b < (1 << n), "operands exceed {n} bits");
    }
    let mut inputs = Vec::with_capacity(2 * n);
    for i in 0..n {
        inputs.push((a >> i) & 1 == 1);
    }
    for i in 0..n {
        inputs.push((b >> i) & 1 == 1);
    }
    let out = eval(nl, &inputs);
    let mut sum: u128 = 0;
    for (i, &bit) in out.iter().enumerate() {
        if bit {
            sum |= 1 << i;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellType;

    #[test]
    fn eval_simple_gate() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input();
        let b = nl.add_input();
        let y = nl.add_gate(CellType::Xor2, &[a, b]);
        nl.mark_output(y);
        assert_eq!(eval(&nl, &[true, false]), vec![true]);
        assert_eq!(eval(&nl, &[true, true]), vec![false]);
    }

    #[test]
    fn eval_handles_buffer_chains() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input();
        let mut x = a;
        for _ in 0..5 {
            x = nl.add_gate(CellType::Buf, &[x]);
        }
        nl.mark_output(x);
        assert_eq!(eval(&nl, &[true]), vec![true]);
    }

    #[test]
    fn eval_follows_drivers_not_insertion_order() {
        // Insert a buffer after consumers exist: topo order must still work.
        let mut nl = Netlist::new("t");
        let a = nl.add_input();
        let inv = nl.add_gate(CellType::Inv, &[a]);
        let out = nl.add_gate(CellType::Inv, &[inv]);
        nl.mark_output(out);
        let sinks = nl.fanout().sinks(inv).to_vec();
        nl.insert_buffer(inv, crate::cell::Drive::X1, &sinks);
        nl.validate().unwrap();
        assert_eq!(eval(&nl, &[true]), vec![true]);
        assert_eq!(eval(&nl, &[false]), vec![false]);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn eval_checks_width() {
        let mut nl = Netlist::new("t");
        let _ = nl.add_input();
        eval(&nl, &[]);
    }

    #[test]
    fn add_matches_reference_on_edge_cases() {
        let nl = crate::adder::generate(&prefix_graph::structures::sklansky(64));
        let cases = [
            (0u64, 0u64),
            (u64::MAX, 1),
            (u64::MAX, u64::MAX),
            (0x8000_0000_0000_0000, 0x8000_0000_0000_0000),
            (0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555),
        ];
        for (a, b) in cases {
            assert_eq!(add(&nl, a, b), a as u128 + b as u128, "{a}+{b}");
        }
    }
}
