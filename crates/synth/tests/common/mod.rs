//! Strategies shared by the synth integration tests.

use prefix_graph::{Action, Node, PrefixGraph};
use proptest::prelude::*;
use std::ops::RangeInclusive;

/// Random legal graph of a width in `widths`, via a toggle walk from
/// ripple.
pub fn graph_strategy(widths: RangeInclusive<u16>) -> impl Strategy<Value = PrefixGraph> {
    widths
        .prop_flat_map(|n| {
            let pos = (2u16..n).prop_flat_map(move |m| (Just(m), 1u16..m));
            (Just(n), proptest::collection::vec(pos, 0..30))
        })
        .prop_map(|(n, walk)| {
            let mut g = PrefixGraph::ripple(n);
            for (m, l) in walk {
                let node = Node::new(m, l);
                let action = if g.can_add(node) {
                    Action::Add(node)
                } else if g.is_deletable(node) {
                    Action::Delete(node)
                } else {
                    continue;
                };
                g.apply(action).expect("legal");
            }
            g
        })
}
