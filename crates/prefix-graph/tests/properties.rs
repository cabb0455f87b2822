//! Property-based tests of the prefix-graph invariants.

use prefix_graph::{analytical, features, structures, Action, Node, PrefixGraph};
use proptest::prelude::*;

/// Strategy: a grid width and a sequence of interior positions interpreted
/// as toggle actions (add if legal, else delete if legal, else skip).
fn walk_strategy() -> impl Strategy<Value = (u16, Vec<(u16, u16)>)> {
    (4u16..=20).prop_flat_map(|n| {
        let pos = (2u16..n).prop_flat_map(move |m| (Just(m), 1u16..m));
        (Just(n), proptest::collection::vec(pos, 0..60))
    })
}

/// Strategy: a toggle walk (as [`walk_strategy`]) at one of the widths the
/// paper trains, 8/16/32/64 bits.
fn paper_width_walk_strategy() -> impl Strategy<Value = (u16, Vec<(u16, u16)>)> {
    (0usize..4).prop_flat_map(|w| {
        let n = [8u16, 16, 32, 64][w];
        let pos = (2u16..n).prop_flat_map(move |m| (Just(m), 1u16..m));
        (Just(n), proptest::collection::vec(pos, 0..80))
    })
}

/// Applies the toggle walk, returning every intermediate graph.
fn apply_walk(n: u16, walk: &[(u16, u16)]) -> Vec<PrefixGraph> {
    let mut g = PrefixGraph::ripple(n);
    let mut trace = vec![g.clone()];
    for &(m, l) in walk {
        let node = Node::new(m, l);
        let action = if g.can_add(node) {
            Action::Add(node)
        } else if g.is_deletable(node) {
            Action::Delete(node)
        } else {
            continue;
        };
        g.apply(action).expect("legal action must apply");
        trace.push(g.clone());
    }
    trace
}

proptest! {
    #[test]
    fn random_walks_stay_legal((n, walk) in walk_strategy()) {
        for g in apply_walk(n, &walk) {
            prop_assert!(g.verify_legal().is_ok());
        }
    }

    #[test]
    fn minlist_regenerates_graph((n, walk) in walk_strategy()) {
        for g in apply_walk(n, &walk) {
            let back = PrefixGraph::from_min_nodes(n, g.min_nodes());
            prop_assert_eq!(&g, &back);
        }
    }

    #[test]
    fn minlist_nodes_are_not_lower_parents((n, walk) in walk_strategy()) {
        for g in apply_walk(n, &walk) {
            let lps: std::collections::HashSet<_> =
                g.op_nodes().filter_map(|nd| g.lp(nd)).collect();
            for m in g.min_nodes() {
                prop_assert!(!lps.contains(&m), "minlist node {m} is a lower parent");
            }
        }
    }

    #[test]
    fn added_node_is_deletable_and_delete_contracts((n, walk) in walk_strategy()) {
        // Add(x) then Delete(x) restores the original graph unless the add
        // demoted an original minlist node into a lower parent (Algorithm 1
        // removes such nodes from the minlist, so the delete cascades them
        // away). In all cases the result's node set is contained in the
        // original's, and restoration is exact when no demotion happened.
        let g = apply_walk(n, &walk).pop().unwrap();
        for m in 2..n {
            for l in 1..m {
                let node = Node::new(m, l);
                if g.can_add(node) {
                    let mut g2 = g.clone();
                    g2.apply(Action::Add(node)).unwrap();
                    prop_assert!(g2.is_deletable(node), "fresh add must be deletable");
                    let demoted = g
                        .min_nodes()
                        .any(|nd| !g2.is_deletable(nd));
                    g2.apply(Action::Delete(node)).unwrap();
                    if demoted {
                        for nd in g2.nodes() {
                            prop_assert!(g.contains(nd), "delete may only shrink");
                        }
                    } else {
                        prop_assert_eq!(&g2, &g, "add then delete must restore");
                    }
                    return Ok(());
                }
            }
        }
    }

    #[test]
    fn size_bounds((n, walk) in walk_strategy()) {
        let interior = (n as usize - 1) * (n as usize - 2) / 2;
        for g in apply_walk(n, &walk) {
            prop_assert!(g.size() >= (n - 1) as usize);
            prop_assert!(g.size() <= interior + (n as usize - 1));
            prop_assert!(g.depth() < n);
            prop_assert!(g.depth() as u32 >= (n as u32).next_power_of_two().trailing_zeros());
        }
    }

    #[test]
    fn features_in_unit_range((n, walk) in walk_strategy()) {
        let g = apply_walk(n, &walk).pop().unwrap();
        let f = features::extract(&g);
        prop_assert_eq!(f.len(), 4 * n as usize * n as usize);
        prop_assert!(f.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn analytical_monotone_in_depth((n, walk) in walk_strategy()) {
        // Delay must always be at least depth (each level costs ≥ 1.0)
        // and area equals op-node count exactly.
        for g in apply_walk(n, &walk) {
            let m = analytical::evaluate(&g);
            prop_assert_eq!(m.area, g.size() as f64);
            prop_assert!(m.delay >= g.depth() as f64);
        }
    }

    #[test]
    fn serde_roundtrip_random((n, walk) in walk_strategy()) {
        let g = apply_walk(n, &walk).pop().unwrap();
        let json = serde_json::to_string(&g).unwrap();
        let back: PrefixGraph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn masks_partition_legal_actions((n, walk) in walk_strategy()) {
        let g = apply_walk(n, &walk).pop().unwrap();
        let (add, del) = g.action_masks();
        let legal = g.legal_actions();
        let from_masks = add.iter().filter(|&&b| b).count()
            + del.iter().filter(|&&b| b).count();
        prop_assert_eq!(legal.len(), from_masks);
        // Every interior position offers exactly one action kind unless the
        // node is a non-deletable lower parent.
        for a in &legal {
            prop_assert!(a.is_legal(&g));
        }
    }

    #[test]
    fn canonical_key_injective_on_walk((n, walk) in walk_strategy()) {
        use std::collections::HashMap;
        let mut seen: HashMap<Vec<u64>, PrefixGraph> = HashMap::new();
        for g in apply_walk(n, &walk) {
            if let Some(prev) = seen.insert(g.canonical_key(), g.clone()) {
                prop_assert_eq!(prev, g, "key collision on distinct graphs");
            }
        }
    }

    #[test]
    fn canonical_key_round_trips((n, walk) in paper_width_walk_strategy()) {
        for g in apply_walk(n, &walk) {
            let back = PrefixGraph::from_canonical_key(&g.canonical_key())
                .expect("a graph's own key decodes");
            // Every field: the node set, the minlist, and each node's
            // parents, level and fanout.
            prop_assert_eq!(&back, &g);
            prop_assert!(back.min_nodes().eq(g.min_nodes()), "minlists differ");
            for m in 0..n {
                for l in 0..=m {
                    let nd = Node::new(m, l);
                    prop_assert_eq!(back.up(nd), g.up(nd));
                    prop_assert_eq!(back.lp(nd), g.lp(nd));
                    prop_assert_eq!(back.level(nd), g.level(nd));
                    prop_assert_eq!(back.fanout(nd), g.fanout(nd));
                }
            }
            let bits = |f: Vec<f32>| f.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            prop_assert_eq!(bits(features::extract(&back)), bits(features::extract(&g)));
            prop_assert_eq!(back.action_masks(), g.action_masks());
        }
    }
}

#[test]
fn regular_structures_compute_correct_prefixes() {
    // Semantic check: interpret ∘ as (generate, propagate) composition and
    // compare against direct carry computation for random inputs.
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for (name, ctor) in structures::all_regular() {
        for n in [8u16, 13, 16, 32] {
            let g = ctor(n);
            for _ in 0..20 {
                let a: u64 = rng.random::<u64>() & ((1u64 << n) - 1).max(u64::MAX >> (64 - n));
                let b: u64 = rng.random::<u64>() & (u64::MAX >> (64 - n));
                let carries = eval_carries(&g, a, b);
                for i in 0..n {
                    let mask = if i == 63 {
                        u64::MAX
                    } else {
                        (1u64 << (i + 1)) - 1
                    };
                    let expect = ((a & mask) as u128 + (b & mask) as u128) >> (i + 1) & 1;
                    assert_eq!(
                        carries[i as usize] as u128, expect,
                        "{name} n={n} carry {i} mismatch"
                    );
                }
            }
        }
    }
}

/// Evaluates the prefix graph as a carry network: each node combines
/// (g, p) pairs with the standard operator (g, p) ∘ (g', p') =
/// (g | p & g', p & p').
fn eval_carries(graph: &PrefixGraph, a: u64, b: u64) -> Vec<u8> {
    let n = graph.n();
    let mut gp = vec![(0u8, 0u8); n as usize * n as usize];
    let idx = |nd: Node| nd.msb() as usize * n as usize + nd.lsb() as usize;
    for m in 0..n {
        for l in (0..=m).rev() {
            let node = Node::new(m, l);
            if !graph.contains(node) {
                continue;
            }
            gp[idx(node)] = if node.is_input() {
                let ai = ((a >> m) & 1) as u8;
                let bi = ((b >> m) & 1) as u8;
                (ai & bi, ai ^ bi)
            } else {
                let up = gp[idx(graph.up(node).unwrap())];
                let lo = gp[idx(graph.lp(node).unwrap())];
                (up.0 | (up.1 & lo.0), up.1 & lo.1)
            };
        }
    }
    (0..n).map(|i| gp[idx(Node::new(i, 0))].0).collect()
}

/// The per-position fields of a graph as the pre-fusion `rebuild` derived
/// them (four passes over the grid): present, minlist, upper-parent LSB
/// (`u16::MAX` where none), level and fanout. Kept verbatim as the oracle
/// of `rebuild_matches_the_four_pass_derivation`.
type Fields = (Vec<bool>, Vec<bool>, Vec<u16>, Vec<u16>, Vec<u16>);

fn four_pass_rebuild(n: u16, requested: Vec<bool>) -> Fields {
    let nn = n as usize;
    let mut present = requested;
    for m in 0..nn {
        present[m * nn + m] = true;
        present[m * nn] = true;
    }
    let mut up_lsb = vec![u16::MAX; nn * nn];
    for m in (1..nn).rev() {
        let mut last = m as u16;
        for l in (0..m).rev() {
            if present[m * nn + l] {
                up_lsb[m * nn + l] = last;
                let lp_msb = (last - 1) as usize;
                present[lp_msb * nn + l] = true;
                last = l as u16;
            }
        }
    }
    let mut is_lp = vec![false; nn * nn];
    for m in 1..nn {
        for l in 0..m {
            let i = m * nn + l;
            if present[i] {
                let k = up_lsb[i] as usize;
                let lp = (k - 1) * nn + l;
                if k - 1 > l {
                    is_lp[lp] = true;
                }
            }
        }
    }
    let mut min = vec![false; nn * nn];
    for m in 1..nn {
        for l in 1..m {
            let i = m * nn + l;
            min[i] = present[i] && !is_lp[i];
        }
    }
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
            }
        }
    }
    (present, min, up_lsb, level, fanout)
}

/// The same fields read back through the public accessors.
fn fields(g: &PrefixGraph) -> Fields {
    let n = g.n();
    let grid = || (0..n).flat_map(move |m| (0..n).map(move |l| (m, l)));
    let at = |m: u16, l: u16| (l <= m).then(|| Node::new(m, l));
    (
        grid()
            .map(|(m, l)| at(m, l).is_some_and(|nd| g.contains(nd)))
            .collect(),
        grid()
            .map(|(m, l)| at(m, l).is_some_and(|nd| g.is_deletable(nd)))
            .collect(),
        grid()
            .map(|(m, l)| {
                at(m, l)
                    .and_then(|nd| g.up(nd))
                    .map_or(u16::MAX, |up| up.lsb())
            })
            .collect(),
        grid()
            .map(|(m, l)| at(m, l).and_then(|nd| g.level(nd)).unwrap_or(0))
            .collect(),
        grid()
            .map(|(m, l)| at(m, l).and_then(|nd| g.fanout(nd)).unwrap_or(0))
            .collect(),
    )
}

/// Strategy: a paper width and a set of interior positions, sparse to
/// dense.
fn min_nodes_strategy() -> impl Strategy<Value = (u16, Vec<(u16, u16)>)> {
    (0usize..4).prop_flat_map(|w| {
        let n = [8u16, 16, 32, 64][w];
        let pos = (2u16..n).prop_flat_map(move |m| (Just(m), 1u16..m));
        (Just(n), proptest::collection::vec(pos, 0..3 * n as usize))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `rebuild` (marking lower parents in its closure pass and deriving
    /// the minlist in its level pass) gives every field of the four-pass
    /// derivation, on random `from_min_nodes` graphs at 8–64 bits.
    #[test]
    fn rebuild_matches_the_four_pass_derivation((n, nodes) in min_nodes_strategy()) {
        let nn = n as usize;
        let mut requested = vec![false; nn * nn];
        for &(m, l) in &nodes {
            requested[m as usize * nn + l as usize] = true;
        }
        let g = PrefixGraph::from_min_nodes(n, nodes.iter().map(|&(m, l)| Node::new(m, l)));
        prop_assert_eq!(fields(&g), four_pass_rebuild(n, requested));
    }
}
