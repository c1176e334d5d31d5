//! Property-based tests for the tree-matching algorithms.

use cp_treediff::{
    bottom_up_matching, bottom_up_sim, countable_nodes, n_tree_sim, rstm, selkow_distance,
    selkow_sim, stm, stm_with_mapping, tree_size, zhang_shasha_distance, zhang_shasha_sim,
    SimpleTree, TreeView,
};
use proptest::prelude::*;

/// Strategy generating random labeled ordered trees, with small label
/// alphabets so collisions (and thus nontrivial matchings) are common.
fn arb_tree() -> impl Strategy<Value = SimpleTree> {
    let leaf = prop::sample::select(vec!["a", "b", "c", "d", "e"]).prop_map(SimpleTree::new);
    leaf.prop_recursive(4, 40, 4, |inner| {
        (prop::sample::select(vec!["a", "b", "c", "d", "e"]), prop::collection::vec(inner, 1..4)).prop_map(
            |(label, kids)| {
                let mut t = SimpleTree::new(label);
                fn graft(dst: &mut SimpleTree, parent: usize, src: &SimpleTree, node: usize) {
                    let id = dst.add_child(parent, src.label(node));
                    for c in src.children(node) {
                        graft(dst, id, src, c);
                    }
                }
                for k in kids {
                    graft(&mut t, 0, &k, k.root().unwrap());
                }
                t
            },
        )
    })
}

proptest! {
    #[test]
    fn stm_self_equals_size(t in arb_tree()) {
        prop_assert_eq!(stm(&t, &t), tree_size(&t));
    }

    #[test]
    fn stm_symmetric(a in arb_tree(), b in arb_tree()) {
        prop_assert_eq!(stm(&a, &b), stm(&b, &a));
    }

    #[test]
    fn stm_bounded_by_min_size(a in arb_tree(), b in arb_tree()) {
        prop_assert!(stm(&a, &b) <= tree_size(&a).min(tree_size(&b)));
    }

    #[test]
    fn rstm_bounded_by_stm(a in arb_tree(), b in arb_tree()) {
        // RSTM counts a subset of what STM counts.
        prop_assert!(rstm(&a, &b, 5) <= stm(&a, &b));
    }

    #[test]
    fn rstm_monotone_in_level(a in arb_tree(), b in arb_tree()) {
        let mut prev = 0;
        for l in 1..8 {
            let cur = rstm(&a, &b, l);
            prop_assert!(cur >= prev, "rstm must be monotone in level");
            prev = cur;
        }
    }

    #[test]
    fn rstm_self_equals_countable(t in arb_tree(), l in 1usize..8) {
        prop_assert_eq!(rstm(&t, &t, l), countable_nodes(&t, l));
    }

    #[test]
    fn n_tree_sim_in_unit_interval(a in arb_tree(), b in arb_tree(), l in 1usize..8) {
        let s = n_tree_sim(&a, &b, l);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn n_tree_sim_self_is_one(t in arb_tree(), l in 1usize..8) {
        prop_assert_eq!(n_tree_sim(&t, &t, l), 1.0);
    }

    #[test]
    fn n_tree_sim_symmetric(a in arb_tree(), b in arb_tree()) {
        let ab = n_tree_sim(&a, &b, 5);
        let ba = n_tree_sim(&b, &a, 5);
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn mapping_count_consistent(a in arb_tree(), b in arb_tree()) {
        let (count, pairs) = stm_with_mapping(&a, &b);
        prop_assert_eq!(count, stm(&a, &b));
        prop_assert_eq!(count, pairs.len());
        // Labels of matched pairs are equal; nodes are used at most once.
        let mut seen_a = std::collections::HashSet::new();
        let mut seen_b = std::collections::HashSet::new();
        for (na, nb) in pairs {
            prop_assert_eq!(a.label(na), b.label(nb));
            prop_assert!(seen_a.insert(na));
            prop_assert!(seen_b.insert(nb));
        }
    }

    #[test]
    fn selkow_identity_and_symmetry(a in arb_tree(), b in arb_tree()) {
        prop_assert_eq!(selkow_distance(&a, &a), 0);
        prop_assert_eq!(selkow_distance(&a, &b), selkow_distance(&b, &a));
    }

    #[test]
    fn selkow_bounded_by_total_size(a in arb_tree(), b in arb_tree()) {
        prop_assert!(selkow_distance(&a, &b) <= tree_size(&a) + tree_size(&b));
        let s = selkow_sim(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn bottom_up_bounded(a in arb_tree(), b in arb_tree()) {
        let m = bottom_up_matching(&a, &b);
        prop_assert!(m <= tree_size(&a).min(tree_size(&b)));
        let s = bottom_up_sim(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn bottom_up_self_total(t in arb_tree()) {
        prop_assert_eq!(bottom_up_matching(&t, &t), tree_size(&t));
    }

    #[test]
    fn zhang_shasha_identity_symmetry(a in arb_tree(), b in arb_tree()) {
        prop_assert_eq!(zhang_shasha_distance(&a, &a), 0);
        prop_assert_eq!(zhang_shasha_distance(&a, &b), zhang_shasha_distance(&b, &a));
    }

    #[test]
    fn zhang_shasha_never_exceeds_selkow(a in arb_tree(), b in arb_tree()) {
        // The unrestricted edit distance relaxes the top-down constraint.
        prop_assert!(zhang_shasha_distance(&a, &b) <= selkow_distance(&a, &b));
        let s = zhang_shasha_sim(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn zhang_shasha_size_bounds(a in arb_tree(), b in arb_tree()) {
        let d = zhang_shasha_distance(&a, &b);
        let (na, nb) = (tree_size(&a), tree_size(&b));
        prop_assert!(d <= na + nb);
        prop_assert!(d >= na.abs_diff(nb));
    }

    #[test]
    fn zhang_shasha_triangle_inequality(a in arb_tree(), b in arb_tree(), c in arb_tree()) {
        let ab = zhang_shasha_distance(&a, &b);
        let bc = zhang_shasha_distance(&b, &c);
        let ac = zhang_shasha_distance(&a, &c);
        prop_assert!(ac <= ab + bc, "triangle violated: {ac} > {ab} + {bc}");
    }

    #[test]
    fn notation_round_trip(t in arb_tree()) {
        let s = t.to_notation();
        let back = SimpleTree::parse(&s).unwrap();
        prop_assert_eq!(back.to_notation(), s);
        prop_assert_eq!(tree_size(&back), tree_size(&t));
    }
}
