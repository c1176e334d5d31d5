//! The compiled detection tree: a flattened preorder arena with interned
//! labels, built once per page and matched without touching the source DOM.
//!
//! [`rstm`](crate::stm::rstm) over a generic [`TreeView`] pays three costs
//! per visited node pair: a string comparison of the labels, a fresh `Vec`
//! from [`TreeView::children`], and two DP-row allocations inside the
//! forest matcher. None of those are inherent to the algorithm. A
//! [`DetectTree`] removes all three:
//!
//! * **labels** are interned into `u32` symbols by a per-tree
//!   [`SymbolTable`]; a per-comparison remap table translates one tree's
//!   symbols into the other's space, so label equality is one integer
//!   compare regardless of which pages the trees came from;
//! * **topology** is flattened into preorder arrays (`countable` flags and
//!   child index ranges), so the matcher walks plain slices instead of
//!   chasing node handles through a `Document`;
//! * **the DP workspace** is a single reusable [`MatchScratch`] threaded
//!   through the recursion with stack discipline — zero allocations per
//!   matched node pair once the scratch is warm.
//!
//! [`rstm_detect`] is the exact algorithm of Figure 2 — same recursion,
//! same weighted-LCS DP — so its result is always identical to
//! [`rstm`](crate::stm::rstm) over the view the tree was built from:
//!
//! ```
//! use cp_treediff::{DetectTree, MatchScratch, SimpleTree, rstm, rstm_detect};
//!
//! let a = SimpleTree::parse("html(body(div(p(x),q),div(r(s))))").unwrap();
//! let b = SimpleTree::parse("html(body(div(p(x)),div(r(s)),footer))").unwrap();
//! let (da, db) = (DetectTree::from_view(&a), DetectTree::from_view(&b));
//! let mut scratch = MatchScratch::default();
//! for level in 1..8 {
//!     assert_eq!(rstm_detect(&da, &db, level, &mut scratch), rstm(&a, &b, level));
//! }
//! ```

pub use cp_runtime::symbols::SymbolTable;

use crate::metrics::jaccard;
use crate::tree::TreeView;

/// A tree compiled for restricted matching: preorder node arrays plus a
/// flattened child index list.
///
/// Node `0` is the root; a node's children are a contiguous run of node
/// indices inside [`children`](DetectTree::from_view). Built once per page
/// with [`DetectTree::from_view`], then matched any number of times with
/// [`rstm_detect`] / [`n_tree_sim_detect`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectTree {
    labels: Vec<u32>,
    countable: Vec<bool>,
    child_start: Vec<u32>,
    child_count: Vec<u32>,
    children: Vec<u32>,
    symbols: SymbolTable,
}

impl DetectTree {
    /// Compiles any [`TreeView`] into the flattened arena form.
    pub fn from_view<T: TreeView>(view: &T) -> Self {
        let mut builder = DetectTreeBuilder::new();
        if let Some(root) = view.root() {
            build(view, root, &mut builder);
        }
        builder.finish()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Fills `out` with a translation of `other`'s symbol space into this
    /// tree's: `out[sym_of_other] = sym_of_self`, or `u32::MAX` for labels
    /// this tree never saw (which therefore match nothing — `u32::MAX` is
    /// never a valid symbol id).
    ///
    /// Cost is one hash lookup per *distinct* label of `other`, typically a
    /// few dozen for an HTML page — negligible next to the matching DP.
    pub fn remap_symbols_from(&self, other: &DetectTree, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            (0..other.symbols.len() as u32)
                .map(|s| self.symbols.lookup(other.symbols.name(s)).unwrap_or(u32::MAX)),
        );
    }
}

fn build<T: TreeView>(view: &T, n: T::Node, builder: &mut DetectTreeBuilder) {
    builder.enter(view.label(n), view.countable(n));
    for c in view.children(n) {
        build(view, c, builder);
    }
    builder.leave();
}

/// Incremental [`DetectTree`] construction from enter/leave traversal
/// events, so callers walking a source structure for other reasons (e.g.
/// content extraction) can grow the tree in the same pass instead of
/// traversing twice.
///
/// Events must nest properly: one `leave` per `enter`, innermost first.
/// Node ids are assigned in `enter` (preorder) and every node's children
/// end up contiguous, exactly as [`DetectTree::from_view`] lays them out —
/// `from_view` is itself implemented on this builder.
///
/// During the traversal the builder only records each node's parent id —
/// two array pushes and a stack peek per node. The contiguous child lists
/// are produced in [`finish`](Self::finish) by a counting sort over the
/// parent array (preorder ids are increasing within every sibling list, so
/// the sort is stable by construction), which is three linear passes
/// instead of per-node child-list bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct DetectTreeBuilder {
    tree: DetectTree,
    /// Parent id per node, `u32::MAX` for roots.
    parents: Vec<u32>,
    /// Ids of the currently open nodes, outermost first.
    stack: Vec<u32>,
}

impl DetectTreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        DetectTreeBuilder::default()
    }

    /// Creates a builder with arena capacity for `nodes` nodes, so callers
    /// that know the source size (e.g. a parsed document) avoid the
    /// doubling reallocations while the arrays grow.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut builder = DetectTreeBuilder::new();
        builder.tree.labels.reserve(nodes);
        builder.tree.countable.reserve(nodes);
        builder.parents.reserve(nodes);
        builder.tree.child_count.reserve(nodes);
        builder.tree.child_start.reserve(nodes);
        builder.tree.children.reserve(nodes);
        // Size the symbol table for a page-typical few dozen distinct
        // labels so interning skips the early grow-and-rehash rounds.
        builder.tree.symbols = SymbolTable::with_capacity(48);
        builder
    }

    /// Interns a label without adding a node, for callers that want to
    /// reuse the symbol across many [`enter_sym`](Self::enter_sym) /
    /// [`leaf_sym`](Self::leaf_sym) calls (e.g. the `#text` label of a
    /// document walk).
    pub fn intern(&mut self, label: &str) -> u32 {
        self.tree.symbols.intern(label)
    }

    /// Opens a node: assigns the next preorder id, interns the label, and
    /// registers the node as a child of the currently open node (if any).
    pub fn enter(&mut self, label: &str, countable: bool) {
        let sym = self.tree.symbols.intern(label);
        self.enter_sym(sym, countable);
    }

    /// [`enter`](Self::enter) with a pre-interned symbol.
    ///
    /// # Panics
    /// Panics when `sym` was not issued by this builder's table.
    pub fn enter_sym(&mut self, sym: u32, countable: bool) {
        let id = self.push_node(sym, countable);
        self.stack.push(id);
    }

    /// Adds a childless node without the open/close bookkeeping — the
    /// moral equivalent of `enter_sym(sym, countable); leave();` for
    /// leaves.
    ///
    /// # Panics
    /// Panics when `sym` was not issued by this builder's table.
    pub fn leaf_sym(&mut self, sym: u32, countable: bool) {
        self.push_node(sym, countable);
    }

    fn push_node(&mut self, sym: u32, countable: bool) -> u32 {
        assert!((sym as usize) < self.tree.symbols.len(), "unknown symbol");
        let id = self.tree.labels.len() as u32;
        self.tree.labels.push(sym);
        self.tree.countable.push(countable);
        self.parents.push(self.stack.last().copied().unwrap_or(u32::MAX));
        id
    }

    /// Closes the innermost open node.
    ///
    /// # Panics
    /// Panics when no node is open.
    pub fn leave(&mut self) {
        self.stack.pop().expect("DetectTreeBuilder::leave without enter");
    }

    /// Finishes construction: counting-sorts the parent array into the
    /// contiguous per-node child ranges.
    ///
    /// # Panics
    /// Panics when a node is still open.
    pub fn finish(mut self) -> DetectTree {
        assert!(self.stack.is_empty(), "DetectTreeBuilder::finish with open nodes");
        let n = self.parents.len();
        let tree = &mut self.tree;
        tree.child_count.clear();
        tree.child_count.resize(n, 0);
        for &p in &self.parents {
            if p != u32::MAX {
                tree.child_count[p as usize] += 1;
            }
        }
        tree.child_start.clear();
        tree.child_start.reserve(n);
        let mut next = 0u32;
        for &count in &tree.child_count {
            tree.child_start.push(next);
            next += count;
        }
        // Fill using child_start as the per-parent write cursor, then walk
        // the cursors back. Ids are scanned in increasing order, so each
        // child list comes out in sibling (preorder) order.
        tree.children.clear();
        tree.children.resize(next as usize, 0);
        for (id, &p) in self.parents.iter().enumerate() {
            if p != u32::MAX {
                let slot = &mut tree.child_start[p as usize];
                tree.children[*slot as usize] = id as u32;
                *slot += 1;
            }
        }
        for (start, &count) in tree.child_start.iter_mut().zip(&tree.child_count) {
            *start -= count;
        }
        self.tree
    }
}

/// Reusable workspace for [`rstm_detect`]: the DP rows (with stack
/// discipline across recursion levels) and the symbol remap table.
///
/// Create one per thread and reuse it across comparisons; after the first
/// few calls the buffers stop growing and matching allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    dp: Vec<usize>,
    remap: Vec<u32>,
    /// Per-column `(child id, translated symbol, gates passed)` rows of the
    /// forest DP, with the same stack discipline as `dp`.
    cols: Vec<(u32, u32, bool)>,
}

impl MatchScratch {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        MatchScratch::default()
    }
}

/// Restricted Simple Tree Matching (Figure 2) over two compiled trees —
/// identical in result to [`rstm`](crate::stm::rstm) over the views the
/// trees were built from, but label comparisons are integer compares and
/// the recursion allocates nothing (the DP rows live in `scratch`).
pub fn rstm_detect(
    a: &DetectTree,
    b: &DetectTree,
    max_level: usize,
    scratch: &mut MatchScratch,
) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let MatchScratch { dp, remap, cols } = scratch;
    a.remap_symbols_from(b, remap);
    dp.clear();
    cols.clear();
    // Figure 2 lines 1-3: roots with different symbols do not match at all.
    if a.labels[0] != remap[b.labels[0] as usize] {
        return 0;
    }
    // Figure 2 lines 4-8: the pair only counts if both nodes are internal,
    // countable and within the level bound.
    if a.child_count[0] == 0
        || b.child_count[0] == 0
        || !a.countable[0]
        || !b.countable[0]
        || max_level < 1
    {
        return 0;
    }
    forest_detect_rec(a, b, 0, 0, 1, max_level, remap, dp, cols) + 1
}

/// The forest DP under an already-matched pair `(ia, ib)` counted at
/// `current_level`. The Figure 2 line 1-8 checks (label match, both
/// internal, countable, level bound) run *at the call site* before
/// recursing, so mismatched child pairs — the overwhelming majority in
/// typical trees — cost three array reads instead of a call frame and a
/// pair of DP rows.
#[allow(clippy::too_many_arguments)] // internal recursion carries the full traversal state
fn forest_detect_rec(
    a: &DetectTree,
    b: &DetectTree,
    ia: usize,
    ib: usize,
    current_level: usize,
    max_level: usize,
    remap: &[u32],
    dp: &mut Vec<usize>,
    cols: &mut Vec<(u32, u32, bool)>,
) -> usize {
    let (ma, mb) = (a.child_count[ia] as usize, b.child_count[ib] as usize);
    let ca = a.child_start[ia] as usize;
    let cb = b.child_start[ib] as usize;
    let child_level = current_level + 1;
    // When children sit past the level bound every pair weighs 0, so the
    // whole row degenerates to the plain (weightless) LCS recurrence.
    let level_ok = child_level <= max_level;
    // Per-column data gathered once instead of on every row pass: the id,
    // translated symbol and gate verdict of each b-side child.
    let cbase = cols.len();
    for j in 0..mb {
        let child_b = b.children[cb + j] as usize;
        cols.push((
            child_b as u32,
            remap[b.labels[child_b] as usize],
            b.child_count[child_b] != 0 && b.countable[child_b],
        ));
    }
    // The weighted-LCS forest DP over two rolling rows carved out of the
    // shared workspace. Deeper recursion appends past `base` and truncates
    // back, so the rows stay valid (indices, not references).
    let base = dp.len();
    dp.resize(base + 2 * (mb + 1), 0);
    let (mut prev, mut cur) = (base, base + mb + 1);
    for i in 1..=ma {
        let child_a = a.children[ca + i - 1] as usize;
        let a_ok = level_ok && a.child_count[child_a] != 0 && a.countable[child_a];
        let la = a.labels[child_a];
        for j in 1..=mb {
            let (child_b, lb, b_ok) = cols[cbase + j - 1];
            let w = if a_ok && la == lb && b_ok {
                forest_detect_rec(
                    a,
                    b,
                    child_a,
                    child_b as usize,
                    child_level,
                    max_level,
                    remap,
                    dp,
                    cols,
                ) + 1
            } else {
                // Label mismatch, or a gate failed: either way Figure 2
                // scores the pair 0, so no recursion is needed.
                0
            };
            let pair = dp[prev + j - 1] + w;
            dp[cur + j] = dp[cur + j - 1].max(dp[prev + j]).max(pair);
        }
        std::mem::swap(&mut prev, &mut cur);
        dp[cur] = 0;
    }
    let result = dp[prev + mb];
    dp.truncate(base);
    cols.truncate(cbase);
    result
}

/// `N(A, l)` over a compiled tree — equal to
/// [`countable_nodes`](crate::metrics::countable_nodes) over the source
/// view, in one preorder walk of the flat arrays.
pub fn countable_nodes_detect(tree: &DetectTree, max_level: usize) -> usize {
    fn rec(tree: &DetectTree, n: u32, level: usize, max_level: usize) -> usize {
        let i = n as usize;
        let current = level + 1;
        if current > max_level || !tree.countable[i] {
            return 0;
        }
        let count = tree.child_count[i] as usize;
        if count == 0 {
            return 0;
        }
        let start = tree.child_start[i] as usize;
        1 + tree.children[start..start + count]
            .iter()
            .map(|&c| rec(tree, c, current, max_level))
            .sum::<usize>()
    }
    if tree.is_empty() {
        return 0;
    }
    rec(tree, 0, 0, max_level)
}

/// `NTreeSim(A, B, l)` (Formula 2) over compiled trees — bit-identical to
/// [`n_tree_sim`](crate::metrics::n_tree_sim) over the source views, since
/// the matched-pair and countable-node counts are identical integers.
pub fn n_tree_sim_detect(
    a: &DetectTree,
    b: &DetectTree,
    max_level: usize,
    scratch: &mut MatchScratch,
) -> f64 {
    let matched = rstm_detect(a, b, max_level, scratch);
    let na = countable_nodes_detect(a, max_level);
    let nb = countable_nodes_detect(b, max_level);
    jaccard(matched, na, nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{countable_nodes, n_tree_sim};
    use crate::stm::rstm;
    use crate::tree::SimpleTree;

    fn t(s: &str) -> SimpleTree {
        SimpleTree::parse(s).unwrap()
    }

    const CASES: [&str; 8] = [
        "a(b(c,b),c(d,e,f,e,d),g(h,i,j))",
        "a(b,c(d,e),g(f,h))",
        "html(body(div(p(x),q),div(r(s))))",
        "html(body(div(p(x)),div(r(s)),footer))",
        "a(~script(x,y),b(c))",
        "a(~div(span(x)),b(c))",
        "a",
        "html(head(title(x)),body(div(p(y),p(z)),~script(w)))",
    ];

    #[test]
    fn matches_rstm_on_all_case_pairs_and_levels() {
        let mut scratch = MatchScratch::new();
        for sa in CASES {
            for sb in CASES {
                let (a, b) = (t(sa), t(sb));
                let (da, db) = (DetectTree::from_view(&a), DetectTree::from_view(&b));
                for level in [1, 2, 3, 5, usize::MAX] {
                    assert_eq!(
                        rstm_detect(&da, &db, level, &mut scratch),
                        rstm(&a, &b, level),
                        "{sa} vs {sb} at level {level}"
                    );
                }
            }
        }
    }

    #[test]
    fn countable_nodes_match_view_walk() {
        for s in CASES {
            let tree = t(s);
            let compiled = DetectTree::from_view(&tree);
            for level in 1..8 {
                assert_eq!(
                    countable_nodes_detect(&compiled, level),
                    countable_nodes(&tree, level),
                    "{s} at level {level}"
                );
            }
        }
    }

    #[test]
    fn tree_sim_is_bit_identical() {
        let mut scratch = MatchScratch::new();
        for sa in CASES {
            for sb in CASES {
                let (a, b) = (t(sa), t(sb));
                let (da, db) = (DetectTree::from_view(&a), DetectTree::from_view(&b));
                for level in [1, 3, 5] {
                    let compiled = n_tree_sim_detect(&da, &db, level, &mut scratch);
                    let reference = n_tree_sim(&a, &b, level);
                    assert_eq!(compiled.to_bits(), reference.to_bits(), "{sa} vs {sb} l={level}");
                }
            }
        }
    }

    #[test]
    fn empty_trees() {
        let e = DetectTree::from_view(&SimpleTree::empty());
        let a = DetectTree::from_view(&t("a(b(c))"));
        let mut scratch = MatchScratch::new();
        assert!(e.is_empty());
        assert_eq!(rstm_detect(&e, &a, 5, &mut scratch), 0);
        assert_eq!(rstm_detect(&a, &e, 5, &mut scratch), 0);
        assert_eq!(n_tree_sim_detect(&e, &e, 5, &mut scratch), 1.0);
        assert_eq!(countable_nodes_detect(&e, 5), 0);
    }

    #[test]
    fn symbols_reconcile_across_trees() {
        // Different interning orders: the remap must translate correctly.
        let a = DetectTree::from_view(&t("x(y(z))"));
        let b = DetectTree::from_view(&t("z(y(x))"));
        let mut remap = Vec::new();
        a.remap_symbols_from(&b, &mut remap);
        for (bid, name) in ["z", "y", "x"].iter().enumerate() {
            assert_eq!(a.symbols().name(remap[bid]), *name);
        }
        // A label unknown to `a` maps to the never-matching sentinel.
        let c = DetectTree::from_view(&t("x(unseen)"));
        c.remap_symbols_from(&DetectTree::from_view(&t("q")), &mut remap);
        assert_eq!(remap, vec![u32::MAX]);
    }

    #[test]
    fn scratch_is_reusable_and_convergent() {
        let a = DetectTree::from_view(&t("html(body(div(p(x),q),div(r(s))))"));
        let mut scratch = MatchScratch::new();
        let first = rstm_detect(&a, &a, 5, &mut scratch);
        let dp_capacity = scratch.dp.capacity();
        for _ in 0..10 {
            assert_eq!(rstm_detect(&a, &a, 5, &mut scratch), first);
        }
        // The workspace reached steady state: repeated calls do not grow it.
        assert_eq!(scratch.dp.capacity(), dp_capacity);
        assert!(scratch.dp.is_empty(), "stack discipline restores the empty state");
    }

    #[test]
    fn interning_deduplicates_labels() {
        let tree = DetectTree::from_view(&t("div(div(div,span),span)"));
        assert_eq!(tree.len(), 5);
        assert_eq!(tree.symbols().len(), 2);
        assert_eq!(tree.symbols().lookup("div"), Some(0));
        assert_eq!(tree.symbols().lookup("span"), Some(1));
        assert_eq!(tree.symbols().name(1), "span");
        assert!(tree.symbols().lookup("p").is_none());
    }
}
