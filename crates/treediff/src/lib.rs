//! Tree matching and edit-distance algorithms for the CookiePicker reproduction.
//!
//! This crate implements the tree-comparison machinery of Section 4.1 of
//! *"Automatic Cookie Usage Setting with CookiePicker"* (DSN 2007):
//!
//! * [`stm`](stm::stm) — Yang's **Simple Tree Matching** algorithm, the
//!   classical `O(|T|·|T'|)` top-down dynamic program that computes the number
//!   of pairs in a maximum top-down mapping between two rooted labeled ordered
//!   trees.
//! * [`rstm`] — the paper's **Restricted Simple Tree
//!   Matching** (Figure 2): STM restricted to the upper `maxLevel` levels of
//!   the trees, counting only *non-leaf, visible* nodes. The restriction both
//!   removes leaf-level page-dynamics noise and makes the computation cheap
//!   enough for online use.
//! * [`n_tree_sim`] — the normalized top-down
//!   distance metric of Formula 2, a Jaccard coefficient over matched pairs.
//! * [`selkow_distance`] and
//!   [`bottom_up_matching`] — the
//!   top-down *edit distance* (Selkow) and *bottom-up distance* (Valiente)
//!   baselines the paper discusses and argues against for DOM comparison.
//!
//! All algorithms are generic over the [`TreeView`] trait, so they run
//! directly over a browser DOM, the bundled [`SimpleTree`] test tree, or any
//! other rooted labeled ordered tree.
//!
//! # Example
//!
//! ```
//! use cp_treediff::{SimpleTree, stm, rstm, n_tree_sim};
//!
//! // The worked example of Figure 3 in the paper: STM returns 7 pairs.
//! let a = SimpleTree::parse("a(b(c,b),c(d,e,f,e,d),g(h,i,j))").unwrap();
//! let b = SimpleTree::parse("a(b,c(d,e),g(f,h))").unwrap();
//! assert_eq!(stm(&a, &b), 7);
//!
//! // The restricted variant only counts non-leaf nodes in the upper levels.
//! let pairs = rstm(&a, &b, 5);
//! let sim = n_tree_sim(&a, &b, 5);
//! assert!(pairs > 0 && sim > 0.0 && sim <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottom_up;
pub mod detect;
pub mod metrics;
pub mod selkow;
pub mod stm;
pub mod tree;
pub mod zhang_shasha;

pub use bottom_up::{bottom_up_matching, bottom_up_sim};
pub use detect::{
    countable_nodes_detect, n_tree_sim_detect, rstm_detect, DetectTree, DetectTreeBuilder,
    MatchScratch, SymbolTable,
};
pub use metrics::{countable_nodes, jaccard, n_tree_sim, n_tree_sim_trees, tree_size};
pub use selkow::{selkow_distance, selkow_sim};
pub use stm::{rstm, rstm_with_mapping, stm, stm_with_mapping};
pub use tree::{ParseTreeError, SimpleTree, TreeView};
pub use zhang_shasha::{zhang_shasha_distance, zhang_shasha_sim};
