//! Decision explanation: *why* did CookiePicker judge two page versions
//! different?
//!
//! The paper's prototype only surfaces the verdict; for debugging,
//! threshold tuning, and the backward-error-recovery UI it helps to see
//! which structure and which text drove the score. [`explain`] reruns both
//! detectors and reports the unmatched elements (by DOM path) and the
//! contexts unique to each version.

use std::collections::HashSet;

use cp_html::Document;
use cp_runtime::json::{Json, ToJson};
use cp_treediff::{rstm_with_mapping, TreeView};

use crate::config::CookiePickerConfig;
use crate::cvce::content_extract;
use crate::decision::{decide, Decision};
use crate::domview::DomTreeView;

/// A human-readable account of one regular-vs-hidden comparison.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The verdict and scores.
    pub decision: Decision,
    /// DOM paths (e.g. `body:div:ul`) of countable elements in the regular
    /// version that found no partner in the hidden version.
    pub unmatched_regular: Vec<String>,
    /// Unmatched countable elements of the hidden version.
    pub unmatched_hidden: Vec<String>,
    /// Text contexts present only in the regular version.
    pub contexts_only_regular: Vec<String>,
    /// Text contexts present only in the hidden version.
    pub contexts_only_hidden: Vec<String>,
}

impl ToJson for DiffReport {
    fn to_json(&self) -> Json {
        Json::object()
            .set("decision", self.decision.to_json())
            .set("unmatched_regular", self.unmatched_regular.clone())
            .set("unmatched_hidden", self.unmatched_hidden.clone())
            .set("contexts_only_regular", self.contexts_only_regular.clone())
            .set("contexts_only_hidden", self.contexts_only_hidden.clone())
    }
}

impl DiffReport {
    /// Whether the report contains any evidence of difference.
    pub fn is_clean(&self) -> bool {
        self.unmatched_regular.is_empty()
            && self.unmatched_hidden.is_empty()
            && self.contexts_only_regular.is_empty()
            && self.contexts_only_hidden.is_empty()
    }
}

fn countable_paths(view: &DomTreeView<'_>, max_level: usize) -> Vec<(cp_html::NodeId, String)> {
    // Mirror RSTM's pruned walk: stop at leaves, uncountable nodes, and the
    // level bound. Preorder from an explicit stack of `(node, level, index
    // of the parent's path in out)`, so `--level` never bounds the depth
    // the thread's stack must hold.
    let mut out: Vec<(cp_html::NodeId, String)> = Vec::new();
    let mut stack: Vec<(_, usize, Option<usize>)> =
        view.root().map(|r| (r, 1, None)).into_iter().collect();
    while let Some((node, level, parent)) = stack.pop() {
        let children = view.children(node);
        if level > max_level || !view.countable(node) || children.is_empty() {
            continue;
        }
        let path = match parent {
            Some(i) => format!("{}:{}", out[i].1, view.label(node)),
            None => view.label(node).to_string(),
        };
        out.push((node, path));
        let me = Some(out.len() - 1);
        stack.extend(children.into_iter().rev().map(|c| (c, level + 1, me)));
    }
    out
}

/// Explains the comparison of a regular and a hidden page version.
///
/// ```
/// use cookiepicker_core::{explain::explain, CookiePickerConfig};
/// use cp_html::parse_document;
///
/// let regular = parse_document("<body><div id=s><ul><li>a</li></ul></div><div><p>x</p></div></body>");
/// let hidden = parse_document("<body><div><p>x</p></div></body>");
/// let report = explain(&regular, &hidden, &CookiePickerConfig::default());
/// assert!(report.unmatched_regular.iter().any(|p| p.contains("ul")));
/// assert!(report.unmatched_hidden.is_empty());
/// ```
pub fn explain(regular: &Document, hidden: &Document, config: &CookiePickerConfig) -> DiffReport {
    let decision = decide(regular, hidden, config);

    let (view_a, view_b) = if config.compare_from_body {
        (DomTreeView::from_body(regular), DomTreeView::from_body(hidden))
    } else {
        (DomTreeView::from_document(regular), DomTreeView::from_document(hidden))
    };

    let (_count, pairs) = rstm_with_mapping(&view_a, &view_b, config.max_level);
    let matched_a: HashSet<_> = pairs.iter().map(|(a, _)| *a).collect();
    let matched_b: HashSet<_> = pairs.iter().map(|(_, b)| *b).collect();

    let unmatched_regular = countable_paths(&view_a, config.max_level)
        .into_iter()
        .filter(|(n, _)| !matched_a.contains(n))
        .map(|(_, p)| p)
        .collect();
    let unmatched_hidden = countable_paths(&view_b, config.max_level)
        .into_iter()
        .filter(|(n, _)| !matched_b.contains(n))
        .map(|(_, p)| p)
        .collect();

    let root_a = view_a.root().unwrap_or(cp_html::NodeId::DOCUMENT);
    let root_b = view_b.root().unwrap_or(cp_html::NodeId::DOCUMENT);
    let set_a = content_extract(regular, root_a);
    let set_b = content_extract(hidden, root_b);
    let ctx_a: HashSet<String> = set_a.contexts().map(str::to_string).collect();
    let ctx_b: HashSet<String> = set_b.contexts().map(str::to_string).collect();
    let mut contexts_only_regular: Vec<String> = ctx_a.difference(&ctx_b).cloned().collect();
    let mut contexts_only_hidden: Vec<String> = ctx_b.difference(&ctx_a).cloned().collect();
    contexts_only_regular.sort();
    contexts_only_hidden.sort();

    DiffReport {
        decision,
        unmatched_regular,
        unmatched_hidden,
        contexts_only_regular,
        contexts_only_hidden,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_html::parse_document;

    fn cfg() -> CookiePickerConfig {
        CookiePickerConfig::default()
    }

    #[test]
    fn identical_pages_are_clean() {
        let doc = parse_document("<body><div><ul><li>a</li></ul></div></body>");
        let r = explain(&doc, &doc, &cfg());
        assert!(r.is_clean());
        assert!(!r.decision.cookies_caused_difference);
    }

    #[test]
    fn removed_panel_reported_on_regular_side() {
        let a = parse_document(
            "<body><div id=side><ul><li>one</li><li>two</li></ul><dl><dt>k</dt></dl></div><div><p>base</p></div></body>",
        );
        let b = parse_document("<body><div><p>base</p></div></body>");
        let r = explain(&a, &b, &cfg());
        assert!(!r.unmatched_regular.is_empty());
        assert!(r.unmatched_regular.iter().any(|p| p.contains("ul")));
        assert!(r.unmatched_hidden.is_empty());
        assert!(r.contexts_only_regular.iter().any(|c| c.contains("li")));
    }

    #[test]
    fn added_panel_reported_on_hidden_side() {
        let a = parse_document("<body><div><p>base</p></div></body>");
        let b = parse_document("<body><div><p>base</p></div><form><p><input></p></form></body>");
        let r = explain(&a, &b, &cfg());
        assert!(r.unmatched_regular.is_empty());
        assert!(r.unmatched_hidden.iter().any(|p| p.contains("form")));
    }

    #[test]
    fn report_consistent_with_decision() {
        let a = parse_document(
            "<body><div id=s><ul><li>a</li><li>b</li></ul><dl><dt>x</dt><dd>y</dd></dl><ol><li>q</li></ol></div><div><p>t</p></div></body>",
        );
        let b = parse_document("<body><div><p>t</p></div></body>");
        let r = explain(&a, &b, &cfg());
        assert!(r.decision.cookies_caused_difference);
        assert!(!r.is_clean());
    }

    #[test]
    fn paths_are_rooted_at_body() {
        let a = parse_document("<body><div><section><p>x</p></section></div></body>");
        let b = parse_document("<body></body>");
        let r = explain(&a, &b, &cfg());
        for p in &r.unmatched_regular {
            assert!(p.starts_with("body"), "path {p} should start at body");
        }
    }

    #[test]
    fn deeply_nested_pages_are_explained_on_a_default_test_thread() {
        // 200,000 nested divs: the walkers on the explain path (content
        // extraction, the unmatched-path listing) must hold the page's
        // depth on the heap, not on this thread's 2 MiB stack.
        let depth = 200_000;
        let (open, close) = ("<div>".repeat(depth), "</div>".repeat(depth));
        let deep = format!("<body>{open}<p>deep</p>{close}</body>");
        let deep = parse_document(&deep);
        let shallow = parse_document("<body><div><p>shallow</p></div></body>");
        let r = explain(&deep, &shallow, &cfg());
        assert!(r.contexts_only_regular.iter().any(|c| c.ends_with("div:p")), "{r:?}");
        assert!(r.contexts_only_hidden.iter().any(|c| c == "body:div:p"), "{r:?}");
        let set = content_extract(&deep, deep.body().unwrap());
        assert_eq!(set.len(), 1);
    }
}
