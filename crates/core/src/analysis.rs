//! The compiled per-page analysis: everything `decide` needs from a page,
//! derived once and reusable across comparisons.
//!
//! [`decide`](crate::decision::decide) consumes a page twice — as a tree
//! (RSTM over the DOM structure) and as a content set (CVCE over its
//! visible text). Both derivations depend only on the page and the
//! `compare_from_body` flag, never on the *other* page of a comparison, so
//! they can be compiled ahead of time into a [`PageAnalysis`]: a
//! [`DetectTree`] arena plus a [`CompiledContentSet`]. `cp-serve` keys
//! these by a hash of the body bytes and caches them, so repeated bodies
//! skip parsing and extraction entirely.
//!
//! There are two ways in, with equal results:
//!
//! * [`PageAnalysis::from_html`] streams the markup through the tree
//!   builder into a compact sink ([`cp_html::TreeSink`]) and never builds
//!   a `Document`. Per node the sink keeps the parent, a label, the
//!   element's visibility and content judgement (from its attributes, at
//!   creation), and for text the hash of what CVCE keeps of it. A second,
//!   iterative pass lays the nodes out in document order and emits the
//!   tree and the content set. This is the serving path.
//! * [`PageAnalysis::from_document`] walks an already parsed `Document`,
//!   for callers that hold one anyway (the picker, `explain`, the browser
//!   model) and as the reference the streaming path is tested against.

use std::borrow::Cow;

use cp_html::{Attribute, Document, NodeData, NodeId, TreeSink};
use cp_treediff::{DetectTree, DetectTreeBuilder, SymbolTable, TreeView as _};

use crate::cvce::{
    ad_attrs, noise_container, sink_text, CompiledContentSet, ContentSink, HashSink, TextHash,
};
use crate::domview::DomTreeView;

/// The compiled form of one page version: ready for any number of
/// [`decide_analyzed`](crate::decision::decide_analyzed) comparisons
/// without touching the source `Document` again.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageAnalysis {
    tree: DetectTree,
    content: CompiledContentSet,
}

impl PageAnalysis {
    /// Compiles a parsed document. `compare_from_body` selects the same
    /// comparison root `decide` uses: the `<body>` subtree (falling back to
    /// `<html>`, then the document) or the whole document.
    pub fn from_document(doc: &Document, compare_from_body: bool) -> Self {
        let view = if compare_from_body {
            DomTreeView::from_body(doc)
        } else {
            DomTreeView::from_document(doc)
        };
        let root = view.root().unwrap_or(NodeId::DOCUMENT);
        // One fused traversal builds both derivations: the tree arena sees
        // every node, the content sink sees the Figure-4 filtered subset,
        // and each element's visibility is judged exactly once for both.
        // The walk keeps its own stack, so nesting depth costs heap, not
        // call stack.
        let mut builder = DetectTreeBuilder::with_capacity(doc.len());
        let mut sink = HashSink::new();
        let mut syms = Symbols { text: builder.intern("#text"), elements: [None; 16] };
        let mut stack: Vec<DomFrame> = Vec::with_capacity(32);
        let mut next = Some((root, true));
        loop {
            if let Some((node, content)) = next.take() {
                if let Some(frame) =
                    open_dom_node(doc, node, content, &mut builder, &mut sink, &mut syms)
                {
                    stack.push(frame);
                }
            }
            let Some(top) = stack.last_mut() else { break };
            match doc.children(top.node).get(top.next) {
                Some(&child) => {
                    top.next += 1;
                    next = Some((child, top.content));
                }
                None => {
                    if top.entered {
                        sink.leave();
                    }
                    builder.leave();
                    stack.pop();
                }
            }
        }
        PageAnalysis { tree: builder.finish(), content: sink.finish() }
    }

    /// Parses and compiles raw markup in one streaming pass, without a
    /// `Document`; equal to `from_document(&parse_document(html), ..)`.
    pub fn from_html(html: &str, compare_from_body: bool) -> Self {
        cp_html::parse_with(html, StreamSink::new(html.len())).finish(compare_from_body)
    }

    /// The compiled tree (RSTM input).
    pub fn tree(&self) -> &DetectTree {
        &self.tree
    }

    /// The compiled content set (CVCE input).
    pub fn content(&self) -> &CompiledContentSet {
        &self.content
    }
}

/// Symbol shortcuts threaded through the fused walk: the `#text` symbol is
/// interned once up front (text nodes are the most common node kind by
/// far), and a small direct-mapped cache keyed on name length and first
/// byte resolves repeated element names without an intern-table probe —
/// real pages use a handful of distinct tags, so this hits almost always.
struct Symbols<'a> {
    text: u32,
    elements: [Option<(&'a str, u32)>; 16],
}

impl<'a> Symbols<'a> {
    fn element(&mut self, name: &'a str, builder: &mut DetectTreeBuilder) -> u32 {
        let slot = (name.len() ^ (name.as_bytes().first().copied().unwrap_or(0) as usize)) & 15;
        match self.elements[slot] {
            Some((n, s)) if n == name => s,
            _ => {
                let s = builder.intern(name);
                self.elements[slot] = Some((name, s));
                s
            }
        }
    }
}

/// An open element or document node of the `from_document` walk.
struct DomFrame {
    node: NodeId,
    /// Index of the next child to visit.
    next: usize,
    /// Whether the children are still inside CVCE content.
    content: bool,
    /// Whether the node entered the content sink (and so must leave it).
    entered: bool,
}

/// Emits one node of the fused walk: every node becomes a tree-arena entry
/// (mirroring `DetectTree::from_view` over a `DomTreeView` — same labels,
/// same `countable` judgement), while text flows into the content sink
/// exactly as `content_compile`'s walk would emit it. `content` is false
/// once any ancestor failed the Figure-4 element filter, which is where
/// the reference walk stops descending for content purposes. Returns the
/// frame to push for nodes that have children to visit.
fn open_dom_node<'a>(
    doc: &'a Document,
    node: NodeId,
    content: bool,
    builder: &mut DetectTreeBuilder,
    sink: &mut HashSink,
    syms: &mut Symbols<'a>,
) -> Option<DomFrame> {
    match doc.data(node) {
        NodeData::Text(text) => {
            builder.leaf_sym(syms.text, false);
            if content {
                sink_text(text, sink);
            }
            None
        }
        NodeData::Element { name, attrs } => {
            let attrs = || attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()));
            let visible = cp_html::element_visible(name, attrs());
            let sym = syms.element(name, builder);
            builder.enter_sym(sym, visible);
            let content = content && visible && !noise_container(name) && !ad_attrs(attrs());
            if content {
                sink.enter(name);
            }
            Some(DomFrame { node, next: 0, content, entered: content })
        }
        NodeData::Document => {
            builder.enter("#document", false);
            Some(DomFrame { node, next: 0, content, entered: false })
        }
        NodeData::Comment(_) | NodeData::Doctype { .. } => {
            let sym = builder.intern(doc.node_name(node));
            builder.leaf_sym(sym, false);
            None
        }
    }
}

/// What the streaming sink keeps of one node.
#[derive(Debug, Clone, Copy)]
enum StreamKind {
    Document,
    /// `visible` is the tree's countable flag; `content` says whether the
    /// element passes the Figure-4 filter on its own (visible, not a noise
    /// container, not an ad).
    Element {
        visible: bool,
        content: bool,
    },
    /// `fnv1a64` of the normalized text CVCE keeps, if it keeps any (and
    /// `None` as well when an ancestor already excluded it).
    Text(Option<u64>),
    /// Comments and doctypes: tree leaves that carry no content.
    Leaf,
}

#[derive(Debug, Clone, Copy)]
struct StreamNode {
    parent: u32,
    /// The node's label in `StreamSink::labels`.
    label: u32,
    kind: StreamKind,
    /// Whether the node or an ancestor below the comparison root failed
    /// the content filter when the node was created. Attribute merges only
    /// ever add attributes a node lacks, which can hide or mark an element
    /// as an ad but never undo either, so an excluded node stays excluded
    /// and its text need not be judged.
    excluded: bool,
}

/// Labels every stream interns up front, in this order.
const TEXT_LABEL: u32 = 0;
const COMMENT_LABEL: u32 = 1;
const DOCUMENT_LABEL: u32 = 2;
const HTML_LABEL: u32 = 3;
const BODY_LABEL: u32 = 4;

/// What an element's name alone decides, cached per name.
#[derive(Debug, Clone, Copy)]
struct NameInfo {
    label: u32,
    /// Never visible, whatever the attributes (`script`, `head`, ...).
    invisible: bool,
    /// A CVCE noise container (`option`, `select`, ...).
    noise: bool,
}

/// The [`TreeSink`] behind [`PageAnalysis::from_html`]: a flat node list in
/// creation order, no per-node heap allocation.
struct StreamSink {
    nodes: Vec<StreamNode>,
    /// Node labels: element and doctype names plus the `#` names.
    labels: SymbolTable,
    /// What each tree-builder name id says about its elements, filled
    /// when the name is first seen.
    names: Vec<Option<NameInfo>>,
    /// The attributes merged into the implied `html`/`head`/`body`.
    merged: Vec<(u32, Vec<(String, String)>)>,
    html: Option<u32>,
    body: Option<u32>,
    /// The node created last.
    last: u32,
    /// Whether creation order is still document order.
    in_order: bool,
}

impl StreamSink {
    fn new(input_len: usize) -> Self {
        let mut labels = SymbolTable::new();
        for name in ["#text", "#comment", "#document", "html", "body"] {
            labels.intern(name);
        }
        let mut nodes = Vec::with_capacity(input_len / 16 + 8);
        nodes.push(StreamNode {
            parent: u32::MAX,
            label: DOCUMENT_LABEL,
            kind: StreamKind::Document,
            excluded: false,
        });
        StreamSink {
            nodes,
            labels,
            names: Vec::with_capacity(64),
            merged: Vec::new(),
            html: None,
            body: None,
            last: 0,
            in_order: true,
        }
    }

    fn push(&mut self, parent: u32, label: u32, kind: StreamKind, excluded: bool) -> u32 {
        // Creation order stays document order while every node is appended
        // under the previous node or one of its ancestors. The walk up
        // passes each node at most once over the whole parse: a node it
        // passes has just stopped being on the path to the newest node.
        if self.in_order {
            let mut n = self.last;
            while n != parent {
                if n < parent {
                    self.in_order = false;
                    break;
                }
                n = self.nodes[n as usize].parent;
            }
        }
        let id = u32::try_from(self.nodes.len()).expect("more than u32::MAX nodes");
        self.nodes.push(StreamNode { parent, label, kind, excluded });
        self.last = id;
        id
    }

    /// Emits the tree and the content set, exactly as the `from_document`
    /// walk over the equivalent `Document` would.
    fn finish(self, compare_from_body: bool) -> PageAnalysis {
        let root = if compare_from_body { self.body.or(self.html).unwrap_or(0) } else { 0 };
        if self.in_order {
            // Nothing is created outside `html` once it exists, nor
            // outside `body` once it exists, so the root's subtree is
            // every node from the root on.
            self.emit(root, root..self.nodes.len() as u32)
        } else {
            let order = self.document_order(root);
            self.emit(root, order.into_iter())
        }
    }

    /// The root's subtree in document order, for a parse that appended to
    /// a node after nodes outside it (a re-opened `head`).
    fn document_order(&self, root: u32) -> Vec<u32> {
        let nodes = &self.nodes;
        let n = nodes.len();
        // Children grouped by parent in creation order, which is sibling
        // order: `first[p]..first[p + 1]` indexes `children`.
        let mut first = vec![0u32; n + 1];
        for node in &nodes[1..] {
            first[node.parent as usize] += 1;
        }
        let mut total = 0;
        for slot in first.iter_mut() {
            total += *slot;
            *slot = total;
        }
        let mut children = vec![0u32; n - 1];
        for id in (1..n).rev() {
            let slot = &mut first[nodes[id].parent as usize];
            *slot -= 1;
            children[*slot as usize] = id as u32;
        }
        let mut order = Vec::with_capacity(n);
        let mut pending = vec![root];
        while let Some(id) = pending.pop() {
            order.push(id);
            let kids = &children[first[id as usize] as usize..first[id as usize + 1] as usize];
            pending.extend(kids.iter().rev());
        }
        order
    }

    /// Emits the nodes `ids` — the root's subtree in document order — as
    /// the tree and the content set.
    fn emit(&self, root: u32, ids: impl Iterator<Item = u32>) -> PageAnalysis {
        let mut tree = DetectTreeBuilder::with_capacity(self.nodes.len());
        let mut content = HashSink::new();
        // Tree symbols in first-use order, as the `Document` walk interns
        // them: `#text` first, then every other label in document order.
        let mut symbols = vec![u32::MAX; self.labels.len()];
        let text_symbol = tree.intern("#text");
        symbols[TEXT_LABEL as usize] = text_symbol;
        let mut symbol = |label: u32, tree: &mut DetectTreeBuilder| {
            let slot = &mut symbols[label as usize];
            if *slot == u32::MAX {
                *slot = tree.intern(self.labels.name(label));
            }
            *slot
        };
        // The open path to the current node: (node, children in content,
        // entered the content sink).
        let mut open: Vec<(u32, bool, bool)> = Vec::with_capacity(32);
        let close = |(_, _, entered), tree: &mut DetectTreeBuilder, content: &mut HashSink| {
            if entered {
                content.leave();
            }
            tree.leave();
        };
        for id in ids {
            let node = self.nodes[id as usize];
            if id != root {
                while let Some(&frame) = open.last() {
                    if frame.0 == node.parent {
                        break;
                    }
                    close(frame, &mut tree, &mut content);
                    open.pop();
                }
            }
            let in_content = open.last().is_none_or(|frame| frame.1);
            match node.kind {
                StreamKind::Text(hash) => {
                    tree.leaf_sym(text_symbol, false);
                    if let (true, Some(hash)) = (in_content, hash) {
                        content.text_hashed(hash);
                    }
                }
                StreamKind::Leaf => {
                    let sym = symbol(node.label, &mut tree);
                    tree.leaf_sym(sym, false);
                }
                StreamKind::Document => {
                    let sym = symbol(node.label, &mut tree);
                    tree.enter_sym(sym, false);
                    open.push((id, in_content, false));
                }
                StreamKind::Element { visible, content: passes } => {
                    let sym = symbol(node.label, &mut tree);
                    tree.enter_sym(sym, visible);
                    let in_content = in_content && passes;
                    if in_content {
                        content.enter(self.labels.name(node.label));
                    }
                    open.push((id, in_content, in_content));
                }
            }
        }
        while let Some(frame) = open.pop() {
            close(frame, &mut tree, &mut content);
        }
        PageAnalysis { tree: tree.finish(), content: content.finish() }
    }
}

impl<'a> TreeSink<'a> for StreamSink {
    type Handle = u32;

    fn document(&self) -> u32 {
        0
    }

    fn append_element(
        &mut self,
        parent: u32,
        name: &str,
        name_id: u32,
        attrs: &[Attribute<'a>],
    ) -> u32 {
        let slot = name_id as usize;
        if slot >= self.names.len() {
            self.names.resize(slot + 1, None);
        }
        let info = match self.names[slot] {
            Some(info) => info,
            None => {
                let info = NameInfo {
                    label: self.labels.intern(name),
                    invisible: cp_html::is_invisible_element_name(name),
                    noise: noise_container(name),
                };
                self.names[slot] = Some(info);
                info
            }
        };
        let label = info.label;
        let pairs = || attrs.iter().map(|a| (&*a.name, &*a.value));
        let visible =
            !info.invisible && (attrs.is_empty() || cp_html::element_visible(name, pairs()));
        let content = visible && !info.noise && (attrs.is_empty() || !ad_attrs(pairs()));
        // `body` may be the comparison root, so what its ancestors decided
        // does not exclude it.
        let inherited = label != BODY_LABEL && self.nodes[parent as usize].excluded;
        let id = self.push(
            parent,
            label,
            StreamKind::Element { visible, content },
            inherited || !content,
        );
        // The builder creates exactly one `html` and one `body`.
        match label {
            HTML_LABEL => self.html = Some(id),
            BODY_LABEL => self.body = Some(id),
            _ => {}
        }
        id
    }

    fn append_text(&mut self, parent: u32, text: Cow<'a, str>) {
        let excluded = self.nodes[parent as usize].excluded;
        let mut hash = TextHash::default();
        if !excluded {
            sink_text(&text, &mut hash);
        }
        self.push(parent, TEXT_LABEL, StreamKind::Text(hash.0), excluded);
    }

    fn append_comment(&mut self, parent: u32, _text: &'a str) {
        self.push(parent, COMMENT_LABEL, StreamKind::Leaf, true);
    }

    fn append_doctype(&mut self, name: Cow<'a, str>) {
        let label = self.labels.intern(&name);
        self.push(0, label, StreamKind::Leaf, true);
    }

    fn merge_attrs(&mut self, element: u32, attrs: &[Attribute<'a>]) {
        let at = match self.merged.iter().position(|(id, _)| *id == element) {
            Some(at) => at,
            None => {
                self.merged.push((element, Vec::new()));
                self.merged.len() - 1
            }
        };
        let list = &mut self.merged[at].1;
        for a in attrs {
            if !list.iter().any(|(k, _)| *k == *a.name) {
                list.push((a.name.to_string(), a.value.to_string()));
            }
        }
        let node = &mut self.nodes[element as usize];
        let name = self.labels.name(node.label);
        let pairs = || list.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let visible = cp_html::element_visible(name, pairs());
        let content = visible && !noise_container(name) && !ad_attrs(pairs());
        node.kind = StreamKind::Element { visible, content };
        node.excluded |= !content;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_html::parse_document;
    use cp_treediff::{countable_nodes, countable_nodes_detect};

    #[test]
    fn body_root_matches_domview_choice() {
        let doc = parse_document("<body><div><p>text here</p></div></body>");
        let a = PageAnalysis::from_document(&doc, true);
        let view = DomTreeView::from_body(&doc);
        for level in 1..6 {
            assert_eq!(countable_nodes_detect(a.tree(), level), countable_nodes(&view, level));
        }
        assert_eq!(a.content().len(), 1);
    }

    #[test]
    fn document_root_sees_the_whole_tree() {
        let doc = parse_document("<body><p>x1</p></body>");
        let from_body = PageAnalysis::from_document(&doc, true);
        let from_doc = PageAnalysis::from_document(&doc, false);
        // The document-rooted tree is strictly taller (document + html
        // wrappers above body).
        assert!(from_doc.tree().len() > from_body.tree().len());
        assert_eq!(from_doc.content().len(), from_body.content().len());
    }

    #[test]
    fn from_html_equals_from_document() {
        let html = "<body><div><p>same page</p></div></body>";
        let a = PageAnalysis::from_html(html, true);
        let b = PageAnalysis::from_document(&parse_document(html), true);
        assert_eq!(a.content(), b.content());
        assert_eq!(a.tree().len(), b.tree().len());
    }
}
