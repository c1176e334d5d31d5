//! A forgiving tree builder in the spirit of browser HTML parsers.
//!
//! Real-world HTML is often malformed; the paper's step 3 (§3.2) requires
//! that both the regular and the hidden page version be built by the *same*
//! parser so malformed input is treated identically. This builder implements
//! the recovery rules that matter for 2007-era page structure:
//!
//! * implied `<html>`, `<head>` and `<body>`;
//! * void elements never open a scope (`<br>`, `<img>`, `<meta>`, …);
//! * automatic closing of `<p>`, `<li>`, `<dt>/<dd>`, `<tr>`, `<td>/<th>`,
//!   `<option>`, table sections and nested `<a>`;
//! * stray end tags are ignored; mis-nested end tags close up to the nearest
//!   matching open element;
//! * unterminated elements are closed at end of input.

use std::borrow::Cow;

use cp_runtime::symbols::SymbolTable;

use crate::dom::{Document, NodeId};
use crate::tokenizer::{Attribute, Token, Tokenizer};

/// Elements that never have content (HTML void elements).
fn is_void(name: &str) -> bool {
    matches!(
        name,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

/// Block-level elements that implicitly close an open `<p>`.
fn closes_p(name: &str) -> bool {
    matches!(
        name,
        "address"
            | "article"
            | "aside"
            | "blockquote"
            | "div"
            | "dl"
            | "fieldset"
            | "footer"
            | "form"
            | "h1"
            | "h2"
            | "h3"
            | "h4"
            | "h5"
            | "h6"
            | "header"
            | "hr"
            | "main"
            | "nav"
            | "ol"
            | "p"
            | "pre"
            | "section"
            | "table"
            | "ul"
    )
}

/// Receives the tree the builder constructs, one node at a time, in
/// creation order.
///
/// The builder owns the construction rules (implied `html`/`head`/`body`,
/// auto-closing, recovery from stray and mis-nested end tags); a sink only
/// records what it is told. [`parse_document`] drives a sink that builds
/// a [`Document`]; a sink that needs less than a mutable DOM, such as a
/// compiled page analysis, can keep just that.
///
/// Children are always appended after their parent's existing children.
/// Two edits reach a node after its children may have been appended:
/// [`merge_attrs`](TreeSink::merge_attrs) on the implied `html`, `head`
/// and `body`, and further children for a `head` that head content
/// re-opened after `</head>` (so a sink that lays nodes out in document
/// order must not assume creation order is document order).
pub trait TreeSink<'a> {
    /// How the sink names a node it created.
    type Handle: Copy;

    /// The document node, parent of `html`, doctypes and early comments.
    fn document(&self) -> Self::Handle;

    /// Appends an element to `parent` and returns it. `name` is
    /// lower-cased; `name_id` is a dense per-parse id for it (equal names,
    /// equal ids). `attrs` hold no repeated name.
    fn append_element(
        &mut self,
        parent: Self::Handle,
        name: &str,
        name_id: u32,
        attrs: &[Attribute<'a>],
    ) -> Self::Handle;

    /// Appends a text node to `parent`. Adjacent text arrives as one node
    /// unless markup the builder dropped (a stray end tag) split it.
    fn append_text(&mut self, parent: Self::Handle, text: Cow<'a, str>);

    /// Appends a comment to `parent`.
    fn append_comment(&mut self, parent: Self::Handle, text: &'a str);

    /// Appends a doctype to the document node.
    fn append_doctype(&mut self, name: Cow<'a, str>);

    /// Adds to `element` each attribute whose name it does not carry yet.
    /// `element` is always one of the implied `html`, `head` and `body`,
    /// which the builder creates without attributes.
    fn merge_attrs(&mut self, element: Self::Handle, attrs: &[Attribute<'a>]);
}

/// Parses an HTML document into a [`Document`] DOM tree. Never fails.
///
/// ```
/// use cp_html::parse_document;
///
/// // Implied structure and recovery from unclosed tags:
/// let doc = parse_document("<title>t</title><p>one<p>two");
/// assert!(doc.head().is_some());
/// let body = doc.body().unwrap();
/// assert_eq!(doc.element_children(body).len(), 2);
/// ```
pub fn parse_document(input: &str) -> Document {
    parse_with(input, DomSink(Document::new())).0
}

/// Runs the tree builder over `input`, streaming the tree into `sink`, and
/// returns the sink. Tokens are pulled one at a time; nothing but the
/// sink's own record of the tree outlives them.
pub fn parse_with<'a, S: TreeSink<'a>>(input: &'a str, sink: S) -> S {
    let mut builder = TreeBuilder::new(sink);
    let mut tokens = Tokenizer::new(input);
    while let Some(token) = tokens.next() {
        match token {
            Token::Doctype(name) => {
                if builder.html.is_none() {
                    builder.sink.append_doctype(name);
                }
            }
            Token::Comment(text) => {
                let parent = builder.current();
                builder.sink.append_comment(parent, text);
            }
            Token::Text(text) => builder.process_text(text),
            Token::StartTag { name, attrs, self_closing } => {
                builder.process_start(&name, &attrs, self_closing);
                tokens.recycle(attrs);
            }
            Token::EndTag(name) => builder.process_end(&name),
        }
    }
    builder.finish()
}

/// The [`Document`]-building sink behind [`parse_document`].
struct DomSink(Document);

impl<'a> TreeSink<'a> for DomSink {
    type Handle = NodeId;

    fn document(&self) -> NodeId {
        NodeId::DOCUMENT
    }

    fn append_element(
        &mut self,
        parent: NodeId,
        name: &str,
        _name_id: u32,
        attrs: &[Attribute<'a>],
    ) -> NodeId {
        let attrs = attrs.iter().map(|a| (a.name.to_string(), a.value.to_string())).collect();
        let el = self.0.create_element(name, attrs);
        self.0.append_child(parent, el);
        el
    }

    fn append_text(&mut self, parent: NodeId, text: Cow<'a, str>) {
        let t = self.0.create_text(text);
        self.0.append_child(parent, t);
    }

    fn append_comment(&mut self, parent: NodeId, text: &'a str) {
        let c = self.0.create_comment(text);
        self.0.append_child(parent, c);
    }

    fn append_doctype(&mut self, name: Cow<'a, str>) {
        let d = self.0.create_doctype(name);
        self.0.append_child(NodeId::DOCUMENT, d);
    }

    fn merge_attrs(&mut self, element: NodeId, attrs: &[Attribute<'a>]) {
        for a in attrs {
            if self.0.attr(element, &a.name).is_none() {
                self.0.set_attr(element, &a.name, a.value.to_string());
            }
        }
    }
}

/// Tag names the construction rules test by id. They are interned first,
/// in this order, so each one's id is the constant below.
const KNOWN: [&str; 27] = [
    "html", "head", "body", "p", "li", "ul", "ol", "menu", "dt", "dd", "dl", "tr", "td", "th",
    "table", "option", "thead", "tbody", "tfoot", "a", "script", "title", "meta", "link", "base",
    "style", "noscript",
];
const HTML: u32 = 0;
const HEAD: u32 = 1;
const BODY: u32 = 2;
const P: u32 = 3;
const LI: u32 = 4;
const UL: u32 = 5;
const OL: u32 = 6;
const MENU: u32 = 7;
const DT: u32 = 8;
const DD: u32 = 9;
const DL: u32 = 10;
const TR: u32 = 11;
const TD: u32 = 12;
const TH: u32 = 13;
const TABLE: u32 = 14;
const OPTION: u32 = 15;
const THEAD: u32 = 16;
const TBODY: u32 = 17;
const TFOOT: u32 = 18;
const A: u32 = 19;
const SCRIPT: u32 = 20;
const TITLE: u32 = 21;
const NOSCRIPT: u32 = 26;

/// "None" for name ids and open-stack positions.
const NONE: u32 = u32::MAX;

/// What the builder keeps per tag-name id.
#[derive(Clone, Copy)]
struct NameState {
    /// Stack position of the topmost open element with this name. With
    /// `Open::below` this answers "is `x` open" and "is `x` open above
    /// `y`" without scanning the stack.
    top: u32,
    void: bool,
    closes_p: bool,
}

impl NameState {
    fn new(name: &str) -> Self {
        NameState { top: NONE, void: is_void(name), closes_p: closes_p(name) }
    }
}

/// One entry of the open-element stack.
struct Open<H> {
    node: H,
    name: u32,
    /// Stack position of the next open element down with the same name.
    below: u32,
}

struct TreeBuilder<'a, S: TreeSink<'a>> {
    sink: S,
    names: SymbolTable,
    /// Open element stack; `stack[0]` is the document node.
    stack: Vec<Open<S::Handle>>,
    /// Indexed by name id.
    name_states: Vec<NameState>,
    html: Option<S::Handle>,
    head: Option<S::Handle>,
    body: Option<S::Handle>,
    head_closed: bool,
}

impl<'a, S: TreeSink<'a>> TreeBuilder<'a, S> {
    fn new(sink: S) -> Self {
        // Dense per-parse ids for tag names, the rule names first.
        let mut names = SymbolTable::with_capacity(64);
        for name in KNOWN {
            names.intern(name);
        }
        let name_states = KNOWN.iter().map(|name| NameState::new(name)).collect();
        let document = Open { node: sink.document(), name: NONE, below: NONE };
        TreeBuilder {
            sink,
            names,
            stack: vec![document],
            name_states,
            html: None,
            head: None,
            body: None,
            head_closed: false,
        }
    }

    fn current(&self) -> S::Handle {
        self.stack.last().expect("stack never empty").node
    }

    fn intern(&mut self, name: &str) -> u32 {
        let id = self.names.intern(name);
        if id as usize == self.name_states.len() {
            self.name_states.push(NameState::new(name));
        }
        id
    }

    fn top(&self, name: u32) -> u32 {
        self.name_states[name as usize].top
    }

    fn push(&mut self, node: S::Handle, name: u32) {
        let at = self.stack.len() as u32;
        let below = std::mem::replace(&mut self.name_states[name as usize].top, at);
        self.stack.push(Open { node, name, below });
    }

    /// Pops the top element (never the document node) and returns its name.
    fn pop(&mut self) -> u32 {
        let open = self.stack.pop().expect("stack never empty");
        self.name_states[open.name as usize].top = open.below;
        open.name
    }

    fn has_open(&self, name: u32) -> bool {
        self.top(name) != NONE
    }

    /// Whether `name` is open *above* (closer to the top than) any of the
    /// `barriers` — used for scoped auto-closing (e.g. `li` within `ul`).
    fn has_open_until(&self, name: u32, barriers: &[u32]) -> bool {
        let at = self.top(name);
        at != NONE && barriers.iter().all(|&b| self.top(b) == NONE || self.top(b) < at)
    }

    /// Pops up to and including the topmost open `name`.
    fn close_nearest(&mut self, name: u32) {
        while self.stack.len() > 1 && self.pop() != name {}
    }

    fn ensure_html(&mut self) -> S::Handle {
        if let Some(h) = self.html {
            return h;
        }
        let document = self.sink.document();
        let h = self.sink.append_element(document, "html", HTML, &[]);
        self.push(h, HTML);
        self.html = Some(h);
        h
    }

    fn ensure_head(&mut self) -> S::Handle {
        if let Some(h) = self.head {
            return h;
        }
        let html = self.ensure_html();
        let h = self.sink.append_element(html, "head", HEAD, &[]);
        self.head = Some(h);
        h
    }

    fn ensure_body(&mut self) -> S::Handle {
        if let Some(b) = self.body {
            return b;
        }
        // Close the head if it is on the stack.
        if self.head.is_none() {
            self.ensure_head();
        } else if self.has_open(HEAD) {
            self.close_nearest(HEAD);
        }
        self.head_closed = true;
        let html = self.ensure_html();
        // Reset stack to [document, html] before opening body.
        while self.stack.len() > 1 {
            self.pop();
        }
        self.push(html, HTML);
        let b = self.sink.append_element(html, "body", BODY, &[]);
        self.push(b, BODY);
        self.body = Some(b);
        b
    }

    fn in_body(&self) -> bool {
        self.body.is_some()
    }

    fn process_text(&mut self, text: Cow<'a, str>) {
        if !self.in_body() {
            // Inside a head raw-text element (title/style/script) text is
            // kept; otherwise whitespace before <body> is dropped and real
            // text forces the body.
            let name = self.stack.last().expect("stack never empty").name;
            if is_head_content_id(name) || name == SCRIPT {
                let cur = self.current();
                self.sink.append_text(cur, text);
                return;
            }
            if text.trim().is_empty() {
                return;
            }
            self.ensure_body();
        }
        let cur = self.current();
        self.sink.append_text(cur, text);
    }

    fn process_start(&mut self, name: &str, attrs: &[Attribute<'a>], self_closing: bool) {
        let id = self.intern(name);
        let merge_into = match id {
            HTML => Some(self.ensure_html()),
            HEAD => {
                let h = self.ensure_head();
                if !self.head_closed && !self.has_open(HEAD) {
                    self.push(h, HEAD);
                }
                Some(h)
            }
            BODY => Some(self.ensure_body()),
            _ => None,
        };
        if let Some(element) = merge_into {
            if !attrs.is_empty() {
                self.sink.merge_attrs(element, attrs);
            }
            return;
        }

        // Decide placement: head-content elements go to the head until the
        // body opens; everything else forces the body (scripts may live in
        // either — they stay wherever we currently are).
        if !self.in_body() {
            if is_head_content_id(id) || id == SCRIPT {
                let head = self.ensure_head();
                if !self.has_open(HEAD) {
                    self.push(head, HEAD);
                }
            } else {
                self.ensure_body();
            }
        }

        // Automatic closing rules.
        let rules = self.name_states[id as usize];
        if rules.closes_p {
            if self.has_open(P) {
                self.close_nearest(P);
            }
        } else {
            match id {
                LI if self.has_open_until(LI, &[UL, OL, MENU]) => self.close_nearest(LI),
                DT | DD => {
                    for item in [DT, DD] {
                        if self.has_open_until(item, &[DL]) {
                            self.close_nearest(item);
                        }
                    }
                }
                TR if self.has_open_until(TR, &[TABLE]) => self.close_nearest(TR),
                TD | TH => {
                    for cell in [TD, TH] {
                        if self.has_open_until(cell, &[TR, TABLE]) {
                            self.close_nearest(cell);
                        }
                    }
                }
                OPTION if self.has_open(OPTION) => self.close_nearest(OPTION),
                THEAD | TBODY | TFOOT => {
                    for section in [THEAD, TBODY, TFOOT] {
                        if self.has_open_until(section, &[TABLE]) {
                            self.close_nearest(section);
                        }
                    }
                }
                A if self.has_open(A) => self.close_nearest(A),
                _ => {}
            }
        }

        let parent = self.current();
        let el = self.sink.append_element(parent, name, id, attrs);
        if !rules.void && !self_closing {
            self.push(el, id);
        }
    }

    fn process_end(&mut self, name: &str) {
        // A name never interned was never opened: a stray end tag.
        let Some(id) = self.names.lookup(name) else { return };
        match id {
            // Keep them open until EOF; browsers effectively do the same.
            HTML | BODY => {}
            HEAD if self.has_open(HEAD) => {
                self.close_nearest(HEAD);
                self.head_closed = true;
            }
            // A stray </p> creates an empty paragraph in browsers.
            P if !self.has_open(P) && self.in_body() => {
                let parent = self.current();
                self.sink.append_element(parent, "p", P, &[]);
            }
            _ if self.has_open(id) => self.close_nearest(id),
            // Otherwise a stray end tag is ignored.
            _ => {}
        }
    }

    fn finish(mut self) -> S {
        // Guarantee the skeleton exists even for empty input.
        self.ensure_body();
        self.sink
    }
}

/// Elements whose start tag belongs in `<head>` when seen before `<body>`:
/// `title`, `meta`, `link`, `base`, `style` and `noscript`, by name id.
fn is_head_content_id(id: u32) -> bool {
    (TITLE..=NOSCRIPT).contains(&id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::NodeId;

    #[test]
    fn empty_input_has_skeleton() {
        let doc = parse_document("");
        assert!(doc.html().is_some());
        assert!(doc.head().is_some());
        assert!(doc.body().is_some());
    }

    #[test]
    fn full_document() {
        let doc = parse_document(
            "<!DOCTYPE html><html lang=en><head><title>T</title></head><body><p>x</p></body></html>",
        );
        assert_eq!(doc.attr(doc.html().unwrap(), "lang"), Some("en"));
        let title = doc.find_element(NodeId::DOCUMENT, "title").unwrap();
        assert_eq!(doc.text_content(title), "T");
        assert_eq!(doc.parent(title), doc.head());
        let p = doc.find_element(NodeId::DOCUMENT, "p").unwrap();
        assert_eq!(doc.parent(p), doc.body());
    }

    #[test]
    fn implied_structure() {
        let doc = parse_document("just text");
        let body = doc.body().unwrap();
        assert_eq!(doc.text_content(body), "just text");
    }

    #[test]
    fn head_elements_to_head_body_elements_to_body() {
        let doc = parse_document("<meta charset=utf-8><div>x</div>");
        let meta = doc.find_element(NodeId::DOCUMENT, "meta").unwrap();
        assert_eq!(doc.parent(meta), doc.head());
        let div = doc.find_element(NodeId::DOCUMENT, "div").unwrap();
        assert_eq!(doc.parent(div), doc.body());
    }

    #[test]
    fn unclosed_paragraphs_are_siblings() {
        let doc = parse_document("<p>one<p>two<p>three");
        let body = doc.body().unwrap();
        let ps = doc.element_children(body);
        assert_eq!(ps.len(), 3);
        assert_eq!(doc.text_content(ps[0]), "one");
        assert_eq!(doc.text_content(ps[2]), "three");
    }

    #[test]
    fn p_closed_by_block_elements() {
        let doc = parse_document("<p>para<div>block</div>");
        let body = doc.body().unwrap();
        let kids = doc.element_children(body);
        assert_eq!(kids.len(), 2);
        assert_eq!(doc.tag_name(kids[0]), Some("p"));
        assert_eq!(doc.tag_name(kids[1]), Some("div"));
        assert_eq!(doc.parent(kids[1]), Some(body));
    }

    #[test]
    fn list_items_autoclose() {
        let doc = parse_document("<ul><li>a<li>b<li>c</ul>");
        let ul = doc.find_element(NodeId::DOCUMENT, "ul").unwrap();
        assert_eq!(doc.element_children(ul).len(), 3);
    }

    #[test]
    fn nested_list_items_stay_nested() {
        let doc = parse_document("<ul><li>a<ul><li>a1<li>a2</ul><li>b</ul>");
        let uls = doc.find_all(NodeId::DOCUMENT, "ul");
        assert_eq!(uls.len(), 2);
        assert_eq!(doc.element_children(uls[0]).len(), 2); // li a (contains inner ul), li b
        assert_eq!(doc.element_children(uls[1]).len(), 2); // a1, a2
    }

    #[test]
    fn table_rows_and_cells_autoclose() {
        let doc = parse_document("<table><tr><td>1<td>2<tr><td>3</table>");
        let trs = doc.find_all(NodeId::DOCUMENT, "tr");
        assert_eq!(trs.len(), 2);
        assert_eq!(doc.element_children(trs[0]).len(), 2);
        assert_eq!(doc.element_children(trs[1]).len(), 1);
    }

    #[test]
    fn void_elements_do_not_nest() {
        let doc = parse_document("<br><br><img src=x><hr>");
        let body = doc.body().unwrap();
        assert_eq!(doc.element_children(body).len(), 4);
        let img = doc.find_element(NodeId::DOCUMENT, "img").unwrap();
        assert!(doc.children(img).is_empty());
    }

    #[test]
    fn misnested_end_tag_recovers() {
        // </b> with b not open: ignored. </i> closes through b.
        let doc = parse_document("<i><b>x</i>y");
        let body = doc.body().unwrap();
        let i = doc.element_children(body)[0];
        assert_eq!(doc.tag_name(i), Some("i"));
        // y lands in body because </i> closed both.
        assert_eq!(doc.text_content(body), "xy");
    }

    #[test]
    fn stray_end_tags_ignored() {
        let doc = parse_document("</div></span>text");
        assert_eq!(doc.text_content(doc.body().unwrap()), "text");
    }

    #[test]
    fn script_in_head_and_body() {
        let doc = parse_document("<script>var a=1;</script><div><script>b</script></div>");
        let scripts = doc.find_all(NodeId::DOCUMENT, "script");
        assert_eq!(scripts.len(), 2);
        assert_eq!(doc.parent(scripts[0]), doc.head());
        let div = doc.find_element(NodeId::DOCUMENT, "div").unwrap();
        assert_eq!(doc.parent(scripts[1]), Some(div));
    }

    #[test]
    fn comments_preserved() {
        let doc = parse_document("<body><!-- note --><p>x</p></body>");
        let body = doc.body().unwrap();
        let kids = doc.children(body);
        assert!(matches!(doc.data(kids[0]), crate::dom::NodeData::Comment(c) if c == " note "));
    }

    #[test]
    fn nested_anchors_autoclose() {
        let doc = parse_document("<a href=1>one<a href=2>two</a>");
        let anchors = doc.find_all(NodeId::DOCUMENT, "a");
        assert_eq!(anchors.len(), 2);
        assert_eq!(doc.parent(anchors[1]), doc.body());
    }

    #[test]
    fn select_options_autoclose() {
        let doc = parse_document("<select><option>a<option>b</select>");
        let sel = doc.find_element(NodeId::DOCUMENT, "select").unwrap();
        assert_eq!(doc.element_children(sel).len(), 2);
    }

    #[test]
    fn attributes_survive_parsing() {
        let doc = parse_document(r#"<div id="main" class="x y" data-v=3>c</div>"#);
        let div = doc.element_by_id("main").unwrap();
        assert_eq!(doc.attr(div, "class"), Some("x y"));
        assert_eq!(doc.attr(div, "data-v"), Some("3"));
    }

    #[test]
    fn deterministic_for_same_input() {
        // Cornerstone of the paper's step 3: same parser ⇒ same tree.
        let html = "<div><p>a<p>b<table><tr><td>x</table><script>s</script>";
        let d1 = parse_document(html);
        let d2 = parse_document(html);
        let n1: Vec<String> = d1.preorder_all().map(|n| d1.node_name(n).to_string()).collect();
        let n2: Vec<String> = d2.preorder_all().map(|n| d2.node_name(n).to_string()).collect();
        assert_eq!(n1, n2);
    }

    #[test]
    fn text_before_head_content_forces_body() {
        let doc = parse_document("hello<title>late</title>");
        assert_eq!(doc.text_content(doc.body().unwrap()), "hellolate");
    }

    #[test]
    fn never_panics_on_garbage() {
        for garbage in [
            "<table><div></table>",
            "</p></p></p>",
            "<head><div>x</div></head>",
            "<body><head><title>t</title></head></body>",
            "<p><table><p>inner</table>after",
            "<<<<",
            "<html><html><body><body>",
        ] {
            let doc = parse_document(garbage);
            assert!(doc.body().is_some(), "body must exist for {garbage:?}");
        }
    }

    #[test]
    fn reopened_head_takes_late_head_content() {
        // The comment lands in <html> after </head>; the <title> re-opens
        // the head, so the head's new child comes *before* the comment in
        // document order although it was created after it.
        let doc = parse_document("<head><meta charset=a></head><!--c--><title>t</title><p>x");
        let html = doc.html().unwrap();
        let names: Vec<&str> = doc.children(html).iter().map(|&n| doc.node_name(n)).collect();
        assert_eq!(names, ["head", "#comment", "body"]);
        let head = doc.head().unwrap();
        assert_eq!(doc.element_children(head).len(), 2);
    }

    #[test]
    fn late_attributes_merge_into_html_and_body() {
        let doc = parse_document("<body id=a><p>x</p><body id=b class=c><html lang=en>");
        let body = doc.body().unwrap();
        assert_eq!(doc.attr(body, "id"), Some("a"), "first value wins");
        assert_eq!(doc.attr(body, "class"), Some("c"));
        assert_eq!(doc.attr(doc.html().unwrap(), "lang"), Some("en"));
    }

    #[test]
    fn stray_end_tag_keeps_text_nodes_apart() {
        let doc = parse_document("<p>a</span>b</p>");
        let p = doc.find_element(NodeId::DOCUMENT, "p").unwrap();
        assert_eq!(doc.children(p).len(), 2);
    }

    #[test]
    fn scoped_closing_stops_at_the_nearest_barrier() {
        // The inner table's <td> must not close the outer cell...
        let doc = parse_document("<table><tr><td>o<table><tr><td>i<td>j</table>k</table>");
        let tds = doc.find_all(NodeId::DOCUMENT, "td");
        assert_eq!(tds.len(), 3);
        let inner = doc.find_all(NodeId::DOCUMENT, "table")[1];
        assert_eq!(doc.parent(doc.parent(inner).unwrap()), doc.parent(tds[0]));
        // ...and an <li> in a nested list must not close the outer item.
        let doc = parse_document("<ul><li>a<div><ol><li>b<li>c</ol></div><li>d</ul>");
        let lis = doc.find_all(NodeId::DOCUMENT, "li");
        assert_eq!(lis.len(), 4);
        let outer = doc.find_element(NodeId::DOCUMENT, "ul").unwrap();
        assert_eq!(doc.element_children(outer).len(), 2);
    }

    #[test]
    fn stray_close_p_makes_empty_paragraph() {
        let doc = parse_document("<body></p>x");
        let body = doc.body().unwrap();
        assert_eq!(doc.element_children(body).len(), 1);
    }
}
