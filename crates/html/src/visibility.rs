//! Visual-effect classification of DOM nodes.
//!
//! The paper's RSTM algorithm (Figure 2, line 5) counts a matched pair only
//! if the nodes "are not leaves and have visual effects": comment nodes and
//! script nodes are excluded because they never affect what a user sees.
//! This module centralizes that judgement so the matcher, the CVCE content
//! extractor, and the synthetic-site generator all agree on it.

use crate::dom::{Document, NodeData, NodeId};

/// Element names that never produce visual output.
///
/// `<head>` and its metadata children are invisible; so are scripts,
/// templates and frames-era fallbacks.
///
/// ```
/// use cp_html::is_invisible_element_name;
/// assert!(is_invisible_element_name("script"));
/// assert!(is_invisible_element_name("style"));
/// assert!(!is_invisible_element_name("div"));
/// ```
pub fn is_invisible_element_name(name: &str) -> bool {
    matches!(
        name,
        "script"
            | "style"
            | "head"
            | "meta"
            | "link"
            | "base"
            | "title"
            | "noscript"
            | "template"
            | "noframes"
            | "param"
    )
}

/// Whether a single node (not considering ancestors) is visible.
///
/// Comments, doctypes, and invisible elements return `false`; text nodes and
/// the document node return `true` (their visibility is decided by their
/// ancestors). Elements carrying `hidden`, `type="hidden"` or an inline
/// `display:none` / `visibility:hidden` style are invisible.
pub fn is_node_visible(doc: &Document, id: NodeId) -> bool {
    match doc.data(id) {
        NodeData::Comment(_) | NodeData::Doctype { .. } => false,
        NodeData::Document | NodeData::Text(_) => true,
        NodeData::Element { name, attrs } => {
            element_visible(name, attrs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        }
    }
}

/// The element case of [`is_node_visible`], judged from the name and the
/// `(name, value)` attribute pairs directly — one pass over the attributes
/// instead of one scan per interesting attribute, for callers (like the
/// compiled page analysis) that hold element data outside a `Document`.
///
/// Duplicate attributes follow [`Document::attr`] semantics: the first
/// occurrence of a name wins.
pub fn element_visible<'s>(
    name: &str,
    attrs: impl IntoIterator<Item = (&'s str, &'s str)>,
) -> bool {
    if is_invisible_element_name(name) {
        return false;
    }
    let (mut hidden, mut ty, mut style) = (false, None, None);
    for (k, v) in attrs {
        match k {
            "hidden" => hidden = true,
            "type" if ty.is_none() => ty = Some(v),
            "style" if style.is_none() => style = Some(v),
            _ => {}
        }
    }
    if hidden {
        return false;
    }
    if name == "input" && ty.is_some_and(|t| t.eq_ignore_ascii_case("hidden")) {
        return false;
    }
    !style.is_some_and(style_hides)
}

/// Whether an inline style declares `display:none` or `visibility:hidden`,
/// judged on the style with all whitespace removed and ASCII case folded —
/// exactly the string `style.to_ascii_lowercase().split_whitespace()
/// .collect::<String>()` would contain, but without building it.
fn style_hides(style: &str) -> bool {
    contains_filtered(style, b"display:none") || contains_filtered(style, b"visibility:hidden")
}

/// Substring search for an ASCII-lowercase `needle` in `style` viewed as a
/// whitespace-stripped, ASCII-lowercased character stream.
fn contains_filtered(style: &str, needle: &[u8]) -> bool {
    let mut stream = style.chars().filter(|c| !c.is_whitespace());
    loop {
        let mut probe = stream.clone();
        let mut matched = 0;
        while matched < needle.len() {
            match probe.next() {
                Some(c) if c.is_ascii() && c.to_ascii_lowercase() as u8 == needle[matched] => {
                    matched += 1;
                }
                Some(_) => break,
                // The stream ran out mid-needle; no later start can fit.
                None => return false,
            }
        }
        if matched == needle.len() {
            return true;
        }
        if stream.next().is_none() {
            return false;
        }
    }
}

/// Whether the node **and all its ancestors** are visible — i.e. whether it
/// can contribute to the rendered page at all.
pub fn is_effectively_visible(doc: &Document, id: NodeId) -> bool {
    let mut cur = Some(id);
    while let Some(n) = cur {
        if !is_node_visible(doc, n) {
            return false;
        }
        cur = doc.parent(n);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    #[test]
    fn scripts_and_comments_invisible() {
        let doc = parse_document("<body><script>x</script><!--c--><p>t</p></body>");
        let script = doc.find_element(NodeId::DOCUMENT, "script").unwrap();
        assert!(!is_node_visible(&doc, script));
        let p = doc.find_element(NodeId::DOCUMENT, "p").unwrap();
        assert!(is_node_visible(&doc, p));
        let body = doc.body().unwrap();
        let comment = doc.children(body)[1];
        assert!(!is_node_visible(&doc, comment));
    }

    #[test]
    fn head_content_invisible() {
        let doc = parse_document("<title>t</title><meta charset=a><body>x</body>");
        let head = doc.head().unwrap();
        assert!(!is_node_visible(&doc, head));
        let title = doc.find_element(NodeId::DOCUMENT, "title").unwrap();
        assert!(!is_node_visible(&doc, title));
    }

    #[test]
    fn hidden_attribute_and_inputs() {
        let doc =
            parse_document(r#"<div hidden>x</div><input type=hidden name=n><input type=text>"#);
        let div = doc.find_element(NodeId::DOCUMENT, "div").unwrap();
        assert!(!is_node_visible(&doc, div));
        let inputs = doc.find_all(NodeId::DOCUMENT, "input");
        assert!(!is_node_visible(&doc, inputs[0]));
        assert!(is_node_visible(&doc, inputs[1]));
    }

    #[test]
    fn inline_display_none() {
        let doc =
            parse_document(r#"<div style="display: none">x</div><div style="color:red">y</div>"#);
        let divs = doc.find_all(NodeId::DOCUMENT, "div");
        assert!(!is_node_visible(&doc, divs[0]));
        assert!(is_node_visible(&doc, divs[1]));
    }

    #[test]
    fn effective_visibility_inherits() {
        let doc = parse_document(r#"<div style="display:none"><p>hidden text</p></div>"#);
        let p = doc.find_element(NodeId::DOCUMENT, "p").unwrap();
        assert!(is_node_visible(&doc, p));
        assert!(!is_effectively_visible(&doc, p));
    }

    #[test]
    fn body_text_effectively_visible() {
        let doc = parse_document("<body><p>seen</p></body>");
        let p = doc.find_element(NodeId::DOCUMENT, "p").unwrap();
        let text = doc.children(p)[0];
        assert!(is_effectively_visible(&doc, text));
    }
}
