//! A forgiving, HTML5-flavoured pull tokenizer.
//!
//! [`Tokenizer`] turns arbitrary input into a stream of [`Token`]s, one per
//! `next()` call, and **never fails**: malformed markup degrades into text
//! or bogus comments, mirroring the error-recovery behaviour real browser
//! parsers exhibit. This matters for CookiePicker because both page
//! versions must be tokenized identically, malformed or not (paper §3.2,
//! step 3).
//!
//! Tokens borrow from the input. A name or text owns a `String` only when
//! the token differs from its source bytes: an upper-case name is
//! lower-cased, a character reference is decoded, or text is joined across
//! a CDATA section. A start tag's attributes come in a `Vec`; a consumer
//! that hands it back through [`Tokenizer::recycle`] lets the next tag
//! reuse the buffer, so a typical page tokenizes with a handful of
//! allocations in total.
//!
//! Adjacent character data is one [`Token::Text`]: a lone `<` and a CDATA
//! section continue the text around them.
//!
//! Raw-text elements (`script`, `style`, `textarea`, `title`) are handled as
//! in browsers: after their start tag, everything up to the matching
//! case-insensitive end tag is a single text token with no entity decoding
//! (entities *are* decoded for `textarea`/`title`, per spec, but we keep the
//! raw bytes for scripts and styles).

use std::borrow::Cow;
use std::collections::HashSet;

use crate::entities::decode_entities;

/// An attribute parsed from a start tag: lower-cased name, decoded value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Lower-cased attribute name.
    pub name: Cow<'a, str>,
    /// Attribute value with entities decoded; empty for valueless attributes.
    pub value: Cow<'a, str>,
}

/// A lexical token produced by [`Tokenizer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<!DOCTYPE name …>`.
    Doctype(
        /// The doctype name (lower-cased).
        Cow<'a, str>,
    ),
    /// `<name attr="…" …>` or `<name … />`.
    StartTag {
        /// Lower-cased tag name.
        name: Cow<'a, str>,
        /// Attributes in source order; the first of a repeated name wins.
        attrs: Vec<Attribute<'a>>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag(
        /// Lower-cased tag name.
        Cow<'a, str>,
    ),
    /// Character data between tags, entities decoded.
    Text(
        /// The decoded text.
        Cow<'a, str>,
    ),
    /// `<!-- … -->` (body without delimiters).
    Comment(
        /// The comment body.
        &'a str,
    ),
}

/// Tokenizes a whole document into a vector. Never fails; any input
/// produces tokens.
///
/// ```
/// use cp_html::{tokenize, Token};
/// let toks = tokenize("<p class=a>hi</p>");
/// assert_eq!(toks.len(), 3);
/// assert!(matches!(&toks[0], Token::StartTag { name, .. } if name == "p"));
/// assert!(matches!(&toks[1], Token::Text(t) if t == "hi"));
/// assert!(matches!(&toks[2], Token::EndTag(n) if n == "p"));
/// ```
pub fn tokenize(input: &str) -> Vec<Token<'_>> {
    Tokenizer::new(input).collect()
}

/// The element names whose content is raw text (no tags recognized inside).
fn raw_text_element(name: &str) -> Option<&'static str> {
    Some(match name {
        "script" => "script",
        "style" => "style",
        "textarea" => "textarea",
        "title" => "title",
        "xmp" => "xmp",
        "noframes" => "noframes",
        _ => return None,
    })
}

/// `s` lower-cased, borrowed when it has no ASCII upper-case letter.
fn lowercase(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Tags with more attributes than this check repeated names through a
/// hash set instead of a scan of the names kept so far.
const ATTR_SCAN_LIMIT: usize = 16;

/// The pull tokenizer: an [`Iterator`] of [`Token`]s borrowed from the
/// input.
///
/// ```
/// use std::borrow::Cow;
/// use cp_html::{Token, Tokenizer};
///
/// let mut tokens = Tokenizer::new("<P>caf&eacute; <b>bar</b>");
/// // `P` had to be lower-cased, so the name is owned...
/// assert!(matches!(tokens.next(), Some(Token::StartTag { name: Cow::Owned(n), .. }) if n == "p"));
/// // ...and so is the decoded text; `<b>` is a slice of the input.
/// assert!(matches!(tokens.next(), Some(Token::Text(Cow::Owned(t))) if t == "café "));
/// assert!(matches!(tokens.next(), Some(Token::StartTag { name: Cow::Borrowed("b"), .. })));
/// ```
#[derive(Debug)]
pub struct Tokenizer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Set by a raw-text start tag: its content is the next token.
    raw: Option<&'static str>,
    /// An emptied attribute vector handed back through [`Tokenizer::recycle`].
    spare: Vec<Attribute<'a>>,
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        if let Some(element) = self.raw.take() {
            if let Some(text) = self.raw_text(element) {
                return Some(Token::Text(text));
            }
        }
        loop {
            if let Some(kind) = self.markup_at(self.pos) {
                return Some(match kind {
                    b'/' => self.end_tag(),
                    b'!' => self.markup_declaration(),
                    b'?' => self.bogus_comment(self.pos + 1),
                    _ => self.start_tag(),
                });
            }
            if self.pos >= self.bytes.len() {
                return None;
            }
            // An empty CDATA section is text that yields no token.
            if let Some(text) = self.text_run() {
                return Some(Token::Text(text));
            }
        }
    }
}

/// Character data gathered from one or more pieces: a span of the input
/// while the pieces are unchanged and adjacent, a `String` otherwise.
enum TextRun {
    Empty,
    Span(usize, usize),
    Owned(String),
}

impl TextRun {
    fn push_span(&mut self, input: &str, start: usize, end: usize) {
        match self {
            _ if start == end => {}
            TextRun::Empty => *self = TextRun::Span(start, end),
            TextRun::Span(_, e) if *e == start => *e = end,
            _ => self.push_str(input, &input[start..end]),
        }
    }

    fn push_str(&mut self, input: &str, piece: &str) {
        match self {
            TextRun::Empty => *self = TextRun::Owned(piece.to_string()),
            TextRun::Span(s, e) => {
                let mut owned = String::with_capacity(*e - *s + piece.len());
                owned.push_str(&input[*s..*e]);
                owned.push_str(piece);
                *self = TextRun::Owned(owned);
            }
            TextRun::Owned(owned) => owned.push_str(piece),
        }
    }

    fn finish(self, input: &str) -> Option<Cow<'_, str>> {
        match self {
            TextRun::Empty => None,
            TextRun::Span(s, e) => Some(Cow::Borrowed(&input[s..e])),
            TextRun::Owned(owned) => Some(Cow::Owned(owned)),
        }
    }
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer positioned at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer { input, bytes: input.as_bytes(), pos: 0, raw: None, spare: Vec::new() }
    }

    /// Hands a start tag's attribute vector back, emptied, so the next
    /// start tag fills it instead of allocating a new one.
    pub fn recycle(&mut self, mut attrs: Vec<Attribute<'a>>) {
        if attrs.capacity() > self.spare.capacity() {
            attrs.clear();
            self.spare = attrs;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Advances to the first byte at or after the position that satisfies
    /// `stop` (or to the end) and returns the bytes passed over.
    fn scan_until(&mut self, stop: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let rest = &self.bytes[start..];
        self.pos += rest.iter().position(|&b| stop(b)).unwrap_or(rest.len());
        &self.input[start..self.pos]
    }

    /// Advances past the next `>` (or to the end).
    fn skip_past_gt(&mut self) {
        self.scan_until(|b| b == b'>');
        self.pos = (self.pos + 1).min(self.bytes.len());
    }

    fn starts_with_ci(&self, s: &str) -> bool {
        self.starts_with_ci_at(self.pos, s)
    }

    fn starts_with_ci_at(&self, at: usize, s: &str) -> bool {
        let end = at + s.len();
        end <= self.bytes.len() && self.bytes[at..end].eq_ignore_ascii_case(s.as_bytes())
    }

    /// When a '<' at `at` starts markup — a start or end tag, a comment,
    /// a doctype or a bogus comment — the byte after it. A lone '<' and a
    /// CDATA section are character data instead.
    fn markup_at(&self, at: usize) -> Option<u8> {
        if self.bytes.get(at) != Some(&b'<') {
            return None;
        }
        match *self.bytes.get(at + 1)? {
            b'!' if self.starts_with_ci_at(at, "<![CDATA[") => None,
            c @ (b'/' | b'!' | b'?') => Some(c),
            c if c.is_ascii_alphabetic() => Some(c),
            _ => None,
        }
    }

    /// Character data from the current position: data up to the next '<',
    /// continued through lone '<'s and CDATA sections, up to the end or to
    /// markup. `None` when that is no text at all (an empty CDATA section).
    fn text_run(&mut self) -> Option<Cow<'a, str>> {
        let input = self.input;
        let len = self.bytes.len();
        let mut text = TextRun::Empty;
        loop {
            // One scan finds the end of the data; only data holding a '&'
            // goes through the decoder.
            let start = self.pos;
            let stop = |b: u8| b == b'<' || b == b'&';
            self.pos += self.bytes[start..].iter().position(|&b| stop(b)).unwrap_or(len - start);
            if self.bytes.get(self.pos) == Some(&b'&') {
                self.scan_until(|b| b == b'<');
                match decode_entities(&input[start..self.pos]) {
                    Cow::Borrowed(_) => text.push_span(input, start, self.pos),
                    Cow::Owned(decoded) => text.push_str(input, &decoded),
                }
            } else {
                text.push_span(input, start, self.pos);
            }
            if self.pos == len || self.markup_at(self.pos).is_some() {
                break;
            }
            if self.starts_with_ci("<![CDATA[") {
                let start = self.pos + "<![CDATA[".len();
                let end = input[start..].find("]]>").map_or(len, |p| start + p);
                text.push_span(input, start, end);
                self.pos = (end + 3).min(len);
            } else {
                // Lone '<': literal text.
                text.push_span(input, self.pos, self.pos + 1);
                self.pos += 1;
            }
        }
        text.finish(input)
    }

    fn start_tag(&mut self) -> Token<'a> {
        self.pos += 1; // consume '<'
        let name = self.read_tag_name();
        // Tags without attributes leave the spare buffer where it is.
        let mut attrs: Vec<Attribute<'a>> = Vec::new();
        // Names seen so far, kept only for tags with many attributes.
        let mut seen: Option<HashSet<Cow<'a, str>>> = None;
        let mut self_closing = false;
        loop {
            self.skip_whitespace();
            match self.peek() {
                None => break,
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        self_closing = true;
                        break;
                    }
                    // stray '/': ignore, continue attribute scanning
                }
                Some(_) => {
                    let Some(attr) = self.read_attribute() else { continue };
                    // First occurrence wins, as in browsers.
                    let repeated = match &mut seen {
                        Some(seen) => !seen.insert(attr.name.clone()),
                        None => attrs.iter().any(|a| a.name == attr.name),
                    };
                    if repeated {
                        continue;
                    }
                    if attrs.capacity() == 0 {
                        attrs = std::mem::take(&mut self.spare);
                    }
                    attrs.push(attr);
                    if seen.is_none() && attrs.len() > ATTR_SCAN_LIMIT {
                        seen = Some(attrs.iter().map(|a| a.name.clone()).collect());
                    }
                }
            }
        }
        if !self_closing {
            self.raw = raw_text_element(&name);
        }
        Token::StartTag { name, attrs, self_closing }
    }

    /// The content of the raw-text `element` whose start tag was just
    /// emitted: everything up to `</element` (any case) or the end.
    fn raw_text(&mut self, element: &str) -> Option<Cow<'a, str>> {
        let start = self.pos;
        let mut end = self.bytes.len();
        let mut i = start;
        while let Some(lt) = self.bytes[i..].iter().position(|&b| b == b'<') {
            i += lt;
            let name_end = i + 2 + element.len();
            if self.bytes.get(i + 1) == Some(&b'/')
                && name_end <= self.bytes.len()
                && self.bytes[i + 2..name_end].eq_ignore_ascii_case(element.as_bytes())
            {
                end = i;
                break;
            }
            i += 1;
        }
        self.pos = end;
        let raw = &self.input[start..end];
        if raw.is_empty() {
            return None;
        }
        Some(if matches!(element, "textarea" | "title") {
            decode_entities(raw)
        } else {
            Cow::Borrowed(raw)
        })
    }

    fn end_tag(&mut self) -> Token<'a> {
        self.pos += 2; // consume '</'
        if !self.peek().is_some_and(|c| c.is_ascii_alphabetic()) {
            // '</>' or '</ ': bogus comment per spec; we skip to '>'.
            return self.bogus_comment(self.pos);
        }
        let name = self.read_tag_name();
        self.skip_past_gt();
        Token::EndTag(name)
    }

    fn markup_declaration(&mut self) -> Token<'a> {
        // At '<!'; CDATA sections were taken as text by `text_run`.
        if self.starts_with_ci("<!--") {
            self.comment()
        } else if self.starts_with_ci("<!doctype") {
            self.doctype()
        } else {
            self.bogus_comment(self.pos + 2)
        }
    }

    fn comment(&mut self) -> Token<'a> {
        self.pos += 4; // consume '<!--'
        let start = self.pos;
        match self.input[start..].find("-->") {
            Some(p) => {
                self.pos = start + p + 3;
                Token::Comment(&self.input[start..start + p])
            }
            None => {
                self.pos = self.bytes.len();
                Token::Comment(&self.input[start..])
            }
        }
    }

    fn doctype(&mut self) -> Token<'a> {
        self.pos += "<!doctype".len();
        self.skip_whitespace();
        let name = lowercase(self.scan_until(|b| b.is_ascii_whitespace() || b == b'>'));
        self.skip_past_gt();
        Token::Doctype(name)
    }

    fn bogus_comment(&mut self, content_start: usize) -> Token<'a> {
        // Consume up to and including '>', emit as comment.
        self.pos = content_start;
        let body = self.scan_until(|b| b == b'>');
        self.pos = (self.pos + 1).min(self.bytes.len());
        Token::Comment(body)
    }

    fn read_tag_name(&mut self) -> Cow<'a, str> {
        lowercase(self.scan_until(|b| b.is_ascii_whitespace() || matches!(b, b'>' | b'/')))
    }

    fn skip_whitespace(&mut self) {
        self.scan_until(|b| !b.is_ascii_whitespace());
    }

    fn read_attribute(&mut self) -> Option<Attribute<'a>> {
        let name = self.scan_until(|b| b.is_ascii_whitespace() || matches!(b, b'=' | b'>' | b'/'));
        if name.is_empty() {
            // Unexpected byte (e.g. '=' with no name): skip it to progress.
            self.pos += 1;
            return None;
        }
        let name = lowercase(name);
        self.skip_whitespace();
        if self.peek() != Some(b'=') {
            return Some(Attribute { name, value: Cow::Borrowed("") });
        }
        self.pos += 1; // consume '='
        self.skip_whitespace();
        let value = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let raw = self.scan_until(|b| b == q);
                self.pos = (self.pos + 1).min(self.bytes.len()); // closing quote
                decode_entities(raw)
            }
            _ => decode_entities(self.scan_until(|b| b.is_ascii_whitespace() || b == b'>')),
        };
        Some(Attribute { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(name: &str) -> Token<'_> {
        Token::StartTag { name: name.into(), attrs: vec![], self_closing: false }
    }

    #[test]
    fn simple_tags_and_text() {
        assert_eq!(
            tokenize("<p>hi</p>"),
            vec![start("p"), Token::Text("hi".into()), Token::EndTag("p".into())]
        );
    }

    #[test]
    fn tag_names_lowercased() {
        assert_eq!(tokenize("<DIV></DiV>"), vec![start("div"), Token::EndTag("div".into())]);
    }

    #[test]
    fn attributes_quoted_unquoted_valueless() {
        let toks = tokenize(r#"<input type="text" value='a b' checked data-n=5>"#);
        let Token::StartTag { attrs, .. } = &toks[0] else { panic!("expected start tag") };
        assert_eq!(attrs.len(), 4);
        assert_eq!(attrs[0], Attribute { name: "type".into(), value: "text".into() });
        assert_eq!(attrs[1], Attribute { name: "value".into(), value: "a b".into() });
        assert_eq!(attrs[2], Attribute { name: "checked".into(), value: "".into() });
        assert_eq!(attrs[3], Attribute { name: "data-n".into(), value: "5".into() });
    }

    #[test]
    fn duplicate_attributes_first_wins() {
        let toks = tokenize(r#"<a href="one" href="two">"#);
        let Token::StartTag { attrs, .. } = &toks[0] else { panic!() };
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs[0].value, "one");
    }

    #[test]
    fn self_closing() {
        let toks = tokenize("<br/><img src=x />");
        assert!(matches!(&toks[0], Token::StartTag { self_closing: true, .. }));
        assert!(matches!(&toks[1], Token::StartTag { self_closing: true, .. }));
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let toks = tokenize(r#"<a title="A &amp; B">x &lt; y</a>"#);
        let Token::StartTag { attrs, .. } = &toks[0] else { panic!() };
        assert_eq!(attrs[0].value, "A & B");
        assert_eq!(toks[1], Token::Text("x < y".into()));
    }

    #[test]
    fn comments() {
        let toks = tokenize("a<!-- hidden -->b");
        assert_eq!(
            toks,
            vec![Token::Text("a".into()), Token::Comment(" hidden "), Token::Text("b".into())]
        );
    }

    #[test]
    fn unterminated_comment_consumes_rest() {
        let toks = tokenize("x<!-- never closed");
        assert_eq!(toks[1], Token::Comment(" never closed"));
    }

    #[test]
    fn doctype() {
        let toks = tokenize("<!DOCTYPE html><html>");
        assert_eq!(toks[0], Token::Doctype("html".into()));
    }

    #[test]
    fn script_raw_text() {
        let toks = tokenize("<script>if (a < b) { x = '<div>'; }</script>after");
        assert_eq!(toks[1], Token::Text("if (a < b) { x = '<div>'; }".into()));
        assert_eq!(toks[2], Token::EndTag("script".into()));
        assert_eq!(toks[3], Token::Text("after".into()));
    }

    #[test]
    fn script_end_tag_case_insensitive() {
        let toks = tokenize("<script>x</SCRIPT>");
        assert_eq!(toks[1], Token::Text("x".into()));
        assert_eq!(toks[2], Token::EndTag("script".into()));
    }

    #[test]
    fn unterminated_script() {
        let toks = tokenize("<script>var x = 1;");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], Token::Text("var x = 1;".into()));
    }

    #[test]
    fn title_decodes_entities() {
        let toks = tokenize("<title>A &amp; B</title>");
        assert_eq!(toks[1], Token::Text("A & B".into()));
    }

    #[test]
    fn lone_angle_bracket_is_text() {
        let toks = tokenize("1 < 2");
        assert_eq!(toks, vec![Token::Text("1 < 2".into())]);
    }

    #[test]
    fn bogus_markup_becomes_comment() {
        let toks = tokenize("<?php echo ?>x<!weird>y");
        assert!(matches!(&toks[0], Token::Comment(_)));
        assert_eq!(toks[1], Token::Text("x".into()));
        assert!(matches!(&toks[2], Token::Comment(_)));
        assert_eq!(toks[3], Token::Text("y".into()));
    }

    #[test]
    fn cdata_is_text() {
        let toks = tokenize("<![CDATA[raw <stuff>]]>");
        assert_eq!(toks, vec![Token::Text("raw <stuff>".into())]);
    }

    #[test]
    fn stray_end_tag_slash() {
        let toks = tokenize("</>text");
        assert!(matches!(&toks[0], Token::Comment(_)));
        assert_eq!(toks[1], Token::Text("text".into()));
    }

    #[test]
    fn unterminated_tag_at_eof() {
        let toks = tokenize("<div class=");
        assert!(matches!(&toks[0], Token::StartTag { name, .. } if name == "div"));
    }

    #[test]
    fn never_panics_on_garbage() {
        for garbage in [
            "<",
            "</",
            "<!",
            "<!-",
            "<a b=\"",
            "<a b='",
            "\u{0}<>\u{ffff}",
            "<<<>>>",
            "&#;",
            "&#x;",
            "<a/ b>",
            "< a>",
            "<a =>",
            "<!doctype",
            "<![CDATA[",
        ] {
            let _ = tokenize(garbage);
        }
    }

    #[test]
    fn plain_markup_borrows_from_the_input() {
        for token in tokenize(r#"<!doctype html><div class="a b" id=x>text</div><!--c-->"#) {
            match token {
                Token::Doctype(name) | Token::EndTag(name) | Token::Text(name) => {
                    assert!(matches!(name, Cow::Borrowed(_)), "{name:?} was copied");
                }
                Token::StartTag { name, attrs, .. } => {
                    assert!(matches!(name, Cow::Borrowed(_)));
                    for a in attrs {
                        assert!(matches!((a.name, a.value), (Cow::Borrowed(_), Cow::Borrowed(_))));
                    }
                }
                Token::Comment(_) => {}
            }
        }
    }

    #[test]
    fn lone_angle_and_cdata_continue_the_text() {
        // Contiguous source text stays one borrowed slice...
        assert_eq!(tokenize("1 < 2 <"), vec![Token::Text(Cow::Borrowed("1 < 2 <"))]);
        // ...a CDATA section in the middle joins its pieces into one text.
        let toks = tokenize("a &lt; b<![CDATA[<c>]]>d<![CDATA[]]>e<p>");
        assert_eq!(toks[0], Token::Text("a < b<c>de".into()));
        assert_eq!(toks[1], start("p"));
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn recycled_attribute_buffer_is_reused() {
        let mut tokens = Tokenizer::new("<a x=1 y=2 z=3><b w=4>");
        let Some(Token::StartTag { attrs, .. }) = tokens.next() else { panic!() };
        let capacity = attrs.capacity();
        tokens.recycle(attrs);
        let Some(Token::StartTag { attrs, .. }) = tokens.next() else { panic!() };
        assert_eq!(attrs, vec![Attribute { name: "w".into(), value: "4".into() }]);
        assert_eq!(attrs.capacity(), capacity, "the recycled buffer was not reused");
    }

    #[test]
    fn many_attributes_still_keep_the_first_of_each_name() {
        let names: Vec<String> = (0..40).map(|i| format!("a{}", i % 25)).collect();
        let tag = format!(
            "<p {} A3=late>",
            names.iter().map(|n| format!("{n}={n}")).collect::<Vec<_>>().join(" ")
        );
        let toks = tokenize(&tag);
        let Token::StartTag { attrs, .. } = &toks[0] else { panic!() };
        assert_eq!(attrs.len(), 25);
        assert!(attrs.iter().all(|a| a.name == a.value), "a later repeat overwrote a value");
    }

    #[test]
    fn adjacent_text_coalesced() {
        let toks = tokenize("a&amp;b");
        assert_eq!(toks, vec![Token::Text("a&b".into())]);
    }
}
