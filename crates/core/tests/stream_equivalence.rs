//! The streaming page analysis must equal the DOM-based reference.
//!
//! `PageAnalysis::from_html` builds its tree and content set in one pass
//! over the token stream, without a `Document`; `from_document` walks a
//! parsed `Document`. Both must give the same tree (labels, countable
//! flags, shape, symbol order) and the same content set, for either
//! comparison root, on:
//!
//! * both versions of a visit (all cookies / persistent ones withheld) of
//!   Table-1 hosts and of uniform-world hosts;
//! * the late edits the tree builder makes after a node's children were
//!   seen (attribute merges into `<html>`/`<body>`, a re-opened `<head>`,
//!   text split by an ignored end tag);
//! * the parser's garbage inputs;
//! * a seeded markup fuzzer.
//!
//! A digest over `serialize(parse_document(page))` for the whole corpus
//! pins the `Document` the builder produces.

use cookiepicker_core::{fnv1a64, PageAnalysis};
use cp_cookies::SimTime;
use cp_html::{parse_document, serialize, NodeId};
use cp_runtime::rng::{Rng, SeedableRng, StdRng};
use cp_webworld::render::{render_page, RenderInput};
use cp_webworld::universe::Universe;
use cp_webworld::SiteSpec;

/// Both versions of one visit to every canonical path of `spec`: the
/// regular page sees every cookie, the hidden one loses the persistent
/// ones, each with its own noise stream.
fn visit_pages(spec: &SiteSpec, rng: &mut StdRng, out: &mut Vec<String>) {
    let all: Vec<(String, String)> =
        spec.cookies.iter().map(|c| (c.name.clone(), format!("v{:x}", spec.seed))).collect();
    let kept: Vec<(String, String)> = spec
        .cookies
        .iter()
        .filter(|c| !c.is_persistent())
        .map(|c| (c.name.clone(), format!("v{:x}", spec.seed)))
        .collect();
    for path in spec.page_paths() {
        for cookies in [&all, &kept] {
            let input = RenderInput { spec, path: &path, cookies, now: SimTime::EPOCH };
            out.push(render_page(&input, &mut StdRng::seed_from_u64(rng.gen::<u64>())));
        }
    }
}

/// The seeded corpus: every Table-1 host and 40 uniform-world hosts.
fn corpus() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
    let mut pages = Vec::new();
    let table1 = Universe::table1(1);
    for host in table1.hosts_after(None, usize::MAX).expect("table-1 hosts enumerate") {
        visit_pages(&table1.derive(&host).expect("listed host"), &mut rng, &mut pages);
    }
    let uniform = Universe::uniform(7, 1_000_000);
    for index in (0..1_000_000).step_by(25_000) {
        let host = uniform.host_at(index).expect("index in range");
        visit_pages(&uniform.derive(&host).expect("uniform host"), &mut rng, &mut pages);
    }
    pages
}

fn assert_equivalent(html: &str) {
    let doc = parse_document(html);
    for from_body in [true, false] {
        let streamed = PageAnalysis::from_html(html, from_body);
        let reference = PageAnalysis::from_document(&doc, from_body);
        assert!(
            streamed == reference,
            "from_body={from_body}: streamed analysis diverged on {html:?}\n\
             streamed: {streamed:?}\nreference: {reference:?}"
        );
    }
}

#[test]
fn corpus_pages_stream_to_the_reference_analysis() {
    let pages = corpus();
    assert!(pages.len() > 500, "corpus too small: {}", pages.len());
    for page in &pages {
        assert_equivalent(page);
    }
}

#[test]
fn late_edits_stream_to_the_reference_analysis() {
    for html in [
        // Attributes merged into an open <body> or <html> after their
        // children were seen flip the whole subtree's judgement.
        "<body><div><p>seen first</p></div><body style=\"display:none\">",
        "<body><p>text</p><body hidden><p>more</p>",
        "<body><p>text</p><body class=\"sponsor\">",
        "<body id=main><p>text</p><body id=ads class=x>",
        "<p>implied body</p><body style=\"color:red\" class=\"ad-box\">",
        "<html><body><div>a</div><html class=\"ads\" style=\"visibility: hidden\">",
        "<div>x</div><html hidden><head class=ad><body class=ads>",
        // A <head> re-opened by head content after </head>.
        "<head><title>t</title></head><!--between--><meta name=a><style>s</style><p>x",
        "<html><head></head> <!--c--><title>late</title><noscript>n</noscript><div>d</div>",
        "<!DOCTYPE html><!--pre--><head></head><script>s()</script><link rel=x><p>y",
        // Text split by an ignored end tag stays two text nodes.
        "<p>alpha</span>beta</p><div>gamma</em> delta</div>",
        "<body>one</html>two</body>three",
        "<title>a</b>b</title><p>c</i>d",
    ] {
        assert_equivalent(html);
    }
}

#[test]
fn garbage_streams_to_the_reference_analysis() {
    for html in [
        "",
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
        "<table><div></table>",
        "</p></p></p>",
        "<head><div>x</div></head>",
        "<body><head><title>t</title></head></body>",
        "<p><table><p>inner</table>after",
        "<<<<",
        "<html><html><body><body>",
        "<script>if (a < b) {}</SCRIPT>after",
        "x<![CDATA[<y>]]>z<?php ?>w",
    ] {
        assert_equivalent(html);
    }
}

/// Random markup over the constructs the builder treats specially.
fn fuzz_page(rng: &mut StdRng) -> String {
    const TAGS: &[&str] = &[
        "html", "head", "body", "title", "meta", "link", "style", "script", "noscript", "template",
        "div", "span", "p", "a", "b", "ul", "ol", "li", "dl", "dt", "dd", "table", "thead",
        "tbody", "tr", "td", "th", "select", "option", "input", "br", "img", "hr", "DIV", "Body",
    ];
    const ATTRS: &[&str] = &[
        "",
        " class=ad",
        " class=\"nav main\"",
        " id=sponsor",
        " id=x",
        " style=\"display : none\"",
        " style='color:red'",
        " hidden",
        " type=hidden",
        " CLASS=\"Ad-Slot\" id=ok",
        " style=\"visibility:hidden\" class=a class=ads",
    ];
    const TEXTS: &[&str] = &[
        "hello",
        "  \n ",
        "tom &amp; jerry",
        "a  b\tc",
        "12:30",
        "March 2007",
        "last updated",
        "...",
        "caf&eacute; &#x41;",
        "<",
        "&bogus;",
        "x<![CDATA[y]]>z",
    ];
    let mut page = String::new();
    for _ in 0..rng.gen_range(0..60u32) {
        match rng.gen_range(0..10u32) {
            0..=3 => {
                let tag = TAGS[rng.gen_range(0..TAGS.len() as u64) as usize];
                let attrs = ATTRS[rng.gen_range(0..ATTRS.len() as u64) as usize];
                let close = if rng.gen_range(0..8u32) == 0 { "/" } else { "" };
                page.push_str(&format!("<{tag}{attrs}{close}>"));
            }
            4 | 5 => {
                let tag = TAGS[rng.gen_range(0..TAGS.len() as u64) as usize];
                page.push_str(&format!("</{tag}>"));
            }
            6..=8 => page.push_str(TEXTS[rng.gen_range(0..TEXTS.len() as u64) as usize]),
            _ => page.push_str(
                ["<!--c-->", "<!DOCTYPE html>", "</>", "<?x?>", "<!x>", "</span>"]
                    [rng.gen_range(0..6u64) as usize],
            ),
        }
    }
    page
}

#[test]
fn fuzzed_markup_streams_to_the_reference_analysis() {
    let mut rng = StdRng::seed_from_u64(0xf022);
    for _ in 0..3_000 {
        assert_equivalent(&fuzz_page(&mut rng));
    }
}

#[test]
fn deep_nesting_does_not_recurse() {
    // Far deeper than a thread stack could hold frames for.
    let html = "<div>".repeat(200_000) + "deep text";
    let streamed = PageAnalysis::from_html(&html, true);
    assert_eq!(streamed, PageAnalysis::from_document(&parse_document(&html), true));
    assert_eq!(streamed.content().len(), 1);
}

#[test]
fn corpus_documents_serialize_to_the_pinned_digest() {
    let mut digest = Vec::new();
    for page in corpus() {
        digest.extend_from_slice(serialize(&parse_document(&page), NodeId::DOCUMENT).as_bytes());
        digest.push(0);
    }
    assert_eq!(fnv1a64(&digest), PINNED_DOCUMENT_DIGEST, "parse_document output changed");
}

/// `fnv1a64` over every corpus page's serialized `Document`, NUL-separated.
const PINNED_DOCUMENT_DIGEST: u64 = 0x1472_5266_6f28_09a9;
