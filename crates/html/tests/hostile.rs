//! Hostile markup must parse in time linear in its size: a page is
//! parsed on the server's event loop, so a request body that makes the
//! parser quadratic stalls every connection the loop serves.

use std::time::{Duration, Instant};

use cp_html::{parse_document, NodeId};

/// Generous against the linear parse (milliseconds); far below the tens of
/// seconds the quadratic parser took on the same inputs.
const BOUND: Duration = Duration::from_secs(10);

fn timed<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    let took = started.elapsed();
    assert!(took < BOUND, "{what} took {took:?}");
    out
}

#[test]
fn a_mebibyte_of_ampersands() {
    let input = "&".repeat(1 << 20);
    let doc = timed("1 MiB of '&'", || parse_document(&input));
    assert_eq!(doc.text_content(doc.body().unwrap()), input);
}

#[test]
fn fifty_thousand_nested_divs() {
    let input = "<div>".repeat(50_000) + "<p>x" + &"</span><li>".repeat(50_000);
    let doc = timed("50,000 nested <div>s", || parse_document(&input));
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "div").len(), 50_000);
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "li").len(), 50_000);
}

#[test]
fn one_tag_with_a_hundred_thousand_attributes() {
    let input =
        format!("<p {}>", (0..100_000).map(|i| format!("a{i}")).collect::<Vec<_>>().join(" "));
    let doc = timed("100,000 attributes", || parse_document(&input));
    let p = doc.find_element(NodeId::DOCUMENT, "p").unwrap();
    assert_eq!(doc.attr(p, "a99999"), Some(""));
}
