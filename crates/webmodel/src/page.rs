//! Page model: what a URL serves.

use crate::dom::DomNode;
use crate::script::ScriptBehavior;
use serde::{Deserialize, Serialize};

/// A script reference on a page.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScriptRef {
    /// `<script src="…">` — behaviour resolved through the
    /// [`WebHost`](crate::host::WebHost) at execution time.
    Remote(String),
    /// An inline `<script>…</script>` with its behaviour attached.
    Inline(ScriptBehavior),
}

/// A synthetic web page.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Page {
    /// Canonical URL of the page.
    pub url: String,
    /// Page `<title>`.
    pub title: String,
    /// Same-site links the crawler may follow (the crawl policy visits the
    /// homepage plus up to 15 of these, §3.3).
    pub links: Vec<String>,
    /// Scripts in document order.
    pub scripts: Vec<ScriptRef>,
    /// Static images referenced by the markup.
    pub images: Vec<String>,
    /// iframes (each loads another page).
    pub iframes: Vec<String>,
    /// Optional explicit DOM used for session-replay exfiltration payloads
    /// and the Figure 2 example; pages without one get a DOM synthesized
    /// from the fields above.
    pub dom: Option<DomNode>,
}

impl Page {
    /// Creates an empty page at `url`.
    pub fn new(url: impl Into<String>, title: impl Into<String>) -> Page {
        Page {
            url: url.into(),
            title: title.into(),
            ..Page::default()
        }
    }

    /// Synthesizes a DOM for the page when none was provided: head/title,
    /// script and img elements, anchors for links.
    pub fn dom(&self) -> DomNode {
        if let Some(dom) = &self.dom {
            return dom.clone();
        }
        let mut body_children: Vec<DomNode> = Vec::new();
        for s in &self.scripts {
            match s {
                ScriptRef::Remote(url) => {
                    body_children.push(DomNode::el("script", &[("src", url)], vec![]))
                }
                ScriptRef::Inline(_) => body_children.push(DomNode::el(
                    "script",
                    &[],
                    vec![DomNode::text("/*inline*/")],
                )),
            }
        }
        for img in &self.images {
            body_children.push(DomNode::el("img", &[("src", img)], vec![]));
        }
        for frame in &self.iframes {
            body_children.push(DomNode::el("iframe", &[("src", frame)], vec![]));
        }
        for link in &self.links {
            body_children.push(DomNode::el(
                "a",
                &[("href", link)],
                vec![DomNode::text(&self.title)],
            ));
        }
        DomNode::el(
            "html",
            &[],
            vec![
                DomNode::el(
                    "head",
                    &[],
                    vec![DomNode::el("title", &[], vec![DomNode::text(&self.title)])],
                ),
                DomNode::el("body", &[], body_children),
            ],
        )
    }

    /// Serializes the page's DOM to HTML into `out`, byte-identical to
    /// `self.dom().to_html()` but without materializing the [`DomNode`]
    /// tree — the visit hot path renders every document this way so page
    /// loads stay allocation-free.
    pub fn write_html(&self, out: &mut String) {
        use std::fmt::Write as _;
        if let Some(dom) = &self.dom {
            dom.write_html(out);
            return;
        }
        let _ = write!(
            out,
            "<html><head><title>{}</title></head><body>",
            self.title
        );
        for s in &self.scripts {
            match s {
                ScriptRef::Remote(url) => {
                    let _ = write!(out, "<script src=\"{url}\"></script>");
                }
                ScriptRef::Inline(_) => out.push_str("<script>/*inline*/</script>"),
            }
        }
        for img in &self.images {
            let _ = write!(out, "<img src=\"{img}\"></img>");
        }
        for frame in &self.iframes {
            let _ = write!(out, "<iframe src=\"{frame}\"></iframe>");
        }
        for link in &self.links {
            let _ = write!(out, "<a href=\"{link}\">{}</a>", self.title);
        }
        out.push_str("</body></html>");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{Action, ScriptBehavior};

    #[test]
    fn synthesized_dom_contains_resources() {
        let mut p = Page::new("http://pub.example/", "Pub");
        p.scripts
            .push(ScriptRef::Remote("http://ads.example/s.js".into()));
        p.images.push("http://pub.example/logo.png".into());
        p.iframes.push("http://embed.example/f".into());
        p.links.push("http://pub.example/about".into());
        let dom = p.dom();
        let resources = dom.resource_attributes();
        let urls: Vec<&str> = resources.iter().map(|(_, u)| u.as_str()).collect();
        assert!(urls.contains(&"http://ads.example/s.js"));
        assert!(urls.contains(&"http://pub.example/logo.png"));
        assert!(urls.contains(&"http://embed.example/f"));
        assert!(urls.contains(&"http://pub.example/about"));
    }

    #[test]
    fn write_html_matches_materialized_dom() {
        // The hot path renders documents without building DomNodes; pin it
        // byte-for-byte against the materializing reference.
        let mut p = Page::new("http://pub.example/", "Pub — News");
        p.scripts
            .push(ScriptRef::Remote("http://ads.example/s.js".into()));
        p.scripts.push(ScriptRef::Inline(ScriptBehavior::inert()));
        p.images.push("http://pub.example/logo.png".into());
        p.iframes.push("http://embed.example/f".into());
        p.links.push("http://pub.example/about".into());
        p.links.push("http://pub.example/page2.html".into());
        let mut streamed = String::new();
        p.write_html(&mut streamed);
        assert_eq!(streamed, p.dom().to_html());

        // An explicit DOM takes the same path in both forms.
        let mut with_dom = Page::new("http://pub.example/", "Pub");
        with_dom.dom = Some(DomNode::el("div", &[("id", "x")], vec![]));
        let mut streamed = String::new();
        with_dom.write_html(&mut streamed);
        assert_eq!(streamed, with_dom.dom().to_html());

        // And the empty page.
        let empty = Page::new("http://pub.example/", "");
        let mut streamed = String::new();
        empty.write_html(&mut streamed);
        assert_eq!(streamed, empty.dom().to_html());
    }

    #[test]
    fn explicit_dom_wins() {
        let mut p = Page::new("http://pub.example/", "Pub");
        p.dom = Some(DomNode::text("custom"));
        assert_eq!(p.dom(), DomNode::text("custom"));
    }

    #[test]
    fn inline_scripts_carry_behaviour() {
        let mut p = Page::new("http://pub.example/", "Pub");
        p.scripts
            .push(ScriptRef::Inline(ScriptBehavior::inert().then(
                Action::OpenWebSocket {
                    url: "ws://chat.example/s".into(),
                    exchanges: vec![],
                },
            )));
        match &p.scripts[0] {
            ScriptRef::Inline(b) => assert_eq!(b.actions.len(), 1),
            _ => panic!("expected inline"),
        }
    }
}
