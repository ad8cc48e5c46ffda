//! A small HTML page builder used by the synthetic-web generators.
//!
//! Keeps the generated markup realistic (head/body structure, forms,
//! embedded resources) and guarantees it round-trips through
//! [`Document::parse`](crate::Document::parse).

use std::fmt::Write as _;

/// Builds an HTML page incrementally.
///
/// # Examples
///
/// ```
/// use kyp_html::{Document, PageBuilder};
///
/// let html = PageBuilder::new()
///     .title("Example Bank")
///     .heading("Welcome")
///     .paragraph("Access your account.")
///     .link("/login", "Sign in")
///     .image("/logo.png")
///     .copyright("© 2015 Example Bank Inc.")
///     .build();
/// let doc = Document::parse(&html);
/// assert_eq!(doc.title, "Example Bank");
/// assert_eq!(doc.image_count, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageBuilder {
    title: String,
    head_resources: Vec<String>,
    body: String,
}

impl PageBuilder {
    /// Creates an empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the `<title>`.
    pub fn title(mut self, title: &str) -> Self {
        self.title = escape(title);
        self
    }

    /// Adds a stylesheet `<link>` in the head.
    pub fn stylesheet(mut self, href: &str) -> Self {
        self.head_resources.push(format!(
            r#"<link rel="stylesheet" href="{}">"#,
            escape(href)
        ));
        self
    }

    /// Adds a `<script src>` in the head.
    pub fn script(mut self, src: &str) -> Self {
        self.head_resources
            .push(format!(r#"<script src="{}"></script>"#, escape(src)));
        self
    }

    /// Adds an `<h1>` heading.
    pub fn heading(mut self, text: &str) -> Self {
        let _ = writeln!(self.body, "<h1>{}</h1>", escape(text));
        self
    }

    /// Adds a paragraph of text.
    pub fn paragraph(mut self, text: &str) -> Self {
        let _ = writeln!(self.body, "<p>{}</p>", escape(text));
        self
    }

    /// Adds an anchor.
    pub fn link(mut self, href: &str, anchor: &str) -> Self {
        let _ = writeln!(
            self.body,
            r#"<a href="{}">{}</a>"#,
            escape(href),
            escape(anchor)
        );
        self
    }

    /// Adds an image.
    pub fn image(mut self, src: &str) -> Self {
        let _ = writeln!(self.body, r#"<img src="{}">"#, escape(src));
        self
    }

    /// Adds an iframe.
    pub fn iframe(mut self, src: &str) -> Self {
        let _ = writeln!(self.body, r#"<iframe src="{}"></iframe>"#, escape(src));
        self
    }

    /// Adds a form with the given named input fields.
    pub fn form(mut self, action: &str, fields: &[&str]) -> Self {
        let _ = write!(
            self.body,
            r#"<form action="{}" method="post">"#,
            escape(action)
        );
        for f in fields {
            let kind = if f.contains("pass") || f.contains("pin") {
                "password"
            } else {
                "text"
            };
            let _ = write!(self.body, r#"<input type="{kind}" name="{}">"#, escape(f));
        }
        let _ = writeln!(self.body, r#"<input type="submit" value="OK"></form>"#);
        self
    }

    /// Adds a footer copyright notice.
    pub fn copyright(mut self, notice: &str) -> Self {
        let _ = writeln!(self.body, "<footer>{}</footer>", escape(notice));
        self
    }

    /// Assembles the final HTML document.
    pub fn build(&self) -> String {
        let mut out = String::with_capacity(self.body.len() + 256);
        out.push_str("<!DOCTYPE html>\n<html><head>\n");
        let _ = writeln!(out, "<title>{}</title>", self.title);
        for r in &self.head_resources {
            out.push_str(r);
            out.push('\n');
        }
        out.push_str("</head>\n<body>\n");
        out.push_str(&self.body);
        out.push_str("</body></html>\n");
        out
    }
}

/// Escapes text for safe inclusion in HTML content or attribute values.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Document;

    #[test]
    fn roundtrip_through_parser() {
        let html = PageBuilder::new()
            .title("My Bank & Co")
            .stylesheet("/css/a.css")
            .script("https://cdn.x.com/a.js")
            .heading("Welcome")
            .paragraph("Hello there, customer.")
            .link("https://my-bank.com/login", "Sign in")
            .image("/logo.png")
            .iframe("https://ads.net/f")
            .form("/submit", &["user", "password"])
            .copyright("© 2015 My Bank")
            .build();
        let doc = Document::parse(&html);
        assert_eq!(doc.title, "My Bank & Co");
        assert_eq!(doc.href_links, ["https://my-bank.com/login"]);
        assert_eq!(doc.image_count, 1);
        assert_eq!(doc.iframe_count, 1);
        assert_eq!(doc.input_count, 2); // submit button is not a data field
        assert!(doc.text.contains("Hello there"));
        assert!(doc.copyright.as_deref().unwrap().contains("My Bank"));
        assert_eq!(
            doc.resource_links,
            [
                "/css/a.css",
                "https://cdn.x.com/a.js",
                "/logo.png",
                "https://ads.net/f"
            ]
        );
    }

    #[test]
    fn escaping_prevents_injection() {
        let html = PageBuilder::new()
            .title("<script>alert(1)</script>")
            .paragraph("a < b & c")
            .build();
        let doc = Document::parse(&html);
        assert_eq!(doc.title, "<script>alert(1)</script>");
        assert!(doc.text.contains("a < b & c"));
        assert!(doc.resource_links.is_empty());
    }

    #[test]
    fn empty_builder_is_valid_page() {
        let doc = Document::parse(&PageBuilder::new().build());
        assert_eq!(doc.title, "");
        assert_eq!(doc.text, "");
    }
}
