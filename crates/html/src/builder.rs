//! A small HTML page builder used by the synthetic-web generators.
//!
//! Keeps the generated markup realistic (head/body structure, forms,
//! embedded resources) and guarantees it round-trips through
//! [`Document::parse`](crate::Document::parse). Each element is escaped
//! straight into the buffer it belongs to.

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
    /// The escaped title text.
    title: String,
    /// The head's resource tags, one per line.
    head: String,
    /// The body's elements, one per line.
    body: String,
}

impl PageBuilder {
    /// Creates an empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the `<title>`.
    pub fn title(mut self, title: &str) -> Self {
        self.title.clear();
        escape_into(&mut self.title, title);
        self
    }

    /// Adds a stylesheet `<link>` in the head.
    pub fn stylesheet(mut self, href: &str) -> Self {
        element(
            &mut self.head,
            r#"<link rel="stylesheet" href=""#,
            href,
            "\">\n",
        );
        self
    }

    /// Adds a `<script src>` in the head.
    pub fn script(mut self, src: &str) -> Self {
        element(&mut self.head, r#"<script src=""#, src, "\"></script>\n");
        self
    }

    /// Adds an `<h1>` heading.
    pub fn heading(mut self, text: &str) -> Self {
        element(&mut self.body, "<h1>", text, "</h1>\n");
        self
    }

    /// Adds a paragraph of text.
    pub fn paragraph(mut self, text: &str) -> Self {
        element(&mut self.body, "<p>", text, "</p>\n");
        self
    }

    /// Adds an anchor.
    pub fn link(mut self, href: &str, anchor: &str) -> Self {
        element(&mut self.body, r#"<a href=""#, href, "\">");
        element(&mut self.body, "", anchor, "</a>\n");
        self
    }

    /// Adds an image.
    pub fn image(mut self, src: &str) -> Self {
        element(&mut self.body, r#"<img src=""#, src, "\">\n");
        self
    }

    /// Adds an iframe.
    pub fn iframe(mut self, src: &str) -> Self {
        element(&mut self.body, r#"<iframe src=""#, src, "\"></iframe>\n");
        self
    }

    /// Adds a form with the given named input fields.
    pub fn form(mut self, action: &str, fields: &[&str]) -> Self {
        element(
            &mut self.body,
            r#"<form action=""#,
            action,
            r#"" method="post">"#,
        );
        for f in fields {
            let open = if f.contains("pass") || f.contains("pin") {
                r#"<input type="password" name=""#
            } else {
                r#"<input type="text" name=""#
            };
            element(&mut self.body, open, f, "\">");
        }
        self.body
            .push_str("<input type=\"submit\" value=\"OK\"></form>\n");
        self
    }

    /// Adds a footer copyright notice.
    pub fn copyright(mut self, notice: &str) -> Self {
        element(&mut self.body, "<footer>", notice, "</footer>\n");
        self
    }

    /// Assembles the final HTML document.
    pub fn build(&self) -> String {
        let mut out =
            String::with_capacity(self.title.len() + self.head.len() + self.body.len() + 80);
        out.push_str("<!DOCTYPE html>\n<html><head>\n<title>");
        out.push_str(&self.title);
        out.push_str("</title>\n");
        out.push_str(&self.head);
        out.push_str("</head>\n<body>\n");
        out.push_str(&self.body);
        out.push_str("</body></html>\n");
        out
    }
}

/// Appends `open`, then `text` escaped, then `close`.
fn element(out: &mut String, open: &str, text: &str, close: &str) {
    out.push_str(open);
    escape_into(out, text);
    out.push_str(close);
}

/// Appends `s` escaped for safe inclusion in HTML content or attribute
/// values. The escaped characters are ASCII, so a byte scan finds exactly
/// them, and the runs between them are copied whole.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let entity = match byte {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
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
