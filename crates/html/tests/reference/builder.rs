//! The page builder `kyp_html` shipped before it escaped in place: each
//! element is formatted through `write!` of a freshly escaped `String`,
//! head resources are kept one `String` each, and escaping pushes one
//! char at a time. Kept unchanged; the builder equivalence properties
//! compare every built page against it.

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
