#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! A one-pass HTML parser and data-source extractor for the *Know Your
//! Phish* reproduction.
//!
//! The paper's scraper (Section II-C) extracts four elements from a page's
//! HTML source:
//!
//! - **Text** — what is rendered between `<body>` tags,
//! - **Title** — the content of `<title>`,
//! - **HREF links** — outgoing `<a href>` targets,
//! - **Copyright** — the copyright notice inside the text, if any,
//!
//! plus counts of input fields, images and iframes (feature set *f5*) and
//! the URLs of embedded resources (scripts, stylesheets, images, iframes)
//! that a browser would request while loading the page — the raw material
//! of the *logged links* data source.
//!
//! [`Document::parse`] reads the page once and fills the [`Document`] as
//! it goes: there is no token stream and no recursion, and its work is
//! linear in the page's length, hostile pages included.
//!
//! # Examples
//!
//! ```
//! use kyp_html::Document;
//!
//! let doc = Document::parse(r#"
//!   <html><head><title>Example Bank</title></head>
//!   <body><h1>Welcome</h1>
//!     <a href="https://example.com/login">Sign in</a>
//!     <img src="/logo.png">
//!     <p>&copy; 2015 Example Bank Inc.</p>
//!   </body></html>"#);
//! assert_eq!(doc.title, "Example Bank");
//! assert_eq!(doc.href_links, ["https://example.com/login"]);
//! assert_eq!(doc.resource_links, ["/logo.png"]);
//! assert!(doc.copyright.as_deref().unwrap().contains("Example Bank"));
//! assert_eq!(doc.image_count, 1);
//! ```

mod builder;
mod document;
mod entity;
mod tokenizer;

pub use builder::PageBuilder;
pub use document::Document;
pub use entity::decode_entities;
