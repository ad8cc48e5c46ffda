//! Feature set f5: 5 webpage-content features (Section IV-B).
//!
//! Phishing pages tend to carry minimal text (to evade text-based
//! detection), more images and iframes (content lifted from the target)
//! and several input fields (they exist to harvest credentials).

use crate::{DataSources, Source};
use kyp_web::VisitedPage;

pub(crate) fn push_f5(page: &VisitedPage, sources: &DataSources, out: &mut Vec<f64>) {
    out.push(f64::from(sources.total(Source::Text)));
    out.push(f64::from(sources.total(Source::Title)));
    out.push(page.input_count as f64);
    out.push(page.image_count as f64);
    out.push(page.iframe_count as f64);
}

pub(crate) fn push_names(names: &mut Vec<String>) {
    for n in [
        "f5.text_terms",
        "f5.title_terms",
        "f5.input_fields",
        "f5.images",
        "f5.iframes",
    ] {
        names.push(n.to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::test_pages::phish;

    #[test]
    fn counts_from_page() {
        let p = phish();
        let sources = DataSources::from_page(&p);
        let mut out = Vec::new();
        push_f5(&p, &sources, &mut out);
        assert_eq!(out.len(), 5);
        // "log in to your paypal account enter your password"
        // → terms of len ≥ 3: log, your, paypal, account, enter, your, password = 7
        assert_eq!(out[0], 7.0);
        // "PayPal Secure Login" → 3 terms.
        assert_eq!(out[1], 3.0);
        assert_eq!(out[2], 3.0);
        assert_eq!(out[3], 4.0);
        assert_eq!(out[4], 1.0);
    }

    #[test]
    fn empty_page_is_zero() {
        let mut p = phish();
        p.text.clear();
        p.title.clear();
        p.input_count = 0;
        p.image_count = 0;
        p.iframe_count = 0;
        let sources = DataSources::from_page(&p);
        let mut out = Vec::new();
        push_f5(&p, &sources, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }
}
