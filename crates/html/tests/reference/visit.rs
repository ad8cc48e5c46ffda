//! The browser visit `kyp_web` shipped before the redirect walk was split
//! from source collection: one function that follows redirects, parses
//! the landing page with the reference parser, copies the document's
//! strings into the [`VisitedPage`] and resolves each link with its own
//! `format!`. An href counts as absolute when it contains `://` anywhere,
//! the rule before schemes had to start the href; no href of the
//! generated corpora has a `://` anywhere else, so on them both rules
//! agree.

use kyp_url::Url;
use kyp_web::{
    Fetch, SourceAvailability, VisitError, VisitFailure, VisitOutcome, VisitedPage, World,
};

const MAX_REDIRECTS: usize = 10;

/// The strict visit: a truncated landing page is an error.
pub fn visit<W: World>(world: &W, starting_url: &str) -> Result<VisitedPage, VisitError> {
    let outcome = try_visit(world, starting_url).map_err(|f| f.error)?;
    if !outcome.availability.html {
        return Err(VisitError::Truncated(outcome.visit.landing_url.to_string()));
    }
    Ok(outcome.visit)
}

/// The lenient visit: a truncated landing page is a degraded outcome.
pub fn try_visit<W: World>(world: &W, starting_url: &str) -> Result<VisitOutcome, VisitFailure> {
    let mut cost_ms = 0u64;
    let fail = |error, cost_ms| Err(VisitFailure { error, cost_ms });
    let start = match Url::parse(starting_url) {
        Ok(u) => u,
        Err(e) => return fail(VisitError::BadUrl(e), 0),
    };
    let mut chain = vec![start.clone()];
    let mut current = start.clone();
    for _ in 0..=MAX_REDIRECTS {
        let result = world.fetch(&current);
        cost_ms += result.cost_ms;
        let fetched = match result.outcome {
            Fetch::Redirect(target) => {
                let Some(next) = resolve_href(&current, &target) else {
                    return fail(VisitError::NotFound(target), cost_ms);
                };
                chain.push(next.clone());
                current = next;
                continue;
            }
            Fetch::NotFound => return fail(VisitError::NotFound(current.to_string()), cost_ms),
            Fetch::Transient => return fail(VisitError::Transient(current.to_string()), cost_ms),
            Fetch::TimedOut => return fail(VisitError::Timeout(current.to_string()), cost_ms),
            Fetch::Page(fetched) => fetched,
        };

        let page = &fetched.page;
        let doc = super::parse(&page.html);
        let landing = current.clone();
        let logged_links = doc
            .resource_links
            .iter()
            .filter_map(|href| resolve_href(&landing, href))
            .collect();
        let href_links = doc
            .href_links
            .iter()
            .filter_map(|href| resolve_href(&landing, href))
            .collect();
        let screenshot_text = if fetched.screenshot_missing {
            String::new()
        } else {
            page.rendered_text
                .clone()
                .unwrap_or_else(|| doc.text.clone())
        };
        let visit = VisitedPage {
            starting_url: start,
            landing_url: landing,
            redirection_chain: chain,
            logged_links,
            href_links,
            text: doc.text.clone(),
            title: doc.title.clone(),
            copyright: doc.copyright.clone(),
            screenshot_text,
            input_count: doc.input_count,
            image_count: doc.image_count,
            iframe_count: doc.iframe_count,
        };
        return Ok(VisitOutcome {
            visit,
            availability: SourceAvailability {
                html: !fetched.truncated,
                links: !fetched.truncated,
                screenshot: !fetched.screenshot_missing,
            },
            cost_ms,
        });
    }
    fail(VisitError::TooManyRedirects, cost_ms)
}

fn resolve_href(base: &Url, href: &str) -> Option<Url> {
    let href = href.trim();
    if href.is_empty() || href.starts_with('#') {
        return None;
    }
    if href.contains("://") {
        return Url::parse(href).ok();
    }
    let host = base.host_str();
    let scheme = base.scheme();
    if let Some(rest) = href.strip_prefix("//") {
        return Url::parse(&format!("{scheme}://{rest}")).ok();
    }
    if let Some(path) = href.strip_prefix('/') {
        return Url::parse(&format!("{scheme}://{host}/{path}")).ok();
    }
    let base_path = base.path();
    let dir = match base_path.rfind('/') {
        Some(i) => &base_path[..=i],
        None => "",
    };
    Url::parse(&format!("{scheme}://{host}/{dir}{href}")).ok()
}
