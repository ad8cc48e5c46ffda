//! Mechanical fixes and CI gates around allow annotations.
//!
//! * [`remove_stale_allows`] rewrites source files to drop
//!   `// kyp-lint: allow(...)` annotations whose rule no longer fires on
//!   the covered lines (previously they were only reported as notes).
//! * [`render_allow_baseline`] / [`check_allow_baseline`] implement the
//!   CI allow-growth gate: the checked-in baseline TSV lists every
//!   justified allow, and a PR that adds annotations without updating the
//!   baseline (i.e. without a reviewed justification diff) fails.

use crate::report::LintOutcome;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// Removes allow annotations that suppressed nothing in `outcome`.
///
/// Only line comments are rewritten (`// kyp-lint: allow(...) — why`);
/// a stale allow living in a block comment is left in place and reported
/// back. Returns a human-readable description of each edit.
///
/// # Errors
///
/// Propagates file read/write failures as strings.
pub fn remove_stale_allows(root: &Path, outcome: &LintOutcome) -> Result<Vec<String>, String> {
    // file -> line -> stale rules on that line.
    let mut stale: BTreeMap<&str, BTreeMap<u32, BTreeSet<&str>>> = BTreeMap::new();
    for a in outcome.allows.iter().filter(|a| !a.used) {
        stale
            .entry(&a.file)
            .or_default()
            .entry(a.line)
            .or_default()
            .insert(&a.rule);
    }
    let mut edits = Vec::new();
    for (file, lines) in stale {
        let abs = root.join(file);
        let src = fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        let mut out_lines: Vec<String> = Vec::new();
        let ends_with_newline = src.ends_with('\n');
        for (idx, line) in src.lines().enumerate() {
            let lineno = u32::try_from(idx + 1).unwrap_or(u32::MAX);
            let Some(rules) = lines.get(&lineno) else {
                out_lines.push(line.to_owned());
                continue;
            };
            match strip_allow(line, rules) {
                StripResult::DropLine => {
                    edits.push(format!("{file}:{lineno}: removed stale allow line"));
                }
                StripResult::Rewritten(new_line) => {
                    edits.push(format!(
                        "{file}:{lineno}: removed stale allow({})",
                        rules.iter().copied().collect::<Vec<_>>().join(", ")
                    ));
                    out_lines.push(new_line);
                }
                StripResult::Unchanged => {
                    edits.push(format!(
                        "{file}:{lineno}: stale allow not in a line comment — left in place"
                    ));
                    out_lines.push(line.to_owned());
                }
            }
        }
        let mut new_src = out_lines.join("\n");
        if ends_with_newline {
            new_src.push('\n');
        }
        if new_src != src {
            fs::write(&abs, new_src).map_err(|e| format!("write {}: {e}", abs.display()))?;
        }
    }
    Ok(edits)
}

#[derive(Debug)]
enum StripResult {
    /// The whole line was the annotation comment.
    DropLine,
    /// The annotation (or part of its rule list) was removed.
    Rewritten(String),
    /// No rewritable line comment found.
    Unchanged,
}

/// Removes `rules` from the allow annotation on `line`.
fn strip_allow(line: &str, rules: &BTreeSet<&str>) -> StripResult {
    // Find the `//` comment that *opens* with the annotation.
    let Some(comment_at) = find_annotation_comment(line) else {
        return StripResult::Unchanged;
    };
    let comment = &line[comment_at..];
    let Some(open_rel) = comment.find("allow(") else {
        return StripResult::Unchanged;
    };
    let open = comment_at + open_rel + "allow(".len();
    let Some(close_rel) = line[open..].find(')') else {
        return StripResult::Unchanged;
    };
    let close = open + close_rel;
    let kept: Vec<&str> = line[open..close]
        .split([',', ' '])
        .filter(|s| !s.is_empty())
        .filter(|id| !rules.contains(id.trim()))
        .collect();
    if kept.is_empty() {
        // Whole annotation goes away.
        let before = line[..comment_at].trim_end();
        if before.is_empty() {
            return StripResult::DropLine;
        }
        return StripResult::Rewritten(before.to_owned());
    }
    let mut s = String::with_capacity(line.len());
    s.push_str(&line[..open]);
    s.push_str(&kept.join(", "));
    s.push_str(&line[close..]);
    StripResult::Rewritten(s)
}

/// Byte index of the `//` whose comment opens with `kyp-lint:`, if any.
fn find_annotation_comment(line: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = line[from..].find("//") {
        let at = from + rel;
        let body = line[at + 2..].trim_start_matches(['/', '!']).trim_start();
        if body.starts_with("kyp-lint:") {
            return Some(at);
        }
        from = at + 2;
    }
    None
}

/// Renders the allow baseline: one `file<TAB>rule<TAB>justification` row
/// per annotation, sorted and deduplicated.
pub fn render_allow_baseline(outcome: &LintOutcome) -> String {
    let mut rows: BTreeSet<String> = BTreeSet::new();
    for a in &outcome.allows {
        rows.insert(format!("{}\t{}\t{}", a.file, a.rule, a.justification));
    }
    let mut s = String::from(
        "# kyp-lint allow baseline — regenerate with `cargo run -p kyp-lint -- --update-allows <path>`.\n\
         # CI fails when a new allow annotation appears without a row here\n\
         # (i.e. without a reviewed justification diff in the PR).\n",
    );
    for r in rows {
        s.push_str(&r);
        s.push('\n');
    }
    s
}

/// Compares the current allows against the checked-in baseline.
///
/// # Errors
///
/// Returns a description of every allow missing from the baseline; allows
/// that disappeared are fine (the baseline is an upper bound, refreshed
/// opportunistically).
pub fn check_allow_baseline(outcome: &LintOutcome, baseline: &str) -> Result<(), String> {
    let known: BTreeSet<&str> = baseline
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut new_rows: Vec<String> = Vec::new();
    for a in &outcome.allows {
        let row = format!("{}\t{}\t{}", a.file, a.rule, a.justification);
        if !known.contains(row.as_str()) && !new_rows.contains(&row) {
            new_rows.push(row);
        }
    }
    if new_rows.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{} allow annotation(s) not in the baseline (add a justified row via \
         `cargo run -p kyp-lint -- --update-allows <path>`):\n{}",
        new_rows.len(),
        new_rows.join("\n")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(ids: &[&'static str]) -> BTreeSet<&'static str> {
        ids.iter().copied().collect()
    }

    #[test]
    fn whole_line_annotation_is_dropped() {
        let r = rules(&["D01"]);
        assert!(matches!(
            strip_allow("    // kyp-lint: allow(D01) — stale reason", &r),
            StripResult::DropLine
        ));
    }

    #[test]
    fn trailing_annotation_is_truncated() {
        let r = rules(&["P01"]);
        match strip_allow("let x = 1; // kyp-lint: allow(P01) — stale", &r) {
            StripResult::Rewritten(s) => assert_eq!(s, "let x = 1;"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_rule_annotation_keeps_live_rules() {
        let r = rules(&["D01"]);
        match strip_allow("// kyp-lint: allow(D01, P01) — shared reason", &r) {
            StripResult::Rewritten(s) => {
                assert_eq!(s, "// kyp-lint: allow(P01) — shared reason");
            }
            _ => panic!("expected rewrite"),
        }
    }

    #[test]
    fn prose_mentioning_the_syntax_is_untouched() {
        let r = rules(&["D01"]);
        assert!(matches!(
            strip_allow("// docs: write kyp-lint: allow(D01) to suppress", &r),
            StripResult::Unchanged
        ));
    }

    #[test]
    fn baseline_roundtrip_and_growth_detection() {
        use crate::analyze::AllowRecord;
        let mut outcome = LintOutcome::default();
        outcome.allows.push(AllowRecord {
            rule: "P01".into(),
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            justification: "checked above".into(),
            used: true,
        });
        let baseline = render_allow_baseline(&outcome);
        assert!(check_allow_baseline(&outcome, &baseline).is_ok());
        outcome.allows.push(AllowRecord {
            rule: "P02".into(),
            file: "crates/x/src/lib.rs".into(),
            line: 9,
            justification: "new".into(),
            used: true,
        });
        let err = check_allow_baseline(&outcome, &baseline).unwrap_err();
        assert!(err.contains("P02"), "{err}");
    }
}
