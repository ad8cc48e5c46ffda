//! The determinism & invariant rule table.
//!
//! Every rule has a stable ID (referenced by `// kyp-lint: allow(<id>)`
//! annotations), a severity, and a crate scope. The scope encodes the
//! architectural contract of DESIGN.md §8e: all output-affecting crates
//! must be order-deterministic (D01), wall clocks live only in `bench`
//! (D02), raw threads only in `exec` (D03), entropy-seeded randomness
//! nowhere (D04), `unsafe` only in `exec` (D05), and the hot library
//! paths — `core`/`serve`/`obs`/`cluster`/`store` plus the `ml`/`html`
//! inference and parsing kernels — must not panic on `Option`/`Result`
//! (P01).

/// How bad a finding is. Every shipped rule is an error today; the
/// severity channel exists so future advisory rules can ride the same
/// report without failing CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint run.
    Error,
    /// Reported but does not affect the exit code.
    Warning,
}

impl Severity {
    /// Lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Which crates a rule applies to, keyed by the crate's directory name
/// under `crates/` (the root package is `"root"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Applies everywhere.
    All,
    /// Applies only to the listed crates.
    Only(&'static [&'static str]),
    /// Applies everywhere except the listed crates.
    Except(&'static [&'static str]),
}

impl Scope {
    /// Does the rule apply to `crate_name`?
    pub fn applies_to(self, crate_name: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Only(list) => list.contains(&crate_name),
            Scope::Except(list) => !list.contains(&crate_name),
        }
    }
}

/// One static-analysis rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier (`D01`...), referenced by allow annotations.
    pub id: &'static str,
    /// Severity of a violation.
    pub severity: Severity,
    /// Crates the rule applies to.
    pub scope: Scope,
    /// One-line statement of the invariant.
    pub summary: &'static str,
}

/// Crates whose output feeds feature vectors, model training, verdicts or
/// reports — iteration order there must be deterministic. `lint` is in
/// the list because its own report (`results/lint.json`) is a byte-stable
/// artifact: the analyzer must not iterate hash maps either.
pub const OUTPUT_AFFECTING: &[&str] = &[
    "core",
    "ml",
    "text",
    "html",
    "url",
    "web",
    "search",
    "serve",
    "datagen",
    "baselines",
    "obs",
    "cluster",
    "store",
    "lint",
];

/// Crates whose library code must not panic: the serving path (`core`/
/// `serve`/`obs`/`cluster`), the hot kernels (`ml`/`html`) and the
/// persistent store. Shared by P01 (explicit `unwrap`/`expect`) and P02
/// (implicit panic sites).
pub const PANIC_FREE: &[&str] = &["core", "serve", "obs", "cluster", "ml", "html", "store"];

/// The full rule table, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D01",
        severity: Severity::Error,
        scope: Scope::Only(OUTPUT_AFFECTING),
        summary: "no HashMap/HashSet iteration (.iter/.keys/.values/.drain/.into_iter/for-in) \
                  in output-affecting crates; keyed lookup stays legal",
    },
    Rule {
        id: "D02",
        severity: Severity::Error,
        scope: Scope::Except(&["bench"]),
        summary: "no Instant::now/SystemTime outside crates/bench — virtual clocks only",
    },
    Rule {
        id: "D03",
        severity: Severity::Error,
        scope: Scope::Except(&["exec"]),
        summary:
            "no std::thread::spawn/scope outside crates/exec — parallelism goes through kyp-exec",
    },
    Rule {
        id: "D04",
        severity: Severity::Error,
        scope: Scope::All,
        summary:
            "no entropy-seeded RNG (thread_rng/from_entropy/OsRng) anywhere — seeds are explicit",
    },
    Rule {
        id: "D05",
        severity: Severity::Error,
        scope: Scope::Except(&["exec"]),
        summary:
            "no unsafe outside crates/exec (enforced twice: here and by #![forbid(unsafe_code)])",
    },
    Rule {
        id: "P01",
        severity: Severity::Error,
        scope: Scope::Only(PANIC_FREE),
        summary: "no unwrap()/expect() in non-test library code of \
                  core/serve/obs/cluster/ml/html/store",
    },
    Rule {
        id: "P02",
        severity: Severity::Error,
        scope: Scope::Only(PANIC_FREE),
        summary: "no implicit panic site (indexing, split_at, integer /-%, panic!/assert!) \
                  reachable from a registered public entry point; findings carry the \
                  shortest call path",
    },
    Rule {
        id: "H01",
        severity: Severity::Error,
        scope: Scope::All,
        summary: "no allocating call (format!/vec!/to_string/to_owned/to_vec/\
                  String::/Vec::/Box:: constructors, clone of owned buffers, collect into \
                  a named owned container) in a registered hot function or its callees to \
                  depth 2, outside setup and cold error paths",
    },
    Rule {
        id: "D06",
        severity: Severity::Warning,
        scope: Scope::Only(OUTPUT_AFFECTING),
        summary: "order-sensitive f64 accumulation (sum::<f64>/float fold/`+=` in loops) \
                  belongs in a canonical reduction helper",
    },
    Rule {
        id: "A00",
        severity: Severity::Error,
        scope: Scope::All,
        summary: "every kyp-lint allow annotation must carry a justification",
    },
];

/// Looks a rule up by ID.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_resolvable() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(RULES.iter().skip(i + 1).all(|o| o.id != r.id), "{}", r.id);
            assert_eq!(rule_by_id(r.id).map(|x| x.id), Some(r.id));
        }
        assert!(rule_by_id("D99").is_none());
    }

    #[test]
    fn scopes_resolve() {
        assert!(rule_by_id("D01").unwrap().scope.applies_to("core"));
        assert!(!rule_by_id("D01").unwrap().scope.applies_to("exec"));
        assert!(!rule_by_id("D02").unwrap().scope.applies_to("bench"));
        assert!(rule_by_id("D04").unwrap().scope.applies_to("lint"));
        assert!(!rule_by_id("P01").unwrap().scope.applies_to("text"));
        // The hot-path kernels (flat model, HTML parser) are in scope.
        assert!(rule_by_id("P01").unwrap().scope.applies_to("ml"));
        assert!(rule_by_id("P01").unwrap().scope.applies_to("html"));
        // The persistent store feeds training and verdicts: its decode
        // order is output-affecting, its I/O must not panic or read
        // wall clocks.
        assert!(rule_by_id("D01").unwrap().scope.applies_to("store"));
        assert!(rule_by_id("P01").unwrap().scope.applies_to("store"));
        assert!(rule_by_id("D02").unwrap().scope.applies_to("store"));
    }
}
