//! The fixture corpus: every rule has a failing fixture the analyzer must
//! flag and a passing fixture it must leave alone — plus the live
//! workspace itself, which must lint clean with zero unexplained allows.

use kyp_lint::{analyze_source, lint_file, run_lint, FileAnalysis, LintOutcome, Severity};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Analyzes a fixture as library code of the `core` crate (whose scope
/// enables every rule).
fn analyze_fixture(name: &str) -> FileAnalysis {
    let path = fixture_dir().join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    analyze_source("core", name, &src, None)
}

/// Analyzes a fixture through the full pipeline (`lint_file`), which runs
/// the call-graph rules (P02/H01/D06) on top of the per-file pass. The
/// crate name matters: it selects rule scopes and registry entries.
fn graph_fixture(krate: &str, name: &str) -> LintOutcome {
    let path = fixture_dir().join(name);
    lint_file(&path, krate, None).unwrap_or_else(|e| panic!("lint fixture {}: {e}", path.display()))
}

fn rules_hit(analysis: &FileAnalysis) -> BTreeSet<&str> {
    analysis
        .violations
        .iter()
        .map(|v| v.rule.as_str())
        .collect()
}

fn outcome_rules(outcome: &LintOutcome) -> BTreeSet<&str> {
    outcome.violations.iter().map(|v| v.rule.as_str()).collect()
}

/// Every failing fixture must raise its rule (and only its rule); every
/// passing fixture must be spotless.
#[test]
fn each_rule_has_a_failing_and_a_passing_fixture() {
    for rule in ["D01", "D02", "D03", "D04", "D05", "P01", "A00"] {
        let lower = rule.to_lowercase();
        let bad = analyze_fixture(&format!("{lower}_fail.rs"));
        assert!(
            !bad.violations.is_empty(),
            "{rule}: failing fixture raised nothing"
        );
        assert_eq!(
            rules_hit(&bad),
            BTreeSet::from([rule]),
            "{rule}: failing fixture raised unexpected rules"
        );
        let good = analyze_fixture(&format!("{lower}_pass.rs"));
        assert!(
            good.violations.is_empty(),
            "{rule}: passing fixture raised {:?}",
            good.violations
        );
    }
}

/// The call-graph rules get the same treatment, through the pipeline
/// that actually builds the graph. The crate name picks the registry
/// rows each fixture is written against.
#[test]
fn each_graph_rule_has_a_failing_and_a_passing_fixture() {
    for (rule, krate) in [("P02", "core"), ("H01", "ml"), ("D06", "core")] {
        let lower = rule.to_lowercase();
        let bad = graph_fixture(krate, &format!("{lower}_fail.rs"));
        assert!(
            !bad.violations.is_empty(),
            "{rule}: failing fixture raised nothing"
        );
        assert_eq!(
            outcome_rules(&bad),
            BTreeSet::from([rule]),
            "{rule}: failing fixture raised unexpected rules: {:?}",
            bad.violations
        );
        let good = graph_fixture(krate, &format!("{lower}_pass.rs"));
        assert!(
            good.violations.is_empty(),
            "{rule}: passing fixture raised {:?}",
            good.violations
        );
    }
}

/// H01 sees allocation through `.collect()` when the `let` type or the
/// turbofish names an owned container, and only then.
#[test]
fn h01_flags_collect_into_owned_containers() {
    let bad = graph_fixture("ml", "h01_collect_fail.rs");
    let messages: Vec<&str> = bad.violations.iter().map(|v| v.message.as_str()).collect();
    assert_eq!(outcome_rules(&bad), BTreeSet::from(["H01"]), "{messages:?}");
    assert_eq!(messages.len(), 2, "{messages:?}");
    assert!(messages[0].contains(".collect() into Vec"), "{messages:?}");
    assert!(
        messages[1].contains(".collect() into String"),
        "{messages:?}"
    );
    let good = graph_fixture("ml", "h01_collect_pass.rs");
    assert!(
        good.violations.is_empty(),
        "passing fixture raised {:?}",
        good.violations
    );
}

/// Every P02 finding must say *how* the panic site is reached: a
/// non-empty call path rooted at a registered entry point.
#[test]
fn p02_findings_carry_call_path_attribution() {
    let bad = graph_fixture("core", "p02_fail.rs");
    let p02: Vec<_> = bad.violations.iter().filter(|v| v.rule == "P02").collect();
    assert!(!p02.is_empty());
    for v in p02 {
        assert!(
            !v.call_path.is_empty(),
            "P02 finding without a call path: {v:?}"
        );
        assert!(
            v.call_path[0].contains("classify_bundle"),
            "path must start at the entry point: {:?}",
            v.call_path
        );
        assert!(
            v.message.contains("reachable from"),
            "message must name the entry: {}",
            v.message
        );
    }
}

/// D06 is advisory: findings are warnings, so the outcome is clean under
/// the default exit policy but dirty under `--deny-warnings` semantics.
#[test]
fn d06_is_a_warning_not_an_error() {
    let bad = graph_fixture("core", "d06_fail.rs");
    assert!(!bad.violations.is_empty());
    assert!(bad
        .violations
        .iter()
        .all(|v| v.severity == Severity::Warning));
    assert!(bad.is_clean(), "warnings must not fail the default gate");
    assert!(!bad.is_warning_clean(), "deny-warnings gate must trip");
}

/// Rule-trigger text buried in raw strings, byte strings, nested block
/// comments and char literals must never reach rule matching — and the
/// lexer must stay line-synchronized across all of it, so a genuine
/// violation *after* the gnarly literals is still caught on its exact
/// line.
#[test]
fn lexer_edge_cases_do_not_leak_into_rules() {
    let good = graph_fixture("core", "lexer_edge_pass.rs");
    assert!(
        good.violations.is_empty(),
        "literal/comment contents leaked into rule matching: {:?}",
        good.violations
    );
    let bad = graph_fixture("core", "lexer_edge_fail.rs");
    assert_eq!(
        outcome_rules(&bad),
        BTreeSet::from(["P01"]),
        "{:?}",
        bad.violations
    );
    assert_eq!(
        bad.violations[0].line, 11,
        "lexer lost line sync across edge-case literals: {:?}",
        bad.violations
    );
}

#[test]
fn d01_fixture_flags_both_iteration_forms() {
    let bad = analyze_fixture("d01_fail.rs");
    assert_eq!(bad.violations.len(), 2, "{:?}", bad.violations);
    assert!(bad.violations[0].message.contains("values"));
    assert!(bad.violations[1].message.contains("for"));
}

#[test]
fn justified_allow_is_counted_and_marked_used() {
    let good = analyze_fixture("a00_pass.rs");
    assert_eq!(good.allows.len(), 1);
    let allow = &good.allows[0];
    assert_eq!(allow.rule, "D01");
    assert!(allow.used, "allow did not suppress the finding");
    assert!(allow.justification.contains("commutative"));
}

/// Store I/O is analyzed under the `store` crate's scope: block writers
/// must not read wall clocks (D02) — store bytes are a pure function of
/// the corpus — and the clock-free framing passes every store-scoped
/// rule (including P01, since `store` is on the no-panic list).
#[test]
fn store_io_fixtures_catch_wall_clock_stamps() {
    let dir = fixture_dir();
    let bad_src = std::fs::read_to_string(dir.join("d02_store_io_fail.rs")).unwrap();
    let bad = analyze_source("store", "d02_store_io_fail.rs", &bad_src, None);
    assert_eq!(
        rules_hit(&bad),
        BTreeSet::from(["D02"]),
        "store I/O fixture must raise exactly D02: {:?}",
        bad.violations
    );
    let good_src = std::fs::read_to_string(dir.join("d02_store_io_pass.rs")).unwrap();
    let good = analyze_source("store", "d02_store_io_pass.rs", &good_src, None);
    assert!(
        good.violations.is_empty(),
        "clock-free framing raised {:?}",
        good.violations
    );
}

#[test]
fn rules_outside_their_scope_stay_silent() {
    // The same sources analyzed as crate `bench` (D02-exempt) and `exec`
    // (D03/D05-exempt) must not fire.
    let dir = fixture_dir();
    let d02 = std::fs::read_to_string(dir.join("d02_fail.rs")).unwrap();
    assert!(analyze_source("bench", "d02_fail.rs", &d02, None)
        .violations
        .is_empty());
    let d03 = std::fs::read_to_string(dir.join("d03_fail.rs")).unwrap();
    assert!(analyze_source("exec", "d03_fail.rs", &d03, None)
        .violations
        .is_empty());
    let d05 = std::fs::read_to_string(dir.join("d05_fail.rs")).unwrap();
    assert!(analyze_source("exec", "d05_fail.rs", &d05, None)
        .violations
        .is_empty());
}

#[test]
fn rule_filter_restricts_findings() {
    let dir = fixture_dir();
    let filter: BTreeSet<String> = ["D02".to_owned()].into();
    let outcome = lint_file(&dir.join("d03_fail.rs"), "core", Some(&filter)).unwrap();
    assert!(outcome.is_clean(), "D02-only filter must ignore D03");
    let outcome = lint_file(&dir.join("d02_fail.rs"), "core", Some(&filter)).unwrap();
    assert!(!outcome.is_clean());
}

/// The classification seam stays collapsed: `classify_bundle` is the one
/// canonical entry point, and every other `classify*` name is a blessed
/// thin wrapper or batch entry point. Do NOT add a new `classify_*`
/// variant — thread a [`kyp_obs::PipelineObserver`] or a
/// `SourceAvailability` through `classify_bundle` instead, and if a new
/// wrapper is genuinely unavoidable, bless it here with a justification.
#[test]
fn pipeline_classify_variants_are_a_closed_set() {
    let blessed = BTreeSet::from([
        "classify",
        "classify_degraded",
        "classify_bundle",
        "classify_all",
        "classify_scraped",
    ]);
    let pipeline = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("crates/core/src/pipeline.rs");
    let src = std::fs::read_to_string(&pipeline)
        .unwrap_or_else(|e| panic!("read {}: {e}", pipeline.display()));
    let mut found = BTreeSet::new();
    for line in src.lines() {
        let Some(rest) = line.trim_start().strip_prefix("pub fn classify") else {
            continue;
        };
        let suffix: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        found.insert(format!("classify{suffix}"));
    }
    let found: BTreeSet<&str> = found.iter().map(String::as_str).collect();
    assert_eq!(
        found, blessed,
        "pipeline.rs grew or lost a classify* variant; collapse onto \
         classify_bundle instead of adding wrappers (see this test's doc)"
    );
}

/// The acceptance gate: the workspace's own sources lint clean, and every
/// escape hatch in them carries a justification and suppresses something.
#[test]
fn live_workspace_is_clean_with_zero_unexplained_allows() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let outcome = run_lint(root, None).expect("lint run");
    assert!(
        outcome.violations.is_empty(),
        "workspace has lint violations:\n{}",
        outcome.render_human()
    );
    for allow in &outcome.allows {
        assert!(
            allow.justification.len() >= 3,
            "unexplained allow at {}:{}",
            allow.file,
            allow.line
        );
        assert!(
            allow.used,
            "stale allow (suppresses nothing) at {}:{}",
            allow.file, allow.line
        );
    }
}
