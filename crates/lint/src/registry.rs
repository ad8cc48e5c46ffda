//! Registries driving the call-graph rules: public entry points for P02
//! panic-reachability, the hot-function budget list for H01, and the
//! canonical reduction helpers exempt from D06.
//!
//! Format: `(crate, type-or-"", fn-name-or-"*")`. An empty type matches
//! free functions; `"*"` matches every public fn of the type. Matching is
//! purely name-based, like the rest of the analyzer — a renamed kernel
//! must be re-registered, which is the point: the registry is the
//! reviewed list of what we promise stays panic-free and allocation-free.

/// P02 roots: the public seams a deployment actually calls. Reachability
/// is computed from these, so a panic site in dead or cold code does not
/// page anyone.
pub const ENTRY_POINTS: &[(&str, &str, &str)] = &[
    ("core", "Pipeline", "classify_bundle"),
    ("core", "Pipeline", "classify_all"),
    ("core", "ModelSnapshot", "from_json"),
    ("core", "CascadeClassifier", "*"),
    ("core", "UrlFeaturizer", "*"),
    ("ml", "FlatModel", "predict_proba"),
    ("ml", "FlatModel", "decision_function"),
    ("ml", "FlatModel", "predict_batch"),
    ("serve", "ScoringService", "*"),
    ("store", "PageStoreReader", "*"),
    ("store", "PageBlock", "*"),
    ("store", "FeatureStoreReader", "*"),
    ("store", "FrameReader", "*"),
];

/// H01 budget list: the flat-model kernels, the page term dictionary's
/// build, the term visitor the search index is built with and the f2 id
/// kernel, the URL accessors, the URL check the
/// page-block view runs on every stored URL,
/// the public-suffix lookup every URL parse runs, the URL stage's
/// typosquat distance and its packed multi-pattern kernel, and the store
/// framing decoder.
/// Allocating calls here, or in callees to depth 2, are flagged.
pub const HOT_FUNCTIONS: &[(&str, &str, &str)] = &[
    ("ml", "FlatModel", "predict_proba"),
    ("ml", "FlatModel", "decision_function"),
    ("ml", "FlatModel", "tree_leaf"),
    ("text", "DictionaryBuilder", "push"),
    ("text", "DictionaryBuilder", "into_dictionary"),
    ("text", "", "for_each_term"),
    ("core", "PairTable", "distance"),
    ("url", "Url", "check"),
    ("url", "Url", "mld"),
    ("url", "Url", "rdn"),
    ("url", "Url", "fqdn_str"),
    ("url", "Url", "public_suffix"),
    ("url", "Url", "canonical_key"),
    ("url", "Url", "free_parts"),
    ("url", "Url", "free_dot_count"),
    ("url", "Url", "mld_len"),
    ("url", "Url", "fqdn_len"),
    ("url", "", "suffix_label_count"),
    ("core", "UrlFeaturizer", "typosquat_distance"),
    ("core", "PackedReferences", "min_distance"),
    ("store", "FrameReader", "next_block"),
];

/// D06 exemption: the reduction helpers whose job *is* ordered f64
/// accumulation. Accumulating anywhere else earns a Warning pointing
/// here.
pub const CANONICAL_REDUCERS: &[(&str, &str, &str)] = &[
    ("core", "", "mean"),
    ("core", "", "std_dev"),
    ("text", "TermDistribution", "hellinger_squared"),
    ("core", "PairTable", "distance"),
];

/// H01 setup exemption: callees with these name prefixes are constructors
/// or pre-sized-buffer builders; allocation inside them is the setup the
/// budget explicitly permits.
pub const SETUP_PREFIXES: &[&str] = &["new", "with_", "from_", "build", "default"];

/// True when `(krate, item.self_type, item.name)` matches a registry row.
pub fn matches(
    reg: &[(&str, &str, &str)],
    krate: &str,
    self_type: Option<&str>,
    name: &str,
) -> bool {
    let ty = self_type.unwrap_or("");
    reg.iter()
        .any(|&(rk, rt, rn)| rk == krate && rt == ty && (rn == "*" || rn == name))
}
