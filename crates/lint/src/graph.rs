//! Workspace call graph and the graph-aware rule families.
//!
//! Built on the item parser of [`crate::items`], the graph connects every
//! `fn` in the workspace by *name-based* call resolution — free calls
//! resolve same-crate-first, `Type::method` by `(type, name)`, `.method()`
//! to every impl fn of that name. Resolution is an over-approximation
//! (no type inference), which is the safe direction for reachability: a
//! false edge can only make P02 report a site it might have skipped.
//!
//! Three rule families run over the graph:
//!
//! * **P02** — implicit panic sites (indexing, `.split_at`, integer `/`
//!   `%`, panic/assert macros) in library code, reported only when the
//!   containing fn is reachable from a registered public entry point,
//!   with the shortest call path attached.
//! * **H01** — allocating calls inside registered hot functions or their
//!   callees to depth 2, excluding setup-named callees and cold error
//!   paths (`Err(..)` / `.map_err(..)` arguments).
//! * **D06** — order-sensitive `f64` accumulation outside the canonical
//!   reduction helpers, at `Severity::Warning`.

use crate::analyze::{is_test_path, test_line_ranges, Violation};
use crate::items::{match_brace_fwd, parse_items, FnItem};
use crate::lexer::{lex, Tok, TokKind};
use crate::registry::{
    matches as registry_matches, CANONICAL_REDUCERS, ENTRY_POINTS, HOT_FUNCTIONS, SETUP_PREFIXES,
};
use crate::rules::{rule_by_id, Severity};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One source file handed to the graph pass.
#[derive(Debug)]
pub struct GraphFile<'a> {
    /// Directory name under `crates/` (`"root"` for the top package).
    pub crate_name: &'a str,
    /// Workspace-relative path used in reports.
    pub rel_path: &'a str,
    /// Full source text.
    pub src: &'a str,
}

/// Integer primitive type names (division evidence).
const INT_TYPES: &[&str] = &[
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
];

/// Float primitive type names (D06 evidence).
const FLOAT_TYPES: &[&str] = &["f32", "f64"];

/// Owned-buffer type names (H01 `.clone()` evidence).
const OWNED_TYPES: &[&str] = &["String", "Vec", "PathBuf"];

/// Owned containers a `.collect()` builds (H01 evidence when the turbofish
/// or the `let` type names one).
const COLLECTED_TYPES: &[&str] = &[
    "Vec", "String", "HashMap", "BTreeMap", "HashSet", "BTreeSet",
];

/// Keywords that can precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "fn",
    "in", "move", "ref", "mut", "pub", "use", "mod", "impl", "trait", "struct", "enum", "where",
    "as", "dyn", "unsafe", "async", "await", "const", "static", "type", "crate", "super", "true",
    "false", "yield",
];

/// Method names shared with std so widely that a `.name()` edge would be
/// noise rather than signal; calls to these never create edges. Workspace
/// methods with one of these names must be reached by `Type::name` form
/// to participate in the graph.
const UBIQUITOUS_METHODS: &[&str] = &[
    "clone",
    "len",
    "is_empty",
    "get",
    "push",
    "pop",
    "insert",
    "remove",
    "contains",
    "iter",
    "into_iter",
    "next",
    "fmt",
    "eq",
    "cmp",
    "partial_cmp",
    "hash",
    "default",
    "from",
    "into",
    "write",
    "read",
    "flush",
    "extend",
    "clear",
    "as_str",
    "as_ref",
    "as_mut",
    "to_owned",
    "to_string",
    "to_vec",
    "min",
    "max",
    "drop",
    "parse",
    "build",
    "append",
    "take",
    "label",
];

/// Panic-family macros: the macro itself is the P02 site.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Assert-family macros: P02 sites in release builds.
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// Debug-only assertions: compiled out of release builds, never a site.
const DEBUG_ASSERT_MACROS: &[&str] = &["debug_assert", "debug_assert_eq", "debug_assert_ne"];

/// One `fn` node in the workspace graph.
struct Node {
    krate: String,
    file_idx: usize,
    name: String,
    self_type: Option<String>,
    is_pub: bool,
    /// `fn` keyword token index and body token range in the file stream.
    sig_start: usize,
    body: Option<(usize, usize)>,
}

impl Node {
    /// `crate::Type::name` / `crate::name` for reports and call paths.
    fn display(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{}::{t}::{}", self.krate, self.name),
            None => format!("{}::{}", self.krate, self.name),
        }
    }
}

/// Per-file lexed context shared by all passes.
struct FileCtx {
    rel: String,
    toks: Vec<Tok>,
    lines: Vec<String>,
    /// All items of the file (used for nested-body exclusion).
    items: Vec<FnItem>,
}

struct Graph {
    files: Vec<FileCtx>,
    nodes: Vec<Node>,
    /// Sorted, deduplicated out-edges per node.
    adj: Vec<Vec<usize>>,
}

/// Runs the graph-aware rules (P02/H01/D06) over the given files.
///
/// Findings come back unsorted and unsuppressed — the caller applies
/// allow annotations and merges with the per-file pass.
pub fn graph_pass(files: &[GraphFile<'_>], enabled: Option<&BTreeSet<String>>) -> Vec<Violation> {
    let rule_on = |id: &str, krate: &str| {
        rule_by_id(id).is_some_and(|r| r.scope.applies_to(krate))
            && enabled.is_none_or(|set| set.contains(id))
    };

    let g = build_graph(files);
    let (dist, parent) = reach_from_entries(&g);
    let mut out = Vec::new();

    // ---- P02: panic sites in entry-reachable fns.
    for (id, node) in g.nodes.iter().enumerate() {
        if !rule_on("P02", &node.krate) || dist[id].is_none() {
            continue;
        }
        let Some(body) = node.body else { continue };
        let ctx = &g.files[node.file_idx];
        let path = call_path(&g, &parent, id);
        let entry = path.first().cloned().unwrap_or_default();
        let hops = path.len() - 1;
        let via = if hops == 0 {
            format!("entry point {entry}")
        } else {
            format!("{entry} ({hops} call{})", if hops == 1 { "" } else { "s" })
        };
        for site in panic_sites(ctx, node, body) {
            out.push(violation(
                "P02",
                ctx,
                site.line,
                format!("{} — reachable from {via}", site.what),
                path.clone(),
            ));
        }
    }

    // ---- H01: allocations in hot functions and callees to depth 2.
    // Dedup by site: a token flagged via two hot roots keeps the
    // shallowest (then first-seen) attribution.
    let mut hot_findings: BTreeMap<(usize, usize), (usize, Violation)> = BTreeMap::new();
    for (root, node) in g.nodes.iter().enumerate() {
        if !registry_matches(
            HOT_FUNCTIONS,
            &node.krate,
            node.self_type.as_deref(),
            &node.name,
        ) {
            continue;
        }
        for (id, depth, path) in hot_closure(&g, root) {
            let member = &g.nodes[id];
            if !rule_on("H01", &member.krate) {
                continue;
            }
            let Some(body) = member.body else { continue };
            let ctx = &g.files[member.file_idx];
            let path_names: Vec<String> = path.iter().map(|&n| g.nodes[n].display()).collect();
            for site in alloc_sites(ctx, body, member) {
                let key = (member.file_idx, site.tok);
                let at_depth = if depth == 0 {
                    "in hot function".to_owned()
                } else {
                    format!("at depth {depth} under hot function")
                };
                let v = violation(
                    "H01",
                    ctx,
                    site.line,
                    format!("{} {at_depth} {}", site.what, g.nodes[root].display()),
                    path_names.clone(),
                );
                match hot_findings.get(&key) {
                    Some((d, _)) if *d <= depth => {}
                    _ => {
                        hot_findings.insert(key, (depth, v));
                    }
                }
            }
        }
    }
    out.extend(hot_findings.into_values().map(|(_, v)| v));

    // ---- D06: order-sensitive float accumulation.
    for node in &g.nodes {
        if !rule_on("D06", &node.krate)
            || registry_matches(
                CANONICAL_REDUCERS,
                &node.krate,
                node.self_type.as_deref(),
                &node.name,
            )
        {
            continue;
        }
        let Some(body) = node.body else { continue };
        let ctx = &g.files[node.file_idx];
        for site in accumulation_sites(ctx, node, body) {
            out.push(violation(
                "D06",
                ctx,
                site.line,
                format!(
                    "{} in {} (move into a canonical reducer)",
                    site.what,
                    node.display()
                ),
                Vec::new(),
            ));
        }
    }

    out
}

fn violation(
    rule: &str,
    ctx: &FileCtx,
    line: u32,
    message: String,
    call_path: Vec<String>,
) -> Violation {
    Violation {
        rule: rule.to_owned(),
        severity: rule_by_id(rule).map_or(Severity::Error, |r| r.severity),
        file: ctx.rel.clone(),
        line,
        message,
        snippet: ctx
            .lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default(),
        call_path,
    }
}

// ---------------------------------------------------------------- graph

fn build_graph(files: &[GraphFile<'_>]) -> Graph {
    let mut ctxs = Vec::with_capacity(files.len());
    let mut nodes: Vec<Node> = Vec::new();
    for (file_idx, f) in files.iter().enumerate() {
        let lexed = lex(f.src);
        let items = parse_items(&lexed.tokens);
        let test_file = is_test_path(f.rel_path);
        if !test_file {
            let test_ranges = test_line_ranges(&lexed.tokens);
            let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);
            for it in &items {
                if in_test(it.line) {
                    continue;
                }
                nodes.push(Node {
                    krate: f.crate_name.to_owned(),
                    file_idx,
                    name: it.name.clone(),
                    self_type: it.self_type.clone(),
                    is_pub: it.is_pub,
                    sig_start: it.sig_start,
                    body: it.body,
                });
            }
        }
        ctxs.push(FileCtx {
            rel: f.rel_path.to_owned(),
            toks: lexed.tokens,
            lines: f.src.lines().map(str::to_owned).collect(),
            items,
        });
    }

    // Name-resolution maps. All values are ascending node ids, so edge
    // order is deterministic by construction.
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut method_by_type: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut method_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, n) in nodes.iter().enumerate() {
        match &n.self_type {
            None => free_by_name.entry(&n.name).or_default().push(id),
            Some(t) => {
                method_by_type.entry((t, &n.name)).or_default().push(id);
                method_by_name.entry(&n.name).or_default().push(id);
            }
        }
    }

    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
    for (id, n) in nodes.iter().enumerate() {
        let Some((open, close)) = n.body else {
            continue;
        };
        let ctx = &ctxs[n.file_idx];
        let excl = nested_ranges(&ctx.items, open, close);
        let toks = &ctx.toks;
        let mut i = open + 1;
        while i < close {
            if let Some(&(_, skip_to)) = excl.iter().find(|&&(a, b)| i >= a && i <= b) {
                i = skip_to + 1;
                continue;
            }
            let t = &toks[i];
            if t.kind != TokKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
                i += 1;
                continue;
            }
            if !is_call_at(toks, i) {
                i += 1;
                continue;
            }
            let name = t.text.as_str();
            let mut link = |targets: &[usize]| {
                for &tgt in targets {
                    if tgt != id {
                        adj[id].insert(tgt);
                    }
                }
            };
            if i > 0 && toks[i - 1].kind == TokKind::Punct('.') {
                // `.method(...)` — every impl fn of that name, unless the
                // name is too common to carry signal.
                if !UBIQUITOUS_METHODS.contains(&name) {
                    if let Some(tgts) = method_by_name.get(name) {
                        link(tgts);
                    }
                }
            } else if i >= 3
                && toks[i - 1].kind == TokKind::Punct(':')
                && toks[i - 2].kind == TokKind::Punct(':')
                && toks[i - 3].kind == TokKind::Ident
            {
                // `Qual::name(...)` — a type's associated fn, or a
                // module-qualified free fn.
                let mut qual = toks[i - 3].text.as_str();
                if qual == "Self" {
                    qual = n.self_type.as_deref().unwrap_or("Self");
                }
                if let Some(tgts) = method_by_type.get(&(qual, name)) {
                    link(tgts);
                } else if let Some(tgts) = free_by_name.get(name) {
                    link(tgts);
                }
            } else if let Some(tgts) = free_by_name.get(name) {
                // Bare `name(...)` — same-crate candidates win when any
                // exist (cross-crate free calls need a path anyway).
                let same: Vec<usize> = tgts
                    .iter()
                    .copied()
                    .filter(|&tid| nodes[tid].krate == n.krate)
                    .collect();
                link(if same.is_empty() { tgts } else { &same });
            }
            i += 1;
        }
    }

    Graph {
        files: ctxs,
        nodes,
        adj: adj.into_iter().map(|s| s.into_iter().collect()).collect(),
    }
}

/// Is the ident at `i` the callee of a call expression — followed by `(`
/// directly or through a `::<...>` turbofish — and not a macro name?
fn is_call_at(toks: &[Tok], i: usize) -> bool {
    match toks.get(i + 1).map(|t| t.kind) {
        Some(TokKind::Punct('(')) => true,
        Some(TokKind::Punct('!')) => false,
        Some(TokKind::Punct(':'))
            if toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Punct(':'))
                && toks.get(i + 3).map(|t| t.kind) == Some(TokKind::Punct('<')) =>
        {
            let after = skip_angles_from(toks, i + 3);
            toks.get(after).map(|t| t.kind) == Some(TokKind::Punct('('))
        }
        _ => false,
    }
}

/// Index after the `>` matching the `<` at `j` (`->` never closes).
fn skip_angles_from(toks: &[Tok], mut j: usize) -> usize {
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') if j > 0 && toks[j - 1].kind == TokKind::Punct('-') => {}
            TokKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Token ranges of items nested inside `(open, close)` — nested fns are
/// their own nodes, so the enclosing fn's scan skips them.
fn nested_ranges(items: &[FnItem], open: usize, close: usize) -> Vec<(usize, usize)> {
    items
        .iter()
        .filter(|it| it.sig_start > open && it.sig_start < close)
        .filter_map(|it| it.body.map(|(_, c)| (it.sig_start, c)))
        .collect()
}

/// Multi-source BFS from the registered entry points; returns hop counts
/// and BFS parents (entry nodes have themselves as root, parent `None`).
fn reach_from_entries(g: &Graph) -> (Vec<Option<u32>>, Vec<Option<usize>>) {
    let mut dist: Vec<Option<u32>> = vec![None; g.nodes.len()];
    let mut parent: Vec<Option<usize>> = vec![None; g.nodes.len()];
    let mut q = VecDeque::new();
    for (id, n) in g.nodes.iter().enumerate() {
        let entry = ENTRY_POINTS.iter().any(|&(rk, rt, rn)| {
            rk == n.krate
                && rt == n.self_type.as_deref().unwrap_or("")
                && (rn == n.name || (rn == "*" && n.is_pub))
        });
        if entry {
            dist[id] = Some(0);
            q.push_back(id);
        }
    }
    while let Some(v) = q.pop_front() {
        for &m in &g.adj[v] {
            if dist[m].is_none() {
                dist[m] = dist[v].map(|d| d + 1);
                parent[m] = Some(v);
                q.push_back(m);
            }
        }
    }
    (dist, parent)
}

/// Entry → … → `id` display names along BFS parents.
fn call_path(g: &Graph, parent: &[Option<usize>], id: usize) -> Vec<String> {
    let mut path = vec![id];
    let mut cur = id;
    while let Some(p) = parent[cur] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    path.into_iter().map(|n| g.nodes[n].display()).collect()
}

/// Breadth-first closure of a hot root to depth 2, skipping setup-named
/// callees. Yields `(node, depth, path-from-root)` in deterministic order.
fn hot_closure(g: &Graph, root: usize) -> Vec<(usize, usize, Vec<usize>)> {
    let mut out = vec![(root, 0usize, vec![root])];
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    seen.insert(root);
    let mut frontier = vec![(root, vec![root])];
    for depth in 1..=2usize {
        let mut next = Vec::new();
        for (v, path) in frontier {
            for &m in &g.adj[v] {
                if seen.contains(&m) || is_setup_name(&g.nodes[m].name) {
                    continue;
                }
                seen.insert(m);
                let mut p = path.clone();
                p.push(m);
                out.push((m, depth, p.clone()));
                next.push((m, p));
            }
        }
        frontier = next;
    }
    out
}

/// Does a callee name mark constructor/pre-sizing setup code?
fn is_setup_name(name: &str) -> bool {
    SETUP_PREFIXES.iter().any(|p| {
        if p.ends_with('_') {
            name.starts_with(p)
        } else {
            name == *p || name.strip_prefix(p).is_some_and(|r| r.starts_with('_'))
        }
    })
}

// ---------------------------------------------------------------- sites

struct Site {
    tok: usize,
    line: u32,
    what: String,
}

/// Paren-delimited macro argument ranges for macros in `names`.
fn macro_arg_ranges(
    toks: &[Tok],
    open: usize,
    close: usize,
    names: &[&str],
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = open;
    while i + 2 < close {
        if toks[i].kind == TokKind::Ident
            && names.contains(&toks[i].text.as_str())
            && toks[i + 1].kind == TokKind::Punct('!')
        {
            let d = i + 2;
            let (od, cd) = match toks[d].kind {
                TokKind::Punct('(') => ('(', ')'),
                TokKind::Punct('[') => ('[', ']'),
                TokKind::Punct('{') => ('{', '}'),
                _ => {
                    i += 1;
                    continue;
                }
            };
            let end = match_delim_fwd(toks, d, close, od, cd);
            out.push((d, end));
            i = d + 1;
            continue;
        }
        i += 1;
    }
    out
}

fn match_delim_fwd(toks: &[Tok], from: usize, close: usize, od: char, cd: char) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < close {
        if toks[j].kind == TokKind::Punct(od) {
            depth += 1;
        } else if toks[j].kind == TokKind::Punct(cd) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    close
}

fn in_ranges(i: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(a, b)| i > a && i < b)
}

/// `Err(...)` and `.map_err(...)` argument ranges — cold error paths
/// where H01 tolerates allocation.
fn cold_error_ranges(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = open;
    while i + 1 < close {
        if toks[i].kind == TokKind::Ident
            && (toks[i].text == "Err"
                || toks[i].text == "map_err"
                || toks[i].text == "ok_or_else"
                || toks[i].text == "unwrap_or_else")
            && toks[i + 1].kind == TokKind::Punct('(')
        {
            let end = match_delim_fwd(toks, i + 1, close, '(', ')');
            out.push((i + 1, end));
        }
        i += 1;
    }
    out
}

/// Collects per-fn name evidence for the heuristics: which locals/params
/// are integers, floats, or owned buffers.
struct Evidence {
    ints: BTreeSet<String>,
    floats: BTreeSet<String>,
    owned: BTreeSet<String>,
}

fn collect_evidence(toks: &[Tok], sig_start: usize, open: usize, close: usize) -> Evidence {
    let mut ev = Evidence {
        ints: BTreeSet::new(),
        floats: BTreeSet::new(),
        owned: BTreeSet::new(),
    };
    // Signature params: `name: Type`.
    let mut i = sig_start;
    while i + 2 < open {
        if toks[i].kind == TokKind::Ident
            && toks[i + 1].kind == TokKind::Punct(':')
            && toks.get(i + 2).map(|t| t.kind) != Some(TokKind::Punct(':'))
            && (i == 0 || toks[i - 1].kind != TokKind::Punct(':'))
        {
            classify_type_tokens(&toks[i + 2..(i + 8).min(open)], &toks[i].text, &mut ev);
        }
        i += 1;
    }
    // `let [mut] name …` bindings.
    let mut i = open;
    while i < close {
        if toks[i].kind == TokKind::Ident && toks[i].text == "let" {
            let mut j = i + 1;
            if toks
                .get(j)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text == "mut")
            {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident) {
                let name = toks[j].text.clone();
                // Optional `: Type`.
                if toks.get(j + 1).map(|t| t.kind) == Some(TokKind::Punct(':')) {
                    classify_type_tokens(&toks[j + 2..(j + 8).min(close)], &name, &mut ev);
                }
                // `= rhs ;` — scan the initializer.
                let mut k = j + 1;
                let mut depth = 0i32;
                while k < close {
                    match toks[k].kind {
                        TokKind::Punct('(' | '[' | '{') => depth += 1,
                        TokKind::Punct(')' | ']' | '}') => depth -= 1,
                        TokKind::Punct(';') if depth <= 0 => break,
                        TokKind::Punct('=') if depth == 0 => {
                            let end = stmt_end(toks, k + 1, close);
                            classify_rhs_tokens(&toks[k + 1..end], &name, &mut ev);
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        // `for name in <range>` — the loop variable is an integer when
        // the iterated expression is a literal range.
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "for"
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && toks
                .get(i + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text == "in")
        {
            let header_end = (i + 16).min(close);
            let ranged = toks[i + 3..header_end]
                .windows(2)
                .any(|w| w[0].kind == TokKind::Punct('.') && w[1].kind == TokKind::Punct('.'));
            if ranged {
                ev.ints.insert(toks[i + 1].text.clone());
            }
        }
        i += 1;
    }
    ev
}

fn stmt_end(toks: &[Tok], from: usize, close: usize) -> usize {
    let mut depth = 0i32;
    let mut k = from;
    while k < close {
        match toks[k].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    close
}

fn classify_type_tokens(ty: &[Tok], name: &str, ev: &mut Evidence) {
    for t in ty {
        if matches!(t.kind, TokKind::Punct(',' | ';' | ')' | '=')) {
            break;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let s = t.text.as_str();
        if INT_TYPES.contains(&s) {
            ev.ints.insert(name.to_owned());
            return;
        }
        if FLOAT_TYPES.contains(&s) {
            ev.floats.insert(name.to_owned());
            return;
        }
        if OWNED_TYPES.contains(&s) {
            ev.owned.insert(name.to_owned());
            return;
        }
    }
}

fn classify_rhs_tokens(rhs: &[Tok], name: &str, ev: &mut Evidence) {
    let mut is_float = false;
    let mut is_int = false;
    let mut is_owned = false;
    for (k, t) in rhs.iter().enumerate() {
        match t.kind {
            TokKind::Literal if t.is_float_literal() => is_float = true,
            TokKind::Literal if t.is_int_literal() => is_int = true,
            TokKind::Ident => {
                let s = t.text.as_str();
                if s == "as" {
                    if let Some(ty) = rhs.get(k + 1) {
                        let ts = ty.text.as_str();
                        if FLOAT_TYPES.contains(&ts) {
                            is_float = true;
                        } else if INT_TYPES.contains(&ts) {
                            is_int = true;
                        }
                    }
                }
                if (s == "len" || s == "count")
                    && k > 0
                    && rhs[k - 1].kind == TokKind::Punct('.')
                    && rhs.get(k + 1).map(|n| n.kind) == Some(TokKind::Punct('('))
                {
                    is_int = true;
                }
                if OWNED_TYPES.contains(&s)
                    || s == "vec"
                    || s == "format"
                    || s == "to_string"
                    || s == "to_owned"
                    || s == "to_vec"
                {
                    is_owned = true;
                }
            }
            _ => {}
        }
    }
    if is_float {
        ev.floats.insert(name.to_owned());
    } else if is_int {
        ev.ints.insert(name.to_owned());
    }
    if is_owned && !is_float {
        ev.owned.insert(name.to_owned());
    }
}

/// `(receiver-last-ident, loop-var)` pairs made safe by the
/// `for i in 0..xs.len()` idiom: `xs[i]` inside that loop cannot panic.
fn safe_index_pairs(toks: &[Tok], open: usize, close: usize) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    let mut i = open;
    while i + 8 < close {
        // for <v> in 0 . . <recv …> . len ( )
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "for"
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 2].text == "in"
            && toks[i + 3].is_int_literal()
            && toks[i + 3].text == "0"
            && toks[i + 4].kind == TokKind::Punct('.')
            && toks[i + 5].kind == TokKind::Punct('.')
        {
            // Walk the receiver path to a trailing `.len()`.
            let v = toks[i + 1].text.clone();
            let mut j = i + 6;
            let mut recv_last: Option<String> = None;
            while j + 3 < close && toks[j].kind == TokKind::Ident {
                if toks[j].text == "len"
                    && toks[j + 1].kind == TokKind::Punct('(')
                    && toks[j + 2].kind == TokKind::Punct(')')
                {
                    if let Some(r) = recv_last.take() {
                        out.insert((r, v.clone()));
                    }
                    break;
                }
                recv_last = Some(toks[j].text.clone());
                if toks.get(j + 1).map(|t| t.kind) == Some(TokKind::Punct('.')) {
                    j += 2;
                } else {
                    break;
                }
            }
        }
        i += 1;
    }
    out
}

/// P02 sites in one fn body.
fn panic_sites(ctx: &FileCtx, node: &Node, (open, close): (usize, usize)) -> Vec<Site> {
    let toks = &ctx.toks;
    let excl = nested_ranges(&ctx.items, open, close);
    let ev = collect_evidence(toks, node.sig_start, open, close);
    let safe = safe_index_pairs(toks, open, close);
    let mut shadow: Vec<&str> = DEBUG_ASSERT_MACROS.to_vec();
    shadow.extend_from_slice(PANIC_MACROS);
    shadow.extend_from_slice(ASSERT_MACROS);
    let shadowed = macro_arg_ranges(toks, open, close, &shadow);
    let mut out = Vec::new();

    let mut i = open + 1;
    while i < close {
        if let Some(&(_, skip_to)) = excl.iter().find(|&&(a, b)| i >= a && i <= b) {
            i = skip_to + 1;
            continue;
        }
        let t = &toks[i];
        match t.kind {
            // Panic/assert macros.
            TokKind::Ident
                if toks.get(i + 1).map(|n| n.kind) == Some(TokKind::Punct('!'))
                    && (PANIC_MACROS.contains(&t.text.as_str())
                        || ASSERT_MACROS.contains(&t.text.as_str())) =>
            {
                let what = if PANIC_MACROS.contains(&t.text.as_str()) {
                    format!("explicit {}! panic", t.text)
                } else {
                    format!("{}! may panic", t.text)
                };
                out.push(Site {
                    tok: i,
                    line: t.line,
                    what,
                });
            }
            // `.split_at(` / `.split_at_mut(`.
            TokKind::Ident
                if (t.text == "split_at" || t.text == "split_at_mut")
                    && i > 0
                    && toks[i - 1].kind == TokKind::Punct('.')
                    && toks.get(i + 1).map(|n| n.kind) == Some(TokKind::Punct('('))
                    && !in_ranges(i, &shadowed) =>
            {
                out.push(Site {
                    tok: i,
                    line: t.line,
                    what: format!(".{}() panics when mid > len", t.text),
                });
            }
            // Indexing `expr[...]`.
            TokKind::Punct('[')
                if i > 0
                    && matches!(toks[i - 1].kind, TokKind::Ident | TokKind::Punct(')' | ']'))
                    && !(toks[i - 1].kind == TokKind::Ident
                        && KEYWORDS.contains(&toks[i - 1].text.as_str()))
                    && !in_ranges(i, &shadowed)
                    && !safe_site(toks, i, &safe) =>
            {
                out.push(Site {
                    tok: i,
                    line: t.line,
                    what: "slice/array indexing may panic".to_owned(),
                });
            }
            // Integer `/` and `%`.
            TokKind::Punct('/' | '%')
                if i > 0
                    && matches!(
                        toks[i - 1].kind,
                        TokKind::Ident | TokKind::Literal | TokKind::Punct(')' | ']')
                    )
                    && !(toks[i - 1].kind == TokKind::Ident
                        && KEYWORDS.contains(&toks[i - 1].text.as_str())) =>
            {
                let op = if matches!(t.kind, TokKind::Punct('/')) {
                    "/"
                } else {
                    "%"
                };
                let mut d = i + 1;
                if toks.get(d).map(|n| n.kind) == Some(TokKind::Punct('=')) {
                    d += 1; // `/=` compound assignment
                }
                if !in_ranges(i, &shadowed) && divides_by_evidenced_int(toks, d, close, &ev) {
                    out.push(Site {
                        tok: i,
                        line: t.line,
                        what: format!("integer `{op}` may panic on zero divisor"),
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    // One finding per (line, kind): `[s[2], s[3], …]` is one annotation's
    // worth of review, not seven.
    out.dedup_by(|a, b| a.line == b.line && a.what == b.what);
    out
}

/// Is `xs[i]` at the `[` token exempt via a `for i in 0..xs.len()` pair?
fn safe_site(toks: &[Tok], bracket: usize, safe: &BTreeSet<(String, String)>) -> bool {
    if safe.is_empty() || bracket == 0 {
        return false;
    }
    let recv = &toks[bracket - 1];
    let idx = toks.get(bracket + 1);
    let close = toks.get(bracket + 2);
    if recv.kind != TokKind::Ident {
        return false;
    }
    match (idx, close) {
        (Some(ix), Some(cl)) if ix.kind == TokKind::Ident && cl.kind == TokKind::Punct(']') => {
            safe.contains(&(recv.text.clone(), ix.text.clone()))
        }
        _ => false,
    }
}

/// Does the divisor expression starting at `d` carry integer evidence?
/// Literal divisors never report (a nonzero constant cannot panic; a
/// zero constant is a compile error).
fn divides_by_evidenced_int(toks: &[Tok], d: usize, close: usize, ev: &Evidence) -> bool {
    let Some(t) = toks.get(d) else { return false };
    match t.kind {
        TokKind::Literal => false,
        TokKind::Ident => {
            // `xs.len()` divisor — direct evidence, unless a trailing
            // cast (`xs.len() as f64`) makes the division float.
            if toks.get(d + 1).map(|n| n.kind) == Some(TokKind::Punct('.'))
                && toks.get(d + 2).is_some_and(|n| {
                    n.kind == TokKind::Ident && (n.text == "len" || n.text == "count")
                })
                && toks.get(d + 3).map(|n| n.kind) == Some(TokKind::Punct('('))
                && toks.get(d + 4).map(|n| n.kind) == Some(TokKind::Punct(')'))
            {
                let cast_to_float = toks
                    .get(d + 5)
                    .is_some_and(|n| n.kind == TokKind::Ident && n.text == "as")
                    && toks.get(d + 6).is_some_and(|ty| {
                        ty.kind == TokKind::Ident && FLOAT_TYPES.contains(&ty.text.as_str())
                    });
                return !cast_to_float;
            }
            // Method call or field access on the ident: not the plain
            // variable, no evidence.
            if toks.get(d + 1).map(|n| n.kind) == Some(TokKind::Punct('.')) {
                return false;
            }
            // A cast decides the arithmetic type: `x as f64` cannot
            // panic regardless of what `x` was.
            if toks
                .get(d + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && n.text == "as")
            {
                return toks.get(d + 2).is_some_and(|ty| {
                    ty.kind == TokKind::Ident && INT_TYPES.contains(&ty.text.as_str())
                });
            }
            ev.ints.contains(&t.text)
        }
        TokKind::Punct('(') => {
            let end = match_delim_fwd(toks, d, close, '(', ')');
            let inner = &toks[d + 1..end];
            if inner.iter().any(|t| {
                t.is_float_literal()
                    || (t.kind == TokKind::Ident && FLOAT_TYPES.contains(&t.text.as_str()))
            }) {
                return false;
            }
            inner.iter().enumerate().any(|(k, t)| {
                (t.kind == TokKind::Ident && ev.ints.contains(&t.text))
                    || (t.kind == TokKind::Ident
                        && (t.text == "len" || t.text == "count")
                        && k > 0
                        && inner[k - 1].kind == TokKind::Punct('.'))
            })
        }
        _ => false,
    }
}

/// H01 allocating-call sites in one fn body.
fn alloc_sites(ctx: &FileCtx, (open, close): (usize, usize), node: &Node) -> Vec<Site> {
    let toks = &ctx.toks;
    let excl = nested_ranges(&ctx.items, open, close);
    let ev = collect_evidence(toks, node.sig_start, open, close);
    let mut cold = cold_error_ranges(toks, open, close);
    let mut shadow: Vec<&str> = DEBUG_ASSERT_MACROS.to_vec();
    shadow.extend_from_slice(PANIC_MACROS);
    shadow.extend_from_slice(ASSERT_MACROS);
    cold.extend(macro_arg_ranges(toks, open, close, &shadow));
    let mut out = Vec::new();

    let mut i = open + 1;
    while i < close {
        if let Some(&(_, skip_to)) = excl.iter().find(|&&(a, b)| i >= a && i <= b) {
            i = skip_to + 1;
            continue;
        }
        if in_ranges(i, &cold) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            let name = t.text.as_str();
            let nk = toks.get(i + 1).map(|n| n.kind);
            let what: Option<String> = match name {
                "format" | "vec" if nk == Some(TokKind::Punct('!')) => {
                    Some(format!("{name}! allocates"))
                }
                "new" | "from" | "with_capacity"
                    if i >= 3
                        && toks[i - 1].kind == TokKind::Punct(':')
                        && toks[i - 2].kind == TokKind::Punct(':')
                        && toks[i - 3].kind == TokKind::Ident
                        && matches!(toks[i - 3].text.as_str(), "String" | "Vec" | "Box")
                        && nk == Some(TokKind::Punct('(')) =>
                {
                    Some(format!(
                        "{}::{name}() allocates (move to setup)",
                        toks[i - 3].text
                    ))
                }
                "to_string" | "to_owned" | "to_vec"
                    if i > 0
                        && toks[i - 1].kind == TokKind::Punct('.')
                        && nk == Some(TokKind::Punct('(')) =>
                {
                    Some(format!(".{name}() allocates"))
                }
                "clone"
                    if i >= 2
                        && toks[i - 1].kind == TokKind::Punct('.')
                        && toks[i - 2].kind == TokKind::Ident
                        && ev.owned.contains(&toks[i - 2].text)
                        && nk == Some(TokKind::Punct('(')) =>
                {
                    Some(format!(".clone() of owned buffer `{}`", toks[i - 2].text))
                }
                "collect" if i > 0 && toks[i - 1].kind == TokKind::Punct('.') => {
                    collect_target(toks, open, i)
                        .map(|ty| format!(".collect() into {ty} allocates"))
                }
                _ => None,
            };
            if let Some(w) = what {
                out.push(Site {
                    tok: i,
                    line: t.line,
                    what: w,
                });
            }
        }
        i += 1;
    }
    out
}

/// The owned container a `.collect()` at token `i` builds, when its
/// turbofish (`.collect::<Vec<_>>()`) or the type of the `let` it
/// initializes (`let v: Vec<_> = ….collect();`) names one.
fn collect_target(toks: &[Tok], open: usize, i: usize) -> Option<&str> {
    fn named(ty: &[Tok]) -> Option<&str> {
        ty.iter()
            .find(|t| t.kind == TokKind::Ident && COLLECTED_TYPES.contains(&t.text.as_str()))
            .map(|t| t.text.as_str())
    }
    if toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Punct(':')) {
        let lt = i + 3;
        if toks.get(lt).map(|t| t.kind) != Some(TokKind::Punct('<')) {
            return None;
        }
        let gt = match_delim_fwd(toks, lt, toks.len(), '<', '>');
        return named(&toks[lt..gt]);
    }
    // Walk back to the start of the statement; only a `let` there can
    // carry the type.
    let mut depth = 0i32;
    let mut k = i;
    while k > open + 1 {
        k -= 1;
        match toks[k].kind {
            TokKind::Punct(')' | ']' | '}') => depth += 1,
            TokKind::Punct('(' | '[' | '{') => {
                if depth == 0 {
                    return None;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => return None,
            TokKind::Ident if depth == 0 && toks[k].text == "let" => {
                let eq = (k..i).find(|&j| toks[j].kind == TokKind::Punct('='))?;
                let colon = (k..eq).find(|&j| {
                    toks[j].kind == TokKind::Punct(':')
                        && toks[j - 1].kind != TokKind::Punct(':')
                        && toks[j + 1].kind != TokKind::Punct(':')
                })?;
                return named(&toks[colon..eq]);
            }
            _ => {}
        }
    }
    None
}

/// D06 order-sensitive accumulation sites in one fn body.
fn accumulation_sites(ctx: &FileCtx, node: &Node, (open, close): (usize, usize)) -> Vec<Site> {
    let toks = &ctx.toks;
    let excl = nested_ranges(&ctx.items, open, close);
    let ev = collect_evidence(toks, node.sig_start, open, close);
    let loops = loop_body_ranges(toks, open, close);
    let mut out = Vec::new();

    let mut i = open + 1;
    while i < close {
        if let Some(&(_, skip_to)) = excl.iter().find(|&&(a, b)| i >= a && i <= b) {
            i = skip_to + 1;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            // `.sum::<f64>()` / `.sum::<f32>()`.
            if t.text == "sum"
                && i > 0
                && toks[i - 1].kind == TokKind::Punct('.')
                && toks.get(i + 1).map(|n| n.kind) == Some(TokKind::Punct(':'))
                && toks.get(i + 2).map(|n| n.kind) == Some(TokKind::Punct(':'))
                && toks.get(i + 3).map(|n| n.kind) == Some(TokKind::Punct('<'))
                && toks.get(i + 4).is_some_and(|n| {
                    n.kind == TokKind::Ident && FLOAT_TYPES.contains(&n.text.as_str())
                })
            {
                out.push(Site {
                    tok: i,
                    line: t.line,
                    what: format!("order-sensitive .sum::<{}>()", toks[i + 4].text),
                });
            }
            // `.fold(<float literal>, …)`.
            if t.text == "fold"
                && i > 0
                && toks[i - 1].kind == TokKind::Punct('.')
                && toks.get(i + 1).map(|n| n.kind) == Some(TokKind::Punct('('))
                && toks.get(i + 2).is_some_and(Tok::is_float_literal)
            {
                out.push(Site {
                    tok: i,
                    line: t.line,
                    what: "order-sensitive float .fold()".to_owned(),
                });
            }
            // `acc += …` on a float-evidenced local inside a loop.
            if ev.floats.contains(&t.text)
                && toks.get(i + 1).map(|n| n.kind) == Some(TokKind::Punct('+'))
                && toks.get(i + 2).map(|n| n.kind) == Some(TokKind::Punct('='))
                && in_ranges(i, &loops)
                && (i == 0 || toks[i - 1].kind != TokKind::Punct('.'))
            {
                out.push(Site {
                    tok: i,
                    line: t.line,
                    what: format!("order-sensitive float accumulation `{} +=` in loop", t.text),
                });
            }
        }
        i += 1;
    }
    out
}

/// Token ranges of `for`/`while`/`loop` bodies inside a fn body.
fn loop_body_ranges(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "for" | "while" | "loop") {
            // First `{` at paren/bracket depth 0 opens the loop body
            // (struct literals are not legal bare in loop headers).
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < close {
                match toks[j].kind {
                    TokKind::Punct('(' | '[') => depth += 1,
                    TokKind::Punct(')' | ']') => depth -= 1,
                    TokKind::Punct('{') if depth == 0 => {
                        out.push((j, match_brace_fwd(toks, j, close)));
                        break;
                    }
                    TokKind::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(crate_name: &str, src: &str) -> Vec<Violation> {
        graph_pass(
            &[GraphFile {
                crate_name,
                rel_path: "lib.rs",
                src,
            }],
            None,
        )
    }

    const ENTRY: &str =
        "impl Pipeline { pub fn classify_bundle(&self, i: usize) -> u8 { helper(i) } }\n";

    #[test]
    fn p02_reports_reachable_indexing_with_path() {
        let src = format!(
            "{ENTRY}fn helper(i: usize) -> u8 {{ DATA[i] }}\nstatic DATA: [u8; 4] = [0; 4];\n"
        );
        let v = pass("core", &src);
        let p02: Vec<_> = v.iter().filter(|v| v.rule == "P02").collect();
        assert_eq!(p02.len(), 1, "{v:?}");
        assert_eq!(
            p02[0].call_path,
            vec![
                "core::Pipeline::classify_bundle".to_owned(),
                "core::helper".to_owned()
            ]
        );
    }

    #[test]
    fn p02_skips_unreachable_code() {
        let src = "fn orphan(i: usize, xs: &[u8]) -> u8 { xs[i] }\n";
        assert!(pass("core", src).iter().all(|v| v.rule != "P02"));
    }

    #[test]
    fn p02_safe_loop_idiom_is_exempt() {
        let src = format!(
            "{ENTRY}fn helper(_i: usize) -> u8 {{\n\
             let xs = [1u8, 2];\nlet mut acc = 0u8;\n\
             for k in 0..xs.len() {{ acc ^= xs[k]; }}\nacc\n}}\n"
        );
        let v = pass("core", &src);
        assert!(v.iter().all(|v| v.rule != "P02"), "{v:?}");
    }

    #[test]
    fn p02_division_needs_integer_evidence() {
        let float_div = format!("{ENTRY}fn helper(i: usize) -> f64 {{ let d = 0.5; 1.0 / d }}\n");
        assert!(pass("core", &float_div).iter().all(|v| v.rule != "P02"));
        let int_div = format!("{ENTRY}fn helper(n: usize) -> usize {{ 10 / n }}\n");
        let v = pass("core", &int_div);
        assert!(
            v.iter().any(|v| v.rule == "P02" && v.message.contains('/')),
            "{v:?}"
        );
    }

    #[test]
    fn p02_debug_assert_is_exempt_but_assert_is_a_site() {
        let src = format!("{ENTRY}fn helper(i: usize) -> u8 {{ debug_assert!(i < 4); 0 }}\n");
        assert!(pass("core", &src).iter().all(|v| v.rule != "P02"));
        let src2 = format!("{ENTRY}fn helper(i: usize) -> u8 {{ assert!(i < 4); 0 }}\n");
        assert!(pass("core", &src2).iter().any(|v| v.rule == "P02"));
    }

    #[test]
    fn h01_flags_allocation_in_hot_fn_and_depth_two() {
        let src = "\
impl FlatModel {
    pub fn predict_proba(&self) -> f64 { mid(); 0.0 }
}
fn mid() { deep(); }
fn deep() { let s = \"x\".to_string(); let _ = s; }
";
        let v = pass("ml", src);
        assert!(
            v.iter()
                .any(|v| v.rule == "H01" && v.message.contains("to_string")),
            "{v:?}"
        );
    }

    #[test]
    fn h01_setup_callees_and_cold_paths_are_exempt() {
        let src = "\
impl FlatModel {
    pub fn predict_proba(&self) -> Result<f64, String> {
        let t = with_buffers();
        if t < 0.0 { return Err(format!(\"bad {t}\")); }
        Ok(t)
    }
}
fn with_buffers() -> f64 { let v = vec![0u8; 8]; v.len() as f64 }
";
        let v = pass("ml", src);
        assert!(v.iter().all(|v| v.rule != "H01"), "{v:?}");
    }

    #[test]
    fn d06_sum_turbofish_and_loop_accumulation_warn() {
        let src = "\
pub fn centroid(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs { acc += *x; }
    acc + xs.iter().sum::<f64>()
}
";
        let v = pass("ml", src);
        let d06: Vec<_> = v.iter().filter(|v| v.rule == "D06").collect();
        assert_eq!(d06.len(), 2, "{v:?}");
        assert!(d06.iter().all(|v| v.severity == Severity::Warning));
    }

    #[test]
    fn d06_exempts_canonical_reducers_and_int_accumulation() {
        // `core::mean` is a registered canonical reducer; ordered
        // accumulation is its job.
        let src = "\
pub fn mean(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs { acc += *x; }
    acc
}
pub fn count_up(xs: &[u8]) -> u32 {
    let mut n = 0u32;
    for _x in xs { n += 1; }
    n
}
";
        let v = pass("core", src);
        assert!(v.iter().all(|v| v.rule != "D06"), "{v:?}");
    }

    #[test]
    fn entries_require_pub_for_wildcards() {
        let src = "\
impl ScoringService {
    fn internal(&self, xs: &[u8], i: usize) -> u8 { xs[i] }
}
";
        // Non-pub method of a `*` entry type is not a root, and nothing
        // reaches it.
        assert!(pass("serve", src).iter().all(|v| v.rule != "P02"));
    }
}
