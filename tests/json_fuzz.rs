//! Mutation fuzzing of the JSON inputs that carry untrusted bytes: the
//! NDJSON request lines `kyp serve` reads from stdin, and model
//! snapshots. Each case edits a real document with byte flips,
//! truncation and inserted runs of brackets, quotes and separators;
//! parsing must return, `Ok` or `Err`, without panicking.
//!
//! A corpus directory's `index.jsonl` is untrusted too: every `--data`
//! command that scores pages rebuilds the search index from it. Hostile
//! index files — huge pages, huge vocabularies, lines that are not
//! index entries — must load, `Ok` or one `Err`, in bounded time.
//!
//! Few byte edits leave a snapshot well-formed JSON, so snapshots are
//! also mutated as a parsed value tree: numbers replaced or swapped
//! (`n_features` and split `feature` indices among them), fields
//! dropped and arrays resized. Every mutant goes through the load and
//! stage checks a scoring seam makes, and one that passes them must
//! score a row of its stage's width without panicking.

use knowyourphish::core::features::FEATURE_COUNT;
use knowyourphish::core::{
    DetectorConfig, ModelSnapshot, PhishDetector, STAGE_FULL, STAGE_URL, URL_FEATURE_COUNT,
};
use knowyourphish::ml::Dataset;
use knowyourphish::serve::ServeRequest;
use knowyourphish::storeflow;
use knowyourphish::web::DomainRanker;
use proptest::prelude::*;
use serde_json::{Number, Value};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Bytes the insert edit splices in: JSON's structural characters.
const INSERTS: &[u8] = b"[]{}\"\\:,";

/// One edit: `(kind, position, byte, run length)`. Kind 0 XORs the byte
/// at `position` with `byte`, kind 1 truncates at `position`, and kind
/// 2 inserts `run` copies of a structural byte there. Runs go past the
/// parser's nesting limit.
type Edit = (u8, usize, u8, usize);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    collection::vec((0u8..3, any::<usize>(), any::<u8>(), 1usize..400), 1..6)
}

fn mutate(doc: &str, edits: &[Edit]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(kind, position, byte, run) in edits {
        let at = position % (bytes.len() + 1);
        match kind {
            0 => {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= byte.max(1);
                }
            }
            1 => bytes.truncate(at),
            _ => {
                let insert = INSERTS[usize::from(byte) % INSERTS.len()];
                bytes.splice(at..at, std::iter::repeat_n(insert, run));
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Request lines as a client writes them, one per stdin line.
fn request_lines() -> Vec<String> {
    [
        "http://www.corered133.co/shop.php?item=520&cat=travel",
        "https://groupsoft1539.homesite.co/",
        "http://tinyhop.info/hgslla",
        "http://192.168.4.20/paypal/signin?r=https://www.paypal.com/",
        "https://b\u{fc}cher.example.de/suche?q=\u{1f980}\"x\\y",
    ]
    .iter()
    .zip(0..)
    .map(|(url, id)| {
        let request = ServeRequest {
            id,
            url: (*url).to_owned(),
            arrival_ms: 7 * id,
        };
        serde_json::to_string(&request).expect("a request serializes")
    })
    .collect()
}

/// A small trained snapshot, as `kyp train` writes one.
fn snapshot_json() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let mut train = Dataset::new(3);
        for i in 0..90 {
            let v = f64::from(i % 3) / 2.0;
            train.push_row(&[v, 1.0 - v, f64::from(i % 7)], i % 3 == 2);
        }
        let mut config = DetectorConfig::default();
        config.gbm.n_trees = 6;
        let detector = PhishDetector::train(&train, &config);
        let ranker = DomainRanker::from_ranked(["example.com", "paypal.com"]);
        ModelSnapshot::new(detector, ranker)
            .to_json()
            .expect("a snapshot serializes")
    })
}

#[test]
fn unmutated_documents_parse() {
    for line in request_lines() {
        serde_json::from_str::<ServeRequest>(&line).expect("a real request line parses");
    }
    ModelSnapshot::from_json(snapshot_json()).expect("a real snapshot loads");
    for stage in [STAGE_FULL, STAGE_URL] {
        let json = serde_json::to_string(staged_snapshot(stage)).expect("a value serializes");
        let snapshot = ModelSnapshot::from_json(&json).expect("a real snapshot loads");
        snapshot.require_stage(stage).expect("at its own stage");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn mutated_request_lines_never_panic(pick in any::<usize>(), edits in edits()) {
        let lines = request_lines();
        let line = mutate(&lines[pick % lines.len()], &edits);
        let _ = serde_json::from_str::<ServeRequest>(&line);
        let _ = serde_json::from_str::<serde_json::Value>(&line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutated_snapshots_never_panic(edits in edits()) {
        let json = mutate(snapshot_json(), &edits);
        let _ = ModelSnapshot::from_json(&json);
    }
}

/// A trained snapshot of the given stage over rows of its width, as
/// `kyp train` or `kyp cascade-train` writes one, parsed into a value
/// tree.
fn staged_snapshot(stage: &str) -> &'static Value {
    static FULL: OnceLock<Value> = OnceLock::new();
    static URL: OnceLock<Value> = OnceLock::new();
    let (cell, width) = if stage == STAGE_URL {
        (&URL, URL_FEATURE_COUNT)
    } else {
        (&FULL, FEATURE_COUNT)
    };
    cell.get_or_init(|| {
        let mut train = Dataset::new(width);
        for i in 0..80u32 {
            let row: Vec<f64> = (0..width as u32)
                .map(|j| f64::from((i * 7 + j * 13) % 11) / 10.0)
                .collect();
            let label = row[i as usize % width] + row[width - 1] > 1.0;
            train.push_row(&row, label);
        }
        let mut config = DetectorConfig::default();
        config.gbm.n_trees = 6;
        let detector = PhishDetector::train(&train, &config);
        let ranker = DomainRanker::from_ranked(["example.com", "paypal.com"]);
        let snapshot = if stage == STAGE_URL {
            ModelSnapshot::new_url_stage(detector, ranker)
        } else {
            ModelSnapshot::new(detector, ranker)
        };
        serde_json::to_value(&snapshot).expect("a snapshot converts to a value tree")
    })
}

/// Numbers a replacement draws from: boundaries of every row width and
/// of the integer types the snapshot's fields deserialize into.
fn replacement(pick: usize) -> Number {
    const INTEGERS: [u64; 12] = [
        0,
        1,
        2,
        16,
        17,
        50,
        211,
        212,
        213,
        900,
        u32::MAX as u64,
        u64::MAX,
    ];
    match pick % 16 {
        k @ 0..=11 => Number::PosInt(INTEGERS[k]),
        12 => Number::NegInt(-1),
        13 => Number::Float(0.5),
        14 => Number::Float(-1e300),
        _ => Number::Float(1e300),
    }
}

/// A node of the value tree, addressed by the member or element
/// position at each level.
type Path = Vec<usize>;

/// Every number, object and array of `value`, with the member name a
/// number sits under.
#[derive(Default)]
struct Nodes {
    numbers: Vec<(Path, Option<String>)>,
    objects: Vec<Path>,
    arrays: Vec<Path>,
}

fn collect(value: &Value, path: &mut Path, key: Option<&str>, nodes: &mut Nodes) {
    match value {
        Value::Number(_) => nodes.numbers.push((path.clone(), key.map(str::to_owned))),
        Value::Object(fields) => {
            nodes.objects.push(path.clone());
            for (i, (name, field)) in fields.iter().enumerate() {
                path.push(i);
                collect(field, path, Some(name), nodes);
                path.pop();
            }
        }
        Value::Array(items) => {
            nodes.arrays.push(path.clone());
            for (i, item) in items.iter().enumerate() {
                path.push(i);
                collect(item, path, None, nodes);
                path.pop();
            }
        }
        _ => {}
    }
}

fn at<'v>(value: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(value, |node, &i| match node {
        Value::Object(fields) => &mut fields[i].1,
        Value::Array(items) => &mut items[i],
        _ => unreachable!("a collected path runs through containers only"),
    })
}

/// One structural edit: `(kind, node, choice)`. Kind 0 replaces any
/// number, kind 1 a `n_features` or split `feature` number, kind 2
/// swaps two numbers, kind 3 drops an object member and kind 4 resizes
/// an array, truncating it or repeating its last element.
type TreeEdit = (u8, usize, usize);

fn tree_edits() -> impl Strategy<Value = Vec<TreeEdit>> {
    collection::vec((0u8..5, any::<usize>(), any::<usize>()), 1..5)
}

/// The element of `items` that `choice` picks, if there is one.
fn pick<T>(items: &[T], choice: usize) -> Option<&T> {
    items.get(choice.checked_rem(items.len())?)
}

fn mutate_tree(doc: &Value, edits: &[TreeEdit]) -> Value {
    let mut value = doc.clone();
    for &(kind, node, choice) in edits {
        let mut nodes = Nodes::default();
        collect(&value, &mut Vec::new(), None, &mut nodes);
        let numbers: Vec<&Path> = nodes.numbers.iter().map(|(path, _)| path).collect();
        let features: Vec<&Path> = nodes
            .numbers
            .iter()
            .filter(|(_, key)| matches!(key.as_deref(), Some("n_features" | "feature")))
            .map(|(path, _)| path)
            .collect();
        match kind {
            0 | 1 => {
                let targets = if kind == 0 { &numbers } else { &features };
                if let Some(path) = pick(targets, node) {
                    *at(&mut value, path) = Value::Number(replacement(choice));
                }
            }
            2 => {
                if let (Some(a), Some(b)) = (pick(&numbers, node), pick(&numbers, choice)) {
                    let taken = at(&mut value, b).clone();
                    let given = std::mem::replace(at(&mut value, a), taken);
                    *at(&mut value, b) = given;
                }
            }
            3 => {
                if let Some(path) = pick(&nodes.objects, node) {
                    if let Value::Object(fields) = at(&mut value, path) {
                        if let Some(i) = choice.checked_rem(fields.len()) {
                            fields.remove(i);
                        }
                    }
                }
            }
            _ => {
                if let Some(path) = pick(&nodes.arrays, node) {
                    if let Value::Array(items) = at(&mut value, path) {
                        let len = choice % (2 * items.len() + 2);
                        let last = items.last().cloned().unwrap_or(Value::Null);
                        items.resize(len, last);
                    }
                }
            }
        }
    }
    value
}

/// Loads a mutant as a seam of `stage` would and, when it loads,
/// scores rows of that stage's width with it.
fn load_and_score(json: &str, stage: &str, width: usize) {
    let Ok(snapshot) = ModelSnapshot::from_json(json) else {
        return;
    };
    if snapshot.require_stage(stage).is_err() {
        return;
    }
    let rows: Vec<Vec<f64>> = [0.0, 0.5, 1.0, f64::NAN]
        .iter()
        .map(|&v| vec![v; width])
        .collect();
    let batch = snapshot.detector.score_batch(&rows);
    for (row, batched) in rows.iter().zip(batch) {
        assert_eq!(snapshot.detector.score(row).to_bits(), batched.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn structurally_mutated_snapshots_never_panic(url_stage in any::<bool>(), edits in tree_edits()) {
        let (stage, width) = if url_stage {
            (STAGE_URL, URL_FEATURE_COUNT)
        } else {
            (STAGE_FULL, FEATURE_COUNT)
        };
        let mutant = mutate_tree(staged_snapshot(stage), &edits);
        let json = serde_json::to_string(&mutant).expect("a value serializes");
        load_and_score(&json, stage, width);
    }
}

/// Loads a pipeline over a directory whose `index.jsonl` is `index`, as
/// `kyp scan --data` does, and returns the load's outcome; panics if the
/// load takes 10 s or more.
fn load_index(case: &str, index: &str) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("kyp_json_fuzz_index_{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a temp dir");
    std::fs::write(dir.join("index.jsonl"), index).expect("index.jsonl written");
    let snapshot =
        serde_json::from_value(staged_snapshot(STAGE_FULL).clone()).expect("a real snapshot loads");
    let started = Instant::now();
    let loaded = storeflow::load_pipeline(&dir, snapshot).map(drop);
    let took = started.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(took < Duration::from_secs(10), "{case} took {took:?}");
    loaded
}

/// One `index.jsonl` line.
fn index_line(rdn: &str, mld: &str, text: &str) -> String {
    let [rdn, mld, text] =
        [rdn, mld, text].map(|s| serde_json::to_string(s).expect("a string serializes"));
    format!("{{\"rdn\":{rdn},\"mld\":{mld},\"text\":{text}}}\n")
}

#[test]
fn hostile_index_files_load_or_fail_in_bounded_time() {
    const MIB: usize = 1 << 20;
    let normal = index_line("paypal.com", "paypal", "PayPal log in");
    // 4 MiB of one term, as one page's text and as one word.
    let repeated = index_line("a.com", "a", &"paypal ".repeat(4 * MIB / 7));
    assert!(load_index("repeated_term", &format!("{normal}{repeated}")).is_ok());
    let long = index_line("b.com", "b", &"z".repeat(4 * MIB));
    assert!(load_index("one_long_term", &format!("{long}{normal}")).is_ok());
    // 200,000 distinct terms in one page: four letters in base 26.
    let mut text = String::new();
    for n in 0..200_000u32 {
        for k in 0..4 {
            text.push(char::from(b'a' + (n / 26u32.pow(k) % 26) as u8));
        }
        text.push(' ');
    }
    let distinct = index_line("c.com", "c", &text);
    assert!(load_index("distinct_terms", &format!("{normal}{distinct}")).is_ok());
    // A line that is not JSON, and an entry without its text: one error.
    assert!(load_index("not_json", &format!("{normal}{{\"rdn\": [[[\n")).is_err());
    let no_text = "{\"rdn\":\"d.com\",\"mld\":\"d\"}\n";
    assert!(load_index("no_text", &format!("{normal}{no_text}")).is_err());
}
