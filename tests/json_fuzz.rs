//! Mutation fuzzing of the JSON inputs that carry untrusted bytes: the
//! NDJSON request lines `kyp serve` reads from stdin, and model
//! snapshots. Each case edits a real document with byte flips,
//! truncation and inserted runs of brackets, quotes and separators;
//! parsing must return, `Ok` or `Err`, without panicking.

use knowyourphish::core::{DetectorConfig, ModelSnapshot, PhishDetector};
use knowyourphish::ml::Dataset;
use knowyourphish::serve::ServeRequest;
use knowyourphish::web::DomainRanker;
use proptest::prelude::*;
use std::sync::OnceLock;

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
