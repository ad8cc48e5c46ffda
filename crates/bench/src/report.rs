//! Machine-readable experiment output (`BENCH_cascade.json`).
//!
//! `exp_cascade_frontier` writes its sweep as one top-level section of a
//! json file at the repository root, so CI artifacts carry the frontier
//! as data, not only as a stdout table. The file holds no wall-clock
//! figures: timing is perfbench's job (see README).
//!
//! The vendored `serde_json` stand-in has no `json!` macro, so the small
//! [`object`] / [`float`] / [`uint`] / [`boolean`] constructors here are
//! the building blocks for report values.

use serde_json::{Number, Value};
use std::fs;
use std::path::Path;

/// Cascade-frontier report location (`exp_cascade_frontier`), relative
/// to the working directory (the experiment binaries run from the repo
/// root).
pub const BENCH_CASCADE_REPORT_PATH: &str = "BENCH_cascade.json";

/// A json object value from `(key, value)` pairs, in order.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A json float.
pub fn float(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

/// A json non-negative integer.
pub fn uint(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

/// A json bool.
pub fn boolean(v: bool) -> Value {
    Value::Bool(v)
}

/// Appends `(key, value)` to an object value; panics on non-objects.
pub fn push_field(obj: &mut Value, key: &str, value: Value) {
    match obj {
        Value::Object(fields) => fields.push((key.to_owned(), value)),
        _ => panic!("push_field on a non-object value"),
    }
}

/// Inserts (or replaces) `section` in the json object stored at `path`,
/// creating the file when absent and preserving every other section.
///
/// Unparseable existing content is discarded rather than propagated — a
/// benchmark must never fail because a previous run was interrupted
/// mid-write.
pub fn write_bench_section(path: &Path, section: &str, value: Value) -> Result<(), std::io::Error> {
    let mut root: Vec<(String, Value)> = fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .and_then(|v| match v {
            Value::Object(fields) => Some(fields),
            _ => None,
        })
        .unwrap_or_default();
    if let Some(slot) = root.iter_mut().find(|(k, _)| k == section) {
        slot.1 = value;
    } else {
        root.push((section.to_owned(), value));
    }
    let text = serde_json::to_string_pretty(&Value::Object(root)).expect("serialize bench report");
    fs::write(path, text + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_merge_and_survive_garbage() {
        let dir = std::env::temp_dir().join("kyp_bench_report_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = fs::remove_file(&path);

        write_bench_section(&path, "a", object([("x", uint(1))])).unwrap();
        write_bench_section(&path, "b", Value::Array(vec![uint(1), uint(2)])).unwrap();
        let root: Value = serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(root.get("a").unwrap().get("x").unwrap().as_u64(), Some(1));
        assert_eq!(
            root.get("b").unwrap().as_array().unwrap()[1].as_u64(),
            Some(2)
        );

        // Overwrite a section, keep the other.
        write_bench_section(&path, "a", object([("x", uint(9))])).unwrap();
        let root: Value = serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(root.get("a").unwrap().get("x").unwrap().as_u64(), Some(9));
        assert_eq!(
            root.get("b").unwrap().as_array().unwrap()[0].as_u64(),
            Some(1)
        );

        // A corrupted file is replaced, not fatal.
        fs::write(&path, "{not json").unwrap();
        write_bench_section(&path, "c", boolean(true)).unwrap();
        let root: Value = serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(root.get("c").unwrap().as_bool(), Some(true));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn push_field_appends_in_order() {
        let mut v = object([("a", uint(1))]);
        push_field(&mut v, "b", float(2.5));
        let fields = v.as_object().unwrap();
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[1].0, "b");
    }
}
