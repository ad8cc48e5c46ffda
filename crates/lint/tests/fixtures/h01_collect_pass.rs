//! H01 `.collect()` passing fixture: the hot function counts, and its one
//! `.collect()` builds an `Option<()>`, which allocates nothing;
//! collecting into an owned container stays permitted in setup-named
//! functions and outside the hot closure.

pub struct FlatModel {
    names: Vec<String>,
}

impl FlatModel {
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        let finite = row
            .iter()
            .map(|v| v.is_finite().then_some(()))
            .collect::<Option<()>>();
        let positive: usize = row.iter().filter(|v| **v > 0.0).count();
        finite.map_or(0.0, |()| positive as f64)
    }

    /// Setup may collect: not on the hot path.
    pub fn new(names: &[&str]) -> Self {
        let names: Vec<String> = names.iter().map(|n| (*n).to_owned()).collect();
        FlatModel { names }
    }
}

/// Not reachable from the hot function.
pub fn describe(model: &FlatModel) -> String {
    model.names.iter().map(String::as_str).collect::<Vec<_>>().join(",")
}
