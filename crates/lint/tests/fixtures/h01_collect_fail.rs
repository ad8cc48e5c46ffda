//! H01 `.collect()` failing fixture: a registered hot function
//! (`FlatModel::predict_proba` when analyzed as crate `ml`) collects into
//! owned containers on every call — once named by the `let` type, once by
//! a turbofish in a callee.

pub struct FlatModel;

impl FlatModel {
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        let positive: Vec<f64> = row.iter().copied().filter(|v| *v > 0.0).collect();
        first(&positive).max(signs(row))
    }
}

fn first(values: &[f64]) -> f64 {
    values.first().copied().unwrap_or(0.0)
}

fn signs(row: &[f64]) -> f64 {
    let signs = row
        .iter()
        .map(|v| if *v > 0.0 { '+' } else { '-' })
        .collect::<String>();
    signs.len() as f64
}
