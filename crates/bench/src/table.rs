//! Table formatting matching the paper's presentation.

use kyp_ml::metrics::{self, Confusion};

/// One evaluation row: the metrics of Tables VI/VII.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRow {
    /// Row label (language, feature set, system name, ...).
    pub name: String,
    /// Precision at the discrimination threshold.
    pub precision: f64,
    /// Recall at the discrimination threshold.
    pub recall: f64,
    /// F1 score.
    pub f1: f64,
    /// False positive rate.
    pub fpr: f64,
    /// Area under the ROC curve.
    pub auc: f64,
}

impl EvalRow {
    /// Computes a row from scores/labels at a threshold.
    pub fn compute(
        name: impl Into<String>,
        scores: &[f64],
        labels: &[bool],
        threshold: f64,
    ) -> Self {
        let c = Confusion::at_threshold(scores, labels, threshold);
        EvalRow {
            name: name.into(),
            precision: c.precision(),
            recall: c.recall(),
            f1: c.f1(),
            fpr: c.fpr(),
            auc: metrics::auc(scores, labels),
        }
    }

    /// Prints a header matching [`EvalRow::print`].
    pub fn print_header(label: &str) {
        println!(
            "{label:<14} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "Pre.", "Recall", "F1-score", "FP Rate", "AUC"
        );
    }

    /// Prints the row in the paper's column layout.
    pub fn print(&self) {
        println!(
            "{:<14} {:>9.3} {:>9.3} {:>9.3} {:>9.4} {:>9.3}",
            self.name, self.precision, self.recall, self.f1, self.fpr, self.auc
        );
    }
}

/// Formats a float with `d` decimals (for ad-hoc table cells).
pub fn fmt_f(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_computation() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        let row = EvalRow::compute("test", &scores, &labels, 0.7);
        assert_eq!(row.precision, 1.0);
        assert_eq!(row.recall, 1.0);
        assert_eq!(row.fpr, 0.0);
        assert_eq!(row.auc, 1.0);
        assert_eq!(row.name, "test");
    }

    #[test]
    fn fmt_helper() {
        assert_eq!(fmt_f(0.12345, 3), "0.123");
        assert_eq!(fmt_f(1.0, 1), "1.0");
    }
}
