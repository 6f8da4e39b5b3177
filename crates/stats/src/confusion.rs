//! Binary-classification metrics for the exit-rate predictor.
//!
//! The paper evaluates its predictor with accuracy, precision, recall and F1
//! (Fig. 9) and studies recall vs accumulated stall count to choose the
//! trigger threshold (Fig. 8b). "Positive" throughout means *exit*.

/// Counts of a binary confusion matrix. Positive class = "user exits".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinaryConfusion {
    /// Predicted exit, user exited.
    pub tp: u64,
    /// Predicted exit, user kept watching.
    pub fp: u64,
    /// Predicted keep-watching, user kept watching.
    pub tn: u64,
    /// Predicted keep-watching, user exited.
    pub fn_: u64,
}

impl BinaryConfusion {
    /// Empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one (predicted, actual) pair.
    pub fn record(&mut self, predicted_exit: bool, actual_exit: bool) {
        match (predicted_exit, actual_exit) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Merge another matrix into this one (for parallel evaluation shards).
    pub fn merge(&mut self, other: &BinaryConfusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Derived metrics. Divisions by zero yield 0.0 (convention: a metric
    /// with an empty denominator is reported as zero, never NaN).
    pub fn metrics(&self) -> ClassMetrics {
        let total = self.total() as f64;
        let accuracy = if total == 0.0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total
        };
        let precision = ratio(self.tp, self.tp + self.fp);
        let recall = ratio(self.tp, self.tp + self.fn_);
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        ClassMetrics {
            accuracy,
            precision,
            recall,
            f1,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Accuracy / precision / recall / F1, the four bars of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMetrics {
    /// Fraction of correct predictions.
    pub accuracy: f64,
    /// TP / (TP + FP).
    pub precision: f64,
    /// TP / (TP + FN).
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let mut c = BinaryConfusion::new();
        for _ in 0..10 {
            c.record(true, true);
            c.record(false, false);
        }
        let m = c.metrics();
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn known_mixed_counts() {
        let c = BinaryConfusion {
            tp: 8,
            fp: 2,
            tn: 85,
            fn_: 5,
        };
        let m = c.metrics();
        assert!((m.accuracy - 0.93).abs() < 1e-12);
        assert!((m.precision - 0.8).abs() < 1e-12);
        assert!((m.recall - 8.0 / 13.0).abs() < 1e-12);
        let expect_f1 = 2.0 * 0.8 * (8.0 / 13.0) / (0.8 + 8.0 / 13.0);
        assert!((m.f1 - expect_f1).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_all_zero() {
        let m = BinaryConfusion::new().metrics();
        assert_eq!(m.accuracy, 0.0);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    fn never_predicts_positive() {
        let mut c = BinaryConfusion::new();
        for _ in 0..5 {
            c.record(false, true);
            c.record(false, false);
        }
        let m = c.metrics();
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.f1, 0.0);
        assert_eq!(m.accuracy, 0.5);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = BinaryConfusion {
            tp: 1,
            fp: 2,
            tn: 3,
            fn_: 4,
        };
        let b = BinaryConfusion {
            tp: 10,
            fp: 20,
            tn: 30,
            fn_: 40,
        };
        a.merge(&b);
        assert_eq!(a.tp, 11);
        assert_eq!(a.total(), 110);
    }
}
