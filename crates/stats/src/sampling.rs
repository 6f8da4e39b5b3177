//! Dataset sampling utilities.
//!
//! The predictor training pipeline (paper §3.3) partitions data 80:20 with
//! stratification and applies *balanced undersampling*: the majority class
//! (continued watching, ~4:1 even among stall sessions) is randomly
//! undersampled to parity with the minority class (exits). Fig. 9(b) is the
//! ablation of that choice.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Result, StatsError};

/// Stratified train/test split: each class keeps the global train fraction,
/// so the test set preserves class balance (the paper's "80:20
/// stratification ratio").
///
/// `labels[i]` is the class of item `i` (binary: exit / keep watching).
pub fn stratified_split<R: Rng + ?Sized>(
    labels: &[bool],
    train_fraction: f64,
    rng: &mut R,
) -> Result<(Vec<usize>, Vec<usize>)> {
    if labels.is_empty() {
        return Err(StatsError::Empty);
    }
    if !(0.0..=1.0).contains(&train_fraction) || train_fraction.is_nan() {
        return Err(StatsError::InvalidParameter);
    }
    let mut train = Vec::new();
    let mut test = Vec::new();
    for class in [false, true] {
        let mut idx: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == class)
            .map(|(i, _)| i)
            .collect();
        idx.shuffle(rng);
        let cut = ((idx.len() as f64) * train_fraction).round() as usize;
        for (j, i) in idx.into_iter().enumerate() {
            if j < cut {
                train.push(i);
            } else {
                test.push(i);
            }
        }
    }
    train.shuffle(rng);
    test.shuffle(rng);
    Ok((train, test))
}

/// Balanced undersampling: return indices where the majority class has been
/// randomly undersampled to the minority class count. Preserves all minority
/// items. Errors if either class is absent.
pub fn balanced_undersample<R: Rng + ?Sized>(labels: &[bool], rng: &mut R) -> Result<Vec<usize>> {
    let pos: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter(|(_, &l)| l)
        .map(|(i, _)| i)
        .collect();
    let neg: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter(|(_, &l)| !l)
        .map(|(i, _)| i)
        .collect();
    if pos.is_empty() || neg.is_empty() {
        return Err(StatsError::InsufficientData);
    }
    let (minority, mut majority) = if pos.len() <= neg.len() {
        (pos, neg)
    } else {
        (neg, pos)
    };
    majority.shuffle(rng);
    majority.truncate(minority.len());
    let mut out = minority;
    out.extend(majority);
    out.shuffle(rng);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stratified_preserves_class_ratio() {
        let mut rng = StdRng::seed_from_u64(2);
        // 200 negatives, 50 positives (4:1 as in the paper).
        let labels: Vec<bool> = (0..250).map(|i| i < 50).collect();
        let (tr, te) = stratified_split(&labels, 0.8, &mut rng).unwrap();
        let tr_pos = tr.iter().filter(|&&i| labels[i]).count();
        let te_pos = te.iter().filter(|&&i| labels[i]).count();
        assert_eq!(tr_pos, 40);
        assert_eq!(te_pos, 10);
        assert_eq!(tr.len(), 200);
        assert_eq!(te.len(), 50);
    }

    #[test]
    fn balanced_equalises_classes() {
        let mut rng = StdRng::seed_from_u64(3);
        let labels: Vec<bool> = (0..500).map(|i| i < 100).collect();
        let idx = balanced_undersample(&labels, &mut rng).unwrap();
        let pos = idx.iter().filter(|&&i| labels[i]).count();
        let neg = idx.len() - pos;
        assert_eq!(pos, 100);
        assert_eq!(neg, 100);
        // All minority items kept.
        let mut minority: Vec<usize> = idx.iter().cloned().filter(|&i| labels[i]).collect();
        minority.sort_unstable();
        assert_eq!(minority, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn balanced_requires_both_classes() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(balanced_undersample(&[true, true], &mut rng).is_err());
        assert!(balanced_undersample(&[false], &mut rng).is_err());
    }
}
