//! Dataset assembly for predictor training.
//!
//! Fig. 9(a) compares predictors trained on three dataset compositions:
//! ALL (every segment), EVENT (segments with a stall *or* a quality
//! switch) and STALL (only stalled segments — the paper's production
//! choice). Entries pair a [`StateMatrix`] with the observed exit label.

use rand::Rng;

use lingxi_stats::sampling::{balanced_undersample, stratified_split};

use crate::features::StateMatrix;
use crate::{ExitError, Result};

/// One labelled training entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExitEntry {
    /// User state at decision time.
    pub state: StateMatrix,
    /// Did the segment stall?
    pub stalled: bool,
    /// Did the segment carry a quality switch?
    pub switched: bool,
    /// Did the user exit after it?
    pub exited: bool,
}

/// Which segments a dataset keeps — the Fig. 9(a) ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetFlavor {
    /// Every segment.
    All,
    /// Only segments with a stall or switch ("relevant events").
    Event,
    /// Only stalled segments (the deployed choice).
    Stall,
}

impl DatasetFlavor {
    /// Does this flavor keep the entry?
    pub fn keeps(&self, e: &ExitEntry) -> bool {
        match self {
            DatasetFlavor::All => true,
            DatasetFlavor::Event => e.stalled || e.switched,
            DatasetFlavor::Stall => e.stalled,
        }
    }

    /// Label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetFlavor::All => "ALL",
            DatasetFlavor::Event => "Event",
            DatasetFlavor::Stall => "Stall",
        }
    }
}

/// A labelled dataset with split/sampling utilities.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitDataset {
    entries: Vec<ExitEntry>,
}

impl ExitDataset {
    /// Build from raw entries filtered by `flavor`.
    pub fn new(raw: &[ExitEntry], flavor: DatasetFlavor) -> Result<Self> {
        let entries: Vec<ExitEntry> = raw.iter().filter(|e| flavor.keeps(e)).cloned().collect();
        if entries.is_empty() {
            return Err(ExitError::BadDataset(format!(
                "flavor {:?} keeps no entries",
                flavor
            )));
        }
        Ok(Self { entries })
    }

    /// All entries.
    pub fn entries(&self) -> &[ExitEntry] {
        &self.entries
    }

    /// Dataset size.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Datasets are never empty by construction.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exit fraction (class balance diagnostic; the paper reports ~4:1
    /// continue:exit even among stalls).
    pub fn exit_fraction(&self) -> f64 {
        self.entries.iter().filter(|e| e.exited).count() as f64 / self.entries.len() as f64
    }

    /// Stratified 80:20 split (paper's ratio). Returns (train, test) index
    /// sets into `entries()`.
    pub fn split<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<(Vec<usize>, Vec<usize>)> {
        let labels: Vec<bool> = self.entries.iter().map(|e| e.exited).collect();
        stratified_split(&labels, 0.8, rng).map_err(|e| ExitError::BadDataset(e.to_string()))
    }

    /// Balanced undersampling of a subset (by indices): majority class
    /// randomly reduced to minority size.
    pub fn balance<R: Rng + ?Sized>(&self, indices: &[usize], rng: &mut R) -> Result<Vec<usize>> {
        let labels: Vec<bool> = indices.iter().map(|&i| self.entries[i].exited).collect();
        let picked =
            balanced_undersample(&labels, rng).map_err(|e| ExitError::BadDataset(e.to_string()))?;
        Ok(picked.into_iter().map(|j| indices[j]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn entry(stalled: bool, switched: bool, exited: bool) -> ExitEntry {
        ExitEntry {
            state: StateMatrix::zeros(),
            stalled,
            switched,
            exited,
        }
    }

    fn raw() -> Vec<ExitEntry> {
        let mut v = Vec::new();
        for i in 0..1000 {
            let stalled = i % 5 == 0; // 200 stalled
            let switched = i % 3 == 0;
            let exited = stalled && i % 10 == 0; // 100 exits, all stalled
            v.push(entry(stalled, switched, exited));
        }
        v
    }

    #[test]
    fn flavors_filter_correctly() {
        let raw = raw();
        let all = ExitDataset::new(&raw, DatasetFlavor::All).unwrap();
        let event = ExitDataset::new(&raw, DatasetFlavor::Event).unwrap();
        let stall = ExitDataset::new(&raw, DatasetFlavor::Stall).unwrap();
        assert_eq!(all.len(), 1000);
        assert_eq!(stall.len(), 200);
        assert!(event.len() > stall.len() && event.len() < all.len());
        assert!(stall.entries().iter().all(|e| e.stalled));
        assert!(event.entries().iter().all(|e| e.stalled || e.switched));
    }

    #[test]
    fn empty_flavor_errors() {
        let raw = vec![entry(false, false, false); 10];
        assert!(ExitDataset::new(&raw, DatasetFlavor::Stall).is_err());
        assert!(ExitDataset::new(&raw, DatasetFlavor::All).is_ok());
        assert!(ExitDataset::new(&[], DatasetFlavor::All).is_err());
    }

    #[test]
    fn split_is_stratified_80_20() {
        let raw = raw();
        let ds = ExitDataset::new(&raw, DatasetFlavor::Stall).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = ds.split(&mut rng).unwrap();
        assert_eq!(train.len() + test.len(), 200);
        assert!((train.len() as f64 / 200.0 - 0.8).abs() < 0.02);
        let train_exits = train.iter().filter(|&&i| ds.entries()[i].exited).count();
        let test_exits = test.iter().filter(|&&i| ds.entries()[i].exited).count();
        assert_eq!(train_exits, 80);
        assert_eq!(test_exits, 20);
    }

    #[test]
    fn balance_equalises() {
        let raw = raw();
        let ds = ExitDataset::new(&raw, DatasetFlavor::Stall).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let (train, _) = ds.split(&mut rng).unwrap();
        let balanced = ds.balance(&train, &mut rng).unwrap();
        let exits = balanced.iter().filter(|&&i| ds.entries()[i].exited).count();
        assert_eq!(exits * 2, balanced.len());
    }

    #[test]
    fn exit_fraction_matches_construction() {
        let raw = raw();
        let stall = ExitDataset::new(&raw, DatasetFlavor::Stall).unwrap();
        // 100 exits of 200 stalled.
        assert!((stall.exit_fraction() - 0.5).abs() < 1e-12);
    }
}
