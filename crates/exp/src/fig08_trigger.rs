//! Figure 8 — "Trade-offs between Stall Counts and Recall" (the trigger
//! threshold choice).
//!
//! (a) CDF of daily stall counts per bandwidth bucket: high-bandwidth users
//! almost never stall. (b) Predictor recall as a function of how many stall
//! events the user had accumulated when the prediction was made — recall
//! climbs with history, with a visible jump between one and two events,
//! which is why the paper sets the trigger η = 2.

use lingxi_core::SessionBuffers;
use lingxi_exit::{DatasetFlavor, ExitDataset, ExitPredictor, PredictorConfig};
use lingxi_stats::{BinaryConfusion, Ecdf};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::datasets::harvest_entries;
use crate::fig02_opportunities::daily_stall_count;
use crate::report::{ExperimentResult, Series};
use crate::world::{user_stream, World, WorldConfig};
use crate::{sub, Result};

/// Run the experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let world = World::build(&WorldConfig::default().scaled(scale), seed)?;
    let mut result = ExperimentResult::new(
        "fig08",
        "Daily stall counts per bandwidth bucket; recall vs accumulated stalls",
    );

    // (a) Stall-count CDFs per bandwidth bucket.
    let buckets: [(&str, f64, f64); 4] = [
        ("0-2Mbps", 0.0, 2000.0),
        ("2-4Mbps", 2000.0, 4000.0),
        ("4-10Mbps", 4000.0, 10_000.0),
        ("10+Mbps", 10_000.0, f64::INFINITY),
    ];
    let mut buffers = SessionBuffers::new();
    for (label, lo, hi) in buckets {
        let mut counts = Vec::new();
        for user in world
            .population
            .users()
            .iter()
            .filter(|u| u.net.mean_kbps >= lo && u.net.mean_kbps < hi)
        {
            let rng = user_stream(seed, user.id, 0xF08);
            counts.push(daily_stall_count(&world, user, rng, &mut buffers)? as f64);
        }
        if counts.is_empty() {
            continue;
        }
        let cdf = Ecdf::new(&counts).map_err(sub)?;
        result.push_series(Series::from_xy(
            &format!("stall_cdf/{label}"),
            &cdf.on_grid(0.0, 10.0, 11).map_err(sub)?,
        ));
    }

    // (b) Recall vs accumulated stall count at prediction time.
    let harvested = harvest_entries(&world, seed ^ 0x8, 2)?;
    let stall_entries: Vec<_> = harvested.iter().filter(|h| h.entry.stalled).collect();
    let raw: Vec<lingxi_exit::ExitEntry> = stall_entries.iter().map(|h| h.entry).collect();
    if raw.iter().any(|e| e.exited) && raw.iter().any(|e| !e.exited) {
        let ds = ExitDataset::new(&raw, DatasetFlavor::Stall).map_err(sub)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x88);
        let (train, test) = ds.split(&mut rng).map_err(sub)?;
        let balanced = ds.balance(&train, &mut rng).map_err(sub)?;
        let mut predictor = ExitPredictor::new(PredictorConfig::small(), &mut rng).map_err(sub)?;
        predictor.train(&ds, &balanced, &mut rng).map_err(sub)?;

        // Group the *test* entries by the user's accumulated stall count.
        let mut recall_points: Vec<(String, f64)> = Vec::new();
        for k in 1..=8usize {
            let mut confusion = BinaryConfusion::new();
            for &i in &test {
                let h = stall_entries[i];
                let bucket = h.prior_stall_count.clamp(0, 8);
                if bucket + 1 != k {
                    continue;
                }
                let p = predictor.predict(&h.entry.state);
                confusion.record(p >= 0.5, h.entry.exited);
            }
            if confusion.tp + confusion.fn_ > 0 {
                recall_points.push((format!("{k}"), confusion.metrics().recall));
            }
        }
        if !recall_points.is_empty() {
            // Headline: recall gain from 1 accumulated stall to >= 2.
            let r1 = recall_points.first().map(|(_, r)| *r).unwrap_or(0.0);
            let r2plus: Vec<f64> = recall_points.iter().skip(1).map(|(_, r)| *r).collect();
            if !r2plus.is_empty() {
                let mean2 = r2plus.iter().sum::<f64>() / r2plus.len() as f64;
                result.headline_value("recall_at_1_stall", r1);
                result.headline_value("recall_at_2plus_stalls", mean2);
            }
            result.push_series(Series {
                name: "recall_vs_stall_count".into(),
                points: recall_points,
            });
        }
    }
    result.headline_value("n_stall_entries", raw.len() as f64);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig08_bucket_cdfs_ordered() {
        let r = run(13, 0.15).unwrap();
        assert_eq!(r.fingerprint(), 0x4a3c_fde6_55ef_aba2);
        // High-bandwidth users stall less: CDF at 0 higher for 10+Mbps
        // than for 0-2Mbps (when both buckets are populated).
        let low = r.series_named("stall_cdf/0-2Mbps");
        let high = r.series_named("stall_cdf/10+Mbps");
        if let (Some(low), Some(high)) = (low, high) {
            assert!(
                high.ys()[0] >= low.ys()[0],
                "high-bw stall-free {} < low-bw {}",
                high.ys()[0],
                low.ys()[0]
            );
        }
        // Stall entries were harvested.
        let n = r.headline_named("n_stall_entries").unwrap();
        assert!(n > 10.0, "too few stall entries: {n}");
    }
}
