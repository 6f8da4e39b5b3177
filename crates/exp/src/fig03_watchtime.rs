//! Figure 3 — "The Impact of QoS Metrics on Watch Time."
//!
//! Watch time, aggregated daily per user, is noisy: bucketed by quality
//! tier or stall exposure it shows weak/irregular trends — the argument
//! for moving to segment-level exit rates (Fig. 4). We regenerate both
//! panels: (a) normalised watch time per quality tier, (b) normalised
//! watch time vs per-10000s stall exposure buckets.

use lingxi_abr::Hyb;
use lingxi_core::{ManagedHooks, SessionBuffers};
use lingxi_media::QualityTier;

use crate::report::{ExperimentResult, Series};
use crate::world::{user_stream, World, WorldConfig};
use crate::Result;

/// Run the experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let world = World::build(&WorldConfig::default().scaled(scale), seed)?;

    // Per user-day: watch time, dominant quality tier, stall per 10000 s.
    let mut by_tier: [Vec<f64>; 4] = Default::default();
    let mut stall_rate_watch: Vec<(f64, f64)> = Vec::new();
    let mut buffers = SessionBuffers::new();
    for user in world.population.users() {
        let mut rng = user_stream(seed, user.id, 0xF03);
        let sessions = user.sessions_today(&mut rng);
        let mut exit_model = user.exit_model();
        let mut watch = 0.0;
        let mut stall = 0.0;
        let mut tier_histogram = [0usize; 4];
        for _ in 0..sessions {
            let mut hooks = ManagedHooks {
                abr: &mut Hyb::default_rule(),
                lingxi: None,
                user: &mut exit_model,
                buffers: &mut buffers,
                rng: &mut rng,
            };
            world.play(user, &mut hooks)?;
            let log = buffers.log();
            watch += log.watch_time;
            stall += log.total_stall();
            for seg in &log.segments {
                let tier = world.ladder().tier(seg.level).unwrap_or(QualityTier::Ld);
                tier_histogram[match tier {
                    QualityTier::Ld => 0,
                    QualityTier::Sd => 1,
                    QualityTier::Hd => 2,
                    QualityTier::FullHd => 3,
                }] += 1;
            }
        }
        let dominant = tier_histogram
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        by_tier[dominant].push(watch);
        let stall_per_10k = if watch > 0.0 {
            stall / watch * 10_000.0
        } else {
            0.0
        };
        stall_rate_watch.push((stall_per_10k, watch));
    }

    let max_watch = by_tier
        .iter()
        .flatten()
        .cloned()
        .fold(f64::MIN_POSITIVE, f64::max);

    let mut result = ExperimentResult::new("fig03", "Watch time vs quality tier / stall time");
    let labels = ["LD", "SD", "HD", "Full HD"];
    let tier_points: Vec<(&str, f64)> = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            let xs = &by_tier[i];
            let mean = if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            };
            (l, mean / max_watch)
        })
        .collect();
    result.push_series(Series::from_labelled("norm_watch_by_tier", &tier_points));

    // Stall buckets: 0–30 s per 10000 s in 6 buckets.
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); 6];
    for &(rate, watch) in &stall_rate_watch {
        let idx = ((rate / 5.0) as usize).min(5);
        buckets[idx].push(watch);
    }
    let max_bucket_watch = buckets
        .iter()
        .flatten()
        .cloned()
        .fold(f64::MIN_POSITIVE, f64::max);
    let stall_points: Vec<(String, f64)> = buckets
        .iter()
        .enumerate()
        .map(|(i, xs)| {
            let mean = if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            };
            (format!("{}", i * 5), mean / max_bucket_watch)
        })
        .collect();
    result.push_series(Series {
        name: "norm_watch_by_stall_rate".into(),
        points: stall_points,
    });

    // Headline: daily watch time is high-variance relative to its mean —
    // the reason the paper moves to exit rates.
    let all_watch: Vec<f64> = stall_rate_watch.iter().map(|&(_, w)| w).collect();
    let mean = all_watch.iter().sum::<f64>() / all_watch.len().max(1) as f64;
    let std = (all_watch
        .iter()
        .map(|w| (w - mean) * (w - mean))
        .sum::<f64>()
        / all_watch.len().max(1) as f64)
        .sqrt();
    result.headline_value("watch_time_cv", std / mean.max(1e-9));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_produces_noisy_watch_series() {
        let r = run(5, 0.05).unwrap();
        assert_eq!(r.fingerprint(), 0x12df_6b0a_553c_7a38);
        let tier = r.series_named("norm_watch_by_tier").unwrap();
        assert_eq!(tier.points.len(), 4);
        assert!(tier.ys().iter().all(|&y| (0.0..=1.0 + 1e-9).contains(&y)));
        let stall = r.series_named("norm_watch_by_stall_rate").unwrap();
        assert_eq!(stall.points.len(), 6);
        // The claim is noise: daily watch time has substantial dispersion.
        let cv = r.headline_named("watch_time_cv").unwrap();
        assert!(cv > 0.2, "cv {cv}");
    }
}
