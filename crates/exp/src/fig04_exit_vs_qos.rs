//! Figure 4 — "The Impact of QoS metrics on Exit Rates."
//!
//! Segment-level exit rates conditioned on (a) quality tier, (b) switch
//! granularity, (c) session stall exposure, (d) compound modifiers. The
//! shape to reproduce is Takeaway 1's magnitude hierarchy: quality effects
//! ~1e-3, smoothness ~1e-2, stall ~1e-1 (max differential ≈ 0.3), plus the
//! compound effects (engagement beyond 20 s raises tolerance, Full HD
//! lowers it, repeated stalls compound).

use lingxi_abr::Hyb;
use lingxi_core::{ManagedHooks, SessionBuffers};
use lingxi_media::QualityTier;

use crate::report::{ExperimentResult, Series};
use crate::world::{user_stream, World, WorldConfig};
use crate::Result;

/// One observed segment with its exit label and context.
struct Obs {
    tier: usize,
    granularity: i64,
    session_stall: f64,
    stall_events: usize,
    watch_before: f64,
    exited: bool,
}

fn rate(obs: &[&Obs]) -> f64 {
    if obs.is_empty() {
        return 0.0;
    }
    obs.iter().filter(|o| o.exited).count() as f64 / obs.len() as f64
}

/// Run the experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    // More users than default: this figure needs segment volume.
    let world = World::build(
        &WorldConfig {
            n_users: 600,
            ..WorldConfig::default()
        }
        .scaled(scale),
        seed,
    )?;

    let mut observations: Vec<Obs> = Vec::new();
    let mut buffers = SessionBuffers::new();
    for user in world.population.users() {
        let mut rng = user_stream(seed, user.id, 0xF04);
        let sessions = user.sessions_today(&mut rng);
        for _ in 0..sessions {
            let mut exit_model = user.exit_model();
            // Per-segment observations are read back from the session's log.
            let mut hooks = ManagedHooks {
                abr: &mut Hyb::default_rule(),
                lingxi: None,
                user: &mut exit_model,
                buffers: &mut buffers,
                rng: &mut rng,
            };
            world.play(user, &mut hooks)?;
            let log = buffers.log();
            let mut session_stall = 0.0;
            let mut events = 0usize;
            let mut watch = 0.0;
            for (i, seg) in log.segments.iter().enumerate() {
                if seg.stall_time > 0.0 {
                    session_stall += seg.stall_time;
                    events += 1;
                }
                let tier = match world.ladder().tier(seg.level).unwrap_or(QualityTier::Ld) {
                    QualityTier::Ld => 0,
                    QualityTier::Sd => 1,
                    QualityTier::Hd => 2,
                    QualityTier::FullHd => 3,
                };
                let exited = log.exit_segment == Some(i);
                observations.push(Obs {
                    tier,
                    granularity: seg.switch_granularity(),
                    session_stall,
                    stall_events: events,
                    watch_before: watch,
                    exited,
                });
                watch += 2.0; // segment duration
            }
        }
    }

    let all: Vec<&Obs> = observations.iter().collect();
    let mut result = ExperimentResult::new("fig04", "Exit rate vs QoS metrics");

    // (a) Quality: stall-free, switch-free segments only.
    let labels = ["LD", "SD", "HD", "Full HD"];
    let quality_points: Vec<(&str, f64)> = labels
        .iter()
        .enumerate()
        .map(|(t, &l)| {
            let subset: Vec<&Obs> = all
                .iter()
                .filter(|o| o.tier == t && o.granularity == 0 && o.session_stall == 0.0)
                .cloned()
                .collect();
            (l, rate(&subset))
        })
        .collect();
    result.push_series(Series::from_labelled("exit_by_quality", &quality_points));

    // (b) Smoothness: by switch granularity, stall-free segments.
    let gran_points: Vec<(String, f64)> = (-2i64..=2)
        .map(|g| {
            let subset: Vec<&Obs> = all
                .iter()
                .filter(|o| o.granularity == g && o.session_stall == 0.0)
                .cloned()
                .collect();
            (format!("{g}"), rate(&subset))
        })
        .collect();
    result.push_series(Series {
        name: "exit_by_switch".into(),
        points: gran_points,
    });

    // (c) Stall exposure buckets 0..20 s.
    let stall_bucket = |o: &Obs| ((o.session_stall / 2.0) as usize).min(10);
    let stall_points: Vec<(String, f64)> = (0..=10)
        .map(|b| {
            let subset: Vec<&Obs> = all
                .iter()
                .filter(|o| stall_bucket(o) == b)
                .cloned()
                .collect();
            (format!("{}", b * 2), rate(&subset))
        })
        .collect();
    result.push_series(Series {
        name: "exit_by_stall".into(),
        points: stall_points,
    });

    // (d) Compound effects over the same stall buckets.
    let compound = |name: &str, filt: &dyn Fn(&Obs) -> bool, result: &mut ExperimentResult| {
        let pts: Vec<(String, f64)> = (0..=10)
            .map(|b| {
                let subset: Vec<&Obs> = all
                    .iter()
                    .filter(|o| stall_bucket(o) == b && filt(o))
                    .cloned()
                    .collect();
                (format!("{}", b * 2), rate(&subset))
            })
            .collect();
        result.push_series(Series {
            name: name.into(),
            points: pts,
        });
    };
    compound(
        "exit_by_stall_beyond20s",
        &|o| o.watch_before > 20.0,
        &mut result,
    );
    compound("exit_by_stall_fullhd", &|o| o.tier == 3, &mut result);
    compound(
        "exit_by_stall_multiple",
        &|o| o.stall_events >= 2,
        &mut result,
    );

    // Headline magnitudes (Takeaway 1).
    let q = result.series_named("exit_by_quality").unwrap().ys();
    let quality_span = q.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - q.iter().cloned().fold(f64::INFINITY, f64::min);
    let sw = result.series_named("exit_by_switch").unwrap().ys();
    let switch_span = sw.iter().cloned().fold(f64::NEG_INFINITY, f64::max) - sw[2]; // vs no-switch centre
    let st = result.series_named("exit_by_stall").unwrap().ys();
    let stall_span = st.iter().cloned().fold(f64::NEG_INFINITY, f64::max) - st[0];
    result.headline_value("quality_effect_span", quality_span);
    result.headline_value("switch_effect_span", switch_span);
    result.headline_value("stall_effect_span", stall_span);
    result.headline_value("n_observations", all.len() as f64);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig04_magnitude_hierarchy() {
        let r = run(7, 0.15).unwrap();
        assert_eq!(r.fingerprint(), 0xf453_90e7_7ff3_14cb);
        let get = |k: &str| r.headline_named(k).unwrap();
        let q = get("quality_effect_span");
        let s = get("switch_effect_span");
        let st = get("stall_effect_span");
        // Takeaway 1 hierarchy: stall ≫ switch > quality.
        assert!(st > s, "stall {st} vs switch {s}");
        assert!(st > 10.0 * q, "stall {st} vs quality {q}");
        // The paper's production differential tops out near 0.3; our
        // synthetic users are more deterministic (a deliberate trade-off —
        // see README.md, "Regenerating the paper's figures"), so only the lower bound and the hierarchy
        // are asserted.
        assert!(st > 0.03, "stall span too small: {st}");
        assert!(st <= 1.0, "stall span out of probability range: {st}");
    }
}
