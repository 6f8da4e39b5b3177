//! Shared dataset generation: labelled exit entries harvested from
//! simulated playback (the "online logs" of §3.3).

use lingxi_abr::Hyb;
use lingxi_core::{ManagedHooks, SessionBuffers};
use lingxi_exit::{ExitEntry, UserStateTracker};

use crate::world::{user_stream, World};
use crate::Result;

/// One user's harvested entries plus their per-entry accumulated stall
/// count (used by the Fig. 8(b) recall-vs-history analysis).
pub struct HarvestedEntry {
    /// The labelled entry.
    pub entry: ExitEntry,
    /// Stalls accumulated in the user's history *before* this entry.
    pub prior_stall_count: usize,
    /// Owning user.
    pub user_id: u64,
}

/// Run `days` simulated days over the whole population, maintaining each
/// user's long-term state tracker across sessions, and emit one labelled
/// entry per segment.
pub fn harvest_entries(world: &World, seed: u64, days: usize) -> Result<Vec<HarvestedEntry>> {
    let mut out = Vec::new();
    let mut buffers = SessionBuffers::new();
    for user in world.population.users() {
        let mut tracker = UserStateTracker::new();
        let mut stall_count = 0usize;
        for day in 0..days {
            let mut rng = user_stream(seed, user.id, (day as u64) << 40);
            let sessions = user.sessions_today(&mut rng);
            let mut exit_model = user.exit_model_for_day(&world.drift, &mut rng);
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
                for (i, seg) in log.segments.iter().enumerate() {
                    let prior = stall_count;
                    let stalled = seg.stall_time > 0.0;
                    // Update tracker first (the matrix includes the current
                    // segment, matching Algorithm 2's predict-after-update).
                    tracker.push_segment(seg.bitrate_kbps, seg.throughput_kbps, 2.0);
                    if stalled {
                        tracker.push_stall(seg.stall_time);
                        stall_count += 1;
                    }
                    let exited = log.exit_segment == Some(i);
                    if exited && stalled {
                        tracker.push_stall_exit();
                    }
                    out.push(HarvestedEntry {
                        entry: ExitEntry {
                            state: tracker.matrix(),
                            stalled,
                            switched: seg.is_switch(),
                            exited,
                        },
                        prior_stall_count: prior,
                        user_id: user.id,
                    });
                }
                // Idle gap between sessions.
                tracker.advance_clock(30.0);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn harvest_produces_labelled_entries() {
        let world = World::build(&WorldConfig::default().scaled(0.05), 1).unwrap();
        let entries = harvest_entries(&world, 2, 1).unwrap();
        assert!(entries.len() > 100, "entries {}", entries.len());
        // Some exits, far fewer than continues.
        let exits = entries.iter().filter(|e| e.entry.exited).count();
        assert!(exits > 0);
        assert!(exits * 2 < entries.len());
        // Stalled entries exist (constrained users).
        assert!(entries.iter().any(|e| e.entry.stalled));
        // prior counts monotone per user.
        let uid = entries[0].user_id;
        let mut prev = 0;
        for e in entries.iter().filter(|e| e.user_id == uid) {
            assert!(e.prior_stall_count >= prev);
            prev = e.prior_stall_count;
        }
    }
}
