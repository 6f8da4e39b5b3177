//! Output checks. Each is one attempted operation; each violation is one
//! failed operation and a line saying what broke.

use std::path::Path;

use lingxi_abtest::DayMetrics;
use lingxi_core::{BinLogConfig, BinaryStateLog, StateBackend};
use lingxi_fleet::FleetReport;
use lingxi_net::{Allocation, FlowDemand, Topology, MAX_SWEEPS};

use crate::workloads::{FleetInput, RepOutcome};

fn day_finite(d: &DayMetrics) -> bool {
    d.watch_time.is_finite() && d.stall_time.is_finite() && d.mean_bitrate.is_finite()
}

/// Invariants of a fleet report: no state warnings, every sketch saw every
/// session, all merged floats finite.
pub fn check_fleet_report(report: &FleetReport, out: &mut RepOutcome) {
    out.attempted += 3;
    if !report.state_warnings.is_empty() {
        out.failures.push(format!(
            "state_warnings not empty: {:?}",
            report.state_warnings
        ));
    }
    let sessions = report.sessions as u64;
    let count = |pick: fn(&lingxi_fleet::EpochSketches) -> u64| -> u64 {
        report.epochs.iter().map(|e| pick(&e.sketches)).sum()
    };
    let counts = [
        count(|s| s.stall.count()),
        count(|s| s.watch.count()),
        count(|s| s.bitrate.count()),
    ];
    if counts.iter().any(|&c| c != sessions) {
        out.failures.push(format!(
            "sketch counts {counts:?} differ from sessions {sessions}"
        ));
    }
    let finite = report.epochs.iter().all(|e| {
        day_finite(&e.all)
            && e.control.as_ref().is_none_or(day_finite)
            && e.treatment.as_ref().is_none_or(day_finite)
            && e.classes.iter().all(day_finite)
    });
    if !finite {
        out.failures.push("a merged metric is not finite".into());
    }
}

/// Ids of the users the run managed, ascending: the static cohort's
/// managed share, or in dynamics mode every epoch's managed arrivals
/// (ids are `epoch << 32 | arrival index`; the arrival count of an epoch
/// is the sum of its dispatch placements).
fn managed_ids(input: &FleetInput, report: &FleetReport) -> Result<Vec<u64>, String> {
    let managed = |id: &u64| input.scenario.abr_mix.policy_for(*id).managed();
    if input.config.dynamics.is_none() {
        return Ok((0..input.scenario.n_users as u64).filter(managed).collect());
    }
    let mut ids = Vec::new();
    for e in &report.epochs {
        let arrivals: u64 = e
            .dispatch
            .as_ref()
            .ok_or("dynamics run without a dispatch record: arrivals per epoch unknown")?
            .placements
            .iter()
            .sum();
        ids.extend(
            (0..arrivals)
                .map(|i| (e.epoch as u64) << 32 | i)
                .filter(managed),
        );
    }
    Ok(ids)
}

/// Reopen the state directory the run left behind and require exactly the
/// managed users in it, recovered without warnings.
pub fn check_state_dir(
    input: &FleetInput,
    report: &FleetReport,
    state_dir: &Path,
    out: &mut RepOutcome,
) {
    out.attempted += 1;
    let found = BinaryStateLog::open(state_dir, BinLogConfig::default())
        .and_then(|log| log.scan())
        .map_err(|e| e.to_string());
    match (found, managed_ids(input, report)) {
        (Err(e), _) | (_, Err(e)) => out.failures.push(format!("state dir reopen: {e}")),
        (Ok(scan), Ok(expected)) => {
            if !scan.warnings.is_empty() {
                out.failures
                    .push(format!("reopen warnings: {:?}", scan.warnings));
            }
            if scan.ids != expected {
                out.failures.push(format!(
                    "reopened state dir holds {} users, the run managed {}",
                    scan.ids.len(),
                    expected.len()
                ));
            }
        }
    }
}

/// Σ `LongTermState.optimizations` read back from the state directory: the
/// controller passes the run made.
pub fn controller_passes(state_dir: &Path) -> Result<u64, String> {
    let log =
        BinaryStateLog::open(state_dir, BinLogConfig::default()).map_err(|e| e.to_string())?;
    let mut passes = 0u64;
    for id in log.scan().map_err(|e| e.to_string())?.ids {
        let state = log
            .load(id)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("user {id} listed but not loadable"))?;
        passes += state.optimizations as u64;
    }
    Ok(passes)
}

/// A probed allocation must keep every rate within its cap, conserve
/// capacity on every link and, when the solver converged within its sweep
/// budget, satisfy the KKT conditions to `1e-6`. A call that ended at
/// `MAX_SWEEPS` is not a failed operation — the solver's budget is fixed
/// by design — but it is counted (`net.fairness.max_sweeps_hits`) and its
/// residual shows in `net.fairness.kkt_residual_max`. Returns what the
/// allocation violated, if anything.
pub fn check_allocation(
    topo: &Topology,
    flows: &[FlowDemand],
    allocation: &Allocation,
) -> Option<String> {
    let mut used = vec![0.0f64; topo.n_links()];
    for (flow, &rate) in flows.iter().zip(&allocation.rates) {
        if rate.is_nan() || rate < 0.0 || rate > flow.cap_kbps * (1.0 + 1e-9) {
            return Some(format!("rate {rate} outside [0, cap {}]", flow.cap_kbps));
        }
        for &l in topo.route(flow.route) {
            used[l as usize] += rate;
        }
    }
    for (l, link) in topo.links().iter().enumerate() {
        if used[l] > link.capacity_kbps * (1.0 + 1e-6) {
            return Some(format!(
                "link {l} carries {} of {} kbps",
                used[l], link.capacity_kbps
            ));
        }
    }
    let residual = allocation.kkt_residual;
    if allocation.sweeps < MAX_SWEEPS && (residual.is_nan() || residual > 1e-6) {
        return Some(format!("kkt residual {}", allocation.kkt_residual));
    }
    None
}
