//! `lxbench compare A.json B.json`: classify every workload × end-to-end
//! metric of report B against report A by the bounds `BENCHMARK.json`
//! fixes. This is the tool the "two sets of runs agree" criterion runs.

use std::path::Path;
use std::process::ExitCode;

use serde::value::Value;

use crate::report::{self, Better, Json, Metric, Report, END_TO_END};
use crate::stats::Summary;

/// How B's metric stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than A by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// The spread of the repetitions is wider than the bound and the two
    /// sets of runs overlap: the data cannot tell.
    Unresolved,
    /// Worse than A by more than the bound.
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Classify `b` against `a`. `worse` is the share of A's median by which
/// B's median is worse (negative when better). A spread (distance between
/// the quartiles, as a share of A's median) wider than the bound makes the
/// cell unresolved unless every run of one side beats every run of the
/// other.
pub fn classify(a: &Summary, b: &Summary, better: Better, bound: f64) -> (f64, Verdict) {
    let base = a.median.abs().max(f64::MIN_POSITIVE);
    let sign = match better {
        Better::Higher => -1.0,
        Better::Lower => 1.0,
    };
    let worse = sign * (b.median - a.median) / base;
    let spread = (a.q3 - a.q1).max(b.q3 - b.q1) / base;
    let overlap = a.min <= b.max && b.min <= a.max;
    let verdict = if spread > bound && overlap {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

/// The `bound` of every end-to-end metric named in `BENCHMARK.json`.
fn bounds(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let Json(root) = report::read_json(path)?;
    let list = root
        .get("end_to_end")
        .and_then(Value::as_seq)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    list.iter()
        .map(|m| match (m.get("name"), m.get("bound")) {
            (Some(Value::Str(name)), Some(Value::F64(bound))) => Ok((name.clone(), *bound)),
            _ => Err(format!("{}: metric without name and bound", path.display())),
        })
        .collect()
}

fn spread_line(m: &Metric) -> String {
    let s = m.summary();
    format!("{:>12.4} [{:.4}, {:.4}] n {}", s.median, s.q1, s.q3, s.n)
}

/// Compare report `b` against report `a`; returns the printable table and
/// whether B is acceptable (no regressed cell, no rise in `fail_share`).
pub fn compare(a: &Report, b: &Report, bounds: &[(String, f64)]) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut ok = true;
    if (a.header.seed, a.header.scale) != (b.header.seed, b.header.scale) {
        out.push_str(&format!(
            "note: inputs differ (seed {} scale {} vs seed {} scale {})\n",
            a.header.seed, a.header.scale, b.header.seed, b.header.scale
        ));
    }
    out.push_str(&format!(
        "{:<16} {:<16} {:<42} {:<42} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse by", "bound"
    ));
    for ra in &a.end_to_end {
        let rb = b
            .end_to_end
            .iter()
            .find(|r| r.workload == ra.workload)
            .ok_or_else(|| format!("workload {} missing from B", ra.workload))?;
        for def in &END_TO_END {
            let bound = bounds
                .iter()
                .find(|(name, _)| name == def.name)
                .map(|(_, bound)| *bound)
                .ok_or_else(|| format!("no bound for {}", def.name))?;
            let (Some(ma), Some(mb)) = (ra.metric(def.name), rb.metric(def.name)) else {
                return Err(format!("{} lacks {}", ra.workload, def.name));
            };
            let (worse, verdict) = classify(&ma.summary(), &mb.summary(), def.better, bound);
            ok &= verdict != Verdict::Regressed;
            out.push_str(&format!(
                "{:<16} {:<16} {:<42} {:<42} {:>+8.2}% {:>5.0}%  {} (base {:.4} {})\n",
                ra.workload,
                def.name,
                spread_line(ma),
                spread_line(mb),
                worse * 100.0,
                bound * 100.0,
                verdict.as_str(),
                ma.value,
                ma.unit,
            ));
        }
    }
    // fail_share must be 0; any rise is a regression. Exact counts are
    // listed when they move: between two runs of one commit none may.
    let mut moved = Vec::new();
    for (ra, rb) in a.end_to_end.iter().chain(&a.per_layer).filter_map(|ra| {
        let side = if ra.traced {
            &b.per_layer
        } else {
            &b.end_to_end
        };
        side.iter()
            .find(|rb| rb.workload == ra.workload)
            .map(|rb| (ra, rb))
    }) {
        if rb.fail_share() > ra.fail_share() {
            ok = false;
            out.push_str(&format!(
                "{:<16} fail_share rose {:.6} -> {:.6} ({} failed of {}): regressed\n",
                ra.workload,
                ra.fail_share(),
                rb.fail_share(),
                rb.failed,
                rb.attempted
            ));
        }
        if ra.sim_fingerprint != rb.sim_fingerprint {
            out.push_str(&format!(
                "{:<16} sim_fingerprint {} -> {}: the simulated output changed\n",
                ra.workload, ra.sim_fingerprint, rb.sim_fingerprint
            ));
        }
        for ma in ra.metrics.iter().filter(|m| m.exact) {
            if let Some(mb) = rb.metric(&ma.name).filter(|mb| mb.value != ma.value) {
                moved.push(format!(
                    "{} {} {} -> {}",
                    ra.workload, ma.name, ma.value, mb.value
                ));
            }
        }
    }
    out.push_str(&format!("exact counts that moved: {}\n", moved.len()));
    for line in moved {
        out.push_str(&format!("  {line}\n"));
    }
    Ok((out, ok))
}

/// `lxbench compare`: load both reports and the bounds, print the table,
/// exit non-zero on any regressed cell or any rise in `fail_share`.
pub fn compare_files(a: &Path, b: &Path, bounds_path: &Path) -> Result<ExitCode, String> {
    let ra: Report = report::read_json(a)?;
    let rb: Report = report::read_json(b)?;
    let (table, ok) = compare(&ra, &rb, &bounds(bounds_path)?)?;
    println!(
        "lxbench compare: A={} B={} bounds={}",
        a.display(),
        b.display(),
        bounds_path.display()
    );
    print!("{table}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        println!("REGRESSED");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summary;

    fn s(values: &[f64]) -> Summary {
        summary(values).unwrap()
    }

    #[test]
    fn classification_follows_bound_spread_and_overlap() {
        let tight = s(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // Within the bound either way.
        let near = s(&[104.0, 105.0, 103.0, 104.5, 103.5]);
        assert_eq!(
            classify(&tight, &near, Better::Higher, 0.10).1,
            Verdict::Unchanged
        );
        // Higher-is-better throughput that fell 20 %.
        let low = s(&[80.0, 81.0, 79.0, 80.5, 79.5]);
        let (worse, verdict) = classify(&tight, &low, Better::Higher, 0.10);
        assert!((worse - 0.20).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regressed);
        // The same move on a lower-is-better metric is an improvement.
        assert_eq!(
            classify(&tight, &low, Better::Lower, 0.10).1,
            Verdict::Improved
        );
        assert_eq!(
            classify(&low, &tight, Better::Lower, 0.10).1,
            Verdict::Regressed
        );
        // Spread wider than the bound and overlapping runs: cannot tell.
        let wide_a = s(&[100.0, 130.0, 70.0, 120.0, 80.0]);
        let wide_b = s(&[90.0, 125.0, 60.0, 110.0, 75.0]);
        assert_eq!(
            classify(&wide_a, &wide_b, Better::Higher, 0.10).1,
            Verdict::Unresolved
        );
        // Wide spread but every run of B below every run of A: resolved.
        let far = s(&[30.0, 50.0, 10.0, 45.0, 20.0]);
        assert_eq!(
            classify(&wide_a, &far, Better::Higher, 0.10).1,
            Verdict::Regressed
        );
        // Single values (per-process metrics) have no spread.
        assert_eq!(
            classify(&s(&[50.0]), &s(&[54.0]), Better::Lower, 0.10).1,
            Verdict::Unchanged
        );
        assert_eq!(
            classify(&s(&[50.0]), &s(&[56.0]), Better::Lower, 0.10).1,
            Verdict::Regressed
        );
    }
}
