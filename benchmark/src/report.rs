//! Metric definitions, the per-workload result a child process emits, and
//! the report `lxbench run` assembles from them.

use serde::value::Value;
use serde::{Deserialize, Serialize};

use crate::stats::{self, Summary};

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]`, unique.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// A count that repeats exactly at a fixed seed, so a later issue may
    /// claim on it as a count.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better: Better::Higher,
        exact: true,
    }
}

const fn lower_count(name: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better: Better::Lower,
        exact: true,
    }
}

const fn ratio(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

/// The end-to-end metrics, reported by every workload with tracing off.
///
/// `fail_share` (failed / attempted operations) is the fifth end-to-end
/// number; it must be 0, so it travels as the result's `failed` and
/// `attempted` fields and `compare` rejects any rise.
pub const END_TO_END: [MetricDef; 4] = [
    ratio("sessions_per_s", "1/s", Better::Higher),
    ratio("state_ops_per_s", "1/s", Better::Higher),
    timing("peak_rss_mb", "MB"),
    timing("setup_s", "s"),
];

/// The per-layer metrics, reported by every workload's traced run. Layer
/// names are module names; `<layer>.share` is the layer's estimated share
/// of the single-threaded run.
pub const PER_LAYER: [MetricDef; 84] = [
    count("fleet.engine.sessions"),
    count("fleet.engine.segments"),
    count("fleet.engine.users"),
    timing("fleet.engine.us_per_segment", "us"),
    timing("fleet.engine.epoch_loop_s", "s"),
    timing("fleet.engine.world_gen_s", "s"),
    lower_count("fleet.engine.flushed"),
    ratio("fleet.engine.shard_speedup", "ratio", Better::Higher),
    ratio("fleet.engine.residual_share", "share", Better::Lower),
    ratio("bench.trace_overhead_share", "share", Better::Lower),
    lower_count("net.fairness.calls"),
    timing("net.fairness.us_per_call_8", "us"),
    timing("net.fairness.us_per_call_32", "us"),
    timing("net.fairness.us_per_call_128", "us"),
    lower_count("net.fairness.sweeps_per_call"),
    lower_count("net.fairness.max_sweeps_hits"),
    ratio("net.fairness.kkt_residual_max", "ratio", Better::Lower),
    ratio("net.fairness.share", "share", Better::Lower),
    lower_count("net.process.flow_events"),
    timing("net.process.us_per_flow_event", "us"),
    ratio("net.process.share", "share", Better::Lower),
    timing("net.events.ns_per_event", "ns"),
    timing("net.events.heap_ns_per_event", "ns"),
    ratio("net.events.share", "share", Better::Lower),
    timing("net.trace.ns_per_tick", "ns"),
    lower_count("net.trace.ticks"),
    ratio("net.trace.share", "share", Better::Lower),
    timing("player.session.us_per_segment", "us"),
    ratio("player.session.share", "share", Better::Lower),
    timing("abr.hyb.ns_per_decision", "ns"),
    timing("abr.throughput.ns_per_decision", "ns"),
    timing("abr.bola.ns_per_decision", "ns"),
    timing("core.session.us_p50", "us"),
    timing("core.session.us_p99", "us"),
    count("core.session.n"),
    lower_count("core.controller.passes"),
    timing("core.controller.pass_ms_p50", "ms"),
    timing("core.controller.pass_ms_p99", "ms"),
    ratio("core.controller.adopted_share", "share", Better::Higher),
    count("core.controller.prunes"),
    ratio("core.controller.share", "share", Better::Lower),
    lower_count("core.montecarlo.evals"),
    timing("core.montecarlo.us_per_eval", "us"),
    lower_count("core.montecarlo.watched_segments"),
    ratio("core.montecarlo.pruned_share", "share", Better::Higher),
    ratio("core.montecarlo.share", "share", Better::Lower),
    timing("bayes.optimizer.us_per_trial", "us"),
    ratio("bayes.optimizer.share", "share", Better::Lower),
    lower_count("workload.arrival.events"),
    timing("workload.arrival.ns_per_event", "ns"),
    timing("workload.classes.ns_per_user", "ns"),
    ratio("workload.share", "share", Better::Lower),
    lower_count("fleet.dispatch.places"),
    timing("fleet.dispatch.ns_per_place_lsq", "ns"),
    timing("fleet.dispatch.ns_per_place_static", "ns"),
    ratio(
        "fleet.dispatch.max_weighted_occupancy",
        "ratio",
        Better::Lower,
    ),
    ratio("fleet.dispatch.share", "share", Better::Lower),
    timing("abtest.dayaccum.ns_per_push", "ns"),
    timing("stats.sketch.ns_per_push", "ns"),
    timing("stats.sketch.us_per_merge", "us"),
    ratio("metrics.share", "share", Better::Lower),
    count("core.cache.hits"),
    lower_count("core.cache.misses"),
    lower_count("core.cache.evictions"),
    lower_count("core.cache.writes"),
    ratio("core.cache.hit_share", "share", Better::Higher),
    timing("core.cache.ns_per_save", "ns"),
    timing("core.cache.flush_ms", "ms"),
    ratio("core.cache.share", "share", Better::Lower),
    timing("core.binlog.ns_per_save", "ns"),
    lower_count("core.binlog.bytes_per_save"),
    timing("core.binlog.checkpoint_ms", "ms"),
    ratio("core.binlog.compaction_ratio", "ratio", Better::Lower),
    timing("core.binlog.open_ms", "ms"),
    timing("core.binlog.us_per_cold_load", "us"),
    lower_count("core.binlog.recovery_warnings"),
    ratio("core.binlog.share", "share", Better::Lower),
    lower_count("fleet.checkpoint.manifest_bytes"),
    timing("fleet.checkpoint.save_ms", "ms"),
    timing("fleet.checkpoint.load_ms", "ms"),
    ratio("fleet.checkpoint.share", "share", Better::Lower),
    timing("user.population.ns_per_user", "ns"),
    timing("media.catalog.ms", "ms"),
    ratio("worldgen.share", "share", Better::Lower),
];

/// One measured metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: String,
    /// The reported value: the median of `samples` when there are any.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Whether the value is a count that must repeat exactly.
    pub exact: bool,
    /// The per-repetition values behind an end-to-end metric (one value
    /// for per-process metrics; empty for per-layer metrics).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric of `def` with value `value` and no samples.
    pub fn of(def: &MetricDef, value: f64) -> Self {
        Self {
            name: def.name.to_string(),
            value,
            unit: def.unit.to_string(),
            exact: def.exact,
            samples: Vec::new(),
        }
    }

    /// A metric whose value is the median of `samples`.
    pub fn of_samples(def: &MetricDef, samples: Vec<f64>) -> Self {
        Self {
            value: stats::median(&samples),
            samples,
            ..Self::of(def, 0.0)
        }
    }

    /// Median, quartiles, extremes and n of the samples (of the single
    /// value when there are none).
    pub fn summary(&self) -> Summary {
        stats::summary(&self.samples)
            .or_else(|| stats::summary(&[self.value]))
            .expect("one value")
    }
}

/// One timed repetition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rep {
    /// Wall time of the timed region (seconds).
    pub wall_s: f64,
    /// Sessions played.
    pub sessions: u64,
    /// State operations issued.
    pub state_ops: u64,
    /// Steal ticks (`/proc/stat`, 10 ms each) the host accumulated
    /// during the repetition. A repetition during which steal advanced is
    /// kept, but printed as `disturbed`.
    pub steal_ticks: u64,
}

/// What one workload process measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: repetitions and verification probes.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// `sim_fingerprint` of the workload at this seed (hex).
    pub sim_fingerprint: String,
    /// The timed repetitions (untraced run only).
    pub reps: Vec<Rep>,
    /// The metrics, in definition order.
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// failed / attempted.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the last keyed by metric name.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ];
                (m.name.clone(), Value::Map(fields))
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&Json(line)).expect("value trees always serialize")
    }
}

/// Where and how a report was taken.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Header {
    /// Seed of every workload.
    pub seed: u64,
    /// Seconds each workload measured for.
    pub seconds: f64,
    /// Population scale (1.0, or 0.01 under `--smoke`).
    pub scale: f64,
    /// Cores available.
    pub nproc: usize,
    /// Worker shards of the fleet workloads.
    pub shards: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// Steal ticks the host accumulated over the whole run.
    pub steal_ticks: u64,
}

/// The one JSON report of `lxbench run`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Run header.
    pub header: Header,
    /// Untraced (end-to-end) result per workload.
    pub end_to_end: Vec<WorkloadResult>,
    /// Traced (per-layer) result per workload.
    pub per_layer: Vec<WorkloadResult>,
}

/// An untyped JSON value that passes through the vendored serde.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self(v.clone()))
    }
}

/// Read and parse a JSON file.
pub fn read_json<T: Deserialize>(path: &std::path::Path) -> Result<T, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&raw).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Serialize `value` to `path`, creating the parent directory.
pub fn write_json<T: Serialize>(path: &std::path::Path, value: &T) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// Whether `name` is a legal metric or workload name: starts with a
    /// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The spelling `BENCHMARK.json` uses.
    fn spelled(better: Better) -> &'static str {
        match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    #[test]
    fn names_use_the_contract_charset_and_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|(n, _)| *n))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for bad in ["", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name("9.a_b-c"));
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
    }

    /// `BENCHMARK.json` is written by hand; the tables here are what the
    /// binary reports. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Json(root) = read_json(&path).unwrap();
        let keys: Vec<&str> = root
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let text = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let list = |key: &str| root.get(key).unwrap().as_seq().unwrap().to_vec();
        assert_eq!(list("paths"), [Value::Str("benchmark".into())]);
        assert_eq!(
            list("command"),
            [
                Value::Str("bash".into()),
                Value::Str("benchmark/run.sh".into())
            ]
        );
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
                .collect();
            let expected: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), spelled(d.better).into()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        for m in list("end_to_end") {
            let Some(Value::F64(bound)) = m.get("bound") else {
                panic!("{}: bound must be a decimal", text(&m, "name"));
            };
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        assert!(list("per_layer").iter().all(|m| m.get("bound").is_none()));
    }

    fn sample_result() -> WorkloadResult {
        WorkloadResult {
            workload: "contention".into(),
            seed: 42,
            traced: false,
            correct: true,
            attempted: 25,
            failed: 0,
            failures: vec![],
            sim_fingerprint: format!("{:016x}", 0xdead_beef_u64),
            reps: vec![Rep {
                wall_s: 2.125,
                sessions: 1000,
                state_ops: 77,
                steal_ticks: 3,
            }],
            metrics: vec![
                Metric::of_samples(&END_TO_END[0], vec![3.0, 1.0, 0.1 + 0.2]),
                Metric::of(&END_TO_END[3], 1.0 / 3.0),
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json_bit_exactly() {
        let report = Report {
            header: Header {
                seed: 42,
                seconds: 10.0,
                scale: 1.0,
                nproc: 2,
                shards: 2,
                rustc: "rustc 1.95.0".into(),
                steal_ticks: 3,
            },
            end_to_end: vec![sample_result()],
            per_layer: vec![],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        let m = &back.end_to_end[0].metrics[0];
        assert_eq!(m.value, 1.0);
        assert_eq!(m.samples[2].to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = sample_result().contract_line();
        let Json(v) = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted"), Some(&Value::U64(25)));
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("unit"), Some(&Value::Str("s".into())));
        assert_eq!(m.get("value"), Some(&Value::F64(1.0 / 3.0)));
        assert!(!line.contains('\n'));
    }
}
