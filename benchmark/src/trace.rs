//! The traced run: spans recorded in the benchmark's own files around
//! each call into a layer, the per-layer probes, and each layer's
//! estimated share of the run.
//!
//! End-to-end metrics are always taken with tracing off (`runner`); this
//! run exists for the per-layer numbers.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use lingxi_core::LingXiConfig;
use lingxi_fleet::{DispatchPolicy, FleetReport};
use lingxi_net::{FairnessObjective, ProductionMixture, Topology};
use lingxi_player::PlayerConfig;
use serde::Serialize;

use crate::checks::controller_passes;
use crate::probes::{self, ProbeCtx, Probed};
use crate::report::{Metric, WorkloadResult, PER_LAYER};
use crate::runner::{one_rep, Ledger, Options};
use crate::stats;
use crate::workloads::{self, FleetInput, Input, CHURN_DAYS, SHARDS};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Layer entry point the span wraps.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Workload the span belongs to.
    pub workload: String,
}

/// Keeps spans in memory; written out once when the benchmark ends. A
/// disabled tracer records nothing, so the untraced and traced runs go
/// through the same code.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: String,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for `workload`.
    pub fn new(workload: &str, enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            workload: workload.to_string(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::new("", false)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses later ones; returns its index.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        if self.enabled {
            let now = self.now_ns();
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: now,
                end_ns: now,
                parent,
                workload: self.workload.clone(),
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: usize) {
        if self.enabled {
            self.spans[span].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, parent);
        let out = f();
        self.close(span);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| format!("write {}: {e}", path.display());
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(io)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
        for span in &self.spans {
            let line = serde_json::to_string(span).map_err(|e| e.to_string())?;
            writeln!(file, "{line}").map_err(io)?;
        }
        file.flush().map_err(io)
    }
}

/// Operation counts of the workload, observed in its `FleetReport` (or in
/// the churn repetition), that the probes' per-operation times multiply.
#[derive(Debug, Default)]
struct Observed {
    sessions: f64,
    segments: f64,
    users: f64,
    flushed: f64,
    trace_ticks: f64,
    flow_events: f64,
    fairness_calls: f64,
    passes: f64,
    arrivals: f64,
    places: f64,
    lsq: bool,
    max_weighted_occupancy: f64,
    checkpoints: f64,
    /// Σ over checkpoints of the states live at that barrier.
    checkpointed_states: f64,
    epochs: f64,
}

fn observe(input: &FleetInput, report: &FleetReport, passes: u64, probed: &Probed) -> Observed {
    let config = &input.config;
    let contended = config.contention.is_some();
    let finite_alpha = config
        .fairness
        .as_ref()
        .is_some_and(|f| !f.objective.is_max_min());
    let segments = report.segments as f64;
    let flow_events = if contended { 2.0 * segments } else { 0.0 };
    let epochs = report.epochs.len() as f64;
    let checkpoints = (report.epochs.len() - 1)
        .checked_div(config.checkpoint_every)
        .unwrap_or(0) as f64;
    Observed {
        sessions: report.sessions as f64,
        segments,
        users: report.users as f64,
        flushed: report.epochs.iter().map(|e| e.flushed as f64).sum(),
        trace_ticks: if contended {
            0.0
        } else {
            (report.sessions as f64 * probed.trace_ticks_per_session).round()
        },
        flow_events,
        fairness_calls: if finite_alpha { flow_events } else { 0.0 },
        passes: passes as f64,
        arrivals: if config.dynamics.is_some() {
            report.users as f64
        } else {
            0.0
        },
        places: report
            .epochs
            .iter()
            .filter_map(|e| e.dispatch.as_ref())
            .flat_map(|d| &d.placements)
            .sum::<u64>() as f64,
        lsq: config
            .dispatch
            .as_ref()
            .is_some_and(|d| matches!(d.policy, DispatchPolicy::Lsq { .. })),
        max_weighted_occupancy: report.max_weighted_occupancy().unwrap_or(0.0),
        checkpoints,
        // Writes accumulate evenly over epochs; the k-th checkpoint
        // compacts the states written so far.
        checkpointed_states: (1..=checkpoints as u64)
            .map(|k| report.cache.writes as f64 * k as f64 / epochs)
            .sum(),
        epochs,
    }
}

/// The probe context of a workload: its own mixture, topology and
/// objective where it has them, the fleet defaults where it does not.
fn probe_ctx<'a>(
    opts: &'a Options,
    input: &'a Input,
    report: Option<&'a FleetReport>,
) -> ProbeCtx<'a> {
    let mut ctx = ProbeCtx {
        seed: opts.seed,
        scale: opts.scale,
        mixture: ProductionMixture::default(),
        n_videos: workloads::CATALOG_VIDEOS,
        player: PlayerConfig::default(),
        topology: Topology::single_link(25_000.0).expect("static capacity"),
        users_per_link: 47,
        arrival_window_s: 20.0,
        dynamics: None,
        epochs: report.map_or(&[], |r| r.epochs.as_slice()),
        out_dir: &opts.out_dir,
    };
    if let Input::Fleet(fleet) = input {
        ctx.mixture = fleet.scenario.mixture;
        ctx.n_videos = fleet.scenario.n_videos;
        ctx.player = fleet.config.player;
        ctx.dynamics = fleet.config.dynamics.as_ref();
        if let Some(contention) = &fleet.config.contention {
            ctx.topology =
                Topology::single_link(contention.capacity_kbps).expect("validated capacity");
            let cohort = report.map_or(fleet.scenario.n_users, |r| r.users / r.epochs.len().max(1));
            ctx.users_per_link = (cohort / contention.links).max(2);
            ctx.arrival_window_s = match &fleet.config.dynamics {
                Some(dynamics) => dynamics.day_seconds,
                None => contention.arrival_window,
            };
        }
        if let Some(fairness) = &fleet.config.fairness {
            ctx.topology = fairness.topology.clone();
        }
    }
    ctx
}

/// The traced run of one workload: warm-up, an untraced and a traced
/// 2-shard repetition, a 1-shard repetition, then every probe.
pub fn run(opts: &Options) -> WorkloadResult {
    let input = workloads::input(&opts.workload, opts.seed, opts.scale);
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new(&opts.workload, true);
    let mut off = Tracer::disabled();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    let (warm, _) = one_rep(&input, SHARDS, opts, "warmup", &mut off, None);
    ledger.absorb("warm-up", &warm);
    let (untraced, _) = one_rep(&input, SHARDS, opts, "untraced", &mut off, None);
    ledger.absorb("untraced rep", &untraced);

    let rep_span = tracer.open("bench.rep", None);
    let (traced, traced_dir) = one_rep(&input, SHARDS, opts, "traced", &mut tracer, Some(rep_span));
    ledger.absorb("traced rep", &traced);
    let passes = match (&input, &traced_dir) {
        (Input::Fleet(_), Some(dir)) => match controller_passes(dir.path()) {
            Ok(passes) => passes,
            Err(e) => {
                ledger.probe(Some(format!("controller passes read-back: {e}")));
                0
            }
        },
        _ => 0,
    };
    drop(traced_dir);

    // Probes are single-threaded, so shares are taken of the 1-shard run.
    let single = match &input {
        Input::Fleet(_) => {
            let (single, _) = one_rep(&input, 1, opts, "single", &mut off, None);
            ledger.absorb("1-shard rep", &single);
            single
        }
        Input::Churn(_) => untraced.clone(),
    };

    let ctx = probe_ctx(opts, &input, untraced.fleet.as_ref());
    let mut probed = probes::run_all(&ctx, &mut tracer, rep_span, &mut ledger);
    probed.fairness_s = allocator_seconds(&input, &single, opts, &mut ledger);
    tracer.close(rep_span);

    let base_s = single.wall_s.max(f64::MIN_POSITIVE);
    values.insert(
        "bench.trace_overhead_share",
        (traced.wall_s - untraced.wall_s) / untraced.wall_s.max(f64::MIN_POSITIVE),
    );
    let mut shares = layer_costs(&input, &untraced, &single, passes, &probed, &mut values);
    for share in shares.values_mut() {
        *share /= base_s;
    }
    let explained: f64 = shares.values().sum();
    values.insert("fleet.engine.residual_share", 1.0 - explained);
    values.extend(shares);
    probe_values(&probed, &mut ledger, &mut values);

    println!(
        "# estimated shares of the 1-shard run ({:.3} s): probe time per op x ops observed",
        single.wall_s
    );
    let mut ranked: Vec<(&str, f64)> = values
        .iter()
        .filter(|(k, _)| k.ends_with(".share") || **k == "fleet.engine.residual_share")
        .map(|(k, v)| (*k, *v))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, share) in ranked.iter().filter(|(_, s)| *s != 0.0) {
        println!("{name:<40} {:>7.2} %", share * 100.0);
    }

    let trace_path = opts.out_dir.join(format!("trace_{}.jsonl", opts.workload));
    ledger.probe(tracer.write_jsonl(&trace_path).err());
    println!(
        "{} spans written to {}",
        tracer.spans().len(),
        trace_path.display()
    );

    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let value = values.get(def.name).copied();
            if value.is_none_or(|v| !v.is_finite()) {
                ledger.probe(Some(format!("metric {} was not measured", def.name)));
            }
            Metric::of(def, value.filter(|v| v.is_finite()).unwrap_or(0.0))
        })
        .collect();
    ledger.finish(opts, true, Vec::new(), metrics)
}

/// Seconds the finite-α allocator adds to the 1-shard run: its wall minus
/// the wall of the identical cell under max-min. Neither the allocator's
/// call count nor the concurrency it ran at can be observed from outside,
/// so this one layer is measured by difference instead of by probe time
/// per operation × operations. 0 when the workload's objective is max-min.
fn allocator_seconds(
    input: &Input,
    single: &workloads::RepOutcome,
    opts: &Options,
    ledger: &mut Ledger,
) -> f64 {
    let Input::Fleet(fleet) = input else {
        return 0.0;
    };
    let Some(fairness) = fleet
        .config
        .fairness
        .as_ref()
        .filter(|f| !f.objective.is_max_min())
    else {
        return 0.0;
    };
    let mut bypass = (**fleet).clone();
    bypass.config.fairness = Some(lingxi_fleet::FairnessConfig {
        objective: FairnessObjective::MaxMin,
        topology: fairness.topology.clone(),
    });
    let run = workloads::StateDir::fresh(&opts.out_dir, "maxmin")
        .map_err(|e| e.to_string())
        .and_then(|dir| {
            workloads::run_fleet_timed(&bypass, 1, dir.path(), &mut Tracer::disabled(), None)
        });
    match run {
        Ok((wall_s, _)) => (single.wall_s - wall_s).max(0.0),
        Err(e) => {
            ledger.probe(Some(format!("max-min bypass of the fairness cell: {e}")));
            0.0
        }
    }
}

/// Per-layer seconds of the single-threaded run, by `<layer>.share` name:
/// probe time per operation × the operation count the workload showed.
/// Also records the observed counts as metrics.
fn layer_costs(
    input: &Input,
    untraced: &workloads::RepOutcome,
    single: &workloads::RepOutcome,
    passes: u64,
    p: &Probed,
    values: &mut BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let mut costs = BTreeMap::new();
    let cache = untraced.cache;
    let loads = (cache.hits + cache.misses) as f64;
    let writes = cache.writes as f64;
    let binlog_state_s = p.binlog.checkpoint_ms / 1e3 / p.binlog.states.max(1) as f64;
    let observed = match (input, &untraced.fleet, &single.fleet) {
        (Input::Fleet(fleet), Some(report), Some(single_report)) => {
            let o = observe(fleet, report, passes, p);
            values.insert(
                "fleet.engine.us_per_segment",
                untraced.wall_s * 1e6 / o.segments.max(1.0),
            );
            values.insert("fleet.engine.epoch_loop_s", report.elapsed.as_secs_f64());
            values.insert(
                "fleet.engine.world_gen_s",
                untraced.wall_s - report.elapsed.as_secs_f64(),
            );
            values.insert(
                "fleet.engine.shard_speedup",
                single.wall_s / untraced.wall_s,
            );
            costs.insert(
                "worldgen.share",
                single.wall_s - single_report.elapsed.as_secs_f64(),
            );
            o
        }
        _ => {
            for name in [
                "fleet.engine.us_per_segment",
                "fleet.engine.epoch_loop_s",
                "fleet.engine.world_gen_s",
                "fleet.engine.shard_speedup",
            ] {
                values.insert(name, 0.0);
            }
            costs.insert("worldgen.share", 0.0);
            // `state_churn`: every operation is a state operation.
            Observed {
                checkpoints: CHURN_DAYS as f64,
                checkpointed_states: writes * (CHURN_DAYS + 1) as f64 / 2.0,
                ..Observed::default()
            }
        }
    };
    let o = &observed;
    let trials = LingXiConfig::for_hyb().max_trials as f64;
    let evals = o.passes * (1.0 + trials);
    let pass_s = p.pass_ms.iter().sum::<f64>() / 1e3 / p.pass_ms.len().max(1) as f64;
    let eval_s = p.mc.1 / p.mc.0.max(1) as f64;
    let controller_s = o.passes * pass_s;
    let montecarlo_s = (evals * eval_s).min(controller_s);
    let bayes_s = (o.passes * trials * p.bayes_us_per_trial / 1e6).min(controller_s - montecarlo_s);
    let events_s = o.flow_events / 2.0 * p.events_ns.0 / 1e9;
    let place_ns = if o.lsq {
        p.dispatch_ns.0
    } else {
        p.dispatch_ns.1
    };

    costs.insert("net.trace.share", o.trace_ticks * p.trace_ns_per_tick / 1e9);
    costs.insert(
        "player.session.share",
        o.segments * p.player_us_per_segment / 1e6,
    );
    costs.insert(
        "core.controller.share",
        controller_s - montecarlo_s - bayes_s,
    );
    costs.insert("core.montecarlo.share", montecarlo_s);
    costs.insert("bayes.optimizer.share", bayes_s);
    costs.insert("net.fairness.share", p.fairness_s);
    costs.insert(
        "net.process.share",
        (o.flow_events * p.flow_event_us / 1e6 - events_s).max(0.0),
    );
    costs.insert("net.events.share", events_s);
    costs.insert(
        "workload.share",
        o.arrivals * (p.workload_ns.0 + p.workload_ns.1) / 1e9,
    );
    costs.insert("fleet.dispatch.share", o.places * place_ns / 1e9);
    costs.insert(
        "metrics.share",
        (o.sessions * (p.metrics_cost.0 + 3.0 * p.metrics_cost.1) / 1e9)
            + o.epochs * SHARDS as f64 * 3.0 * p.metrics_cost.2 / 1e6,
    );
    costs.insert("core.cache.share", (loads + writes) * p.cache_cost.0 / 1e9);
    costs.insert(
        "core.binlog.share",
        writes * p.binlog.ns_per_save / 1e9
            + cache.misses as f64 * p.binlog.us_per_cold_load / 1e6
            + o.checkpointed_states * binlog_state_s,
    );
    costs.insert(
        "fleet.checkpoint.share",
        if o.epochs > 0.0 {
            o.checkpoints * p.checkpoint.1 / 1e3
        } else {
            0.0
        },
    );

    values.insert("fleet.engine.sessions", o.sessions);
    values.insert("fleet.engine.segments", o.segments);
    values.insert("fleet.engine.users", o.users);
    values.insert("fleet.engine.flushed", o.flushed);
    values.insert("net.fairness.calls", o.fairness_calls);
    values.insert("net.process.flow_events", o.flow_events);
    values.insert("net.trace.ticks", o.trace_ticks);
    values.insert("core.controller.passes", o.passes);
    values.insert("core.montecarlo.evals", evals);
    values.insert("workload.arrival.events", o.arrivals);
    values.insert("fleet.dispatch.places", o.places);
    values.insert(
        "fleet.dispatch.max_weighted_occupancy",
        o.max_weighted_occupancy,
    );
    values.insert("core.cache.hits", cache.hits as f64);
    values.insert("core.cache.misses", cache.misses as f64);
    values.insert("core.cache.evictions", cache.evictions as f64);
    values.insert("core.cache.writes", writes);
    values.insert("core.cache.hit_share", cache.hits as f64 / loads.max(1.0));
    costs
}

/// The probes' own numbers, as metrics.
fn probe_values(p: &Probed, ledger: &mut Ledger, values: &mut BTreeMap<&'static str, f64>) {
    let (pass_p50, pass_p99) = stats::p50_p99(&p.pass_ms).unwrap_or_else(|e| {
        ledger.probe(Some(format!("core.controller passes: {e}")));
        (0.0, 0.0)
    });
    let calls = p.fairness_calls.0.max(1) as f64;
    for (name, value) in [
        ("net.fairness.us_per_call_8", p.fairness_us_per_call[0]),
        ("net.fairness.us_per_call_32", p.fairness_us_per_call[1]),
        ("net.fairness.us_per_call_128", p.fairness_us_per_call[2]),
        (
            "net.fairness.sweeps_per_call",
            p.fairness_calls.1 as f64 / calls,
        ),
        ("net.fairness.max_sweeps_hits", p.fairness_calls.2 as f64),
        ("net.fairness.kkt_residual_max", p.kkt_residual_max),
        ("net.process.us_per_flow_event", p.flow_event_us),
        ("net.events.ns_per_event", p.events_ns.0),
        ("net.events.heap_ns_per_event", p.events_ns.1),
        ("net.trace.ns_per_tick", p.trace_ns_per_tick),
        ("player.session.us_per_segment", p.player_us_per_segment),
        ("abr.hyb.ns_per_decision", p.abr_ns_per_decision[0]),
        ("abr.throughput.ns_per_decision", p.abr_ns_per_decision[1]),
        ("abr.bola.ns_per_decision", p.abr_ns_per_decision[2]),
        ("core.session.us_p50", p.session_us.0),
        ("core.session.us_p99", p.session_us.1),
        ("core.session.n", p.session_us.2 as f64),
        ("core.controller.pass_ms_p50", pass_p50),
        ("core.controller.pass_ms_p99", pass_p99),
        (
            "core.controller.adopted_share",
            p.adopted as f64 / p.pass_ms.len().max(1) as f64,
        ),
        ("core.controller.prunes", p.prunes as f64),
        (
            "core.montecarlo.us_per_eval",
            p.mc.1 * 1e6 / p.mc.0.max(1) as f64,
        ),
        ("core.montecarlo.watched_segments", p.mc.2 as f64),
        (
            "core.montecarlo.pruned_share",
            p.mc.3 as f64 / p.mc.0.max(1) as f64,
        ),
        ("bayes.optimizer.us_per_trial", p.bayes_us_per_trial),
        ("workload.arrival.ns_per_event", p.workload_ns.0),
        ("workload.classes.ns_per_user", p.workload_ns.1),
        ("fleet.dispatch.ns_per_place_lsq", p.dispatch_ns.0),
        ("fleet.dispatch.ns_per_place_static", p.dispatch_ns.1),
        ("abtest.dayaccum.ns_per_push", p.metrics_cost.0),
        ("stats.sketch.ns_per_push", p.metrics_cost.1),
        ("stats.sketch.us_per_merge", p.metrics_cost.2),
        ("core.cache.ns_per_save", p.cache_cost.0),
        ("core.cache.flush_ms", p.cache_cost.1),
        ("core.binlog.ns_per_save", p.binlog.ns_per_save),
        ("core.binlog.bytes_per_save", p.binlog.bytes_per_save as f64),
        ("core.binlog.checkpoint_ms", p.binlog.checkpoint_ms),
        ("core.binlog.compaction_ratio", p.binlog.compaction_ratio),
        ("core.binlog.open_ms", p.binlog.open_ms),
        ("core.binlog.us_per_cold_load", p.binlog.us_per_cold_load),
        (
            "core.binlog.recovery_warnings",
            p.binlog.recovery_warnings as f64,
        ),
        ("fleet.checkpoint.manifest_bytes", p.checkpoint.0 as f64),
        ("fleet.checkpoint.save_ms", p.checkpoint.1),
        ("fleet.checkpoint.load_ms", p.checkpoint.2),
        ("user.population.ns_per_user", p.population_ns_per_user),
        ("media.catalog.ms", p.catalog_ms),
    ] {
        values.insert(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new("contention", true);
        let rep = tracer.open("bench.rep", None);
        let x = tracer.span("fleet.engine.run", Some(rep), || 7);
        tracer.span("core.cache", Some(rep), || ());
        tracer.close(rep);
        assert_eq!(x, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.workload == "contention"));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);

        let mut off = Tracer::disabled();
        let rep = off.open("bench.rep", None);
        assert_eq!(off.span("x", Some(rep), || 3), 3);
        off.close(rep);
        assert!(off.spans().is_empty());
    }
}
