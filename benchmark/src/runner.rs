//! The untraced run of one workload in this process: set-up, warm-up,
//! timed repetitions, end-to-end metrics.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use crate::report::{Metric, Rep, WorkloadResult, END_TO_END};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, Input, RepOutcome, StateDir, SHARDS};

/// Fewest timed repetitions a run reports on.
const MIN_REPS: usize = 3;

/// How one workload process was asked to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed repetitions to measure.
    pub seconds: f64,
    /// Population scale (`--smoke` passes 0.01).
    pub scale: f64,
    /// Directory for state dirs, traces and reports.
    pub out_dir: PathBuf,
}

impl Options {
    /// This binary, invoked on the same workload, seed, scale and output
    /// directory; the caller adds what the child is for.
    pub fn child(&self) -> Result<Command, String> {
        let mut child = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
        child
            .args(["--workload", &self.workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--scale", &self.scale.to_string()])
            .arg("--out")
            .arg(&self.out_dir);
        Ok(child)
    }
}

/// Collects what the repetitions of one workload attempted and broke, and
/// that they all simulated the same thing.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Fingerprint of the first repetition.
    pub fingerprint: Option<u64>,
}

impl Ledger {
    /// Account one repetition; a fingerprint that differs from the first
    /// repetition's is a failure.
    pub fn absorb(&mut self, what: &str, rep: &RepOutcome) {
        self.attempted += rep.attempted;
        self.failures
            .extend(rep.failures.iter().map(|f| format!("{what}: {f}")));
        if rep.wall_s == 0.0 {
            return; // the run itself failed: no fingerprint to compare
        }
        match self.fingerprint {
            None => self.fingerprint = Some(rep.fingerprint),
            Some(first) if first != rep.fingerprint => self.failures.push(format!(
                "{what}: sim_fingerprint {:016x} differs from the first repetition's {first:016x}",
                rep.fingerprint
            )),
            Some(_) => {}
        }
    }

    /// Account one verification probe.
    pub fn probe(&mut self, failure: Option<String>) {
        self.attempted += 1;
        self.failures.extend(failure);
    }

    /// Close the ledger into a result carrying `metrics`.
    pub fn finish(
        self,
        opts: &Options,
        traced: bool,
        reps: Vec<Rep>,
        metrics: Vec<Metric>,
    ) -> WorkloadResult {
        WorkloadResult {
            workload: opts.workload.clone(),
            seed: opts.seed,
            traced,
            correct: self.failures.is_empty(),
            attempted: self.attempted,
            failed: self.failures.len() as u64,
            failures: self.failures,
            sim_fingerprint: format!("{:016x}", self.fingerprint.unwrap_or(0)),
            reps,
            metrics,
        }
    }
}

/// One repetition of `input` at `shards` on a fresh state directory, the
/// program call inside a span of `tracer`. The directory comes back with
/// the outcome so the caller can read the state the run left behind; it
/// is removed when dropped.
pub fn one_rep(
    input: &Input,
    shards: usize,
    opts: &Options,
    tag: &str,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> (RepOutcome, Option<StateDir>) {
    let dir = match StateDir::fresh(&opts.out_dir, tag) {
        Ok(dir) => dir,
        Err(e) => {
            let failed = RepOutcome {
                attempted: 1,
                failures: vec![format!("state dir: {e}")],
                ..RepOutcome::default()
            };
            return (failed, None);
        }
    };
    let outcome = match input {
        Input::Fleet(fleet) => workloads::fleet_rep(fleet, shards, dir.path(), tracer, parent),
        Input::Churn(churn) => workloads::churn_rep(churn, dir.path(), tracer, parent),
    };
    (outcome, Some(dir))
}

/// Fresh processes that repeat the set-up beside this one's own, so
/// `setup_s` is a median of three. Set-up is repeated in processes of its
/// own because a second set-up inside one process would not pay again for
/// anything initialised once per process, and its median would hide
/// exactly the work the metric exists to show.
const SETUP_CHILDREN: usize = 2;

/// The set-up of one process: generate the input, create a state
/// directory and run the warm-up repetition. Returns the seconds from
/// entry until a first timed repetition could begin — work moved out of
/// the timed region shows there.
fn set_up(opts: &Options, ledger: &mut Ledger) -> (Input, f64) {
    let entered = Instant::now();
    let input = workloads::input(&opts.workload, opts.seed, opts.scale);
    let (warm, _) = one_rep(
        &input,
        SHARDS,
        opts,
        "warmup",
        &mut Tracer::disabled(),
        None,
    );
    ledger.absorb("warm-up", &warm);
    (input, entered.elapsed().as_secs_f64())
}

/// `--setup-only`: this process exists to measure one set-up. Prints
/// `setup_s <seconds>` as its last line; an error when a check failed.
pub fn run_setup_only(opts: &Options) -> Result<(), String> {
    let mut ledger = Ledger::default();
    let (_, setup_s) = set_up(opts, &mut ledger);
    if let Some(failure) = ledger.failures.first() {
        return Err(failure.clone());
    }
    println!("setup_s {setup_s}");
    Ok(())
}

/// Measure one set-up in a fresh process of this binary.
fn spawn_set_up(opts: &Options) -> Result<f64, String> {
    let out = opts
        .child()?
        .args(["--setup-only", "1"])
        .output()
        .map_err(|e| format!("spawn set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!(
                "set-up process failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })
}

/// Run the workload untraced and report the end-to-end metrics.
pub fn run(opts: &Options) -> WorkloadResult {
    let mut ledger = Ledger::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_CHILDREN {
        match spawn_set_up(opts) {
            Ok(setup_s) => {
                ledger.probe(None);
                setups.push(setup_s);
            }
            Err(e) => ledger.probe(Some(e)),
        }
    }
    let (input, own_setup_s) = set_up(opts, &mut ledger);
    setups.push(own_setup_s);
    let mut off = Tracer::disabled();

    let mut reps: Vec<Rep> = Vec::new();
    let mut timed_s = 0.0;
    while reps.len() < MIN_REPS || timed_s < opts.seconds {
        let steal = sys::steal_ticks();
        let tag = format!("rep{}", reps.len());
        let (outcome, _) = one_rep(&input, SHARDS, opts, &tag, &mut off, None);
        let steal_ticks = steal
            .zip(sys::steal_ticks())
            .map_or(0, |(a, b)| b.saturating_sub(a));
        ledger.absorb(&format!("rep {}", reps.len()), &outcome);
        if outcome.wall_s == 0.0 {
            break; // the run failed; the ledger has the reason
        }
        timed_s += outcome.wall_s;
        reps.push(Rep {
            wall_s: outcome.wall_s,
            // `state_churn` plays no sessions: one of its user-days (a
            // fresh save) stands in, so the metric is never 0.
            sessions: if outcome.sessions > 0 {
                outcome.sessions
            } else {
                outcome.user_days
            },
            state_ops: outcome.state_ops,
            steal_ticks,
        });
    }

    let rate = |pick: fn(&Rep) -> u64| -> Vec<f64> {
        reps.iter().map(|r| pick(r) as f64 / r.wall_s).collect()
    };
    let metrics = vec![
        Metric::of_samples(&END_TO_END[0], rate(|r| r.sessions)),
        Metric::of_samples(&END_TO_END[1], rate(|r| r.state_ops)),
        Metric::of_samples(
            &END_TO_END[2],
            sys::peak_rss_mb().into_iter().collect::<Vec<f64>>(),
        ),
        Metric::of_samples(&END_TO_END[3], setups),
    ];
    ledger.finish(opts, false, reps, metrics)
}
