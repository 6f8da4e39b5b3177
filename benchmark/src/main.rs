//! `lxbench` — the repo's benchmark.
//!
//! ```text
//! lxbench --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! lxbench run [--seed N] [--seconds S] [--smoke]          every workload, one process each
//! lxbench trace W [--seed N]                              the traced run of one workload
//! lxbench compare A.json B.json                           classify B against A
//! ```
//!
//! It measures every layer from outside, by timing calls into the
//! layers' public functions; see `benchmark/README.md`.

mod checks;
mod compare;
mod fingerprint;
mod probes;
mod report;
mod runner;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Header, Report, WorkloadResult};
use runner::Options;

/// Where the harness writes: state dirs, traces, reports. Relative to the
/// working directory (the repo root), inside the benchmark's own path.
const OUT_DIR: &str = "benchmark/out";

/// Default measuring time per workload (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 8.0;

/// Population scale under `--smoke`.
const SMOKE_SCALE: f64 = 0.01;

/// Measuring time per workload under `--smoke`: the minimum repetition
/// count decides, not the clock.
const SMOKE_SECONDS: f64 = 0.1;

/// Parsed flags: `--key value` pairs, bare `--smoke`, and positionals.
#[derive(Debug, Default)]
struct Args {
    flags: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => out.smoke = true,
                flag if flag.starts_with("--") => {
                    let value = it.next().ok_or(format!("{flag} needs a value"))?;
                    out.flags.push((flag[2..].to_string(), value.clone()));
                }
                _ => out.positional.push(arg.clone()),
            }
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn options(args: &Args, workload: &str) -> Result<Options, String> {
    if !workloads::is_workload(workload) {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            names.join(", ")
        ));
    }
    let default_seconds = if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    let seconds: f64 = args.get("seconds", default_seconds)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Options {
        workload: workload.to_string(),
        seed: args.get("seed", 42)?,
        seconds,
        scale: if args.smoke {
            SMOKE_SCALE
        } else {
            args.get("scale", 1.0)?
        },
        out_dir: PathBuf::from(args.get("out", OUT_DIR.to_string())?),
    })
}

fn print_result(result: &WorkloadResult) {
    println!(
        "# {} seed {} {} sim_fingerprint {}",
        result.workload,
        result.seed,
        if result.traced { "traced" } else { "untraced" },
        result.sim_fingerprint
    );
    for (i, rep) in result.reps.iter().enumerate() {
        println!(
            "rep {i}: {:.3} s, {} sessions, {} state ops{}",
            rep.wall_s,
            rep.sessions,
            rep.state_ops,
            if rep.steal_ticks > 0 {
                format!(" (disturbed: {} steal ticks)", rep.steal_ticks)
            } else {
                String::new()
            }
        );
    }
    for m in &result.metrics {
        if m.samples.len() > 1 {
            let s = m.summary();
            println!(
                "{:<40} {:>16.4} {:<6} q1 {:.4} q3 {:.4} min {:.4} max {:.4} n {}",
                m.name, m.value, m.unit, s.q1, s.q3, s.min, s.max, s.n
            );
        } else {
            println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "{:<40} {:>16.4} share ({} failed of {} attempted)",
        "fail_share",
        result.fail_share(),
        result.failed,
        result.attempted
    );
    for f in &result.failures {
        println!("FAILED {f}");
    }
}

/// The contract form: one workload in this process; the last line of
/// standard output is the result object.
fn one_workload(args: &Args) -> Result<ExitCode, String> {
    args.known(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "scale",
        "out",
        "detail",
        "setup-only",
    ])?;
    let workload: String = args.get("workload", String::new())?;
    let opts = options(args, &workload)?;
    if args.get("setup-only", 0u8)? == 1 {
        runner::run_setup_only(&opts)?;
        return Ok(ExitCode::SUCCESS);
    }
    let result = match args.get("trace", 0u8)? {
        0 => runner::run(&opts),
        1 => trace::run(&opts),
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    print_result(&result);
    let detail: String = args.get("detail", String::new())?;
    if !detail.is_empty() {
        report::write_json(Path::new(&detail), &result)?;
    }
    println!("{}", result.contract_line());
    Ok(ExitCode::SUCCESS)
}

/// Spawn this binary on one workload and read back its detailed result.
/// One process per workload, so `VmHWM` is never cumulative.
fn spawn_workload(opts: &Options, trace: u8) -> Result<WorkloadResult, String> {
    let detail = opts
        .out_dir
        .join(format!("detail_{}_{trace}.json", opts.workload));
    let status = opts
        .child()?
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .arg("--detail")
        .arg(&detail)
        .status()
        .map_err(|e| format!("spawn {}: {e}", opts.workload))?;
    if !status.success() {
        return Err(format!("workload {} exited with {status}", opts.workload));
    }
    let result = report::read_json(&detail);
    let _ = std::fs::remove_file(&detail);
    result
}

/// `lxbench run`: every workload untraced then traced, one process each,
/// one JSON report.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    args.known(&["seed", "seconds", "scale", "out", "report"])?;
    let steal = sys::steal_ticks();
    let all: Vec<Options> = workloads::WORKLOADS
        .iter()
        .map(|(name, _)| options(args, name))
        .collect::<Result<_, _>>()?;
    let first = &all[0];
    let mut report = Report {
        header: Header {
            seed: first.seed,
            seconds: first.seconds,
            scale: first.scale,
            nproc: sys::nproc(),
            shards: workloads::SHARDS,
            rustc: sys::rustc_version(),
            steal_ticks: 0,
        },
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    for opts in &all {
        report.end_to_end.push(spawn_workload(opts, 0)?);
        report.per_layer.push(spawn_workload(opts, 1)?);
    }
    report.header.steal_ticks = steal
        .zip(sys::steal_ticks())
        .map_or(0, |(a, b)| b.saturating_sub(a));
    let default_path = format!(
        "{}/report_seed{}{}.json",
        first.out_dir.display(),
        report.header.seed,
        if args.smoke { "_smoke" } else { "" }
    );
    let path = PathBuf::from(args.get("report", default_path)?);
    report::write_json(&path, &report)?;
    let failed: u64 = report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .map(|r| r.failed)
        .sum();
    println!(
        "report written to {} ({} nproc, {} shards, {}, steal +{} ticks, {failed} failed operations)",
        path.display(),
        report.header.nproc,
        report.header.shards,
        report.header.rustc,
        report.header.steal_ticks
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    match argv.first().map(String::as_str) {
        Some("run") => run_all(&Args::parse(&argv[1..])?),
        Some("trace") => {
            let args = Args::parse(&argv[1..])?;
            args.known(&["seed", "seconds", "scale", "out"])?;
            let [workload] = args.positional.as_slice() else {
                return Err("usage: lxbench trace <workload> [--seed N]".into());
            };
            let result = trace::run(&options(&args, workload)?);
            print_result(&result);
            Ok(if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("compare") => {
            let args = Args::parse(&argv[1..])?;
            args.known(&["bounds"])?;
            let [a, b] = args.positional.as_slice() else {
                return Err("usage: lxbench compare A.json B.json [--bounds BENCHMARK.json]".into());
            };
            let bounds: String = args.get("bounds", "BENCHMARK.json".to_string())?;
            compare::compare_files(Path::new(a), Path::new(b), Path::new(&bounds))
        }
        Some(flag) if flag.starts_with("--") => one_workload(&Args::parse(argv)?),
        _ => Err("usage: lxbench run | trace <workload> | compare A B | --workload W --seed N --seconds S --trace 0|1".into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lxbench: {e}");
            ExitCode::from(2)
        }
    }
}
