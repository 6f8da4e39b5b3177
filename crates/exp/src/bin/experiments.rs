//! `experiments` — regenerate the paper's figures/tables and run the
//! systems scenarios.
//!
//! Usage:
//! ```text
//! experiments <figNN|SCENARIO|all|smoke> \
//!     [--seed N] [--scale F] [--out DIR] [--days D] \
//!     [--checkpoint-every N] [--resume] [--state-dir DIR] [--stop-after-epochs N]
//! experiments migrate-state <json-dir> <log-dir>
//! ```
//!
//! Prints each experiment's series and writes CSVs under `--out`
//! (default `results/`). `SCENARIO` is an id of the `lingxi_exp::SYSTEMS`
//! table (run without arguments to list them); `all` runs the paper
//! figures; `smoke` runs every systems scenario at its table
//! `smoke_scale` (or at `--scale` when given) — each gates itself, so a
//! non-zero exit is a real property violation. `--days` selects the
//! simulated-day count of the `population` scenario;
//! `--checkpoint-every`/`--resume`/`--state-dir`/`--stop-after-epochs`
//! thread its kill/resume knobs (a suspended run restarts from its
//! epoch-barrier manifest with bit-identical output). A flag whose value
//! is missing or does not parse is an error, never a default.
//! `migrate-state` converts a legacy file-per-user JSON state directory
//! into a sharded binary state log, reporting malformed-filename
//! warnings.

#![forbid(unsafe_code)]

use std::env;
use std::process::ExitCode;
use std::str::FromStr;

use lingxi_core::{migrate_file_store, BinLogConfig, BinaryStateLog, StateStore};
use lingxi_exp::population::CheckpointOpts;
use lingxi_exp::{population, run_experiment, ALL_EXPERIMENTS, SYSTEMS};

fn usage() {
    let systems: Vec<&str> = SYSTEMS.iter().map(|s| s.id).collect();
    eprintln!(
        "usage: experiments <figNN|{}|all|smoke> [--seed N] [--scale F] [--out DIR] [--days D]",
        systems.join("|")
    );
    eprintln!("                   [--checkpoint-every N] [--resume] [--state-dir DIR] [--stop-after-epochs N]");
    eprintln!("       experiments migrate-state <json-dir> <log-dir>");
    eprintln!("figures: {}", ALL_EXPERIMENTS.join(", "));
    eprintln!("(`all` runs the paper figures; `smoke` runs the systems scenarios — {} — at their smoke scales; `migrate-state` converts file-per-user JSON state to the binary log)", systems.join(", "));
}

/// Everything the flags after the target can set.
#[derive(Debug)]
struct Opts {
    seed: u64,
    /// `None`: 1.0, or each scenario's `smoke_scale` under `smoke`.
    scale: Option<f64>,
    out_dir: String,
    days: usize,
    ckpt: CheckpointOpts,
}

/// The value of `flag`: the next argument, parsed. A missing or
/// unparseable value is an error — a typo must not run the default.
fn value<'a, T: FromStr>(
    flag: &str,
    rest: &mut impl Iterator<Item = &'a String>,
) -> Result<T, String> {
    let raw = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

fn parse_flags(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        seed: 42,
        scale: None,
        out_dir: String::from("results"),
        days: population::DEFAULT_DAYS,
        ckpt: CheckpointOpts::default(),
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--seed" => opts.seed = value(flag, &mut rest)?,
            "--scale" => opts.scale = Some(value(flag, &mut rest)?),
            "--out" => opts.out_dir = value(flag, &mut rest)?,
            "--days" => opts.days = value(flag, &mut rest)?,
            "--checkpoint-every" => opts.ckpt.checkpoint_every = value(flag, &mut rest)?,
            "--resume" => opts.ckpt.resume = true,
            "--state-dir" => opts.ckpt.state_root = Some(value(flag, &mut rest)?),
            "--stop-after-epochs" => opts.ckpt.stop_after_epochs = Some(value(flag, &mut rest)?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

/// `migrate-state <json-dir> <log-dir>`: copy every user of a legacy
/// file-per-user store into a fresh binary state log and compact it.
fn migrate_state(src: &str, dest: &str) -> ExitCode {
    let store = match StateStore::open(src) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("migrate-state: cannot open source store {src}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let log = match BinaryStateLog::open(dest, BinLogConfig::default()) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("migrate-state: cannot open destination log {dest}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match migrate_file_store(&store, &log) {
        Ok(report) => {
            println!(
                "migrate-state: {} users migrated from {src} to {dest}",
                report.migrated
            );
            for w in &report.warnings {
                eprintln!("warning: {w}");
            }
            if !report.warnings.is_empty() {
                eprintln!(
                    "migrate-state: {} warning(s); the flagged files were skipped, the source directory is untouched",
                    report.warnings.len()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("migrate-state failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(target) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    if target == "migrate-state" {
        if args.len() != 3 {
            usage();
            return ExitCode::FAILURE;
        }
        return migrate_state(&args[1], &args[2]);
    }
    let opts = match parse_flags(&args[1..]) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let (seed, out_dir) = (opts.seed, &opts.out_dir);
    let full = opts.scale.unwrap_or(1.0);

    let runs: Vec<(&str, f64)> = match target.as_str() {
        "all" => ALL_EXPERIMENTS.iter().map(|&id| (id, full)).collect(),
        "smoke" => SYSTEMS
            .iter()
            .map(|s| (s.id, opts.scale.unwrap_or(s.smoke_scale)))
            .collect(),
        id => vec![(id, full)],
    };

    for (id, scale) in runs {
        eprintln!(">>> running {id} (seed {seed}, scale {scale})");
        // `population` takes the extra --days and checkpoint/resume knobs;
        // everything else runs through the uniform (seed, scale) registry.
        let run = if id == "population" {
            population::run_opts(seed, scale, opts.days, &opts.ckpt)
        } else {
            run_experiment(id, seed, scale)
        };
        match run {
            Ok(result) => {
                print!("{}", result.render());
                if let Err(e) = result.write_csv(out_dir) {
                    eprintln!("warning: failed to write CSVs for {id}: {e}");
                } else {
                    eprintln!("    CSVs written to {out_dir}/{id}/");
                }
            }
            Err(e) => {
                eprintln!("error running {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Opts, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_flags(&args)
    }

    #[test]
    fn flags_parse_into_opts() {
        let opts = parse(
            "--seed 7 --scale 0.5 --out /tmp/x --days 3 --checkpoint-every 2 --resume \
             --state-dir /tmp/s --stop-after-epochs 1",
        )
        .unwrap();
        assert_eq!((opts.seed, opts.scale, opts.days), (7, Some(0.5), 3));
        assert_eq!(opts.out_dir, "/tmp/x");
        assert_eq!(opts.ckpt.checkpoint_every, 2);
        assert!(opts.ckpt.resume);
        assert_eq!(opts.ckpt.state_root.as_deref(), Some("/tmp/s".as_ref()));
        assert_eq!(opts.ckpt.stop_after_epochs, Some(1));
        let defaults = parse("").unwrap();
        assert_eq!(
            (defaults.seed, defaults.scale, defaults.days),
            (42, None, 2)
        );
    }

    /// Every numeric flag rejects junk instead of running on its default
    /// (for `--stop-after-epochs` the default was "no kill at all").
    #[test]
    fn each_numeric_flag_rejects_an_unparseable_value() {
        for (flag, junk) in [
            ("--seed", "abc"),
            ("--scale", "x"),
            ("--days", "two"),
            ("--checkpoint-every", "-1"),
            ("--stop-after-epochs", "junk"),
        ] {
            let err = parse(&format!("{flag} {junk}")).unwrap_err();
            assert!(err.contains(flag) && err.contains(junk), "{err}");
        }
    }

    #[test]
    fn a_flag_without_its_value_and_an_unknown_flag_are_errors() {
        for flag in ["--seed", "--scale", "--out", "--days", "--state-dir"] {
            assert!(parse(flag).unwrap_err().contains("needs a value"));
        }
        assert!(parse("--sed 1").unwrap_err().contains("unknown"));
    }
}
