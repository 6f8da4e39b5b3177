//! `experiments` — regenerate the paper's figures/tables and run the
//! systems scenarios.
//!
//! Usage:
//! ```text
//! experiments <fig01|...|fig15|fleet|flashcrowd|population|fairness|dispatch|checkpoint|all> \
//!     [--seed N] [--scale F] [--out DIR] [--days D] \
//!     [--checkpoint-every N] [--resume] [--state-dir DIR] [--stop-after-epochs N]
//! experiments migrate-state <json-dir> <log-dir>
//! ```
//!
//! Prints each experiment's series and writes CSVs under `--out`
//! (default `results/`). `--days` selects the simulated-day count of the
//! `population` scenario; `--checkpoint-every`/`--resume`/`--state-dir`/
//! `--stop-after-epochs` thread its kill/resume knobs (a suspended run
//! restarts from its epoch-barrier manifest with bit-identical output).
//! `migrate-state` converts a legacy file-per-user JSON state directory
//! into a sharded binary state log, reporting malformed-filename
//! warnings.

#![forbid(unsafe_code)]

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use lingxi_core::{migrate_file_store, BinLogConfig, BinaryStateLog, StateStore};
use lingxi_exp::population::CheckpointOpts;
use lingxi_exp::{population, run_experiment, ALL_EXPERIMENTS};

fn usage() {
    eprintln!(
        "usage: experiments <figNN|fleet|flashcrowd|population|fairness|dispatch|checkpoint|all> [--seed N] [--scale F] [--out DIR] [--days D]"
    );
    eprintln!("                   [--checkpoint-every N] [--resume] [--state-dir DIR] [--stop-after-epochs N]");
    eprintln!("       experiments migrate-state <json-dir> <log-dir>");
    eprintln!(
        "experiments: {}, fleet, flashcrowd, population, fairness, dispatch, checkpoint",
        ALL_EXPERIMENTS.join(", ")
    );
    eprintln!("(`all` runs the paper figures; `fleet`/`flashcrowd`/`population`/`fairness`/`dispatch`/`checkpoint` are the systems scenarios; `migrate-state` converts file-per-user JSON state to the binary log)");
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
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    let target = args[0].clone();
    if target == "migrate-state" {
        if args.len() != 3 {
            usage();
            return ExitCode::FAILURE;
        }
        return migrate_state(&args[1], &args[2]);
    }
    let mut seed = 42u64;
    let mut scale = 1.0f64;
    let mut out_dir = String::from("results");
    let mut days = 2usize;
    let mut ckpt = CheckpointOpts::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().unwrap_or(42);
                i += 2;
            }
            "--scale" if i + 1 < args.len() => {
                scale = args[i + 1].parse().unwrap_or(1.0);
                i += 2;
            }
            "--out" if i + 1 < args.len() => {
                out_dir = args[i + 1].clone();
                i += 2;
            }
            "--days" if i + 1 < args.len() => {
                days = args[i + 1].parse().unwrap_or(2);
                i += 2;
            }
            "--checkpoint-every" if i + 1 < args.len() => {
                ckpt.checkpoint_every = args[i + 1].parse().unwrap_or(0);
                i += 2;
            }
            "--resume" => {
                ckpt.resume = true;
                i += 1;
            }
            "--state-dir" if i + 1 < args.len() => {
                ckpt.state_root = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--stop-after-epochs" if i + 1 < args.len() => {
                ckpt.stop_after_epochs = args[i + 1].parse().ok();
                i += 2;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let ids: Vec<&str> = if target == "all" {
        ALL_EXPERIMENTS.to_vec()
    } else {
        vec![target.as_str()]
    };

    for id in ids {
        eprintln!(">>> running {id} (seed {seed}, scale {scale})");
        // `population` takes the extra --days and checkpoint/resume knobs;
        // everything else runs through the uniform (seed, scale) registry.
        let run = if id == "population" {
            population::run_opts(seed, scale, days, &ckpt)
        } else {
            run_experiment(id, seed, scale)
        };
        match run {
            Ok(result) => {
                print!("{}", result.render());
                if let Err(e) = result.write_csv(&out_dir) {
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
