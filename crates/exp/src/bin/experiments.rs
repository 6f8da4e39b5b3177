//! `experiments` — regenerate the paper's figures/tables and run the
//! systems scenarios.
//!
//! Usage:
//! ```text
//! experiments <figNN|SCENARIO|all|smoke> \
//!     [--seed N] [--scale F] [--out DIR] [--days D] \
//!     [--checkpoint-every N] [--resume] [--state-dir DIR] [--stop-after-epochs N]
//! ```
//!
//! Prints each experiment's series and writes CSVs under `--out`
//! (default `results/`). `figNN` is an id of the `lingxi_exp::FIGURES`
//! table and `SCENARIO` one of the `lingxi_exp::SYSTEMS` table (run
//! without arguments to list both); `all` runs the paper figures;
//! `smoke` runs every systems scenario at its table `smoke_scale` (or at
//! `--scale` when given) — each gates itself, so a non-zero exit is a
//! real property violation. `--days` selects the simulated-day count of
//! the `population` scenario;
//! `--checkpoint-every`/`--resume`/`--state-dir`/`--stop-after-epochs`
//! thread its kill/resume knobs (a suspended run restarts from its
//! epoch-barrier manifest with bit-identical output). These five are
//! rejected when the run does not include `population` — a flag nothing
//! reads is an error, like a flag whose value is missing or does not
//! parse, never a default. So is a CSV that cannot be written: the run
//! stops there and exits non-zero.

#![forbid(unsafe_code)]

use std::env;
use std::process::ExitCode;
use std::str::FromStr;

use lingxi_exp::population::CheckpointOpts;
use lingxi_exp::{population, run_experiment, FIGURES, SYSTEMS};

/// Flags only the `population` scenario reads.
const POPULATION_FLAGS: [&str; 5] = [
    "--days",
    "--checkpoint-every",
    "--resume",
    "--state-dir",
    "--stop-after-epochs",
];

fn usage() {
    let figures: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
    let systems: Vec<&str> = SYSTEMS.iter().map(|s| s.id).collect();
    eprintln!(
        "usage: experiments <figNN|{}|all|smoke> [--seed N] [--scale F] [--out DIR] [--days D]",
        systems.join("|")
    );
    eprintln!("                   [--checkpoint-every N] [--resume] [--state-dir DIR] [--stop-after-epochs N]");
    eprintln!("figures: {}", figures.join(", "));
    eprintln!("(`all` runs the paper figures; `smoke` runs the systems scenarios — {} — at their smoke scales; {} apply to `population` only)", systems.join(", "), POPULATION_FLAGS.join("/"));
}

/// Everything the flags after the target can set.
#[derive(Debug)]
struct Opts {
    seed: u64,
    /// `None`: each run's own default (see [`runs_of`]).
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

/// A run list, in order: `(id, scale when --scale is absent)`.
type Runs<'a> = Vec<(&'a str, f64)>;

/// What `target` runs.
fn runs_of(target: &str) -> Runs<'_> {
    match target {
        "all" => FIGURES.iter().map(|&(id, _)| (id, 1.0)).collect(),
        "smoke" => SYSTEMS.iter().map(|s| (s.id, s.smoke_scale)).collect(),
        id => vec![(id, 1.0)],
    }
}

/// Parse the flags after the target. `population` says whether the run
/// includes the `population` scenario; without it nothing would read
/// [`POPULATION_FLAGS`], so they are errors rather than silently ignored.
fn parse_flags(args: &[String], population: bool) -> Result<Opts, String> {
    let mut opts = Opts {
        seed: 42,
        scale: None,
        out_dir: String::from("results"),
        days: population::DEFAULT_DAYS,
        ckpt: CheckpointOpts::default(),
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if !population && POPULATION_FLAGS.contains(&flag.as_str()) {
            return Err(format!(
                "{flag} applies to `population` only, which this run does not include"
            ));
        }
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

/// The whole command line: the target's run list and the flags, checked
/// against each other.
fn parse_args(args: &[String]) -> Result<(Runs<'_>, Opts), String> {
    let target = args.first().ok_or("no target given")?;
    let runs = runs_of(target);
    let population = runs.iter().any(|(id, _)| *id == "population");
    Ok((runs, parse_flags(&args[1..], population)?))
}

/// Run every `(id, default scale)` in order, printing each result and
/// writing its CSVs. The first failure — a run that errors or a CSV that
/// cannot be written — ends the whole run.
fn execute(runs: &[(&str, f64)], opts: &Opts) -> Result<(), String> {
    let (seed, out_dir) = (opts.seed, &opts.out_dir);
    for &(id, default_scale) in runs {
        let scale = opts.scale.unwrap_or(default_scale);
        eprintln!(">>> running {id} (seed {seed}, scale {scale})");
        // `population` takes the extra --days and checkpoint/resume knobs;
        // everything else runs through the uniform (seed, scale) registry.
        let run = if id == "population" {
            population::run_opts(seed, scale, opts.days, &opts.ckpt)
        } else {
            run_experiment(id, seed, scale)
        };
        let result = run.map_err(|e| format!("error running {id}: {e}"))?;
        print!("{}", result.render());
        result
            .write_csv(out_dir)
            .map_err(|e| format!("error writing CSVs for {id} under {out_dir}: {e}"))?;
        eprintln!("    CSVs written to {out_dir}/{id}/");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (runs, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    match execute(&runs, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Opts, String> {
        parse_flags(&words(line), true)
    }

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
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

    /// A flag only `population` reads is an error on a run without it
    /// (it used to be parsed and dropped), and still fine on runs with it.
    #[test]
    fn a_population_only_flag_is_rejected_on_a_run_without_population() {
        for flag in POPULATION_FLAGS {
            for target in ["fig02", "all", "fleet"] {
                let err = parse_args(&words(&format!("{target} {flag} 1"))).unwrap_err();
                assert!(err.contains(flag) && err.contains("population"), "{err}");
            }
        }
        let args = words("population --days 9 --resume");
        let (runs, opts) = parse_args(&args).unwrap();
        assert_eq!(runs, vec![("population", 1.0)]);
        assert!(opts.days == 9 && opts.ckpt.resume);
        let args = words("smoke --days 3");
        let (runs, opts) = parse_args(&args).unwrap();
        assert_eq!((runs.len(), opts.days), (SYSTEMS.len(), 3));
        assert!(parse_args(&[]).is_err());
    }

    /// A CSV that cannot be written fails the run (it used to be a
    /// warning and exit 0): `--out` under a regular file cannot be created.
    #[test]
    fn a_failed_csv_write_is_an_error() {
        let file = env::temp_dir().join(format!("lingxi_cli_not_a_dir_{}", std::process::id()));
        std::fs::write(&file, "a regular file").unwrap();
        let out = file.join("results");
        let opts = parse(&format!("--out {}", out.display())).unwrap();
        let err = execute(&[("fig05", 0.02)], &opts).unwrap_err();
        assert!(err.contains("error writing CSVs for fig05"), "{err}");
        assert!(!out.exists());
        let _ = std::fs::remove_file(&file);
    }
}
