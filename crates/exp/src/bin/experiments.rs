//! `experiments` — regenerate the paper's figures/tables and run the
//! systems scenarios.
//!
//! Usage:
//! ```text
//! experiments <figNN|SCENARIO|all|smoke> [--seed N] [--scale F] [--out DIR]
//! ```
//!
//! Prints each experiment's series and writes CSVs under `--out`
//! (default `results/`). `figNN` is an id of the `lingxi_exp::FIGURES`
//! table and `SCENARIO` one of the `lingxi_exp::SYSTEMS` table (run
//! without arguments to list both); `all` runs the paper figures;
//! `smoke` runs every systems scenario at its table `smoke_scale` (or at
//! `--scale` when given) — each gates itself, so a non-zero exit is a
//! real property violation. An unknown flag, a flag whose value is
//! missing or does not parse, and a `--scale` outside
//! `lingxi_exp::SCALE_RANGE` ([0.01, 10]) are errors, never a default or
//! a silent clamp. So is a CSV that cannot be written: the run stops
//! there and exits non-zero.

#![forbid(unsafe_code)]

use std::env;
use std::process::ExitCode;
use std::str::FromStr;

use lingxi_exp::{run_experiment, FIGURES, SCALE_RANGE, SYSTEMS};

fn usage() {
    let figures: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
    let systems: Vec<&str> = SYSTEMS.iter().map(|s| s.id).collect();
    eprintln!(
        "usage: experiments <figNN|{}|all|smoke> [--seed N] [--scale F] [--out DIR]",
        systems.join("|")
    );
    eprintln!("figures: {}", figures.join(", "));
    eprintln!(
        "(`all` runs the paper figures; `smoke` runs the systems scenarios — {} — at their smoke scales)",
        systems.join(", ")
    );
}

/// Everything the flags after the target can set.
#[derive(Debug)]
struct Opts {
    seed: u64,
    /// `None`: each run's own default (see [`runs_of`]).
    scale: Option<f64>,
    out_dir: String,
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

/// Parse the flags after the target.
fn parse_flags(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        seed: 42,
        scale: None,
        out_dir: String::from("results"),
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--seed" => opts.seed = value(flag, &mut rest)?,
            "--scale" => {
                let scale: f64 = value(flag, &mut rest)?;
                if !SCALE_RANGE.contains(&scale) {
                    return Err(format!(
                        "{flag} must be within [{}, {}], got {scale}",
                        SCALE_RANGE.start(),
                        SCALE_RANGE.end()
                    ));
                }
                opts.scale = Some(scale);
            }
            "--out" => opts.out_dir = value(flag, &mut rest)?,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

/// The whole command line: the target's run list and the flags.
fn parse_args(args: &[String]) -> Result<(Runs<'_>, Opts), String> {
    let target = args.first().ok_or("no target given")?;
    Ok((runs_of(target), parse_flags(&args[1..])?))
}

/// Run every `(id, default scale)` in order, printing each result and
/// writing its CSVs. The first failure — a run that errors or a CSV that
/// cannot be written — ends the whole run.
fn execute(runs: &[(&str, f64)], opts: &Opts) -> Result<(), String> {
    let (seed, out_dir) = (opts.seed, &opts.out_dir);
    for &(id, default_scale) in runs {
        let scale = opts.scale.unwrap_or(default_scale);
        eprintln!(">>> running {id} (seed {seed}, scale {scale})");
        let result =
            run_experiment(id, seed, scale).map_err(|e| format!("error running {id}: {e}"))?;
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
        parse_flags(&words(line))
    }

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_into_opts() {
        let opts = parse("--seed 7 --scale 0.5 --out /tmp/x").unwrap();
        assert_eq!((opts.seed, opts.scale), (7, Some(0.5)));
        assert_eq!(opts.out_dir, "/tmp/x");
        let defaults = parse("").unwrap();
        assert_eq!((defaults.seed, defaults.scale), (42, None));
        let args = words("smoke --scale 0.1");
        let (runs, opts) = parse_args(&args).unwrap();
        assert_eq!((runs.len(), opts.scale), (SYSTEMS.len(), Some(0.1)));
        assert!(parse_args(&[]).is_err());
    }

    /// Every numeric flag rejects junk instead of running on its default,
    /// and `--scale` rejects a value outside the range every run honours
    /// instead of running it at a clamp.
    #[test]
    fn each_numeric_flag_rejects_an_unparseable_value() {
        for (flag, junk) in [("--seed", "abc"), ("--seed", "-1"), ("--scale", "x")] {
            let err = parse(&format!("{flag} {junk}")).unwrap_err();
            assert!(err.contains(flag) && err.contains(junk), "{err}");
        }
        for junk in ["-1", "nan", "0", "inf", "20", "0.005"] {
            let err = parse(&format!("--scale {junk}")).unwrap_err();
            assert!(err.contains("--scale must be within [0.01, 10]"), "{err}");
            assert!(parse_args(&words(&format!("fig05 --scale {junk}"))).is_err());
        }
        for edge in ["0.01", "10"] {
            assert!(parse(&format!("--scale {edge}")).is_ok(), "{edge}");
        }
    }

    #[test]
    fn a_flag_without_its_value_and_an_unknown_flag_are_errors() {
        for flag in ["--seed", "--scale", "--out"] {
            assert!(parse(flag).unwrap_err().contains("needs a value"));
        }
        for junk in ["--sed 1", "--days 2"] {
            assert!(parse(junk).unwrap_err().contains("unknown"), "{junk}");
        }
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
