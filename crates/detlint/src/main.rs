//! The `detlint` CLI: lint the workspace, print diagnostics, write
//! `detlint.json`, exit non-zero on unannotated findings.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use lingxi_detlint::lint_workspace;

fn usage() -> ! {
    eprintln!(
        "usage: detlint [--root DIR] [--json PATH] [--quiet]\n\
         \n\
         Statically enforces the workspace determinism contract (rules\n\
         D1-D5), that every root re-export is reached (D7) and that\n\
         serde is derived on persisted types only (D8; see\n\
         crates/detlint). Exits 1 on unannotated findings.\n\
         --root   workspace root (default: this checkout)\n\
         --json   where to write the machine-readable report\n\
                  (default: <root>/detlint.json)\n\
         --quiet  suppress per-finding diagnostics"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    // The compiled-in manifest path makes `cargo run -p lingxi-detlint`
    // work from any CWD inside the checkout.
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from).unwrap_or_else(|| usage()),
            "--json" => json_out = Some(args.next().map(PathBuf::from).unwrap_or_else(|| usage())),
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }
    let json_out = json_out.unwrap_or_else(|| root.join("detlint.json"));

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: cannot lint {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if !quiet {
        for f in &report.findings {
            let status = if f.allowed {
                format!(
                    "allowed: {}",
                    f.reason.as_deref().unwrap_or("(no reason given)")
                )
            } else {
                "VIOLATION".to_string()
            };
            println!(
                "{}({}) {}:{} [{status}]\n    {}",
                f.rule.id(),
                f.rule.name(),
                f.file,
                f.line,
                f.message
            );
        }
    }

    if let Err(e) = std::fs::write(&json_out, report.to_json()) {
        eprintln!("detlint: cannot write {}: {e}", json_out.display());
        return ExitCode::from(2);
    }

    let violations = report.violations().count();
    let allowed = report.findings.len() - violations;
    println!(
        "detlint: {} files, {} findings ({} allowed, {} violations) -> {}",
        report.files_scanned,
        report.findings.len(),
        allowed,
        violations,
        json_out.display()
    );
    if violations > 0 {
        println!(
            "detlint: annotate legitimate sites with // detlint::allow(<rule>, reason = \"...\")"
        );
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
