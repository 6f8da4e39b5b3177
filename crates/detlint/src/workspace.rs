//! Workspace discovery and the structural rule (D4): walks every member
//! crate's `src/` tree, runs the token rules from [`crate::rules`],
//! checks crate roots for `#![forbid(unsafe_code)]`, and audits the
//! vendored crates against the committed `vendor/UNSAFE_BUDGET`.
//!
//! Scope decisions, deliberately:
//!
//! - only `src/` trees are linted — `tests/` and `examples/` may use
//!   wall clocks, hash maps and ambient entropy freely (their output is
//!   asserted, not merged into metrics), and the engine also drops
//!   `#[cfg(test)]` regions inside `src/` files;
//! - vendored crates are not linted rule-by-rule (they stand in for
//!   crates.io and follow upstream idiom) but their `unsafe` footprint
//!   is pinned: the budget file records a *raw* word count per crate —
//!   conservative on purpose, so even a new comment mentioning `unsafe`
//!   shows up for human review (`scripts/check_vendor_drift.sh` performs
//!   the same raw count without a Rust toolchain).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{lint_source, FileCtx, Finding, RuleId};

/// Workspace members whose code is *off* the simulation path — timing
/// and CLI layers where wall-clock use is expected (still
/// annotation-gated by D2) and hash collections never feed metrics.
pub const NON_SIM_CRATES: &[&str] = &["lingxi-exp", "lingxi-detlint"];

/// The complete result of linting a workspace.
#[derive(Debug)]
pub struct Report {
    /// Every finding, allowed or not, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings not silenced by a `detlint::allow` annotation; any of
    /// these fails the lint.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed)
    }

    /// Serialize as the machine-readable `detlint.json` document.
    pub fn to_json(&self) -> String {
        let allowed = self.findings.iter().filter(|f| f.allowed).count();
        let mut out = String::from("{\n  \"schema\": 1,\n");
        out.push_str(&format!(
            "  \"summary\": {{\"files\": {}, \"findings\": {}, \"allowed\": {}, \"violations\": {}}},\n",
            self.files_scanned,
            self.findings.len(),
            allowed,
            self.findings.len() - allowed
        ));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"name\": \"{}\", \"file\": \"{}\", \"line\": {}, \"allowed\": {}, \"reason\": {}, \"message\": \"{}\"}}{}\n",
                f.rule.id(),
                f.rule.name(),
                json_escape(&f.file),
                f.line,
                f.allowed,
                match &f.reason {
                    Some(r) => format!("\"{}\"", json_escape(r)),
                    None => "null".to_string(),
                },
                json_escape(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Recursively collect `.rs` files under `dir` in sorted order, so runs
/// are byte-identical across filesystems.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether the source opens with an inner `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(src: &str) -> bool {
    use crate::lexer::{lex, TokKind};
    let toks = lex(src);
    let code: Vec<&crate::lexer::Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    code.windows(8).any(|w| {
        let t = |i: usize| w[i].text(src);
        t(0) == "#"
            && t(1) == "!"
            && t(2) == "["
            && t(3) == "forbid"
            && t(4) == "("
            && t(5) == "unsafe_code"
            && t(6) == ")"
            && t(7) == "]"
    })
}

/// Raw word-boundary count of `unsafe` in a source string — the budget
/// metric for vendored crates (see module docs for why it is raw).
pub fn raw_unsafe_count(src: &str) -> usize {
    let bytes = src.as_bytes();
    let word = b"unsafe";
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut n = 0;
    let mut i = 0;
    while i + word.len() <= bytes.len() {
        if &bytes[i..i + word.len()] == word
            && (i == 0 || !is_word(bytes[i - 1]))
            && (i + word.len() == bytes.len() || !is_word(bytes[i + word.len()]))
        {
            n += 1;
            i += word.len();
        } else {
            i += 1;
        }
    }
    n
}

/// One workspace member: package name plus its `src/` tree.
struct Member {
    name: String,
    src: PathBuf,
}

fn members(root: &Path) -> io::Result<Vec<Member>> {
    let mut out = vec![Member {
        name: "lingxi".to_string(),
        src: root.join("src"),
    }];
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let short = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        out.push(Member {
            name: format!("lingxi-{short}"),
            src: dir.join("src"),
        });
    }
    Ok(out)
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint every workspace member plus the vendor unsafe budget; `root` is
/// the repository root (the directory holding the workspace Cargo.toml).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;

    for member in members(root)? {
        let sim_path = !NON_SIM_CRATES.contains(&member.name.as_str());
        let mut files = Vec::new();
        rs_files(&member.src, &mut files)?;
        for file in files {
            let src = fs::read_to_string(&file)?;
            let path = rel(root, &file);
            files_scanned += 1;

            // D4: crate roots (lib.rs, main.rs, and every bin root) must
            // forbid unsafe code outright.
            let is_root = file == member.src.join("lib.rs")
                || file == member.src.join("main.rs")
                || file.parent() == Some(&member.src.join("bin"));
            if is_root && !has_forbid_unsafe(&src) {
                findings.push(Finding {
                    rule: RuleId::D4,
                    file: path.clone(),
                    line: 1,
                    message: format!(
                        "crate root of {} lacks #![forbid(unsafe_code)]",
                        member.name
                    ),
                    allowed: false,
                    reason: None,
                });
            }

            findings.extend(lint_source(&src, &FileCtx { path, sim_path }));
        }
    }

    findings.extend(vendor_budget_findings(root)?);
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Ok(Report {
        findings,
        files_scanned,
    })
}

/// Compare each vendored crate's raw `unsafe` count against the
/// committed `vendor/UNSAFE_BUDGET` manifest (format: `name count` per
/// line, `#` comments). Drift in either direction is a D4 finding:
/// growth means new unsafe slipped in, shrinkage means the budget is
/// stale and should be ratcheted down.
fn vendor_budget_findings(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let budget_path = root.join("vendor/UNSAFE_BUDGET");
    let budget_rel = rel(root, &budget_path);
    let mut declared = std::collections::BTreeMap::new();
    match fs::read_to_string(&budget_path) {
        Ok(text) => {
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                if let Some((name, count)) = line.split_once(char::is_whitespace) {
                    if let Ok(count) = count.trim().parse::<usize>() {
                        declared.insert(name.to_string(), count);
                    }
                }
            }
        }
        Err(_) => {
            findings.push(Finding {
                rule: RuleId::D4,
                file: budget_rel.clone(),
                line: 1,
                message: "vendor/UNSAFE_BUDGET is missing: every vendored crate \
                          needs a declared unsafe budget"
                    .to_string(),
                allowed: false,
                reason: None,
            });
            return Ok(findings);
        }
    }

    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("vendor"))?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let mut files = Vec::new();
        rs_files(&dir, &mut files)?;
        let mut count = 0usize;
        for file in &files {
            count += raw_unsafe_count(&fs::read_to_string(file)?);
        }
        match declared.remove(&name) {
            Some(budget) if budget == count => {}
            Some(budget) => findings.push(Finding {
                rule: RuleId::D4,
                file: budget_rel.clone(),
                line: 1,
                message: format!(
                    "vendor crate {name}: unsafe count {count} drifted from \
                     the declared budget {budget}"
                ),
                allowed: false,
                reason: None,
            }),
            None => findings.push(Finding {
                rule: RuleId::D4,
                file: budget_rel.clone(),
                line: 1,
                message: format!(
                    "vendor crate {name} (unsafe count {count}) has no entry \
                     in vendor/UNSAFE_BUDGET"
                ),
                allowed: false,
                reason: None,
            }),
        }
    }
    for (name, _) in declared {
        findings.push(Finding {
            rule: RuleId::D4,
            file: budget_rel.clone(),
            line: 1,
            message: format!("vendor/UNSAFE_BUDGET lists {name}, which is not vendored"),
            allowed: false,
            reason: None,
        });
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_unsafe_counts_word_boundaries() {
        assert_eq!(raw_unsafe_count("unsafe fn x() {}"), 1);
        assert_eq!(raw_unsafe_count("// unsafe unsafe"), 2);
        assert_eq!(raw_unsafe_count("unsafety not_unsafe"), 0);
        assert_eq!(raw_unsafe_count(""), 0);
    }

    #[test]
    fn forbid_attribute_detected() {
        assert!(has_forbid_unsafe(
            "//! Docs.\n#![forbid(unsafe_code)]\nfn main() {}"
        ));
        assert!(!has_forbid_unsafe("#![warn(missing_docs)]\nfn main() {}"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
