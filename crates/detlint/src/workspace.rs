//! Workspace discovery and the workspace-level rules (D4, D7): walks
//! every member crate's `src/` tree, runs the token rules from
//! [`crate::rules`], checks crate roots for `#![forbid(unsafe_code)]`,
//! audits the vendored crates against the committed
//! `vendor/UNSAFE_BUDGET`, and checks that every root re-export is
//! reached.
//!
//! Scope decisions, deliberately:
//!
//! - only `src/` trees are linted — `tests/` and `examples/` may use
//!   wall clocks, hash maps and ambient entropy freely (their output is
//!   asserted, not merged into metrics), and the engine also drops
//!   `#[cfg(test)]` regions inside `src/` files;
//! - D7 `unreached_pub` also *reads*, without linting them, each
//!   member's `tests/` and `examples/` and `benchmark/src` (missing
//!   directories are skipped). A name `pub use`d by a member's `lib.rs`
//!   from its own modules is dead when every identifier token naming it
//!   in non-test code sits in that `pub use`, in the name's own items and
//!   `impl` blocks, or in the items of names already found dead; rounds
//!   repeat until none is found, so a type only a dead item names is
//!   found one round later. The member's own `tests/` and `examples/` do
//!   not count (a crate's tests do not make its API reached); comments,
//!   strings and `#[cfg(test)]` regions never do. Any same-named
//!   identifier counts as a use, so the rule errs toward silence;
//!   renamed (`as`) and glob re-exports are not checked;
//! - vendored crates are not linted rule-by-rule (they stand in for
//!   crates.io and follow upstream idiom) but their `unsafe` footprint
//!   is pinned: the budget file records a *raw* word count per crate —
//!   conservative on purpose, so even a new comment mentioning `unsafe`
//!   shows up for human review (`scripts/check_vendor_drift.sh` performs
//!   the same raw count without a Rust toolchain).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::{annotated, collect_allows, lint_source, skip_group, test_mask};
use crate::rules::{FileCtx, Finding, RuleId};

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
    let toks = lex(src);
    let code: Vec<&Tok> = toks
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
fn raw_unsafe_count(src: &str) -> usize {
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
    let members = members(root)?;
    let mut read = Vec::new();

    for (m, member) in members.iter().enumerate() {
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

            findings.extend(lint_source(
                &src,
                &FileCtx {
                    path: path.clone(),
                    sim_path,
                },
            ));
            read.push(Unit::new(Some(m), false, path, src));
        }
    }
    for (m, member) in members.iter().enumerate() {
        let dir = member.src.parent().unwrap_or(root);
        for sub in ["tests", "examples"] {
            read_units(root, &dir.join(sub), Some(m), &mut read)?;
        }
    }
    read_units(root, &root.join("benchmark/src"), None, &mut read)?;
    findings.extend(unreached_pub_findings(root, &members, &read));

    findings.extend(vendor_budget_findings(root)?);
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Ok(Report {
        findings,
        files_scanned,
    })
}

/// One source file D7 reads: the member whose tree holds it (`None` for
/// `benchmark/src`), whether that tree is the member's own `tests/` or
/// `examples/`, its tokens, and the indices of its live-code tokens (no
/// comments; no `#[cfg(test)]` code in `src/` trees — a `tests/` file is
/// test code throughout, and its `#[test]` functions are what reaches
/// another member's exports).
struct Unit {
    member: Option<usize>,
    own_tests: bool,
    path: String,
    src: String,
    toks: Vec<Tok>,
    code: Vec<usize>,
}

impl Unit {
    fn new(member: Option<usize>, own_tests: bool, path: String, src: String) -> Self {
        let toks = lex(&src);
        let masked = if own_tests {
            vec![false; toks.len()]
        } else {
            test_mask(&src, &toks)
        };
        let code = (0..toks.len())
            .filter(|&i| {
                !masked[i] && !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment)
            })
            .collect();
        Unit {
            member,
            own_tests,
            path,
            src,
            toks,
            code,
        }
    }

    fn text(&self, i: usize) -> &str {
        self.toks[i].text(&self.src)
    }
}

/// Read every `.rs` file under `dir`, if it exists: `member`'s own tests
/// or examples, or `benchmark/src` when `member` is `None`.
fn read_units(
    root: &Path,
    dir: &Path,
    member: Option<usize>,
    out: &mut Vec<Unit>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut files = Vec::new();
    rs_files(dir, &mut files)?;
    for file in files {
        let src = fs::read_to_string(&file)?;
        out.push(Unit::new(member, member.is_some(), rel(root, &file), src));
    }
    Ok(())
}

/// One name a member's `lib.rs` (unit `unit`) re-exports from its own
/// modules, in the `pub use` spanning tokens `stmt`.
struct Export {
    member: usize,
    unit: usize,
    stmt: Range<usize>,
    name: String,
    line: u32,
}

/// The names `pub use m::{A, b};` (or `pub use m::A;`) at the top level
/// of a `lib.rs` re-exports, for every `m` the file declares as a `mod`.
fn own_exports(u: &Unit, unit: usize, member: usize) -> Vec<Export> {
    let code = &u.code;
    let text = |c: usize| u.text(code[c]);
    let mods: Vec<&str> = (1..code.len())
        .filter(|&c| text(c - 1) == "mod")
        .map(text)
        .collect();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut c = 0;
    while c < code.len() {
        match text(c) {
            "{" => depth += 1,
            "}" => depth -= 1,
            "pub" if depth == 0 && c + 2 < code.len() && text(c + 1) == "use" => {
                let end = (c..code.len())
                    .find(|&e| text(e) == ";")
                    .unwrap_or(code.len() - 1);
                if mods.contains(&text(c + 2)) {
                    for n in c + 3..end {
                        if u.toks[code[n]].kind == TokKind::Ident
                            && matches!(text(n + 1), "," | "}" | ";")
                            && text(n - 1) != "as"
                            && text(n) != "self"
                        {
                            out.push(Export {
                                member,
                                unit,
                                stmt: code[c]..code[end] + 1,
                                name: text(n).to_string(),
                                line: u.toks[code[n]].line,
                            });
                        }
                    }
                }
                c = end;
            }
            _ => {}
        }
        c += 1;
    }
    out
}

/// Every item (`struct`, `enum`, `trait`, `fn`, `const`, `static`,
/// `type`) and `impl` block of `u`, as (the name it defines or the
/// impl's self type, token range).
fn item_spans(u: &Unit) -> Vec<(&str, Range<usize>)> {
    let code = &u.code;
    let mut out = Vec::new();
    for (c, &i) in code.iter().enumerate() {
        let name = match u.text(i) {
            "struct" | "enum" | "trait" | "fn" | "const" | "static" | "type" => code
                .get(c + 1)
                .filter(|&&n| u.toks[n].kind == TokKind::Ident)
                .map(|&n| u.text(n)),
            // Only an `impl` in item position opens a block: `-> impl
            // Trait` and `x: impl Trait` are types.
            "impl" if c == 0 || matches!(u.text(code[c - 1]), "}" | ";" | "]" | "{" | "unsafe") => {
                impl_self_type(u, &code[c + 1..])
            }
            _ => None,
        };
        if let Some(name) = name {
            let braced = !matches!(u.text(i), "const" | "static" | "type");
            out.push((name, i..item_end(u, i, braced)));
        }
    }
    out
}

/// The self type in an `impl` header: the last identifier outside angle
/// brackets, after `for` when there is one.
fn impl_self_type<'u>(u: &'u Unit, header: &[usize]) -> Option<&'u str> {
    let mut angle = 0i32;
    let mut name = None;
    for (h, &i) in header.iter().enumerate() {
        match u.text(i) {
            "<" => angle += 1,
            ">" if h == 0 || u.text(header[h - 1]) != "-" => angle -= 1,
            "{" | ";" => break,
            "where" if angle == 0 => break,
            "for" if angle == 0 => name = None,
            t if angle == 0 && u.toks[i].kind == TokKind::Ident => name = Some(t),
            _ => {}
        }
    }
    name
}

/// One past the last token of the item whose keyword is token `start`:
/// its terminating `;`, or, when `braced`, the `}` closing its first
/// top-level brace group.
fn item_end(u: &Unit, start: usize, braced: bool) -> usize {
    let mut k = start + 1;
    while k < u.toks.len() {
        if u.toks[k].kind == TokKind::Punct {
            match u.text(k) {
                ";" => return k + 1,
                "{" if braced => return skip_group(&u.src, &u.toks, k),
                "{" | "(" | "[" => {
                    k = skip_group(&u.src, &u.toks, k);
                    continue;
                }
                _ => {}
            }
        }
        k += 1;
    }
    u.toks.len()
}

/// D7 over the files in `read`.
fn unreached_pub_findings(root: &Path, members: &[Member], read: &[Unit]) -> Vec<Finding> {
    let mut exports = Vec::new();
    for (m, member) in members.iter().enumerate() {
        let lib = rel(root, &member.src.join("lib.rs"));
        if let Some(unit) = read.iter().position(|u| !u.own_tests && u.path == lib) {
            exports.extend(own_exports(&read[unit], unit, m));
        }
    }
    // Each export's own spans: its `pub use`, and its items and impls in
    // its member's `src/`.
    let items: Vec<Vec<(&str, Range<usize>)>> = read.iter().map(item_spans).collect();
    let own: Vec<Vec<(usize, Range<usize>)>> = exports
        .iter()
        .map(|x| {
            let items = (0..read.len())
                .filter(|&u| read[u].member == Some(x.member) && !read[u].own_tests)
                .flat_map(|u| {
                    items[u]
                        .iter()
                        .filter(|(n, _)| *n == x.name)
                        .map(move |(_, r)| (u, r.clone()))
                });
            std::iter::once((x.unit, x.stmt.clone()))
                .chain(items)
                .collect()
        })
        .collect();
    // Every live-code identifier token that names an exported name.
    let mut named: BTreeMap<&str, Vec<(usize, usize)>> = exports
        .iter()
        .map(|x| (x.name.as_str(), Vec::new()))
        .collect();
    for (u, unit) in read.iter().enumerate() {
        for &i in &unit.code {
            if unit.toks[i].kind == TokKind::Ident {
                if let Some(sites) = named.get_mut(unit.text(i)) {
                    sites.push((u, i));
                }
            }
        }
    }

    let inside = |spans: &[(usize, Range<usize>)], u: usize, i: usize| {
        spans.iter().any(|(su, r)| *su == u && r.contains(&i))
    };
    let mut found_in = vec![0u32; exports.len()];
    for round in 1.. {
        let dead: Vec<(usize, Range<usize>)> = (0..exports.len())
            .filter(|&e| found_in[e] > 0)
            .flat_map(|e| own[e].iter().cloned())
            .collect();
        let newly: Vec<usize> = (0..exports.len())
            .filter(|&e| found_in[e] == 0)
            .filter(|&e| {
                let x = &exports[e];
                named[x.name.as_str()].iter().all(|&(u, i)| {
                    (read[u].own_tests && read[u].member == Some(x.member))
                        || inside(&own[e], u, i)
                        || inside(&dead, u, i)
                })
            })
            .collect();
        if newly.is_empty() {
            break;
        }
        for e in newly {
            found_in[e] = round;
        }
    }

    exports
        .iter()
        .zip(found_in)
        .filter(|&(_, round)| round > 0)
        .map(|(x, round)| {
            let lib = &read[x.unit];
            annotated(
                &collect_allows(&lib.src, &lib.toks),
                RuleId::D7,
                &lib.path,
                x.line,
                format!(
                    "{} re-exports `{}`, but no non-test code outside its own \
                     items, impls and tests names it (round {round}): delete \
                     it with what only it keeps alive, or stop exporting it",
                    members[x.member].name, x.name
                ),
            )
        })
        .collect()
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
