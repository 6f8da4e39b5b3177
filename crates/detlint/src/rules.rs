//! The lint rules (determinism D1–D5, reachability D7, serialized surface
//! D8) and the `detlint::allow` annotation grammar, evaluated over the
//! token stream from [`crate::lexer`].
//!
//! D1–D5 each guard one invariant of the fleet's bit-identical-merge
//! contract (see ARCHITECTURE.md, "Determinism contract"); D7 keeps every
//! public item reached, and D8 keeps serde on the persisted types only:
//!
//! | id | name | invariant |
//! |----|------|-----------|
//! | D1 | `hash_collection` | no `HashMap`/`HashSet` in simulation-path crates: iteration order is seeded per-process and must never feed metrics or flush order |
//! | D2 | `wall_clock` | no ambient time or entropy (`Instant::now`, `SystemTime`, `thread_rng`, `from_entropy`): every stream derives from the configured seed |
//! | D3 | `unordered_float_merge` | float accumulation in a function that also joins threads, receives from channels, or touches `Hash*` state is an unordered-merge hazard (float addition is non-associative) |
//! | D4 | `unsafe_code` | member crate roots carry `#![forbid(unsafe_code)]`; vendor crates stay within `vendor/UNSAFE_BUDGET` |
//! | D5 | `float_comparator` | event-ordering comparators must not use `partial_cmp`, and `total_cmp` must chain a tie-break (`.then(...)`) |
//! | D7 | `unreached_pub` | every name a member crate root re-exports from its own modules is named by some non-test code outside its own items (see [`crate::workspace`]) |
//! | D8 | `serde_derive` | `Serialize`/`Deserialize` are derived only on a type some file on disk holds; the allow's reason names that file |
//!
//! A finding is silenced in place with
//! `// detlint::allow(<rule-name>, reason = "...")` on the offending
//! line or on a comment line directly above it; the reason is mandatory
//! and is carried into `detlint.json` for audit.

use crate::lexer::{lex, Tok, TokKind};

/// Stable identifier of a determinism rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Hash-ordered collections in simulation-path crates.
    D1,
    /// Wall-clock time or ambient entropy.
    D2,
    /// Float accumulation under unordered control flow.
    D3,
    /// Missing `#![forbid(unsafe_code)]` / vendor unsafe budget drift.
    D4,
    /// Float comparison without the documented tie-break chain.
    D5,
    /// A root re-export nothing outside its own items and tests names.
    D7,
    /// A serde derive on a type no file on disk holds.
    D8,
}

impl RuleId {
    /// The annotation name accepted by `detlint::allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D1 => "hash_collection",
            RuleId::D2 => "wall_clock",
            RuleId::D3 => "unordered_float_merge",
            RuleId::D4 => "unsafe_code",
            RuleId::D5 => "float_comparator",
            RuleId::D7 => "unreached_pub",
            RuleId::D8 => "serde_derive",
        }
    }

    /// The short diagnostic id (`D1`…`D5`, `D7`, `D8`).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::D7 => "D7",
            RuleId::D8 => "D8",
        }
    }

    /// Whether `detlint::allow` may silence this rule. D4 findings are
    /// structural (a missing crate attribute or a drifted unsafe budget)
    /// and must be fixed, not annotated.
    pub fn annotatable(self) -> bool {
        !matches!(self, RuleId::D4)
    }
}

/// One diagnostic produced by the linter.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation of the hazard.
    pub message: String,
    /// `true` when a matching `detlint::allow` annotation covers the
    /// line; annotated findings are reported but do not fail the lint.
    pub allowed: bool,
    /// The annotation's `reason = "..."` text, when allowed.
    pub reason: Option<String>,
}

/// Per-file context the rules need: where the file sits in the workspace.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Repo-relative path, used verbatim in diagnostics.
    pub path: String,
    /// Whether the owning crate is on the simulation path (D1 applies).
    /// Timing/CLI crates (`lingxi-exp`, the linter itself) are
    /// off-path: their output never feeds merged metrics.
    pub sim_path: bool,
}

/// A parsed `detlint::allow(name, reason = "...")` annotation.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    name: String,
    reason: Option<String>,
    /// Lines this annotation covers: its own line and the first
    /// following line holding a non-comment token.
    lines: Vec<u32>,
}

/// Parse the annotation body out of a comment's text, if present. The
/// reason is a quoted string and may itself contain parentheses, so the
/// parser walks `name`, `,`, `reason = "…"` rather than slicing to the
/// first `)`.
fn parse_allow(comment: &str) -> Option<(String, Option<String>)> {
    let at = comment.find("detlint::allow(")?;
    let body = &comment[at + "detlint::allow(".len()..];
    let name_end = body.find([',', ')'])?;
    let name = body[..name_end].trim();
    if name.is_empty() {
        return None;
    }
    let reason = body[name_end..].strip_prefix(',').and_then(|rest| {
        let rest = rest.trim_start().strip_prefix("reason")?;
        let rest = rest.trim_start().strip_prefix('=')?;
        let rest = rest.trim_start().strip_prefix('"')?;
        let close = rest.find('"')?;
        Some(rest[..close].to_string())
    });
    Some((name.to_string(), reason))
}

/// Collect annotations and the lines they cover.
pub(crate) fn collect_allows(src: &str, toks: &[Tok]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let Some((name, reason)) = parse_allow(t.text(src)) else {
            continue;
        };
        let mut lines = vec![t.line];
        // The next non-comment token's line is also covered, so an
        // annotation on its own line guards the statement below it.
        if let Some(next) = toks[i + 1..]
            .iter()
            .find(|n| !matches!(n.kind, TokKind::LineComment | TokKind::BlockComment))
        {
            lines.push(next.line);
        }
        allows.push(Allow {
            name,
            reason,
            lines,
        });
    }
    allows
}

/// Mark every token that lives under a `#[cfg(test)]` / `#[test]` item;
/// the determinism rules skip test-only code (tests may freely use hash
/// maps, wall clocks and ambient entropy — their output is asserted, not
/// merged).
pub(crate) fn test_mask(src: &str, toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code = |i: usize| -> bool {
        !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment)
    };
    let mut i = 0;
    while i < toks.len() {
        if mask[i] || toks[i].kind != TokKind::Punct || toks[i].text(src) != "#" {
            i += 1;
            continue;
        }
        // Reconstruct the attribute text up to its matching `]`.
        let mut j = i + 1;
        if j < toks.len() && code(j) && toks[j].text(src) == "!" {
            // Inner attribute `#![...]`: file-scoped, never an item gate.
            i += 1;
            continue;
        }
        if j >= toks.len() || toks[j].text(src) != "[" {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut attr = String::new();
        while j < toks.len() {
            if code(j) {
                let text = toks[j].text(src);
                attr.push_str(text);
                match text {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let is_test = attr == "[test]"
            || (attr.contains("cfg") && attr.contains("test") && !attr.contains("not(test)"));
        if !is_test {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then mask the gated item: up to
        // the matching `}` of its first brace, or through a terminating
        // `;` for brace-less items.
        let mut k = j + 1;
        while k < toks.len() {
            if !code(k) {
                k += 1;
                continue;
            }
            let text = toks[k].text(src);
            if text == "#" {
                // Another attribute: skip its bracket group.
                let mut d = 0i32;
                k += 1;
                while k < toks.len() {
                    if code(k) {
                        match toks[k].text(src) {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    k += 1;
                }
                k += 1;
                continue;
            }
            break;
        }
        let item_start = k;
        let mut brace = 0i32;
        let mut end = toks.len();
        while k < toks.len() {
            if code(k) {
                match toks[k].text(src) {
                    "{" => brace += 1,
                    "}" => {
                        brace -= 1;
                        if brace == 0 {
                            end = k + 1;
                            break;
                        }
                    }
                    ";" if brace == 0 => {
                        end = k + 1;
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        for m in mask.iter_mut().take(end).skip(item_start) {
            *m = true;
        }
        i = end;
    }
    mask
}

/// A finding at `file:line`, allowed when one of the file's `allows`
/// names `rule` and covers that line.
pub(crate) fn annotated(
    allows: &[Allow],
    rule: RuleId,
    file: &str,
    line: u32,
    message: String,
) -> Finding {
    let allow = allows
        .iter()
        .find(|a| a.name == rule.name() && a.lines.contains(&line));
    Finding {
        rule,
        file: file.to_string(),
        line,
        message,
        allowed: rule.annotatable() && allow.is_some(),
        reason: allow.and_then(|a| a.reason.clone()),
    }
}

/// Whether two consecutive tokens are byte-adjacent (no whitespace
/// between them) — used to recognise multi-char operators like `+=`.
fn adjacent(a: &Tok, b: &Tok) -> bool {
    a.end == b.start
}

fn is_punct(src: &str, t: &Tok, p: &str) -> bool {
    t.kind == TokKind::Punct && t.text(src) == p
}

fn is_ident(src: &str, t: &Tok, name: &str) -> bool {
    t.kind == TokKind::Ident && t.text(src) == name
}

/// Index of the token after the group opened at `open` (which must be an
/// opening delimiter), balancing `(`/`)`, `[`/`]`, `{`/`}`.
pub(crate) fn skip_group(src: &str, toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < toks.len() {
        if toks[k].kind == TokKind::Punct {
            match toks[k].text(src) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
        }
        k += 1;
    }
    toks.len()
}

/// Run rules D1, D2, D3, D5 and D8 over one source file. (D4 and D7
/// are structural and evaluated per-crate by [`crate::workspace`].)
pub fn lint_source(src: &str, ctx: &FileCtx) -> Vec<Finding> {
    let toks = lex(src);
    let allows = collect_allows(src, &toks);
    let masked = test_mask(src, &toks);
    let mut findings = Vec::new();

    let mut push = |rule: RuleId, line: u32, message: String| {
        findings.push(annotated(&allows, rule, &ctx.path, line, message));
    };

    // D5 only fires in files participating in the event-queue contract.
    let event_queue_file = toks
        .iter()
        .enumerate()
        .any(|(i, t)| !masked[i] && is_ident(src, t, "EventQueue"));

    for i in 0..toks.len() {
        if masked[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];
        let text = t.text(src);

        // D1: hash-ordered collections on the simulation path.
        if ctx.sim_path && (text == "HashMap" || text == "HashSet") {
            push(
                RuleId::D1,
                t.line,
                format!(
                    "{text} in a simulation-path crate: iteration order is \
                     process-seeded and must never reach metrics or flush \
                     order; use BTreeMap/BTreeSet or drain in sorted order"
                ),
            );
        }

        // D2: ambient time / entropy.
        let d2 = match text {
            "Instant" => {
                i + 3 < toks.len()
                    && is_punct(src, &toks[i + 1], ":")
                    && is_punct(src, &toks[i + 2], ":")
                    && is_ident(src, &toks[i + 3], "now")
            }
            "SystemTime" | "thread_rng" | "from_entropy" => true,
            _ => false,
        };
        if d2 {
            push(
                RuleId::D2,
                t.line,
                format!(
                    "{text} is ambient (wall-clock or OS entropy): simulation \
                     streams must derive from the configured seed alone"
                ),
            );
        }

        // D8: a serde derive, once per `#[derive(...)]`.
        if text == "derive"
            && i >= 2
            && is_punct(src, &toks[i - 1], "[")
            && is_punct(src, &toks[i - 2], "#")
            && i + 1 < toks.len()
            && is_punct(src, &toks[i + 1], "(")
        {
            let end = skip_group(src, &toks, i + 1);
            let serde = toks[i + 1..end]
                .iter()
                .any(|d| is_ident(src, d, "Serialize") || is_ident(src, d, "Deserialize"));
            if serde {
                push(
                    RuleId::D8,
                    t.line,
                    "serde derive: only a type some file on disk holds is \
                     serialized; delete the derive, or annotate it with the \
                     file the type is persisted in"
                        .to_string(),
                );
            }
        }

        // D5: comparator hygiene in event-queue files.
        if event_queue_file && i > 0 && is_punct(src, &toks[i - 1], ".") {
            if text == "partial_cmp" {
                push(
                    RuleId::D5,
                    t.line,
                    "partial_cmp in an event-ordering context: floats must be \
                     compared with total_cmp plus the documented tie-break \
                     chain (time, then id)"
                        .to_string(),
                );
            } else if text == "total_cmp" {
                // The call must chain a tie-break: `.then(...)` /
                // `.then_with(...)` directly after the closing paren.
                let after = if i + 1 < toks.len() && is_punct(src, &toks[i + 1], "(") {
                    skip_group(src, &toks, i + 1)
                } else {
                    toks.len()
                };
                let chained = after + 1 < toks.len()
                    && is_punct(src, &toks[after], ".")
                    && (is_ident(src, &toks[after + 1], "then")
                        || is_ident(src, &toks[after + 1], "then_with"));
                if !chained {
                    push(
                        RuleId::D5,
                        t.line,
                        "total_cmp without a tie-break chain: same-time events \
                         need a total order (chain .then(id.cmp(...)))"
                            .to_string(),
                    );
                }
            }
        }
    }

    // D3: float accumulation in functions with unordered inputs.
    lint_unordered_merge(src, &toks, &masked, &mut push);

    // D8's allow must say where the type is persisted.
    for f in &mut findings {
        if f.rule == RuleId::D8 && f.allowed && !f.reason.as_deref().is_some_and(names_a_file) {
            f.allowed = false;
            f.message
                .push_str("; the allow's reason names no file (`name.ext`)");
        }
    }

    findings
}

/// Whether `reason` names a file: some word `name.ext` whose extension is
/// one to four lowercase letters or digits (`fleet_ckpt.json`, not
/// `EpochMetrics.solver`).
fn names_a_file(reason: &str) -> bool {
    reason.split_whitespace().any(|word| {
        let word = word.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_');
        word.rsplit_once('.').is_some_and(|(name, ext)| {
            !name.is_empty()
                && (1..=4).contains(&ext.len())
                && ext
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
        })
    })
}

/// Scan each `fn` body; when the body both joins/receives/iterates
/// hash state *and* accumulates (`+=`, `.sum()`, `.fold()`), every
/// accumulation site is flagged.
fn lint_unordered_merge(
    src: &str,
    toks: &[Tok],
    masked: &[bool],
    push: &mut impl FnMut(RuleId, u32, String),
) {
    let mut i = 0;
    while i < toks.len() {
        if masked[i] || !is_ident(src, &toks[i], "fn") {
            i += 1;
            continue;
        }
        let name = toks[i + 1..]
            .iter()
            .find(|t| t.kind != TokKind::LineComment && t.kind != TokKind::BlockComment)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src).to_string())
            .unwrap_or_else(|| "<fn>".to_string());
        // Find the body: first `{` before a terminating `;` (trait
        // methods and extern decls have no body).
        let mut j = i + 1;
        let mut body = None;
        while j < toks.len() {
            if toks[j].kind == TokKind::Punct {
                match toks[j].text(src) {
                    "{" => {
                        body = Some((j, skip_group(src, toks, j)));
                        break;
                    }
                    ";" => break,
                    "(" | "[" => {
                        j = skip_group(src, toks, j);
                        continue;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let Some((open, close)) = body else {
            i = j + 1;
            continue;
        };

        // Pass 1: unordered-input signals.
        let mut signal: Option<&str> = None;
        for k in open..close {
            if masked[k] {
                continue;
            }
            let t = &toks[k];
            if t.kind != TokKind::Ident || k == 0 || !is_punct(src, &toks[k - 1], ".") {
                // `HashMap`/`HashSet` idents count wherever they appear.
                if t.kind == TokKind::Ident && !masked[k] {
                    let tx = t.text(src);
                    if tx == "HashMap" || tx == "HashSet" {
                        signal = Some("iterates hash-ordered state");
                        break;
                    }
                }
                continue;
            }
            let tx = t.text(src);
            // `.join()` with no args is JoinHandle::join; `.join(sep)` on
            // paths/slices takes an argument and is ordering-neutral.
            if tx == "join"
                && k + 2 < toks.len()
                && is_punct(src, &toks[k + 1], "(")
                && is_punct(src, &toks[k + 2], ")")
            {
                signal = Some("joins threads");
                break;
            }
            if matches!(tx, "recv" | "try_recv" | "recv_timeout" | "recv_deadline") {
                signal = Some("receives from a channel");
                break;
            }
        }
        let Some(signal) = signal else {
            i = close;
            continue;
        };

        // Pass 2: flag every accumulation site.
        for k in open..close {
            if masked[k] {
                continue;
            }
            let t = &toks[k];
            let hit = if is_punct(src, t, "+")
                && k + 1 < toks.len()
                && is_punct(src, &toks[k + 1], "=")
                && adjacent(t, &toks[k + 1])
            {
                Some("`+=`")
            } else if t.kind == TokKind::Ident
                && k > 0
                && is_punct(src, &toks[k - 1], ".")
                && matches!(t.text(src), "sum" | "fold")
                && k + 1 < toks.len()
                && (is_punct(src, &toks[k + 1], "(") || is_punct(src, &toks[k + 1], ":"))
            {
                Some("reduction")
            } else {
                None
            };
            if let Some(what) = hit {
                push(
                    RuleId::D3,
                    t.line,
                    format!(
                        "{what} accumulation in `fn {name}`, which also \
                         {signal}: float addition is non-associative, so \
                         merge order must be fixed (sort before folding) or \
                         the site annotated with the ordering argument"
                    ),
                );
            }
        }
        i = close;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(sim: bool) -> FileCtx {
        FileCtx {
            path: "test.rs".into(),
            sim_path: sim,
        }
    }

    #[test]
    fn allow_parses_name_and_reason() {
        let (name, reason) =
            parse_allow("// detlint::allow(wall_clock, reason = \"bench timing only\")").unwrap();
        assert_eq!(name, "wall_clock");
        assert_eq!(reason.as_deref(), Some("bench timing only"));
        assert!(parse_allow("// plain comment").is_none());
    }

    #[test]
    fn d1_fires_only_on_sim_path() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint_source(src, &ctx(true)).len(), 1);
        assert!(lint_source(src, &ctx(false)).is_empty());
    }

    #[test]
    fn annotation_on_previous_line_allows() {
        let src = "// detlint::allow(hash_collection, reason = \"never iterated\")\n\
                   use std::collections::HashMap;\n";
        let f = lint_source(src, &ctx(true));
        assert_eq!(f.len(), 1);
        assert!(f[0].allowed);
        assert_eq!(f[0].reason.as_deref(), Some("never iterated"));
    }

    #[test]
    fn cfg_test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = Instant::now(); }\n}\n\
                   fn live() { let _ = Instant::now(); }\n";
        let f = lint_source(src, &ctx(true));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }
}
