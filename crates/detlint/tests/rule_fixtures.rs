//! Per-rule fixture tests: each file under `tests/fixtures/` encodes
//! true positives, annotated-allow sites, and the tricky false-positive
//! shapes (string/comment mentions, `#[cfg(test)]` regions, argumentful
//! `.join(sep)` calls) for one rule. Fixtures live under `tests/`, so
//! the workspace lint run never scans them.

use lingxi_detlint::rules::{lint_source, FileCtx, Finding, RuleId};
use lingxi_detlint::workspace::lint_workspace;

fn lint_fixture(name: &str, sim_path: bool) -> Vec<Finding> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    lint_source(
        &src,
        &FileCtx {
            path: name.to_string(),
            sim_path,
        },
    )
}

fn by_rule(findings: &[Finding], rule: RuleId) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn d1_hash_collections() {
    let findings = lint_fixture("d1_hash.rs", true);
    let d1 = by_rule(&findings, RuleId::D1);
    assert_eq!(d1.len(), 2, "{d1:?}");
    assert!(!d1[0].allowed, "bare HashMap use is a violation");
    assert!(d1[1].allowed, "annotated HashSet is allowed");
    assert_eq!(
        d1[1].reason.as_deref(),
        Some("counts only; never iterated into output")
    );
    // Off the simulation path, D1 does not apply at all.
    assert!(by_rule(&lint_fixture("d1_hash.rs", false), RuleId::D1).is_empty());
}

#[test]
fn d2_wall_clock_and_entropy() {
    let findings = lint_fixture("d2_wall_clock.rs", true);
    let d2 = by_rule(&findings, RuleId::D2);
    assert_eq!(d2.len(), 3, "{d2:?}");
    assert_eq!(d2.iter().filter(|f| f.allowed).count(), 1);
    // D2 applies off the simulation path too (timing code annotates).
    let off = lint_fixture("d2_wall_clock.rs", false);
    assert_eq!(by_rule(&off, RuleId::D2).len(), 3);
}

#[test]
fn d3_unordered_float_merge() {
    let findings = lint_fixture("d3_merge.rs", true);
    let d3 = by_rule(&findings, RuleId::D3);
    assert_eq!(d3.len(), 3, "{d3:?}");
    assert_eq!(d3.iter().filter(|f| f.allowed).count(), 1);
    assert!(d3.iter().any(|f| f.message.contains("joins threads")));
    assert!(d3
        .iter()
        .any(|f| f.message.contains("receives from a channel")));
}

#[test]
fn d5_float_comparators() {
    let findings = lint_fixture("d5_comparator.rs", true);
    let d5 = by_rule(&findings, RuleId::D5);
    assert_eq!(d5.len(), 3, "{d5:?}");
    assert_eq!(d5.iter().filter(|f| f.allowed).count(), 1);
    assert!(d5.iter().any(|f| f.message.contains("tie-break")));
}

#[test]
fn d5_requires_event_queue_context() {
    // The same comparator patterns outside an EventQueue file are the
    // business of ordinary code review, not the determinism linter.
    let src = "fn cmp(a: f64, b: f64) -> Option<std::cmp::Ordering> { a.partial_cmp(&b) }";
    let findings = lint_source(
        src,
        &FileCtx {
            path: "free.rs".into(),
            sim_path: true,
        },
    );
    assert!(by_rule(&findings, RuleId::D5).is_empty());
}

#[test]
fn d8_serde_derives() {
    let findings = lint_fixture("d8_serde.rs", true);
    let d8 = by_rule(&findings, RuleId::D8);
    assert_eq!(d8.len(), 3, "{d8:?}");
    assert!(!d8[0].allowed, "an unannotated derive is a violation");
    assert_eq!(d8[0].line, 8);
    assert!(d8[1].allowed, "a derive annotated with its file is allowed");
    assert_eq!(
        d8[1].reason.as_deref(),
        Some("the run's checkpoint, ckpt.json")
    );
    assert!(!d8[2].allowed, "a reason that names no file does not allow");
    assert!(d8[2].message.contains("names no file"), "{:?}", d8[2]);
    // D8 is about the serialized surface, not the simulation path.
    assert_eq!(
        by_rule(&lint_fixture("d8_serde.rs", false), RuleId::D8).len(),
        3
    );
}

/// D4 is structural, so it is exercised on a synthetic mini-workspace:
/// a crate root without the forbid attribute, plus a vendored crate
/// whose unsafe count drifts from the committed budget.
#[test]
fn d4_forbid_and_vendor_budget() {
    let root = std::env::temp_dir().join(format!("detlint_d4_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for dir in ["src", "crates/good/src", "crates/bad/src", "vendor/dep/src"] {
        std::fs::create_dir_all(root.join(dir)).unwrap();
    }
    std::fs::write(
        root.join("src/lib.rs"),
        "#![forbid(unsafe_code)]\npub fn facade() {}\n",
    )
    .unwrap();
    std::fs::write(
        root.join("crates/good/src/lib.rs"),
        "//! Good crate.\n#![forbid(unsafe_code)]\npub fn ok() {}\n",
    )
    .unwrap();
    std::fs::write(
        root.join("crates/bad/src/lib.rs"),
        "//! Bad crate: no forbid attribute.\npub fn nope() {}\n",
    )
    .unwrap();
    std::fs::write(
        root.join("vendor/dep/src/lib.rs"),
        "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    )
    .unwrap();
    // Budget declares 0, the vendored source has 1: drift.
    std::fs::write(root.join("vendor/UNSAFE_BUDGET"), "# crate count\ndep 0\n").unwrap();

    let report = lint_workspace(&root).unwrap();
    let d4: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::D4)
        .collect();
    assert_eq!(d4.len(), 2, "{d4:?}");
    assert!(d4
        .iter()
        .any(|f| f.file.contains("crates/bad") && f.message.contains("forbid")));
    assert!(d4
        .iter()
        .any(|f| f.file.contains("UNSAFE_BUDGET") && f.message.contains("drifted")));
    assert!(report.violations().count() >= 2, "D4 is never annotatable");

    // Fixing both makes the mini-workspace clean.
    std::fs::write(
        root.join("crates/bad/src/lib.rs"),
        "//! Fixed.\n#![forbid(unsafe_code)]\npub fn yep() {}\n",
    )
    .unwrap();
    std::fs::write(root.join("vendor/UNSAFE_BUDGET"), "dep 1\n").unwrap();
    let report = lint_workspace(&root).unwrap();
    assert_eq!(report.violations().count(), 0, "{:?}", report.findings);

    let _ = std::fs::remove_dir_all(&root);
}

/// D7 reads a mini-workspace: crate `lib` exports one reached name, dead
/// ones of every shape, and names reached only from outside the members.
#[test]
fn d7_unreached_pub() {
    let root = std::env::temp_dir().join(format!("detlint_d7_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let files = [
        ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        (
            "crates/lib/src/lib.rs",
            "#![forbid(unsafe_code)]\nmod items;\n\
             pub use items::{used, dead_fn, Dead, Helper};\n\
             pub use items::{in_tests, in_cfg_test, in_text, from_bench, from_example};\n\
             // detlint::allow(unreached_pub, reason = \"kept for the next caller\")\n\
             pub use items::Kept;\n",
        ),
        (
            "crates/lib/src/items.rs",
            "pub fn used() {}\npub fn dead_fn() { dead_fn() }\n\
             pub struct Dead(Helper);\n\
             impl Clone for Dead { fn clone(&self) -> Dead { Dead(Helper) } }\n\
             pub struct Helper;\npub struct Kept;\n\
             pub fn in_tests() {}\npub fn in_cfg_test() {}\npub fn in_text() {}\n\
             pub fn from_bench() {}\npub fn from_example() {}\n",
        ),
        (
            "crates/lib/tests/own.rs",
            "#[test]\nfn t() { lib::in_tests(); }\n",
        ),
        (
            "crates/user/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn go() { lib::used() }\n\
             // lib::in_text\npub const S: &str = \"in_text\";\n\
             #[cfg(test)]\nmod tests { fn t() { lib::in_cfg_test() } }\n",
        ),
        ("benchmark/src/main.rs", "fn main() { lib::from_bench() }\n"),
        ("examples/demo.rs", "fn main() { lib::from_example() }\n"),
    ];
    for (path, src) in files {
        let path = root.join(path);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, src).unwrap();
    }

    let report = lint_workspace(&root).unwrap();
    let d7 = by_rule(&report.findings, RuleId::D7);
    let flagged = |name: &str| d7.iter().find(|f| f.message.contains(&format!("`{name}`")));
    for name in ["used", "from_bench", "from_example"] {
        assert!(flagged(name).is_none(), "{name} is reached: {d7:?}");
    }
    for name in ["dead_fn", "Dead", "in_tests", "in_cfg_test", "in_text"] {
        let f = flagged(name).unwrap_or_else(|| panic!("{name} is dead: {d7:?}"));
        assert!(!f.allowed && f.message.contains("(round 1)"), "{f:?}");
        assert_eq!(f.file, "crates/lib/src/lib.rs");
    }
    // Only the dead `Dead` names `Helper`, so it is found a round later.
    let helper = flagged("Helper").expect("Helper is dead once Dead is");
    assert!(helper.message.contains("(round 2)"), "{helper:?}");
    assert_eq!(helper.line, 3);
    let kept = flagged("Kept").expect("an annotated dead export is reported");
    assert!(kept.allowed);
    assert_eq!(kept.reason.as_deref(), Some("kept for the next caller"));
    assert_eq!(d7.len(), 7, "{d7:?}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn json_report_is_well_formed() {
    let mut findings = lint_fixture("d1_hash.rs", true);
    findings.push(Finding {
        rule: RuleId::D7,
        file: "crates/x/src/lib.rs".into(),
        line: 3,
        message: "lingxi-x re-exports `X`".into(),
        allowed: false,
        reason: None,
    });
    let report = lingxi_detlint::Report {
        findings,
        files_scanned: 1,
    };
    let json = report.to_json();
    assert!(json.contains("\"schema\": 1"));
    assert!(json.contains("\"rule\": \"D1\""));
    assert!(json.contains("\"name\": \"hash_collection\""));
    assert!(json.contains("\"rule\": \"D7\", \"name\": \"unreached_pub\""));
    // Balanced braces/brackets as a cheap well-formedness check.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"findings\": ["));
}
