//! `lingxi-detlint` — the workspace determinism linter.
//!
//! Every layer of the fleet stack depends on one contract: **merged
//! metrics are bit-identical across shard counts and seeds**. The
//! golden and shard-invariance tests enforce that dynamically; this
//! crate enforces the bug classes behind past violations *statically*,
//! at lint time, over every workspace `.rs` source:
//!
//! - **D1 `hash_collection`** — `HashMap`/`HashSet` on the simulation
//!   path (the PR-3 bug class: hash iteration order fed a float merge);
//! - **D2 `wall_clock`** — ambient time or entropy (`Instant::now`,
//!   `SystemTime`, `thread_rng`, `from_entropy`);
//! - **D3 `unordered_float_merge`** — float accumulation in functions
//!   that also join threads, receive from channels, or touch hash state;
//! - **D4 `unsafe_code`** — member crate roots must carry
//!   `#![forbid(unsafe_code)]`; vendored crates are held to the raw
//!   counts committed in `vendor/UNSAFE_BUDGET`;
//! - **D5 `float_comparator`** — event-ordering comparators must use
//!   `total_cmp` with the documented `(time, id)` tie-break chain.
//!
//! Two more rules keep the public and the serialized surface honest
//! rather than deterministic:
//!
//! - **D7 `unreached_pub`** — every name a member crate root `pub use`s
//!   from its own modules is named by some non-test code outside its own
//!   items, read across the workspace, root `tests/`/`examples/` and
//!   `benchmark/src`; dead exports are found to a fixpoint (see
//!   [`workspace`]);
//! - **D8 `serde_derive`** — `Serialize`/`Deserialize` are derived only on
//!   the types a file on disk holds, each annotated with a reason that
//!   names that file (`fleet_ckpt.json`, the state log's `manifest.json`).
//!
//! Known-legitimate sites are annotated in place:
//!
//! ```text
//! let start = Instant::now(); // detlint::allow(wall_clock, reason = "wall time reporting only")
//! ```
//!
//! The scanner is a hand-rolled comment/string-aware lexer
//! ([`lexer`]), not a full parser — `"HashMap"` in a string literal or
//! a doc comment never fires, and `#[cfg(test)]` regions are skipped.
//! `cargo run -p lingxi-detlint` lints the whole workspace, writes the
//! machine-readable `detlint.json`, and exits non-zero on any
//! unannotated finding (gated in CI's lint job).
//!
//! # Quickstart
//!
//! ```
//! use lingxi_detlint::rules::{lint_source, FileCtx};
//!
//! let ctx = FileCtx { path: "demo.rs".into(), sim_path: true };
//! let findings = lint_source("use std::collections::HashMap;", &ctx);
//! assert_eq!(findings.len(), 1);
//! assert!(!findings[0].allowed);
//! // Strings and comments never fire:
//! assert!(lint_source("// HashMap\nlet s = \"HashMap\";", &ctx).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod workspace;

pub use rules::{Finding, RuleId};
pub use workspace::{lint_workspace, Report};
