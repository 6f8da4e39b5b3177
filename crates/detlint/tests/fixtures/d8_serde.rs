//! D8 fixture: serde derives outside the persisted types.
//! Expected: 3 findings, 1 allowed. A `#[derive(Serialize)]` in this doc
//! comment, in strings, and other derives must not fire.

use serde::{Deserialize, Serialize};

/// Finding 1: unannotated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scratch {
    pub x: f64,
}

/// Finding 2: allowed, the reason names the file.
// detlint::allow(serde_derive, reason = "the run's checkpoint, ckpt.json")
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct Persisted {
    pub epoch: usize,
}

/// Finding 3: annotated, but the reason names no file.
// detlint::allow(serde_derive, reason = "might be saved one day")
#[derive(Serialize)]
pub struct Hopeful {
    pub y: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plain;

pub fn no_false_positives() -> &'static str {
    "#[derive(Serialize, Deserialize)]"
}

#[cfg(test)]
mod tests {
    // A test-local wire type is not part of what the crate persists.
    #[derive(serde::Serialize)]
    struct Probe {
        z: u8,
    }
}
