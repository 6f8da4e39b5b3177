//! `sim_fingerprint`: one number that changes whenever the simulated
//! output does.
//!
//! FNV-1a over the bit patterns of every epoch's merged metrics and
//! sketch bins plus the run's session and segment totals. A change meant
//! only to speed the simulator up must show the same fingerprint as its
//! parent at the same seed. Not pinned in the repo: the seed is an
//! argument, and a later issue may legitimately re-pin goldens.

use lingxi_fleet::FleetReport;
use serde::value::Value;
use serde::Serialize;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb one word (little-endian).
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Absorb a serialized value tree: floats by bit pattern, containers
    /// in order with a tag per node so shapes cannot alias.
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            Value::U64(n) => {
                self.bytes(&[2]);
                self.u64(*n);
            }
            Value::I64(n) => {
                self.bytes(&[3]);
                self.u64(*n as u64);
            }
            Value::F64(x) => {
                self.bytes(&[4]);
                self.u64(x.to_bits());
            }
            Value::Str(s) => {
                self.bytes(&[5]);
                self.u64(s.len() as u64);
                self.bytes(s.as_bytes());
            }
            Value::Seq(items) => {
                self.bytes(&[6]);
                self.u64(items.len() as u64);
                for item in items {
                    self.value(item);
                }
            }
            Value::Map(entries) => {
                self.bytes(&[7]);
                self.u64(entries.len() as u64);
                for (k, item) in entries {
                    self.bytes(k.as_bytes());
                    self.value(item);
                }
            }
        }
    }
}

/// Fingerprint of a fleet run's simulated output. Covers everything the
/// engine promises is shard-count invariant; leaves out `flushed` (may
/// vary with shard count by design) and wall-clock fields.
pub fn sim_fingerprint(report: &FleetReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(report.sessions as u64);
    h.u64(report.segments as u64);
    h.u64(report.users as u64);
    for e in &report.epochs {
        h.u64(e.epoch as u64);
        h.value(&e.all.to_value());
        h.value(&e.control.to_value());
        h.value(&e.treatment.to_value());
        h.value(&e.classes.to_value());
        h.value(&e.sketches.to_value());
        h.value(&e.dispatch.to_value());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Input, StateDir};

    fn tiny_report(shards: usize, tag: &str) -> FleetReport {
        let Input::Fleet(input) = workloads::input("contention", 7, 0.0) else {
            unreachable!()
        };
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let dir = StateDir::fresh(&out, &format!("fingerprint-test-{tag}")).unwrap();
        let mut off = crate::trace::Tracer::disabled();
        workloads::run_fleet_timed(&input, shards, dir.path(), &mut off, None)
            .unwrap()
            .1
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn shard_count_does_not_move_the_fingerprint_but_epoch_order_does() {
        let one = tiny_report(1, "s1");
        let two = tiny_report(2, "s2");
        assert_eq!(sim_fingerprint(&one), sim_fingerprint(&two));
        assert!(one.epochs.len() >= 2);
        let mut swapped = one.clone();
        swapped.epochs.swap(0, 1);
        assert_ne!(sim_fingerprint(&one), sim_fingerprint(&swapped));
        // A single flipped bit in one merged float is seen.
        let mut nudged = one.clone();
        let w = &mut nudged.epochs[0].all.watch_time;
        *w = f64::from_bits(w.to_bits() ^ 1);
        assert_ne!(sim_fingerprint(&one), sim_fingerprint(&nudged));
        // `flushed` is a diagnostic that may vary with shard count.
        let mut flushed = one.clone();
        flushed.epochs[0].flushed += 1;
        assert_eq!(sim_fingerprint(&one), sim_fingerprint(&flushed));
    }
}
