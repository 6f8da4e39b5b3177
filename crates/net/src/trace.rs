//! Bandwidth traces: a piecewise-constant throughput timeline, held
//! whole ([`BandwidthTrace`]) or generated on demand ([`LazyTrace`]).

use std::cell::RefCell;

use rand::RngCore;

use crate::gen::TickSampler;
use crate::process::{BandwidthProcess, Download};
use crate::{NetError, Result};

/// A bandwidth trace: throughput samples (kbps) at a fixed tick interval.
///
/// Lookups past the end wrap around (the convention of the Pensieve /
/// MPC evaluation harnesses, which loop traces to cover long sessions).
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthTrace {
    tick_seconds: f64,
    samples_kbps: Vec<f64>,
}

impl BandwidthTrace {
    /// Build a trace; all samples must be positive and finite.
    pub fn new(tick_seconds: f64, samples_kbps: Vec<f64>) -> Result<Self> {
        if samples_kbps.is_empty() {
            return Err(NetError::Empty);
        }
        if !(tick_seconds > 0.0) || !tick_seconds.is_finite() {
            return Err(NetError::InvalidConfig("tick must be positive".into()));
        }
        if samples_kbps.iter().any(|&s| !(s > 0.0) || !s.is_finite()) {
            return Err(NetError::InvalidConfig(
                "samples must be positive and finite".into(),
            ));
        }
        Ok(Self {
            tick_seconds,
            samples_kbps,
        })
    }

    /// Constant-bandwidth trace.
    pub fn constant(kbps: f64, n: usize, tick_seconds: f64) -> Result<Self> {
        Self::new(tick_seconds, vec![kbps; n.max(1)])
    }

    /// Throughput at absolute time `t` seconds (wrapping).
    pub fn at(&self, t: f64) -> f64 {
        self.samples_kbps[tick_index(t, self.tick_seconds) % self.samples_kbps.len()]
    }

    /// Mean throughput needed to download `kbits` starting at time `t`,
    /// integrating across tick boundaries (wrapping). Returns the download
    /// duration in seconds.
    pub fn download_time(&self, t_start: f64, kbits: f64) -> f64 {
        let n = self.samples_kbps.len();
        integrate(self.tick_seconds, t_start, kbits, |i| {
            self.samples_kbps[i % n]
        })
    }

    /// Raw samples (kbps).
    pub fn samples(&self) -> &[f64] {
        &self.samples_kbps
    }

    /// Tick interval in seconds.
    pub fn tick_seconds(&self) -> f64 {
        self.tick_seconds
    }

    /// Trace duration in seconds (one full cycle).
    pub fn duration(&self) -> f64 {
        self.samples_kbps.len() as f64 * self.tick_seconds
    }

    /// Mean sample (kbps).
    pub fn mean(&self) -> f64 {
        self.samples_kbps.iter().sum::<f64>() / self.samples_kbps.len() as f64
    }

    /// Population standard deviation of samples (kbps).
    pub fn std(&self) -> f64 {
        let m = self.mean();
        (self
            .samples_kbps
            .iter()
            .map(|s| (s - m) * (s - m))
            .sum::<f64>()
            / self.samples_kbps.len() as f64)
            .sqrt()
    }
}

/// The index of the tick covering time `t` (before wrapping).
fn tick_index(t: f64, tick_seconds: f64) -> usize {
    (t.max(0.0) / tick_seconds) as usize
}

/// The download loop every trace shares: integrate the piecewise-constant
/// `rate(tick)` from `t_start` until `kbits` have arrived and return the
/// duration in seconds. `rate` takes the unwrapped tick index; the trace
/// wraps it.
fn integrate(
    tick_seconds: f64,
    t_start: f64,
    kbits: f64,
    mut rate: impl FnMut(usize) -> f64,
) -> f64 {
    if kbits <= 0.0 {
        return 0.0;
    }
    let mut remaining = kbits;
    let mut t = t_start.max(0.0);
    // Track the tick as an integer: recomputing boundaries from `t`
    // can stall at zero-width spans when `tick_seconds` has no exact
    // float representation (floor(t/tick)·tick + tick == t).
    let first_tick = tick_index(t, tick_seconds);
    let mut elapsed = 0.0;
    // Hard cap to keep pathological inputs bounded.
    for tick_idx in first_tick..first_tick + 1_000_000 {
        let rate = rate(tick_idx);
        let tick_end = (tick_idx + 1) as f64 * tick_seconds;
        let span = (tick_end - t).max(0.0);
        let capacity = rate * span;
        if capacity >= remaining {
            return elapsed + remaining / rate;
        }
        remaining -= capacity;
        elapsed += span;
        t = tick_end;
    }
    elapsed
}

/// One download over a trace's `rate(tick)`: [`integrate`], or the
/// instantaneous rate for a download that takes no time.
fn download_over(
    tick_seconds: f64,
    at: f64,
    size_kbits: f64,
    mut rate: impl FnMut(usize) -> f64,
) -> Download {
    let duration = integrate(tick_seconds, at, size_kbits, &mut rate);
    let kbps = if duration > 0.0 {
        size_kbits / duration
    } else {
        rate(tick_index(at, tick_seconds))
    };
    Download { duration, kbps }
}

impl BandwidthProcess for BandwidthTrace {
    fn download(&self, at: f64, size_kbits: f64) -> Download {
        let n = self.samples_kbps.len();
        download_over(self.tick_seconds, at, size_kbits, |i| {
            self.samples_kbps[i % n]
        })
    }

    fn rate_at(&self, at: f64) -> f64 {
        self.at(at)
    }
}

/// A bandwidth trace generated on demand: the trace a [`TickSampler`]
/// would produce eagerly from the same stream, but only as far as the
/// last tick read.
///
/// Construction copies the caller's stream at the trace's first tick and
/// advances the caller past the `len × words_per_tick` words the eager
/// trace would have drawn, so every later draw and every tick read are
/// bit-identical to the eager path. Reads past the end wrap, as on a
/// [`BandwidthTrace`]. A generated tick [`BandwidthTrace::new`] would
/// reject (not positive and finite) is played as drawn and fails
/// [`Self::into_samples`].
pub struct LazyTrace<R> {
    tick_seconds: f64,
    len: usize,
    fill: RefCell<Fill<R>>,
}

/// The generated prefix of a [`LazyTrace`] and the stream it continues.
struct Fill<R> {
    rng: R,
    sampler: TickSampler,
    samples: Vec<f64>,
    /// The first generated tick that is not positive and finite.
    rejected: Option<(usize, f64)>,
}

impl<R: RngCore> Fill<R> {
    /// Tick `i` (`i < len`), generating up to it on first read.
    fn tick(&mut self, i: usize) -> f64 {
        while self.samples.len() <= i {
            let s = self.sampler.next_tick(&mut self.rng);
            if !(s > 0.0) || !s.is_finite() {
                self.rejected.get_or_insert((self.samples.len(), s));
            }
            self.samples.push(s);
        }
        self.samples[i]
    }
}

impl<R: RngCore + Clone> LazyTrace<R> {
    /// A trace of `n` ticks (at least one) drawn by `sampler` from `rng`,
    /// filled into `samples` (its contents are dropped). Leaves `rng`
    /// where [`TickSampler::trace`] would.
    pub(crate) fn new(
        sampler: TickSampler,
        n: usize,
        tick_seconds: f64,
        rng: &mut R,
        mut samples: Vec<f64>,
    ) -> Result<Self> {
        if !(tick_seconds > 0.0) || !tick_seconds.is_finite() {
            return Err(NetError::InvalidConfig("tick must be positive".into()));
        }
        let len = n.max(1);
        let own = rng.clone();
        for _ in 0..len * sampler.words_per_tick() {
            rng.next_u64();
        }
        samples.clear();
        Ok(Self {
            tick_seconds,
            len,
            fill: RefCell::new(Fill {
                rng: own,
                sampler,
                samples,
                rejected: None,
            }),
        })
    }
}

impl<R: RngCore> BandwidthProcess for LazyTrace<R> {
    fn download(&self, at: f64, size_kbits: f64) -> Download {
        let mut fill = self.fill.borrow_mut();
        download_over(self.tick_seconds, at, size_kbits, |i| {
            fill.tick(i % self.len)
        })
    }

    fn rate_at(&self, at: f64) -> f64 {
        let i = tick_index(at, self.tick_seconds);
        self.fill.borrow_mut().tick(i % self.len)
    }
}

impl<R> LazyTrace<R> {
    /// Trace duration in seconds (one full cycle).
    pub fn duration(&self) -> f64 {
        self.len as f64 * self.tick_seconds
    }

    /// Ticks generated so far: never more than the highest tick read + 1.
    pub fn generated(&self) -> usize {
        self.fill.borrow().samples.len()
    }

    /// The generated ticks, to reuse as the next trace's buffer; an error
    /// if any of them is not positive and finite.
    pub fn into_samples(self) -> Result<Vec<f64>> {
        let fill = self.fill.into_inner();
        match fill.rejected {
            None => Ok(fill.samples),
            Some((i, s)) => Err(NetError::InvalidConfig(format!(
                "samples must be positive and finite: tick {i} is {s} kbps"
            ))),
        }
    }
}

impl<R> std::fmt::Debug for LazyTrace<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyTrace")
            .field("tick_seconds", &self.tick_seconds)
            .field("len", &self.len)
            .field("generated", &self.generated())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_lookup() {
        let t = BandwidthTrace::constant(5000.0, 10, 1.0).unwrap();
        assert_eq!(t.at(0.0), 5000.0);
        assert_eq!(t.at(9.9), 5000.0);
        assert_eq!(t.at(100.0), 5000.0); // wraps
        assert_eq!(t.duration(), 10.0);
        assert_eq!(t.mean(), 5000.0);
        assert_eq!(t.std(), 0.0);
    }

    #[test]
    fn invalid_traces_rejected() {
        assert!(BandwidthTrace::new(1.0, vec![]).is_err());
        assert!(BandwidthTrace::new(0.0, vec![1.0]).is_err());
        assert!(BandwidthTrace::new(1.0, vec![0.0]).is_err());
        assert!(BandwidthTrace::new(1.0, vec![-5.0]).is_err());
        assert!(BandwidthTrace::new(1.0, vec![f64::NAN]).is_err());
    }

    #[test]
    fn download_time_single_tick() {
        let t = BandwidthTrace::constant(1000.0, 10, 1.0).unwrap();
        // 500 kbits at 1000 kbps = 0.5 s.
        assert!((t.download_time(0.0, 500.0) - 0.5).abs() < 1e-9);
        assert_eq!(t.download_time(0.0, 0.0), 0.0);
    }

    #[test]
    fn download_time_spans_ticks() {
        // 1 s at 1000 kbps then 1 s at 3000 kbps, repeating.
        let t = BandwidthTrace::new(1.0, vec![1000.0, 3000.0]).unwrap();
        // 2500 kbits from t=0: 1000 in first second, 1500/3000=0.5 s more.
        assert!((t.download_time(0.0, 2500.0) - 1.5).abs() < 1e-9);
        // Starting mid-tick: from t=0.5, 0.5s*1000=500, then 2000/3000.
        let d = t.download_time(0.5, 2500.0);
        assert!((d - (0.5 + 2000.0 / 3000.0)).abs() < 1e-9, "d={d}");
    }

    #[test]
    fn download_time_wraps_trace() {
        let t = BandwidthTrace::new(1.0, vec![1000.0]).unwrap();
        // 10_000 kbits at 1000 kbps = 10 s (10 wraps).
        assert!((t.download_time(0.0, 10_000.0) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn stats_on_varying_trace() {
        let t = BandwidthTrace::new(1.0, vec![1000.0, 3000.0]).unwrap();
        assert_eq!(t.mean(), 2000.0);
        assert_eq!(t.std(), 1000.0);
    }
}
