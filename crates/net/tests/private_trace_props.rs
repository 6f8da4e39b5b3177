//! The on-demand private trace against the eager one.
//!
//! A [`LazyTrace`] copies the caller's stream where the trace starts and
//! advances the caller past the words the eager trace would have drawn.
//! That is bit-exact only because every generator draws a fixed number of
//! words per tick, so
//!
//! - every read of a lazy trace (downloads, zero-size downloads that go
//!   through `rate_at`, reads past the end that wrap) equals the eager
//!   [`BandwidthTrace`]'s bit for bit, and the caller's stream after
//!   construction equals its state after [`UserNetProfile::trace`];
//! - each generator's words per tick (and Markov's one up-front word) are
//!   pinned by name through a counting stream: a generator edit that
//!   draws a variable number of words fails here, not as a silent shift
//!   of every later draw;
//! - a lazy trace generates no tick past the highest one read;
//! - a generated tick the eager trace would reject fails loudly.

use lingxi_net::{
    BandwidthProcess, BandwidthTrace, LazyTrace, LogNormalFadeGen, MarkovGen, NetClass,
    StationaryGaussGen, TraceGenerator, UserNetProfile,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A stream that counts the words drawn from it.
struct Counting {
    inner: StdRng,
    words: usize,
}

impl Counting {
    fn new(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            words: 0,
        }
    }
}

impl RngCore for Counting {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

/// Check `g` draws `up_front` words before its first tick and `per_tick`
/// words on every tick, clamped or not, and that `generate` runs the same
/// step.
fn pin_words<G: TraceGenerator>(g: &G, up_front: usize, per_tick: usize) {
    for seed in 0..8 {
        let mut rng = Counting::new(seed);
        let mut sampler = g.ticks(&mut rng).unwrap();
        assert_eq!(rng.words, up_front, "up-front words");
        assert_eq!(
            sampler.words_per_tick(),
            per_tick,
            "declared words per tick"
        );
        for k in 1..=500 {
            sampler.next_tick(&mut rng);
            assert_eq!(rng.words, up_front + k * per_tick, "words after tick {k}");
        }
        let mut rng = Counting::new(seed);
        g.generate(123, 1.0, &mut rng).unwrap();
        assert_eq!(rng.words, up_front + 123 * per_tick, "words of generate");
    }
}

#[test]
fn gauss_draws_no_word_up_front_and_two_per_tick() {
    // cv 3 clamps about a third of the ticks to the floor.
    for cv in [0.0, 0.3, 3.0] {
        pin_words(
            &StationaryGaussGen {
                mean_kbps: 4000.0,
                cv,
            },
            0,
            2,
        );
    }
}

#[test]
fn lognormal_draws_no_word_up_front_and_two_per_tick() {
    for cv in [0.0, 0.8, 5.0] {
        pin_words(
            &LogNormalFadeGen {
                mean_kbps: 300.0,
                cv,
            },
            0,
            2,
        );
    }
}

#[test]
fn markov_draws_one_word_up_front_and_three_per_tick() {
    // Always flipping, never flipping, and the cellular regime.
    for (p_gb, p_bg) in [(1.0, 1.0), (0.0, 0.0), (0.05, 0.12)] {
        pin_words(
            &MarkovGen {
                good_kbps: 5000.0,
                bad_kbps: 20.0,
                p_gb,
                p_bg,
                cv: 2.0,
            },
            1,
            3,
        );
    }
}

#[test]
fn a_rejected_tick_fails_the_lazy_trace() {
    // Ticks of `1e308 + 1e308·z` overflow to +inf whenever z > 0.8.
    let profile = UserNetProfile {
        class: NetClass::Broadband,
        mean_kbps: 1e308,
        cv: 1.0,
    };
    let n = 60;
    let eager = profile.trace(n, 1.0, &mut StdRng::seed_from_u64(3));
    assert!(eager.is_err(), "the eager trace rejects the profile");
    let lazy = profile
        .lazy_trace(n, 1.0, &mut StdRng::seed_from_u64(3), Vec::new())
        .unwrap();
    for k in 0..n {
        lazy.rate_at(k as f64);
    }
    let err = lazy.into_samples().unwrap_err();
    assert!(
        err.to_string()
            .contains("samples must be positive and finite"),
        "{err}"
    );
}

/// The profile of class `class` (an index into [`NetClass::ALL`]).
fn profile(class: usize, mean_kbps: f64, cv: f64) -> UserNetProfile {
    UserNetProfile {
        class: NetClass::ALL[class],
        mean_kbps,
        cv,
    }
}

/// The highest tick (unwrapped) a download of `d_seconds` from `at`
/// read, with slack for float dust at the finishing boundary.
fn last_tick(at: f64, d_seconds: f64, tick: f64) -> usize {
    ((at + d_seconds) / tick + 1e-6) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lazy equals eager, read by read, and the caller's stream ends in the
    /// same state; the lazy trace never runs ahead of its reads.
    #[test]
    fn lazy_trace_equals_eager(
        class in 0usize..4,
        n in 1usize..400,
        mean in 30.0f64..60_000.0,
        cv in 0.0f64..2.0,
        tick in prop_oneof![1 => Just(0.5), 4 => Just(1.0), 1 => Just(2.0)],
        seed in 0u64..u64::MAX,
        schedule in proptest::collection::vec(
            (
                // Start as a fraction of the cycle: past 1.0 wraps.
                0.0f64..3.0,
                prop_oneof![1 => Just(0.0), 4 => 1.0f64..40_000.0],
                // 0 reads `rate_at` directly, else a download.
                0u8..4,
            ),
            0..40,
        ),
    ) {
        let profile = profile(class, mean, cv);
        let mut eager_rng = StdRng::seed_from_u64(seed);
        let eager: BandwidthTrace = profile.trace(n, tick, &mut eager_rng).unwrap();
        let mut lazy_rng = StdRng::seed_from_u64(seed);
        let lazy: LazyTrace<StdRng> = profile
            .lazy_trace(n, tick, &mut lazy_rng, vec![7.0; 5])
            .unwrap();
        prop_assert!(lazy_rng == eager_rng, "caller streams differ after construction");
        prop_assert_eq!(lazy.generated(), 0);
        prop_assert_eq!(lazy.duration(), eager.duration());

        let cycle = eager.duration();
        let mut bound = 0;
        for (frac, size, kind) in schedule {
            let at = frac * cycle;
            let read = if kind == 0 {
                let (l, e) = (lazy.rate_at(at), eager.rate_at(at));
                prop_assert_eq!(l.to_bits(), e.to_bits(), "rate_at({}): {} vs {}", at, l, e);
                last_tick(at, 0.0, tick)
            } else {
                let (l, e) = (lazy.download(at, size), eager.download(at, size));
                prop_assert_eq!(
                    (l.duration.to_bits(), l.kbps.to_bits()),
                    (e.duration.to_bits(), e.kbps.to_bits()),
                    "download({}, {}): {:?} vs {:?}", at, size, l, e
                );
                last_tick(at, e.duration, tick)
            };
            bound = bound.max((read + 1).min(n));
            prop_assert!(
                lazy.generated() <= bound,
                "{} ticks generated, highest read allows {}", lazy.generated(), bound
            );
        }
        let generated = lazy.generated();
        let samples = lazy.into_samples().unwrap();
        prop_assert_eq!(samples.len(), generated);
        prop_assert!(samples[..] == eager.samples()[..generated]);
    }
}
