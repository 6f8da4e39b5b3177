//! Performance benchmarks: the costs the paper's deployment section (§4)
//! and discussion (§6) reason about.
//!
//! - `abr_decision/*`: per-segment decision latency of every ABR;
//! - `predictor/nn_predict`: one exit-rate inference — §6 claims predictor
//!   invocations cost "hundreds of times" an ABR decision, `abr_decision`
//!   vs `predictor` makes that ratio measurable here;
//! - `mc/evaluate*`: one Monte-Carlo parameter evaluation, with and
//!   without the early-termination prune (the §4 ablation);
//! - `obo/gp_step`: Bayesian-optimizer candidate proposal vs observation
//!   count;
//! - `nn/train_epoch`: predictor training throughput;
//! - `allocate/*`: one standalone finite-α allocation on the fairness
//!   pod, by flow count, longest route in play and α.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lingxi_abr::{drive, Abr, Bba, Bola, Hyb, QoeParams, RobustMpc, ThroughputRule};
use lingxi_bayes::{ObOptimizer, ObserverConfig};
use lingxi_bench::abr_fixture;
use lingxi_core::{evaluate_parameters, ConstantPredictor, McConfig, ProfilePredictor};
use lingxi_exit::{ExitPredictor, PredictorConfig, StateMatrix, UserStateTracker};
use lingxi_net::{allocate, FairnessObjective, FlowDemand};
use lingxi_stats::NormalDist;
use lingxi_user::{SensitivityKind, StallProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_abr_decisions(c: &mut Criterion) {
    let fx = abr_fixture(1);
    let mut group = c.benchmark_group("abr_decision");
    let mut abrs: Vec<Box<dyn Abr>> = vec![
        Box::new(ThroughputRule::default_rule()),
        Box::new(Bba::default_rule()),
        Box::new(Bola::default_rule()),
        Box::new(Hyb::default_rule()),
        Box::new(RobustMpc::default_rule()),
    ];
    for abr in abrs.iter_mut() {
        let name = abr.name();
        let mut select = drive(abr.as_mut(), &fx.ladder, &fx.sizes);
        group.bench_function(name, |b| b.iter(|| black_box(select(&fx.env))));
    }
    group.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut predictor =
        ExitPredictor::new(PredictorConfig::default(), &mut rng).expect("predictor");
    let mut state = StateMatrix::zeros();
    state.rows[2][7] = 0.3;
    c.bench_function("predictor/nn_predict", |b| {
        b.iter(|| black_box(predictor.predict(black_box(&state))))
    });
}

fn bench_monte_carlo(c: &mut Criterion) {
    let fx = abr_fixture(3);
    let tracker = UserStateTracker::new();
    let profile = StallProfile::new(SensitivityKind::Sensitive, 2.0, 0.5).expect("profile");
    let bandwidth = NormalDist::new(1500.0, 500.0).expect("bandwidth");
    let mut group = c.benchmark_group("mc");
    group.sample_size(20);
    group.bench_function("evaluate_no_prune", |b| {
        let mut abr = Hyb::default_rule();
        let mut pred = ProfilePredictor {
            profile,
            base: 0.01,
        };
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| {
            evaluate_parameters(
                &mut abr,
                QoeParams::default(),
                bandwidth,
                &tracker,
                &fx.env,
                &fx.ladder,
                &mut pred,
                &McConfig::default(),
                None,
                &mut rng,
            )
            .expect("eval")
        })
    });
    group.bench_function("evaluate_with_prune", |b| {
        // A hopeless candidate against a strong incumbent: the §4 early
        // termination cuts most of the work.
        let mut abr = Hyb::default_rule();
        let mut pred = ConstantPredictor { p: 0.4 };
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            evaluate_parameters(
                &mut abr,
                QoeParams::default(),
                bandwidth,
                &tracker,
                &fx.env,
                &fx.ladder,
                &mut pred,
                &McConfig::default(),
                Some(0.01),
                &mut rng,
            )
            .expect("eval")
        })
    });
    group.finish();
}

fn bench_obo(c: &mut Criterion) {
    let mut group = c.benchmark_group("obo");
    for n_obs in [4usize, 8, 16, 32] {
        group.bench_with_input(BenchmarkId::new("gp_step", n_obs), &n_obs, |b, &n| {
            let mut opt = ObOptimizer::new(ObserverConfig::for_dim(2)).expect("optimizer");
            let mut rng = StdRng::seed_from_u64(6);
            for i in 0..n {
                let x = vec![(i as f64 / n as f64), 1.0 - i as f64 / n as f64];
                let y = (x[0] - 0.6).powi(2);
                opt.update(x, y).expect("update");
            }
            b.iter(|| black_box(opt.next_candidate(&mut rng)))
        });
    }
    group.finish();
}

fn bench_nn_training(c: &mut Criterion) {
    use lingxi_exit::{DatasetFlavor, ExitDataset, ExitEntry};
    let mut rng = StdRng::seed_from_u64(7);
    let entries: Vec<ExitEntry> = (0..512)
        .map(|i| {
            let mut s = StateMatrix::zeros();
            s.rows[2][7] = (i % 10) as f64 / 10.0;
            ExitEntry {
                state: s,
                stalled: true,
                switched: false,
                exited: i % 3 == 0,
            }
        })
        .collect();
    let ds = ExitDataset::new(&entries, DatasetFlavor::Stall).expect("dataset");
    let idx: Vec<usize> = (0..ds.len()).collect();
    let mut group = c.benchmark_group("nn");
    group.sample_size(10);
    group.bench_function("train_epoch_512", |b| {
        b.iter(|| {
            let mut p = ExitPredictor::new(
                PredictorConfig {
                    epochs: 1,
                    ..PredictorConfig::small()
                },
                &mut rng,
            )
            .expect("predictor");
            p.train(&ds, &idx, &mut rng).expect("train")
        })
    });
    group.finish();
}

fn bench_player(c: &mut Criterion) {
    let fx = abr_fixture(8);
    c.bench_function("player/segment_step", |b| {
        let mut env = fx.env.clone();
        let mut rng = StdRng::seed_from_u64(9);
        b.iter(|| {
            let mut e = env.clone();
            e.step(1600.0, 1, 3000.0, 2.0, &mut rng).expect("step")
        });
        env.update_bmax();
    });
}

/// The dual solver on the `experiments fairness` pod: `flows` flows with
/// caps spread over 0.6–6 Mbps, dealt round-robin onto the routes of at
/// most `hops` hops (1 = the core route alone, 3 = all three, which is
/// where two binding links couple through a route).
fn bench_allocate(c: &mut Criterion) {
    let topo = lingxi_exp::fairness::pod_topology().expect("pod");
    let mut group = c.benchmark_group("allocate");
    for n_flows in [8usize, 32, 128] {
        for hops in [1usize, 2, 3] {
            let routes: Vec<u16> = (0..topo.n_routes() as u16)
                .filter(|&r| topo.route(r).len() <= hops)
                .collect();
            let flows: Vec<FlowDemand> = (0..n_flows)
                .map(|i| {
                    let cap = 600.0 + 5400.0 * ((i * 37) % n_flows) as f64 / n_flows as f64;
                    FlowDemand::new(cap, routes[i % routes.len()])
                })
                .collect();
            for alpha in [0.5, 1.0, 2.0] {
                let id = BenchmarkId::new(format!("alpha{alpha}_hops{hops}"), n_flows);
                group.bench_with_input(id, &flows, |b, flows| {
                    let objective = FairnessObjective::AlphaFair(alpha);
                    b.iter(|| allocate(&topo, objective, black_box(flows)).expect("allocate"))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_allocate,
    bench_abr_decisions,
    bench_predictor,
    bench_monte_carlo,
    bench_obo,
    bench_nn_training,
    bench_player
);
criterion_main!(benches);
