//! Fleet throughput benchmarks: sessions per second through the sharded
//! engine, the scale axis the ROADMAP north star asks to measure.
//!
//! `fleet/sessions_1shard` vs `fleet/sessions_4shards` exposes the
//! parallel speedup; criterion's `Throughput::Elements` reports both as
//! elements (sessions) per second. `session/managed_buffered` vs
//! `session/managed_fresh` measures what the reusable-buffer variant saves
//! on the per-session hot path, and `session/plain` is the same video and
//! trace through `run_session` and the two adapters — the other side of
//! the one stepper the managed cells share.
//!
//! Note: on a single-CPU machine (`std::thread::available_parallelism` =
//! 1, common in CI containers) the 4-shard number can only trail the
//! 1-shard number — shard workers are OS threads, and one core runs them
//! back to back plus scheduling overhead. The comparison is meaningful on
//! multi-core hardware.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use lingxi_abr::{drive, Hyb};
use lingxi_core::{
    run_managed_session, run_managed_session_in, LingXiConfig, LingXiController, ProfilePredictor,
    SessionBuffers,
};
use lingxi_fleet::{AbrMix, ContentionConfig, FleetConfig, FleetEngine, FleetScenario};
use lingxi_media::{BitrateLadder, Catalog, CatalogConfig, VbrModel};
use lingxi_net::BandwidthTrace;
use lingxi_player::{run_session, PlayerConfig, SessionSetup};
use lingxi_user::{consult, QosExitModel, SensitivityKind, StallProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One fleet epoch over a small population; returns sessions played so the
/// group's throughput denominator matches reality. `contention` switches
/// between independent per-session traces and shared-bottleneck links.
fn run_fleet_once(shards: usize, seed: u64, contention: Option<ContentionConfig>) -> usize {
    let dir = std::env::temp_dir().join(format!(
        "lingxi_fleet_bench_{}_{shards}_{seed}_{}",
        std::process::id(),
        contention.is_some()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = FleetConfig {
        shards,
        epochs: 1,
        seed,
        state_dir: dir.clone(),
        contention,
        ..FleetConfig::default()
    };
    // Constrained-heavy mixture with everyone LingXi-managed: session
    // compute (stalls → Monte-Carlo optimization passes) dominates, so the
    // bench measures engine throughput rather than state-store I/O.
    let scenario = FleetScenario {
        name: "bench".into(),
        n_users: 256,
        n_videos: 16,
        mean_sessions_per_epoch: 2.0,
        mixture: lingxi_net::ProductionMixture {
            p_constrained: 0.5,
            p_cellular: 0.35,
            p_wifi: 0.15,
        },
        abr_mix: AbrMix::all_hyb(),
    };
    let report = FleetEngine::new(config)
        .expect("valid config")
        .run(&scenario)
        .expect("fleet run");
    let _ = std::fs::remove_dir_all(&dir);
    report.sessions
}

fn bench_fleet_throughput(c: &mut Criterion) {
    // Calibrate the element count once so sessions/sec is honest.
    let sessions = run_fleet_once(4, 42, None) as u64;
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    group.throughput(Throughput::Elements(sessions));
    group.bench_function("sessions_1shard", |b| {
        b.iter(|| black_box(run_fleet_once(1, 42, None)))
    });
    group.bench_function("sessions_4shards", |b| {
        b.iter(|| black_box(run_fleet_once(4, 42, None)))
    });
    group.finish();
}

/// Independent-trace vs shared-bottleneck fleet runs: what event-driven
/// contention costs (or saves — no per-session trace generation) per
/// session. Element counts are calibrated per mode because contention
/// changes exit behaviour and therefore session counts.
fn bench_fleet_contention(c: &mut Criterion) {
    let contention = ContentionConfig {
        links: 32,
        capacity_kbps: 25_000.0,
        arrival_window: 20.0,
        access_cap_factor: 1.5,
    };
    let mut group = c.benchmark_group("fleet_bandwidth");
    group.sample_size(10);

    let independent = run_fleet_once(4, 43, None) as u64;
    group.throughput(Throughput::Elements(independent));
    group.bench_function("independent_traces", |b| {
        b.iter(|| black_box(run_fleet_once(4, 43, None)))
    });

    let contended = run_fleet_once(4, 43, Some(contention)) as u64;
    group.throughput(Throughput::Elements(contended));
    group.bench_function("shared_bottleneck", |b| {
        b.iter(|| black_box(run_fleet_once(4, 43, Some(contention))))
    });
    group.finish();
}

fn bench_session_buffers(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let catalog = Catalog::generate(
        BitrateLadder::default_short_video(),
        &CatalogConfig {
            n_videos: 4,
            mean_duration: 60.0,
            vbr: VbrModel::default_vbr(),
            ..CatalogConfig::default()
        },
        &mut rng,
    )
    .expect("catalog");
    let trace = BandwidthTrace::constant(2500.0, 600, 1.0).expect("trace");
    let profile = StallProfile::new(SensitivityKind::Sensitive, 2.0, 0.3).expect("profile");

    let mut group = c.benchmark_group("session");
    group.bench_function("plain", |b| {
        let (video, ladder) = (catalog.video_cyclic(0), catalog.ladder());
        let setup = SessionSetup {
            user_id: 1,
            video,
            ladder,
            process: &trace,
            config: PlayerConfig::deterministic(10.0, 0.0),
        };
        b.iter(|| {
            let mut abr = Hyb::default_rule();
            let mut user = QosExitModel::calibrated(profile);
            let mut rng = StdRng::seed_from_u64(7);
            black_box(
                run_session(
                    &setup,
                    drive(&mut abr, ladder, &video.sizes),
                    consult(&mut user, ladder),
                    &mut rng,
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("managed_fresh", |b| {
        b.iter(|| {
            let mut abr = Hyb::default_rule();
            let mut controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
            let mut predictor = ProfilePredictor {
                profile,
                base: 0.01,
            };
            let mut user = QosExitModel::calibrated(profile);
            let mut rng = StdRng::seed_from_u64(7);
            black_box(
                run_managed_session(
                    1,
                    catalog.video_cyclic(0),
                    catalog.ladder(),
                    &trace,
                    PlayerConfig::deterministic(10.0, 0.0),
                    &mut abr,
                    &mut controller,
                    &mut predictor,
                    &mut user,
                    &mut rng,
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("managed_buffered", |b| {
        let mut buffers = SessionBuffers::new();
        b.iter(|| {
            let mut abr = Hyb::default_rule();
            let mut controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
            let mut predictor = ProfilePredictor {
                profile,
                base: 0.01,
            };
            let mut user = QosExitModel::calibrated(profile);
            let mut rng = StdRng::seed_from_u64(7);
            run_managed_session_in(
                1,
                catalog.video_cyclic(0),
                catalog.ladder(),
                &trace,
                PlayerConfig::deterministic(10.0, 0.0),
                &mut abr,
                &mut controller,
                &mut predictor,
                &mut user,
                &mut buffers,
                &mut rng,
            )
            .unwrap();
            black_box(buffers.log().watch_time)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fleet_throughput,
    bench_fleet_contention,
    bench_session_buffers
);
criterion_main!(benches);
