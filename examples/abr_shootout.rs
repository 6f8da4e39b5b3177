//! ABR shootout: every algorithm in the crate on the same traces.
//!
//! Run with: `cargo run --release --example abr_shootout`
//!
//! Plays a fixed session mix over three bandwidth regimes (constrained /
//! cellular / wifi) with each ABR and prints mean bitrate, stall time,
//! switches and `QoE_lin` — the offline comparison that motivates picking
//! HYB/MPC as LingXi's substrates.

use lingxi::abr::qoe_lin_of_log;
use lingxi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn make_abrs() -> Vec<Box<dyn Abr>> {
    let mut rng = StdRng::seed_from_u64(99);
    vec![
        Box::new(ThroughputRule::default_rule()),
        Box::new(Bba::default_rule()),
        Box::new(Bola::default_rule()),
        Box::new(Hyb::default_rule()),
        Box::new(RobustMpc::default_rule()),
        Box::new(Pensieve::new(PensieveConfig::default(), &mut rng).expect("pensieve")),
    ]
}

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let catalog = Catalog::generate(
        BitrateLadder::default_short_video(),
        &CatalogConfig {
            n_videos: 10,
            ..CatalogConfig::default()
        },
        &mut rng,
    )
    .expect("catalog");
    let regimes = [
        ("constrained", NetClass::Constrained, 1200.0, 0.6),
        ("cellular", NetClass::Cellular, 3500.0, 0.45),
        ("wifi", NetClass::Wifi, 12_000.0, 0.3),
    ];
    let qoe = QoeLin::paper_default(catalog.ladder());
    let sessions = 12;

    println!(
        "{:<12} {:<11} {:>9} {:>9} {:>8} {:>9}",
        "regime", "abr", "kbps", "stall(s)", "switches", "QoE_lin"
    );
    for (name, class, kbps, cv) in regimes {
        let net = UserNetProfile {
            class,
            mean_kbps: kbps,
            cv,
        };
        for abr in make_abrs().iter_mut() {
            let mut bitrate = 0.0;
            let mut stall = 0.0;
            let mut switches = 0usize;
            let mut qoe_total = 0.0;
            for s in 0..sessions {
                let video = catalog.video_cyclic(s);
                let mut trace_rng = StdRng::seed_from_u64(7000 + s as u64);
                let trace = net
                    .trace((video.duration() * 3.0) as usize, 1.0, &mut trace_rng)
                    .expect("trace");
                let ladder = catalog.ladder();
                let setup = SessionSetup {
                    user_id: 0,
                    video,
                    ladder,
                    process: &trace,
                    config: PlayerConfig::default(),
                };
                abr.reset();
                let mut session_rng = StdRng::seed_from_u64(8000 + s as u64);
                let log = run_session(
                    &setup,
                    drive(abr.as_mut(), ladder, &video.sizes),
                    |_, _, _| ExitDecision::Continue, // patient robot viewer
                    &mut session_rng,
                )
                .expect("session");
                bitrate += log.mean_bitrate();
                stall += log.total_stall();
                switches += log.switch_count();
                qoe_total += qoe_lin_of_log(&qoe, ladder, &log);
            }
            println!(
                "{:<12} {:<11} {:>9.0} {:>9.2} {:>8} {:>9.1}",
                name,
                abr.name(),
                bitrate / sessions as f64,
                stall,
                switches,
                qoe_total
            );
        }
        println!();
    }
}
