//! Calibration probe (maintainer tool): prints simulated latencies next to
//! the paper's target anchors for every cluster preset. Used when adjusting
//! `GmParams` / `ElanParams` constants; the regression bands live in
//! `tests/reproduction.rs`.
//!
//! ```text
//! cargo run -p nicbar-core --release --example calibrate
//! ```
use nicbar_core::*;
use nicbar_elan::ElanParams;
use nicbar_gm::{CollFeatures, GmParams};

fn main() {
    let cfg = RunCfg {
        warmup: 50,
        iters: 300,
        ..RunCfg::default()
    };
    println!("== Myrinet LANai-XP (targets: NIC@8=14.20, host@8=37.5, factor 2.64) ==");
    for n in [2, 4, 8] {
        let nic = gm_nic_barrier(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            n,
            Algorithm::Dissemination,
            cfg.clone(),
        );
        let host = gm_host_barrier(
            GmParams::lanai_xp(),
            n,
            Algorithm::Dissemination,
            cfg.clone(),
        );
        println!(
            "n={n:2}  NIC-DS {:6.2}  Host-DS {:6.2}  factor {:.2}",
            nic.mean_us,
            host.mean_us,
            host.mean_us / nic.mean_us
        );
    }
    println!("== Myrinet LANai-9.1 (targets: NIC@16=25.72, host@16=86.9, factor 3.38) ==");
    for n in [2, 8, 16] {
        let nic = gm_nic_barrier(
            GmParams::lanai_9_1(),
            CollFeatures::paper(),
            n,
            Algorithm::Dissemination,
            cfg.clone(),
        );
        let host = gm_host_barrier(
            GmParams::lanai_9_1(),
            n,
            Algorithm::Dissemination,
            cfg.clone(),
        );
        println!(
            "n={n:2}  NIC-DS {:6.2}  Host-DS {:6.2}  factor {:.2}",
            nic.mean_us,
            host.mean_us,
            host.mean_us / nic.mean_us
        );
    }
    println!("== Quadrics Elan3 (targets: NIC@8=5.60, gsync@8=13.9 (2.48x), hw=4.20) ==");
    for n in [2, 4, 8] {
        let nic = elan_nic_barrier(
            ElanParams::elan3(),
            n,
            Algorithm::Dissemination,
            cfg.clone(),
        );
        let gs = elan_gsync_barrier(ElanParams::elan3(), n, 4, cfg.clone());
        let hw = Barrier::ElanHw {
            params: ElanParams::elan3(),
        };
        let hw = Scenario::new(hw, n, Algorithm::Dissemination, cfg.clone()).run();
        println!(
            "n={n:2}  NIC-DS {:6.2}  gsync {:6.2}  hw {:6.2}  factor {:.2}",
            nic.mean_us,
            gs.mean_us,
            hw.mean_us,
            gs.mean_us / nic.mean_us
        );
    }
    println!("== 1024-node projections (targets: Quadrics 22.13, Myrinet 38.94) ==");
    let q = elan_nic_barrier(
        ElanParams::elan3(),
        1024,
        Algorithm::Dissemination,
        RunCfg {
            warmup: 5,
            iters: 20,
            ..cfg.clone()
        },
    );
    let m = gm_nic_barrier(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        1024,
        Algorithm::Dissemination,
        RunCfg {
            warmup: 5,
            iters: 20,
            ..cfg
        },
    );
    println!(
        "Quadrics@1024 {:6.2}   Myrinet@1024 {:6.2}",
        q.mean_us, m.mean_us
    );
}
