//! "Table 1": the paper's headline numbers (abstract / §8), regenerated.
//!
//! | metric | paper | simulated |
//! |---|---|---|
//! | Quadrics 8-node NIC barrier | 5.60 µs | … |
//! | … improvement over Elanlib tree | 2.48× | … |
//! | Myrinet XP 8-node NIC barrier | 14.20 µs | … |
//! | … improvement over host-based | 2.64× | … |
//! | Myrinet 9.1 16-node NIC barrier | 25.72 µs | … |
//! | … improvement over host-based | 3.38× | … |
//! | 1024-node projection, Quadrics | 22.13 µs | … |
//! | 1024-node projection, Myrinet | 38.94 µs | … |

use nicbar_bench::figure_cfg;
use nicbar_core::{
    elan_gsync_barrier, elan_nic_barrier, gm_host_barrier, gm_nic_barrier, Algorithm, RunCfg,
};
use nicbar_elan::ElanParams;
use nicbar_gm::{CollFeatures, GmParams};

pub fn run(_: &crate::cli::Args) {
    let cfg = figure_cfg();
    let big = RunCfg {
        warmup: 20,
        iters: 200,
        ..cfg.clone()
    };
    let ds = Algorithm::Dissemination;

    let q_nic8 = elan_nic_barrier(ElanParams::elan3(), 8, ds, cfg.clone()).mean_us;
    let q_tree8 = elan_gsync_barrier(ElanParams::elan3(), 8, 4, cfg.clone()).mean_us;
    let m_nic8 = gm_nic_barrier(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        8,
        ds,
        cfg.clone(),
    )
    .mean_us;
    let m_host8 = gm_host_barrier(GmParams::lanai_xp(), 8, ds, cfg.clone()).mean_us;
    let o_nic16 = gm_nic_barrier(
        GmParams::lanai_9_1(),
        CollFeatures::paper(),
        16,
        ds,
        cfg.clone(),
    )
    .mean_us;
    let o_host16 = gm_host_barrier(GmParams::lanai_9_1(), 16, ds, cfg.clone()).mean_us;
    let q_1024 = elan_nic_barrier(ElanParams::elan3(), 1024, ds, big.clone()).mean_us;
    let m_1024 = gm_nic_barrier(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        1024,
        ds,
        big.clone(),
    )
    .mean_us;

    println!("== Table 1 — headline results, paper vs simulation ==\n");
    println!("{:<46} {:>9} {:>11}", "metric", "paper", "simulated");
    let row = |m: &str, p: f64, s: f64, unit: &str| {
        println!("{m:<46} {p:>8.2}{unit} {s:>10.2}{unit}");
    };
    row("Quadrics 8-node NIC barrier", 5.60, q_nic8, "u");
    row(
        "  improvement over Elanlib tree",
        2.48,
        q_tree8 / q_nic8,
        "x",
    );
    row("Myrinet LANai-XP 8-node NIC barrier", 14.20, m_nic8, "u");
    row("  improvement over host-based", 2.64, m_host8 / m_nic8, "x");
    row("Myrinet LANai-9.1 16-node NIC barrier", 25.72, o_nic16, "u");
    row(
        "  improvement over host-based",
        3.38,
        o_host16 / o_nic16,
        "x",
    );
    row("1024-node NIC barrier, Quadrics", 22.13, q_1024, "u");
    row("1024-node NIC barrier, Myrinet", 38.94, m_1024, "u");
    println!("\n(u = µs, x = factor; simulated values from the calibrated DES substrates)");
}
