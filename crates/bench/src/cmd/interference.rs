//! Interference bench (extension): barrier latency under background bulk
//! traffic, across traffic intensities — the quantified version of §6.1's
//! queuing argument. Compares the paper protocol, the direct scheme and
//! the host-based barrier on the LANai-XP cluster.

use nicbar_bench::{Figure, Manifest, Series};
use nicbar_core::{
    gm_host_barrier_under_traffic, gm_nic_barrier_under_traffic, Algorithm, RunCfg, TrafficCfg,
};
use nicbar_gm::{CollFeatures, GmParams};

pub fn run(_: &crate::cli::Args) {
    let n = 8;
    let cfg = RunCfg {
        warmup: 20,
        iters: 500,
        ..RunCfg::default()
    };
    let loads: Vec<usize> = vec![0, 1, 2, 4, 8];

    let run = |mode: &'static str, outstanding: usize| -> f64 {
        let traffic = TrafficCfg {
            msg_bytes: 4096,
            outstanding: outstanding as u32,
        };
        match (mode, outstanding) {
            ("paper", 0) => {
                nicbar_core::gm_nic_barrier(
                    GmParams::lanai_xp(),
                    CollFeatures::paper(),
                    n,
                    Algorithm::Dissemination,
                    cfg.clone(),
                )
                .mean_us
            }
            ("direct", 0) => {
                nicbar_core::gm_nic_barrier(
                    GmParams::lanai_xp(),
                    CollFeatures::direct(),
                    n,
                    Algorithm::Dissemination,
                    cfg.clone(),
                )
                .mean_us
            }
            ("host", 0) => {
                nicbar_core::gm_host_barrier(
                    GmParams::lanai_xp(),
                    n,
                    Algorithm::Dissemination,
                    cfg.clone(),
                )
                .mean_us
            }
            ("paper", _) => {
                gm_nic_barrier_under_traffic(
                    GmParams::lanai_xp(),
                    CollFeatures::paper(),
                    n,
                    Algorithm::Dissemination,
                    cfg.clone(),
                    traffic,
                )
                .mean_us
            }
            ("direct", _) => {
                gm_nic_barrier_under_traffic(
                    GmParams::lanai_xp(),
                    CollFeatures::direct(),
                    n,
                    Algorithm::Dissemination,
                    cfg.clone(),
                    traffic,
                )
                .mean_us
            }
            _ => {
                gm_host_barrier_under_traffic(
                    GmParams::lanai_xp(),
                    n,
                    Algorithm::Dissemination,
                    cfg.clone(),
                    traffic,
                )
                .mean_us
            }
        }
    };

    let series = |mode: &'static str| -> Vec<(usize, f64)> {
        loads.iter().map(|&o| (o, run(mode, o))).collect()
    };

    let fig = Figure::new(
        "interference",
        "Interference — 8-node barrier latency (µs) vs bulk messages in flight per process",
        vec![
            Series::new("NIC (paper)", series("paper")),
            Series::new("NIC (direct)", series("direct")),
            Series::new("Host-based", series("host")),
        ],
    )
    .with_manifest(Manifest::new(
        cfg.seed,
        format!(
            "gm lanai-xp, n={n}, loads=0..=8, warmup={}, iters={}",
            cfg.warmup, cfg.iters
        ),
    ));
    fig.print();
    fig.save().expect("write results/interference.json");

    let nic0 = fig.series[0].at(0).unwrap();
    let nic8 = fig.series[0].at(8).unwrap();
    let host0 = fig.series[2].at(0).unwrap();
    let host8 = fig.series[2].at(8).unwrap();
    println!(
        "\nslowdown at 8 in-flight: NIC (paper) {:.2}x, host-based {:.2}x",
        nic8 / nic0,
        host8 / host0
    );
}
