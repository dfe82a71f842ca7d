//! Figure 7: barrier implementations over Quadrics/Elan3, 2–8 nodes:
//! NIC-Barrier-DS, NIC-Barrier-PE (chained RDMA), Elan-Barrier
//! (`elan_gsync` tree, hardware broadcast disabled) and Elan-HW-Barrier
//! (`elan_hgsync`).
//!
//! Paper anchors: 5.60 µs NIC barrier at 8 nodes, 2.48× better than the
//! tree barrier; the hardware barrier sits flat near 4.2 µs and loses to
//! the NIC barrier at small node counts.
//!
//! Writes `results/fig7.json` (the figure) and `BENCH_fig7.json` at the
//! repo root (the perf trajectory: median + p99 per node count with the
//! run manifest embedded). `--quick` shrinks the sweep for CI smoke runs.

use crate::cli::{engine_label, Args};
use nicbar_bench::{parallel_sweep_map, trajectory, Figure, Manifest, Series};
use nicbar_core::{elan_gsync_barrier, elan_hw_barrier, elan_nic_barrier, Algorithm, BarrierStats};
use nicbar_elan::ElanParams;

/// Elanlib builds its software trees 4-ary (matching the quaternary fat
/// tree's natural branching).
const GSYNC_DEGREE: usize = 4;

pub fn run(args: &Args) {
    let (quick, cfg) = (args.quick, args.run_cfg());
    let ns: Vec<usize> = if quick {
        vec![2, 4, 8]
    } else {
        (2..=8).collect()
    };

    let nic = |algo: Algorithm| -> Vec<(usize, BarrierStats)> {
        parallel_sweep_map(&ns, |n| {
            elan_nic_barrier(ElanParams::elan3(), n, algo, cfg.clone())
        })
    };
    let gsync = parallel_sweep_map(&ns, |n| {
        elan_gsync_barrier(ElanParams::elan3(), n, GSYNC_DEGREE, cfg.clone())
    });
    let hw = parallel_sweep_map(&ns, |n| {
        elan_hw_barrier(ElanParams::elan3(), n, cfg.clone())
    });

    let sweeps: Vec<(&str, Vec<(usize, BarrierStats)>)> = vec![
        ("NIC-Barrier-DS", nic(Algorithm::Dissemination)),
        ("NIC-Barrier-PE", nic(Algorithm::PairwiseExchange)),
        ("Elan-Barrier", gsync),
        ("Elan-HW-Barrier", hw),
    ];

    let manifest = Manifest::new(
        cfg.seed,
        format!(
            "elan3, n={}..={}, gsync_degree={}, warmup={}, iters={}, quick={}, {}",
            ns.first().copied().unwrap_or(0),
            ns.last().copied().unwrap_or(0),
            GSYNC_DEGREE,
            cfg.warmup,
            cfg.iters,
            quick,
            engine_label(&cfg)
        ),
    );

    let fig = Figure::new(
        "fig7",
        "Fig. 7 — Barrier latency (µs), Quadrics/Elan3, 8-node 700 MHz cluster",
        sweeps
            .iter()
            .map(|(label, pts)| {
                Series::new(
                    *label,
                    pts.iter().map(|&(n, ref s)| (n, s.mean_us)).collect(),
                )
            })
            .collect(),
    )
    .with_manifest(manifest.clone());
    fig.print();
    // Quick (CI) sweeps refresh the BENCH trajectory below but must not
    // downgrade the tracked full-fidelity figure artifact.
    if !quick {
        fig.save().expect("write results/fig7.json");
    }

    let traj: Vec<(&str, Vec<trajectory::TrajectoryPoint>)> = sweeps
        .iter()
        .map(|(label, pts)| {
            (
                *label,
                pts.iter()
                    .map(|&(n, ref s)| trajectory::point(n, s))
                    .collect(),
            )
        })
        .collect();
    trajectory::save("fig7", &traj, &manifest).expect("write BENCH_fig7.json");

    let nic8 = fig.series[0].at(8).expect("NIC point at 8");
    let tree8 = fig.series[2].at(8).expect("tree point at 8");
    let hw8 = fig.series[3].at(8).expect("hw point at 8");
    println!("\npaper anchors: NIC @8 = 5.60 µs (sim {nic8:.2}),");
    println!(
        "               vs tree barrier = 2.48x (sim {:.2}x),",
        tree8 / nic8
    );
    println!("               hardware barrier = 4.20 µs (sim {hw8:.2})");
}
