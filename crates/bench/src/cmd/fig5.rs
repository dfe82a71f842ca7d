//! Figure 5: NIC-based vs host-based barrier latency, 2–16 nodes, on the
//! LANai-9.1 / 700 MHz / 66 MHz-PCI cluster.
//!
//! Paper anchors: 25.72 µs NIC-based at 16 nodes; 3.38× improvement over
//! the host-based barrier; PE bumps above DS at non-powers of two.
//!
//! Writes `results/fig5.json` (the figure, mean latency per node count)
//! and `BENCH_fig5.json` at the repo root (the perf trajectory: median +
//! p99 per node count with the run manifest embedded). `--quick` shrinks
//! the sweep for CI smoke runs.

use crate::cli::{engine_label, Args};
use nicbar_bench::{parallel_sweep_map, trajectory, Figure, Manifest, Series};
use nicbar_core::{gm_host_barrier, gm_nic_barrier, Algorithm, BarrierStats};
use nicbar_gm::{CollFeatures, GmParams};

pub fn run(args: &Args) {
    let (quick, cfg) = (args.quick, args.run_cfg());
    let ns: Vec<usize> = if quick {
        vec![2, 4, 8, 16]
    } else {
        (2..=16).collect()
    };

    let curve = |mode: &'static str, algo: Algorithm| -> Vec<(usize, BarrierStats)> {
        parallel_sweep_map(&ns, |n| {
            let params = GmParams::lanai_9_1();
            match mode {
                "nic" => gm_nic_barrier(params, CollFeatures::paper(), n, algo, cfg.clone()),
                _ => gm_host_barrier(params, n, algo, cfg.clone()),
            }
        })
    };

    let sweeps: Vec<(&str, Vec<(usize, BarrierStats)>)> = vec![
        ("NIC-DS", curve("nic", Algorithm::Dissemination)),
        ("NIC-PE", curve("nic", Algorithm::PairwiseExchange)),
        ("Host-DS", curve("host", Algorithm::Dissemination)),
        ("Host-PE", curve("host", Algorithm::PairwiseExchange)),
    ];

    let manifest = Manifest::new(
        cfg.seed,
        format!(
            "gm lanai-9.1, n={}..={}, warmup={}, iters={}, quick={}, {}",
            ns.first().copied().unwrap_or(0),
            ns.last().copied().unwrap_or(0),
            cfg.warmup,
            cfg.iters,
            quick,
            engine_label(&cfg)
        ),
    );

    let fig = Figure::new(
        "fig5",
        "Fig. 5 — Barrier latency (µs), Myrinet LANai-9.1, 16-node 700 MHz cluster",
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
        fig.save().expect("write results/fig5.json");
    }

    // The tracked perf trajectory: median + p99 per node count.
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
    trajectory::save("fig5", &traj, &manifest).expect("write BENCH_fig5.json");

    let top = *ns.last().expect("non-empty sweep");
    let nic16 = fig.series[0].at(top).expect("NIC point at top n");
    let host16 = fig.series[2].at(top).expect("host point at top n");
    if top == 16 {
        println!("\npaper anchors: NIC @16 = 25.72 µs (sim {nic16:.2}),");
        println!(
            "               improvement factor @16 = 3.38x (sim {:.2}x)",
            host16 / nic16
        );
    }
}
