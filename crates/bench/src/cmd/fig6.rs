//! Figure 6: NIC-based vs host-based barrier latency, 2–8 nodes, on the
//! LANai-XP / 2.4 GHz Xeon / PCI-X cluster.
//!
//! Paper anchors: 14.20 µs NIC-based at 8 nodes; 2.64× improvement —
//! smaller than the 9.1 cluster's factor because the faster host CPU and
//! PCI-X bus leave less overhead for the NIC to remove.
//!
//! `--quick` shrinks the sweep for CI smoke runs, `--engine`/`--shards`
//! select the execution engine.

use crate::cli::{engine_label, Args};
use nicbar_bench::{parallel_sweep, Figure, Manifest, Series};
use nicbar_core::{gm_host_barrier, gm_nic_barrier, Algorithm};
use nicbar_gm::{CollFeatures, GmParams};

pub fn run(args: &Args) {
    let (quick, cfg) = (args.quick, args.run_cfg());
    let ns: Vec<usize> = if quick {
        vec![2, 4, 8]
    } else {
        (2..=8).collect()
    };

    let curve = |mode: &'static str, algo: Algorithm| -> Vec<(usize, f64)> {
        parallel_sweep(&ns, |n| {
            let params = GmParams::lanai_xp();
            match mode {
                "nic" => {
                    gm_nic_barrier(params, CollFeatures::paper(), n, algo, cfg.clone()).mean_us
                }
                _ => gm_host_barrier(params, n, algo, cfg.clone()).mean_us,
            }
        })
    };

    let fig = Figure::new(
        "fig6",
        "Fig. 6 — Barrier latency (µs), Myrinet LANai-XP, 8-node 2.4 GHz cluster",
        vec![
            Series::new("NIC-DS", curve("nic", Algorithm::Dissemination)),
            Series::new("NIC-PE", curve("nic", Algorithm::PairwiseExchange)),
            Series::new("Host-DS", curve("host", Algorithm::Dissemination)),
            Series::new("Host-PE", curve("host", Algorithm::PairwiseExchange)),
        ],
    )
    .with_manifest(Manifest::new(
        cfg.seed,
        format!(
            "gm lanai-xp, n=2..=8, warmup={}, iters={}, quick={}, {}",
            cfg.warmup,
            cfg.iters,
            quick,
            engine_label(&cfg)
        ),
    ));
    fig.print();
    // Quick (CI) sweeps must not downgrade the tracked full-fidelity
    // artifact.
    if !quick {
        fig.save().expect("write results/fig6.json");
    }

    let nic8 = fig.series[0].at(8).unwrap();
    let host8 = fig.series[2].at(8).unwrap();
    println!("\npaper anchors: NIC @8 = 14.20 µs (sim {nic8:.2}),");
    println!(
        "               improvement factor @8 = 2.64x (sim {:.2}x)",
        host8 / nic8
    );
}
