//! Topology sensitivity of the 1024-node projection (supporting analysis
//! for the Fig. 8 deviation): the paper's closed-form model assumes a
//! constant per-round cost, but a real Clos deepens with scale — more
//! switch hops per message. This harness sweeps the crossbar radix to show
//! how much of the Myrinet large-N latency is network depth.

use nicbar_core::host_app::NicBarrierApp;
use nicbar_core::{Algorithm, GroupSpec, PaperCollective, RunCfg, BARRIER_GROUP};
use nicbar_gm::{GmApp, GmCluster, GmClusterSpec, GmParams, NicCollective};
use nicbar_net::{NodeId, Topology, WireModel, WormholeClos};
use nicbar_sim::{RunOutcome, SimTime};
use std::sync::Arc;

/// Like `gm_nic_barrier` but with an explicit crossbar radix.
fn barrier_with_radix(n: usize, radix: usize, cfg: RunCfg) -> (f64, u32) {
    let params = GmParams::lanai_xp();
    let timeout = params.coll_timeout;
    let link = params.link;
    let hotspot = params.hotspot_ns;
    let spec = GmClusterSpec::new(params, n).with_seed(cfg.seed);
    let members: Vec<NodeId> = (0..n).map(NodeId).collect();
    let mut apps: Vec<Box<dyn GmApp>> = Vec::new();
    let mut colls: Vec<Box<dyn NicCollective>> = Vec::new();
    for rank in 0..n {
        apps.push(Box::new(NicBarrierApp::new(
            BARRIER_GROUP,
            cfg.total(),
            0.0,
        )));
        colls.push(Box::new(PaperCollective::new(
            NodeId(rank),
            vec![GroupSpec::barrier(
                BARRIER_GROUP,
                members.clone(),
                rank,
                Algorithm::Dissemination,
                timeout,
            )],
        )));
    }
    let mut cluster = GmCluster::build(spec, apps, colls);
    // Swap every NIC onto a wire model with the requested radix.
    let topo = WormholeClos::new(n, radix);
    let diameter = topo.diameter();
    cluster.set_wire_model(Arc::new(WireModel::new(Box::new(topo), link, hotspot)));
    let outcome = cluster.engine.run_bounded(
        SimTime::from_us(cfg.total() as f64 * 10_000.0 + 1_000_000.0),
        2_000_000_000,
    );
    assert_eq!(outcome, RunOutcome::Idle);
    let logs: Vec<&[SimTime]> = (0..n)
        .map(|node| {
            cluster
                .app_ref::<NicBarrierApp>(node)
                .log
                .completions
                .as_slice()
        })
        .collect();
    let total = cfg.total() as usize;
    let w = cfg.warmup as usize;
    let last = logs.iter().map(|l| l[total - 1]).max().unwrap();
    let first = logs.iter().map(|l| l[w - 1]).max().unwrap();
    ((last - first).as_us() / cfg.iters as f64, diameter)
}

pub fn run(_: &crate::cli::Args) {
    let cfg = RunCfg {
        warmup: 10,
        iters: 100,
        ..RunCfg::default()
    };
    println!("1024-node NIC-DS barrier vs crossbar radix (Myrinet LANai-XP timing)\n");
    println!(
        "{:>7} {:>10} {:>12}   (paper model: 38.94 µs, radix-independent)",
        "radix", "diameter", "latency(µs)"
    );
    for radix in [8usize, 16, 32, 64] {
        let (latency, diameter) = barrier_with_radix(1024, radix, cfg.clone());
        println!("{radix:>7} {diameter:>10} {latency:>12.2}");
    }
    println!("\nShallower networks (bigger crossbars) close most of the gap between");
    println!("the simulated 1024-node latency and the paper's flat-T_trig model —");
    println!("the Fig. 8 deviation is network depth, not protocol behaviour.");
}
