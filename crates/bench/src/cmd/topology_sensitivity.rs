//! Topology sensitivity of the 1024-node projection (supporting analysis
//! for the Fig. 8 deviation): the paper's closed-form model assumes a
//! constant per-round cost, but a real Clos deepens with scale — more
//! switch hops per message. This harness sweeps the crossbar radix to show
//! how much of the Myrinet large-N latency is network depth.

use nicbar_core::{Algorithm, Barrier, Cluster, RunCfg, Scenario};
use nicbar_gm::{CollFeatures, GmParams};
use nicbar_net::{Topology, WireModel, WormholeClos};
use std::sync::Arc;

/// The NIC-DS barrier on `n` nodes with every NIC moved onto a wormhole
/// Clos of crossbar radix `radix`: its mean latency and the network
/// diameter.
fn barrier_with_radix(n: usize, radix: usize, cfg: RunCfg) -> (f64, u32) {
    let params = GmParams::lanai_xp();
    let (link, hotspot) = (params.link, params.hotspot_ns);
    let barrier = Barrier::GmNic {
        params,
        features: CollFeatures::paper(),
    };
    let s = Scenario::new(barrier, n, Algorithm::Dissemination, cfg);
    let mut c = s.build();
    let topo = WormholeClos::new(n, radix);
    let diameter = topo.diameter();
    let Cluster::Gm(g) = &mut c else {
        unreachable!("a GM scenario builds a GM cluster")
    };
    g.set_wire_model(Arc::new(WireModel::new(Box::new(topo), link, hotspot)));
    s.drain(&mut c);
    (s.harvest(&c).mean_us, diameter)
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
