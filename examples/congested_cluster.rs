//! Barrier under load — the §6.1 queuing argument, made measurable.
//!
//! Every process keeps a pipeline of bulk messages streaming to its ring
//! neighbour while running consecutive barriers. With the paper's dedicated
//! group queue, barrier messages bypass the congested per-destination
//! queues; in the direct scheme and the host-based barrier they wait their
//! round-robin turn behind 4 KB transfers.
//!
//! ```text
//! cargo run --release --example congested_cluster
//! ```

use nicbar::core::{
    gm_host_barrier, gm_nic_barrier, Algorithm, Barrier, Load, RunCfg, Scenario, TrafficCfg,
};
use nicbar::gm::{CollFeatures, GmParams};

fn main() {
    let n = 8;
    let cfg = RunCfg {
        warmup: 20,
        iters: 300,
        ..RunCfg::default()
    };

    println!("8-node LANai-XP cluster, dissemination barrier, ring bulk traffic\n");
    println!(
        "{:<26} {:>10} {:>12} {:>10}",
        "barrier implementation", "quiet(µs)", "loaded(µs)", "slowdown"
    );

    let quiet_nic = gm_nic_barrier(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        n,
        Algorithm::Dissemination,
        cfg.clone(),
    )
    .mean_us;
    let quiet_direct = gm_nic_barrier(
        GmParams::lanai_xp(),
        CollFeatures::direct(),
        n,
        Algorithm::Dissemination,
        cfg.clone(),
    )
    .mean_us;
    let quiet_host = gm_host_barrier(
        GmParams::lanai_xp(),
        n,
        Algorithm::Dissemination,
        cfg.clone(),
    )
    .mean_us;

    for outstanding in [2u32, 4, 8] {
        let traffic = TrafficCfg {
            msg_bytes: 4096,
            outstanding,
        };
        let loaded = |barrier| {
            Scenario::new(barrier, n, Algorithm::Dissemination, cfg.clone())
                .with_load(Load::UnderTraffic(traffic))
                .run()
                .mean_us
        };
        let params = GmParams::lanai_xp;
        let nic = loaded(Barrier::GmNic {
            params: params(),
            features: CollFeatures::paper(),
        });
        let direct = loaded(Barrier::GmNic {
            params: params(),
            features: CollFeatures::direct(),
        });
        let host = loaded(Barrier::GmHost { params: params() });

        println!("--- {outstanding} × 4 KB bulk messages in flight per process ---");
        println!(
            "{:<26} {quiet_nic:>10.2} {nic:>12.2} {:>9.2}x",
            "NIC (paper protocol)",
            nic / quiet_nic
        );
        println!(
            "{:<26} {quiet_direct:>10.2} {direct:>12.2} {:>9.2}x",
            "NIC (direct scheme)",
            direct / quiet_direct
        );
        println!(
            "{:<26} {quiet_host:>10.2} {host:>12.2} {:>9.2}x",
            "host-based",
            host / quiet_host
        );
    }

    println!("\nThe dedicated group queue keeps the barrier's slowdown small under");
    println!("load; the direct scheme and host-based barrier queue behind the bulk");
    println!("transfers — the delay §6.1 sets out to eliminate.");
}
