//! Interference tests: the group-queue bypass must keep the NIC barrier
//! robust against background traffic, while the ablated/direct/host paths
//! queue behind it (§6.1 made falsifiable).

use nicbar_core::{
    gm_host_barrier, gm_nic_barrier, Algorithm, Barrier, BarrierStats, Load, RunCfg, Scenario,
    TrafficCfg,
};
use nicbar_gm::{CollFeatures, GmParams};

fn cfg() -> RunCfg {
    RunCfg {
        warmup: 10,
        iters: 150,
        ..RunCfg::default()
    }
}

fn traffic() -> TrafficCfg {
    TrafficCfg {
        msg_bytes: 4096,
        outstanding: 4,
    }
}

/// The NIC barrier over LANai-XP with the given protocol features.
fn nic(features: CollFeatures) -> Barrier {
    Barrier::GmNic {
        params: GmParams::lanai_xp(),
        features,
    }
}

/// The host-based barrier over LANai-XP.
fn host() -> Barrier {
    Barrier::GmHost {
        params: GmParams::lanai_xp(),
    }
}

/// `barrier` on `n` nodes under the [`traffic`] bulk stream.
fn under_traffic(barrier: Barrier, n: usize) -> BarrierStats {
    Scenario::new(barrier, n, Algorithm::Dissemination, cfg())
        .with_load(Load::UnderTraffic(traffic()))
        .run()
}

#[test]
fn barriers_complete_under_traffic_for_all_modes() {
    for n in [4usize, 8] {
        let nic = under_traffic(nic(CollFeatures::paper()), n);
        let host = under_traffic(host(), n);
        assert!(nic.mean_us > 0.0 && host.mean_us > 0.0);
        // Bulk data actually flowed alongside the barriers.
        assert!(
            nic.counter("wire.data") > 100,
            "bulk stream did not run ({} data packets)",
            nic.counter("wire.data")
        );
    }
}

#[test]
fn group_queue_bypass_limits_the_slowdown() {
    let n = 8;
    let quiet = gm_nic_barrier(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        n,
        Algorithm::Dissemination,
        cfg(),
    );
    let busy = under_traffic(nic(CollFeatures::paper()), n);
    let quiet_host = gm_host_barrier(GmParams::lanai_xp(), n, Algorithm::Dissemination, cfg());
    let busy_host = under_traffic(host(), n);
    let nic_slowdown = busy.mean_us / quiet.mean_us;
    let host_slowdown = busy_host.mean_us / quiet_host.mean_us;
    assert!(
        host_slowdown > nic_slowdown * 1.5,
        "host slowdown {host_slowdown:.2}x should dwarf NIC slowdown {nic_slowdown:.2}x"
    );
    assert!(
        nic_slowdown < 2.5,
        "group-queue bypass should keep NIC slowdown modest, got {nic_slowdown:.2}x"
    );
}

#[test]
fn direct_scheme_queues_behind_bulk_traffic() {
    let n = 8;
    let paper = under_traffic(nic(CollFeatures::paper()), n);
    let direct = under_traffic(nic(CollFeatures::direct()), n);
    assert!(
        direct.mean_us > paper.mean_us * 1.3,
        "direct ({:.2}) should queue visibly behind bulk vs paper ({:.2})",
        direct.mean_us,
        paper.mean_us
    );
}

#[test]
fn traffic_runs_are_deterministic() {
    let run = || under_traffic(nic(CollFeatures::paper()), 8).mean_us;
    assert_eq!(run(), run());
}
