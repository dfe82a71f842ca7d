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

/// `barrier` on 8 nodes with `outstanding` bulk messages in flight per
/// process: 4 warm-up and 32 measured epochs, seed 42, no skew.
fn pinned_run(barrier: Barrier, outstanding: u32) -> BarrierStats {
    let cfg = RunCfg {
        warmup: 4,
        iters: 32,
        ..RunCfg::default()
    };
    let traffic = TrafficCfg {
        msg_bytes: 4096,
        outstanding,
    };
    Scenario::new(barrier, 8, Algorithm::Dissemination, cfg)
        .with_load(Load::UnderTraffic(traffic))
        .run()
}

#[test]
fn under_traffic_outputs_are_pinned() {
    // (mode, in flight, mean_us, wire_per_barrier), bit-exact. With nothing
    // in flight a loaded run equals the plain barrier.
    let cases = [
        ("paper", 0, 13.9, 24.0),
        ("paper", 4, 24.251375, 58.22222222222222),
        ("direct", 0, 22.43, 48.0),
        ("direct", 4, 43.18875, 102.22222222222223),
        ("host", 0, 35.454, 48.0),
        ("host", 4, 102.552, 196.22222222222223),
    ];
    for (mode, outstanding, mean_us, wire) in cases {
        let barrier = match mode {
            "paper" => nic(CollFeatures::paper()),
            "direct" => nic(CollFeatures::direct()),
            _ => host(),
        };
        let s = pinned_run(barrier, outstanding);
        assert_eq!(
            (s.mean_us, s.wire_per_barrier),
            (mean_us, wire),
            "{mode} with {outstanding} in flight"
        );
    }
}

#[test]
fn skew_slows_the_loaded_barriers() {
    // A compute phase of up to 20 µs between barriers must show in the
    // loaded NIC and host barriers, as it does in the plain ones.
    let run = |barrier: Barrier, skew_us: f64| {
        let cfg = RunCfg {
            warmup: 2,
            iters: 20,
            skew_us,
            ..RunCfg::default()
        };
        Scenario::new(barrier, 8, Algorithm::Dissemination, cfg)
            .with_load(Load::UnderTraffic(TrafficCfg::default()))
            .run()
            .mean_us
    };
    for (mode, barrier) in [("NIC", nic(CollFeatures::paper())), ("host", host())] {
        let tight = run(barrier.clone(), 0.0);
        let skewed = run(barrier, 20.0);
        assert!(
            skewed > tight,
            "{mode} under traffic: skew 20 µs reads {skewed} µs, skew 0 reads {tight} µs"
        );
    }
}
