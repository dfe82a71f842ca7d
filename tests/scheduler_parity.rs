//! End-to-end scheduler parity: the paper's figure pipelines must produce
//! bit-identical simulated results on the timing wheel (the default), the
//! indexed 4-ary event queue, and the classic `BinaryHeap` baseline they
//! replaced. Only wall-clock time is allowed to differ between them.

use nicbar_core::{
    build_elan_nic_cluster, build_gm_nic_cluster, elan_nic_barrier, elan_nic_stats, gm_nic_barrier,
    gm_nic_stats, Algorithm, BarrierStats, RunCfg,
};
use nicbar_elan::ElanParams;
use nicbar_gm::{CollFeatures, GmParams};
use nicbar_sim::{RunOutcome, SchedulerKind};

fn cfg(kind: SchedulerKind) -> RunCfg {
    RunCfg {
        warmup: 5,
        iters: 50,
        scheduler: kind,
        ..RunCfg::default()
    }
}

fn assert_parity(a: &BarrierStats, b: &BarrierStats, what: &str) {
    assert_eq!(a.n, b.n, "{what}: node count");
    assert_eq!(a.mean_us, b.mean_us, "{what}: mean latency diverged");
    assert_eq!(
        a.per_iter_us, b.per_iter_us,
        "{what}: per-iteration latencies diverged"
    );
    assert_eq!(
        a.wire_per_barrier, b.wire_per_barrier,
        "{what}: wire traffic diverged"
    );
    assert_eq!(a.counters, b.counters, "{what}: counter reports diverged");
}

#[test]
fn fig5_gm_point_is_identical_across_schedulers() {
    let run = |kind| {
        gm_nic_barrier(
            GmParams::lanai_9_1(),
            CollFeatures::paper(),
            16,
            Algorithm::Dissemination,
            cfg(kind),
        )
    };
    let wheel = run(SchedulerKind::TimingWheel);
    let indexed = run(SchedulerKind::Indexed4);
    let classic = run(SchedulerKind::ClassicBinaryHeap);
    assert_parity(&wheel, &classic, "fig5 n=16 (wheel)");
    assert_parity(&indexed, &classic, "fig5 n=16 (indexed4)");
}

#[test]
fn fig7_elan_point_is_identical_across_schedulers() {
    let run = |kind| elan_nic_barrier(ElanParams::elan3(), 8, Algorithm::Dissemination, cfg(kind));
    let wheel = run(SchedulerKind::TimingWheel);
    let indexed = run(SchedulerKind::Indexed4);
    let classic = run(SchedulerKind::ClassicBinaryHeap);
    assert_parity(&wheel, &classic, "fig7 n=8 (wheel)");
    assert_parity(&indexed, &classic, "fig7 n=8 (indexed4)");
}

/// A permuted, non-power-of-two group is where the schedulers' fast paths
/// meet their edge cases: senders resolve through a shuffled rank → node
/// map, and thousands of same-nanosecond events with shuffled subkeys pile
/// into single wheel buckets, deeper than the wheel's bounded insert walk.
/// Both substrates must still give identical latencies, counters and event
/// counts on every scheduler.
#[test]
fn permuted_3000_node_nic_ds_is_identical_across_schedulers() {
    const N: usize = 3000;
    let cfg = |kind| RunCfg {
        warmup: 1,
        iters: 1,
        permute: true,
        scheduler: kind,
        ..RunCfg::default()
    };
    let gm = |kind| {
        let cfg = cfg(kind);
        let mut c = build_gm_nic_cluster(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            N,
            Algorithm::Dissemination,
            &cfg,
            false,
        );
        assert_eq!(c.run_until(cfg.deadline()), RunOutcome::Idle);
        (gm_nic_stats(&c, N, &cfg), c.engine.events_processed())
    };
    let elan = |kind| {
        let cfg = cfg(kind);
        let mut c = build_elan_nic_cluster(
            ElanParams::elan3(),
            N,
            Algorithm::Dissemination,
            &cfg,
            false,
        );
        assert_eq!(c.run_until(cfg.deadline()), RunOutcome::Idle);
        (elan_nic_stats(&c, N, &cfg), c.engine.events_processed())
    };
    let (gm_ref, gm_events) = gm(SchedulerKind::ClassicBinaryHeap);
    let (elan_ref, elan_events) = elan(SchedulerKind::ClassicBinaryHeap);
    for kind in [SchedulerKind::TimingWheel, SchedulerKind::Indexed4] {
        let (stats, events) = gm(kind);
        assert_parity(&stats, &gm_ref, &format!("gm n={N} permuted ({kind:?})"));
        assert_eq!(events, gm_events, "gm n={N}: event count ({kind:?})");
        let (stats, events) = elan(kind);
        assert_parity(
            &stats,
            &elan_ref,
            &format!("elan n={N} permuted ({kind:?})"),
        );
        assert_eq!(events, elan_events, "elan n={N}: event count ({kind:?})");
    }
}

/// The counter report surfaced through `BarrierStats` stays name-ordered —
/// interning must not leak first-touch order into user-visible output.
#[test]
fn barrier_stats_counters_are_name_ordered() {
    let stats = gm_nic_barrier(
        GmParams::lanai_9_1(),
        CollFeatures::paper(),
        8,
        Algorithm::Dissemination,
        cfg(SchedulerKind::default()),
    );
    let names: Vec<&str> = stats
        .counters
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "BarrierStats counters must be name-ordered");
    assert!(!names.is_empty(), "a barrier run must report counters");
}
