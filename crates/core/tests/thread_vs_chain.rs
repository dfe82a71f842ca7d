//! The §7 design choice, measured: chained RDMA descriptors vs a NIC
//! thread for the barrier, and the thread-based allreduce that chains
//! cannot express.

use nicbar_core::{
    elan_nic_barrier, thread_results, Algorithm, Barrier, BarrierStats, Cluster, ReduceOp, RunCfg,
    Scenario, ThreadOp,
};
use nicbar_elan::ElanParams;

/// The §7 thread-processor barrier over Elan3.
fn thread_barrier(n: usize, cfg: RunCfg) -> BarrierStats {
    let barrier = Barrier::ElanThread {
        params: ElanParams::elan3(),
        op: ThreadOp::Barrier,
        contribution: |_, _| 0,
    };
    Scenario::new(barrier, n, Algorithm::Dissemination, cfg).run()
}

/// A thread-processor allreduce over Elan3 (Moody-style NIC reduction, the
/// paper's ref \[14\]): its stats plus every rank's per-epoch results.
fn allreduce(
    n: usize,
    cfg: RunCfg,
    op: ReduceOp,
    contribution: fn(usize, u64) -> u64,
) -> (BarrierStats, Vec<Vec<u64>>) {
    let barrier = Barrier::ElanThread {
        params: ElanParams::elan3(),
        op: ThreadOp::Allreduce { op },
        contribution,
    };
    let s = Scenario::new(barrier, n, Algorithm::Dissemination, cfg);
    let mut c = s.build();
    s.drain(&mut c);
    let stats = s.harvest(&c);
    let Cluster::Elan(e) = &mut c else {
        unreachable!("an Elan scenario builds an Elan cluster")
    };
    (stats, thread_results(e, &s.cfg.members(n)))
}

fn cfg() -> RunCfg {
    RunCfg {
        warmup: 20,
        iters: 300,
        ..RunCfg::default()
    }
}

#[test]
fn thread_barrier_completes_and_is_correct() {
    for n in [2usize, 3, 5, 8] {
        let s = thread_barrier(n, cfg());
        assert!(
            s.mean_us > 1.0 && s.mean_us < 25.0,
            "n={n}: {:.2}µs",
            s.mean_us
        );
    }
}

#[test]
fn chained_descriptors_beat_the_thread_barrier() {
    // "an extra thread does increase the processing load to the Elan NIC"
    // (§7) — the reason the paper chose chains. Quantified: the thread
    // barrier must be measurably slower at every size.
    for n in [2usize, 4, 8, 16] {
        let chain = elan_nic_barrier(ElanParams::elan3(), n, Algorithm::Dissemination, cfg());
        let thread = thread_barrier(n, cfg());
        assert!(
            thread.mean_us > chain.mean_us * 1.1,
            "n={n}: thread {:.2}µs should clearly exceed chain {:.2}µs",
            thread.mean_us,
            chain.mean_us
        );
        assert!(
            thread.mean_us < chain.mean_us * 2.0,
            "n={n}: thread {:.2}µs implausibly worse than chain {:.2}µs",
            thread.mean_us,
            chain.mean_us
        );
    }
}

#[test]
fn thread_allreduce_computes_sums() {
    let (stats, results) = allreduce(8, cfg(), ReduceOp::Sum, |rank, epoch| {
        (rank as u64 + 1) * (epoch + 1)
    });
    assert!(stats.mean_us > 1.0);
    let total = cfg().total();
    for (rank, r) in results.iter().enumerate() {
        assert_eq!(r.len() as u64, total, "rank {rank}");
        for (e, &v) in r.iter().enumerate() {
            assert_eq!(v, 36 * (e as u64 + 1), "rank {rank}, epoch {e}");
        }
    }
}

#[test]
fn thread_allreduce_max_any_size() {
    let (_, results) = allreduce(
        6,
        RunCfg {
            warmup: 2,
            iters: 20,
            ..RunCfg::default()
        },
        ReduceOp::Max,
        |rank, epoch| 100 * epoch + rank as u64,
    );
    for r in &results {
        for (e, &v) in r.iter().enumerate() {
            assert_eq!(v, 100 * e as u64 + 5);
        }
    }
}

#[test]
fn thread_allreduce_is_cheap_relative_to_host_round_trips() {
    // The point of ref \[14\]: NIC-side combining costs barely more than the
    // NIC barrier itself — far below what log₂N host round trips would.
    let barrier = thread_barrier(8, cfg());
    let (reduce, _) = allreduce(8, cfg(), ReduceOp::Sum, |rank, _| rank as u64);
    assert!(
        reduce.mean_us < barrier.mean_us * 1.3,
        "allreduce {:.2}µs should cost ≈ the thread barrier {:.2}µs",
        reduce.mean_us,
        barrier.mean_us
    );
}

#[test]
fn thread_runs_are_deterministic() {
    let a = thread_barrier(8, cfg());
    let b = thread_barrier(8, cfg());
    assert_eq!(a.mean_us, b.mean_us);
}

/// 4 warm-up and 32 measured epochs on 8 nodes, seed 42, no skew.
fn pin_cfg() -> RunCfg {
    RunCfg {
        warmup: 4,
        iters: 32,
        ..RunCfg::default()
    }
}

#[test]
fn elan_comparator_outputs_are_pinned() {
    // (mean_us, wire_per_barrier), bit-exact.
    let hw = Scenario::new(
        Barrier::ElanHw {
            params: ElanParams::elan3(),
        },
        8,
        Algorithm::Dissemination,
        pin_cfg(),
    )
    .run();
    assert_eq!(
        (hw.mean_us, hw.wire_per_barrier),
        (4.2, 0.0),
        "hardware barrier"
    );
    let barrier = thread_barrier(8, pin_cfg());
    assert_eq!(
        (barrier.mean_us, barrier.wire_per_barrier),
        (7.76, 24.0),
        "thread barrier"
    );
    let (reduce, _) = allreduce(8, pin_cfg(), ReduceOp::Sum, |rank, epoch| {
        (rank as u64 + 1) * (epoch + 1)
    });
    assert_eq!(
        (reduce.mean_us, reduce.wire_per_barrier),
        (7.76, 24.0),
        "thread allreduce"
    );
}

#[test]
fn skew_slows_the_thread_barrier() {
    let run = |skew_us: f64| {
        let cfg = RunCfg {
            warmup: 2,
            iters: 20,
            skew_us,
            ..RunCfg::default()
        };
        thread_barrier(8, cfg).mean_us
    };
    let (tight, skewed) = (run(0.0), run(20.0));
    assert!(
        skewed > tight,
        "skew 20 µs reads {skewed} µs, skew 0 reads {tight} µs"
    );
}
