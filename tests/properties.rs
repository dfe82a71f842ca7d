//! Property-based tests (proptest): barrier safety, liveness and engine
//! invariance over generated scenarios; schedule-generator invariants;
//! model-fit sanity.

mod common;

use common::{elan_nic, first_divergence, gm_nic, witness};
use nicbar::core::schedule::{disseminates, validate, Schedule};
use nicbar::core::{
    elan_nic_barrier, gm_host_barrier, gm_nic_barrier, schedules_for, Algorithm, Barrier,
    FlightData, Load, ReduceOp, RunCfg, Scenario, ThreadOp, TrafficCfg,
};
use nicbar::elan::ElanParams;
use nicbar::gm::{CollFeatures, GmParams};
use nicbar::sim::{EngineSel, PartitionSel, SchedulerKind};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn arb_algo() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::Dissemination),
        Just(Algorithm::PairwiseExchange),
        (2usize..5).prop_map(|degree| Algorithm::GatherBroadcast { degree }),
    ]
}

/// Every barrier × load pair `Scenario::build` accepts.
const KINDS: usize = 12;

/// The `kind`-th accepted barrier × load pair on `n` nodes.
fn barrier_and_load(kind: usize, n: usize, groups: usize, traffic: TrafficCfg) -> (Barrier, Load) {
    let gm_host = Barrier::GmHost {
        params: GmParams::lanai_xp(),
    };
    let elan3 = ElanParams::elan3();
    let thread = |op| Barrier::ElanThread {
        params: ElanParams::elan3(),
        op,
        contribution: |rank, epoch| 7 * rank as u64 + epoch,
    };
    // A Sum allreduce needs a power-of-two group; Max takes any size.
    let reduce = if n.is_power_of_two() {
        ReduceOp::Sum
    } else {
        ReduceOp::Max
    };
    let contend = Load::Contend { groups, traffic };
    match kind {
        0 => (gm_nic(), Load::Barrier),
        1 => (gm_nic(), Load::UnderTraffic(traffic)),
        2 => (gm_nic(), contend),
        3 => (gm_host.clone(), Load::Barrier),
        4 => (gm_host, Load::UnderTraffic(traffic)),
        5 => (elan_nic(), Load::Barrier),
        6 => (elan_nic(), contend),
        7 => (
            Barrier::ElanGsync {
                params: elan3,
                degree: 2 + n % 3,
            },
            Load::Barrier,
        ),
        8 => (Barrier::ElanHw { params: elan3 }, Load::Barrier),
        9 => (thread(ThreadOp::Barrier), Load::Barrier),
        10 => (thread(ThreadOp::Allreduce { op: reduce }), Load::Barrier),
        _ => (
            Barrier::GmNic {
                params: GmParams::lanai_xp(),
                features: CollFeatures::direct(),
            },
            Load::Barrier,
        ),
    }
}

/// A seeded scenario: any accepted barrier × load pair, N in 2..=24 (most
/// not powers of two), every algorithm and scheduler, random placement,
/// skew, loss on GM, 1–3 contend groups, a lumpy weighted partition, and
/// 2–4 shards for the parallel run — at most 6 epochs, so a case is cheap.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let shape = (0..KINDS, 2usize..25, arb_algo(), 1usize..4);
    let placement = (0u64..1000, any::<bool>(), 0usize..3, 2usize..5);
    let stress = (
        prop_oneof![Just(0.0), 1.0f64..30.0],
        prop_oneof![Just(0.0), Just(0.01), Just(0.05)],
        2u64..6,
        any::<bool>(),
    );
    (shape, placement, stress).prop_map(
        |(
            (kind, n, algo, groups),
            (seed, permute, sched, shards),
            (skew_us, drop, iters, lumpy),
        )| {
            let traffic = TrafficCfg {
                msg_bytes: 4096,
                outstanding: 1 + (seed % 2) as u32,
            };
            let (barrier, load) = barrier_and_load(kind, n, groups, traffic);
            let gm = matches!(barrier, Barrier::GmNic { .. } | Barrier::GmHost { .. });
            let partition = if lumpy {
                PartitionSel::Weighted {
                    weights: (0..n as u64).map(|j| 1 + (j % 5) * 7).collect(),
                    boundary_cost: (0..n as u64).map(|j| (j * 13) % 11).collect(),
                }
            } else {
                PartitionSel::Contiguous
            };
            let scheduler = [
                SchedulerKind::TimingWheel,
                SchedulerKind::Indexed4,
                SchedulerKind::ClassicBinaryHeap,
            ][sched];
            let cfg = RunCfg {
                warmup: 1,
                iters,
                seed,
                skew_us,
                drop_prob: if gm { drop } else { 0.0 },
                permute,
                scheduler,
                engine: EngineSel::Parallel,
                shards,
                partition,
            };
            Scenario::new(barrier, n, algo, cfg).with_load(load)
        },
    )
}

/// Build, drain and harvest `s` with every record store armed; a panic
/// (a hang, a lost rank, a barrier-safety violation) becomes a message.
fn try_flight(s: &Scenario) -> Result<FlightData, String> {
    catch_unwind(AssertUnwindSafe(|| s.flight())).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap_or_default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Every generated scenario completes every epoch on every rank and
    /// never releases a barrier early (`harvest` asserts both), and the
    /// parallel engine reproduces the sequential run byte for byte.
    #[test]
    fn generated_scenarios_are_safe_and_engine_invariant(s in arb_scenario()) {
        let par = try_flight(&s);
        prop_assert!(par.is_ok(), "parallel run of {:?} failed: {:?}", s, par.err());
        let seq_scenario = Scenario {
            cfg: RunCfg { engine: EngineSel::Sequential, shards: 1, ..s.cfg.clone() },
            ..s.clone()
        };
        let seq = try_flight(&seq_scenario);
        prop_assert!(seq.is_ok(), "sequential run of {:?} failed: {:?}", s, seq.err());
        let (seq, par) = (seq.unwrap(), par.unwrap());
        prop_assert!(seq.stats.mean_us > 0.0, "{:?}: zero latency", s);
        let (a, b) = (witness(&seq), witness(&par));
        prop_assert!(
            a == b,
            "{:?}: parallel run diverges from sequential at byte {}",
            s,
            first_divergence(&a, &b)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated schedule set is globally consistent and actually
    /// disseminates (barrier correctness condition).
    #[test]
    fn schedules_are_consistent_and_disseminate(
        n in 1usize..40,
        algo in arb_algo(),
    ) {
        let all = schedules_for(algo, n);
        prop_assert!(validate(&all).is_ok(), "{:?}", validate(&all));
        prop_assert!(disseminates(&all));
    }

    /// Dissemination round count is exactly ⌈log₂N⌉ and each round has one
    /// send and one receive.
    #[test]
    fn dissemination_shape(n in 2usize..64, rank in 0usize..64) {
        prop_assume!(rank < n);
        let s = Schedule::dissemination(n, rank);
        prop_assert_eq!(s.num_rounds(), nicbar::core::ceil_log2(n));
        for r in &s.rounds {
            prop_assert_eq!(r.sends.len(), 1);
            prop_assert_eq!(r.recv_from.len(), 1);
        }
    }

    /// Binomial broadcast from any root is consistent.
    #[test]
    fn broadcast_schedules_consistent(n in 1usize..32, root_seed in 0usize..32) {
        let root = root_seed % n;
        let all: Vec<Schedule> = (0..n)
            .map(|r| Schedule::binomial_broadcast(n, r, root))
            .collect();
        prop_assert!(validate(&all).is_ok());
    }
}

proptest! {
    // Full-cluster simulations are heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The GM NIC barrier completes (liveness) and never releases early
    /// (safety — asserted inside the driver) for arbitrary sizes, seeds,
    /// algorithms, skew, placement and mild loss.
    #[test]
    fn gm_nic_barrier_safe_and_live(
        n in 2usize..14,
        seed in 0u64..1000,
        algo in arb_algo(),
        skew_us in prop_oneof![Just(0.0), 1.0f64..30.0],
        drop in prop_oneof![Just(0.0), Just(0.01), Just(0.05)],
        permute in any::<bool>(),
    ) {
        let cfg = RunCfg {
            warmup: 3,
            iters: 15,
            seed,
            skew_us,
            drop_prob: drop,
            permute,
            ..RunCfg::default()
        };
        let s = gm_nic_barrier(GmParams::lanai_xp(), CollFeatures::paper(), n, algo, cfg);
        prop_assert!(s.mean_us > 0.0);
    }

    /// Same for the host-based baseline (exercises the p2p reliability
    /// machinery under loss).
    #[test]
    fn gm_host_barrier_safe_and_live(
        n in 2usize..10,
        seed in 0u64..1000,
        algo in arb_algo(),
        drop in prop_oneof![Just(0.0), Just(0.02)],
    ) {
        let cfg = RunCfg {
            warmup: 2,
            iters: 10,
            seed,
            drop_prob: drop,
            ..RunCfg::default()
        };
        let s = gm_host_barrier(GmParams::lanai_xp(), n, algo, cfg);
        prop_assert!(s.mean_us > 0.0);
    }

    /// The chained-RDMA Elan barrier is safe and live for arbitrary sizes,
    /// algorithms, skew and placement (the fabric is hardware-reliable).
    #[test]
    fn elan_nic_barrier_safe_and_live(
        n in 2usize..14,
        seed in 0u64..1000,
        algo in arb_algo(),
        skew_us in prop_oneof![Just(0.0), 1.0f64..30.0],
        permute in any::<bool>(),
    ) {
        let cfg = RunCfg {
            warmup: 3,
            iters: 15,
            seed,
            skew_us,
            drop_prob: 0.0,
            permute,
            ..RunCfg::default()
        };
        let s = elan_nic_barrier(ElanParams::elan3(), n, algo, cfg);
        prop_assert!(s.mean_us > 0.0);
    }

    /// NIC-based latency beats host-based for every configuration (the
    /// paper's central comparative claim, as an invariant).
    #[test]
    fn nic_beats_host_everywhere(
        n in 2usize..12,
        seed in 0u64..100,
        algo in prop_oneof![Just(Algorithm::Dissemination), Just(Algorithm::PairwiseExchange)],
    ) {
        let cfg = RunCfg { warmup: 5, iters: 50, seed, ..RunCfg::default() };
        let nic = gm_nic_barrier(GmParams::lanai_xp(), CollFeatures::paper(), n, algo, cfg.clone());
        let host = gm_host_barrier(GmParams::lanai_xp(), n, algo, cfg);
        prop_assert!(
            nic.mean_us < host.mean_us,
            "n={} {:?}: NIC {:.2} !< host {:.2}", n, algo, nic.mean_us, host.mean_us
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Model fitting: a latency series generated by any model is recovered
    /// exactly, and predictions are monotone in N.
    #[test]
    fn model_fit_roundtrip(
        t_init in 0.5f64..20.0,
        t_trig in 0.5f64..10.0,
    ) {
        let truth = nicbar::model::BarrierModel { t_init, t_trig, t_adj: 0.0 };
        let ns = [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
        let pts: Vec<(usize, f64)> = ns.iter().map(|&n| (n, truth.predict(n))).collect();
        let (fitted, q) = nicbar::model::fit(&pts);
        prop_assert!((fitted.t_trig - t_trig).abs() < 1e-6);
        prop_assert!((fitted.t_init - t_init).abs() < 1e-6);
        prop_assert!(q.rmse_us < 1e-6);
        for w in pts.windows(2) {
            prop_assert!(w[1].1 >= w[0].1, "model must be monotone in N");
        }
    }
}

mod collective_props {
    use super::*;
    use nicbar::core::{GroupOp, GroupSpec, PaperCollective, ReduceOp};
    use nicbar::gm::{GmApp, GmCluster, GmClusterSpec, GroupId, NicCollective};
    use nicbar::net::NodeId;
    use nicbar::sim::SimTime;

    const G: GroupId = GroupId(50);

    /// One-shot vector-collective app.
    struct VecApp {
        row: Vec<u64>,
        result: Option<u64>,
    }
    impl GmApp for VecApp {
        fn on_start(&mut self, api: &mut nicbar::gm::GmApi<'_>) {
            api.collective_vec(G, self.row.clone());
        }
        fn on_recv(
            &mut self,
            _api: &mut nicbar::gm::GmApi<'_>,
            _s: NodeId,
            _t: nicbar::gm::MsgTag,
            _l: u32,
        ) {
        }
        fn on_coll_done(&mut self, _api: &mut nicbar::gm::GmApi<'_>, _g: GroupId, _e: u64, v: u64) {
            self.result = Some(v);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Alltoall delivers exactly the transposed matrix for arbitrary
        /// sizes, values, seeds and mild loss.
        #[test]
        fn alltoall_transposes_exactly(
            n in 2usize..10,
            seed in 0u64..500,
            drop in prop_oneof![Just(0.0), Just(0.03)],
            base in 0u64..1_000_000,
        ) {
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let spec = GmClusterSpec::new(GmParams::lanai_xp(), n)
                .with_seed(seed)
                .with_drop_prob(drop);
            let mut apps: Vec<Box<dyn GmApp>> = Vec::new();
            let mut colls: Vec<Box<dyn NicCollective>> = Vec::new();
            for rank in 0..n {
                apps.push(Box::new(VecApp {
                    row: (0..n as u64).map(|j| base + 37 * rank as u64 + j).collect(),
                    result: None,
                }));
                colls.push(Box::new(PaperCollective::new(
                    NodeId(rank),
                    vec![GroupSpec {
                        id: G,
                        members: members.clone().into(),
                        my_rank: rank,
                        op: GroupOp::Alltoall,
                        algo: Algorithm::Dissemination,
                        timeout: SimTime::from_us(400.0),
                    }],
                )));
            }
            let mut cluster = GmCluster::build(spec, apps, colls);
            cluster.run_until(SimTime::from_us(60_000_000.0));
            for me in 0..n {
                let expect: u64 = (0..n as u64)
                    .map(|i| base + 37 * i + me as u64)
                    .fold(0, u64::wrapping_add);
                let got = cluster.app_ref::<VecApp>(me).result;
                prop_assert_eq!(got, Some(expect), "rank {}", me);
            }
        }

        /// Allreduce(Max) agrees with the host-side fold for arbitrary
        /// contributions — the NIC computes what a host loop would.
        #[test]
        fn allreduce_matches_reference_fold(
            contributions in prop::collection::vec(0u64..1_000_000, 2..12),
            seed in 0u64..500,
        ) {
            use nicbar::core::host_app::CollOpApp;
            let n = contributions.len();
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let spec = GmClusterSpec::new(GmParams::lanai_xp(), n).with_seed(seed);
            let mut apps: Vec<Box<dyn GmApp>> = Vec::new();
            let mut colls: Vec<Box<dyn NicCollective>> = Vec::new();
            for (rank, &contribution) in contributions.iter().enumerate() {
                apps.push(Box::new(CollOpApp::new(G, vec![contribution])));
                colls.push(Box::new(PaperCollective::new(
                    NodeId(rank),
                    vec![GroupSpec {
                        id: G,
                        members: members.clone().into(),
                        my_rank: rank,
                        op: GroupOp::Allreduce { op: ReduceOp::Max },
                        algo: Algorithm::Dissemination,
                        timeout: SimTime::from_us(400.0),
                    }],
                )));
            }
            let mut cluster = GmCluster::build(spec, apps, colls);
            cluster.run_until(SimTime::from_us(10_000_000.0));
            let expect = contributions.iter().copied().max().unwrap();
            for rank in 0..n {
                let got = cluster.app_ref::<CollOpApp>(rank).results[0].1;
                prop_assert_eq!(got, expect, "rank {}", rank);
            }
        }
    }
}
