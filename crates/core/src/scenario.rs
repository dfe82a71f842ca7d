//! One scenario value for every barrier benchmark (paper §8): which barrier
//! runs, on how many nodes, under which load. A [`Scenario`] is plain data;
//! [`Scenario::build`] turns it into a [`Cluster`], [`Scenario::drain`] runs
//! that cluster until every rank has finished its epochs, and
//! [`Scenario::harvest`] reduces the per-rank completion logs to
//! [`BarrierStats`], checking barrier safety on every run.
//!
//! Placement (`cfg.members`), engine, shards and partition are applied here
//! once, identically for every kind: rank `r` of every group lives on node
//! `cfg.members(n)[r]`. Bulk traffic is node-based — node `v` streams to
//! node `v + 1` — whatever the rank placement.

use crate::contend::{ElanContendApp, GmContendApp, TrafficCfg, CONTEND_GROUP_BASE};
use crate::driver::{BarrierStats, FlightData, RunCfg, BARRIER_GROUP};
use crate::elan_apps::{ElanGsyncApp, ElanHwBarrierApp};
use crate::elan_chain::{
    build_chains, build_chains_multi, chain_done_cookie, GroupChain, CHAIN_DONE_COOKIE, ENTRY_EVENT,
};
use crate::elan_thread::{ElanThreadApp, ThreadCollective, ThreadOp};
use crate::host_app::{BarrierLog, HostBarrierApp};
use crate::protocol::{GroupSpec, PaperCollective};
use crate::schedule::Algorithm;
use nicbar_elan::host::ELAN_SPAN_GROUP;
use nicbar_elan::{ElanApp, ElanCluster, ElanClusterSpec, ElanNic, ElanParams, EventId};
use nicbar_gm::{CollFeatures, GmApp, GmCluster, GmClusterSpec, GmParams, GroupId, NicCollective};
use nicbar_net::NodeId;
use nicbar_sim::{Counters, Records, RunOutcome, SimTime};
use std::collections::HashSet;
use std::sync::Arc;

/// Which barrier implementation runs, with its substrate parameters.
#[derive(Clone, Debug)]
pub enum Barrier {
    /// The paper's NIC-based barrier over GM/Myrinet.
    GmNic {
        /// Substrate timing parameters.
        params: GmParams,
        /// Collective-protocol feature toggles (ablation).
        features: CollFeatures,
    },
    /// The host-based barrier baseline over GM/Myrinet.
    GmHost {
        /// Substrate timing parameters.
        params: GmParams,
    },
    /// The NIC-based barrier over Quadrics (chained RDMA descriptors).
    ElanNic {
        /// Substrate timing parameters.
        params: ElanParams,
    },
    /// The Elanlib tree barrier (`elan_gsync`, hardware broadcast off).
    ElanGsync {
        /// Substrate timing parameters.
        params: ElanParams,
        /// Tree fan-out.
        degree: usize,
    },
    /// The hardware barrier (`elan_hgsync` fast path). Its apps do not
    /// depend on the rank, so placement has no effect, and the hardware
    /// unit forces the sequential engine.
    ElanHw {
        /// Substrate timing parameters.
        params: ElanParams,
    },
    /// A NIC-thread collective over Quadrics — the §7 alternative the
    /// paper rejected for the barrier, and the Moody-style allreduce. Read
    /// every rank's results off the drained cluster with
    /// [`crate::elan_thread::thread_results`].
    ElanThread {
        /// Substrate timing parameters.
        params: ElanParams,
        /// What the thread computes each epoch.
        op: ThreadOp,
        /// Rank `r`'s operand in epoch `e` (ignored by the barrier).
        contribution: fn(usize, u64) -> u64,
    },
}

/// What runs alongside the barrier. Whether a rank streams bulk traffic
/// comes from here alone: [`Load::traffic`].
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Nothing: consecutive barriers in the paper's tight loop.
    Barrier,
    /// Every node keeps a bulk stream to its ring neighbour in flight
    /// (`GmNic` and `GmHost`).
    UnderTraffic(TrafficCfg),
    /// `groups` overlapping barrier groups over every node, plus the bulk
    /// stream (`GmNic` and `ElanNic`).
    Contend {
        /// Collective groups; group `g` is `CONTEND_GROUP_BASE + g`.
        groups: usize,
        /// The bulk stream.
        traffic: TrafficCfg,
    },
}

impl Load {
    /// The bulk stream every node keeps in flight under this load
    /// ([`TrafficCfg::NONE`] for a plain barrier).
    pub fn traffic(&self) -> TrafficCfg {
        match *self {
            Load::Barrier => TrafficCfg::NONE,
            Load::UnderTraffic(traffic) | Load::Contend { traffic, .. } => traffic,
        }
    }
}

/// A barrier benchmark, as data.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Which barrier.
    pub barrier: Barrier,
    /// Nodes (and ranks).
    pub n: usize,
    /// Round schedule of the kinds that take one (`GmNic`, `GmHost`,
    /// `ElanNic`); the others run their own fixed algorithm.
    pub algo: Algorithm,
    /// Epochs, seed, loss, skew, placement, scheduler and engine.
    pub cfg: RunCfg,
    /// What runs alongside the barrier.
    pub load: Load,
}

/// A built cluster of either substrate.
pub enum Cluster {
    /// GM / Myrinet.
    Gm(GmCluster),
    /// Elan / Quadrics.
    Elan(ElanCluster),
}

/// Evaluate `$body` with `$e` bound to the cluster's engine, whichever the
/// substrate (the engines differ in their message type).
macro_rules! with_engine {
    ($c:expr, $e:ident => $body:expr) => {
        match $c {
            Cluster::Gm(g) => {
                let $e = &g.engine;
                $body
            }
            Cluster::Elan(x) => {
                let $e = &x.engine;
                $body
            }
        }
    };
    (mut $c:expr, $e:ident => $body:expr) => {
        match $c {
            Cluster::Gm(g) => {
                let $e = &mut g.engine;
                $body
            }
            Cluster::Elan(x) => {
                let $e = &mut x.engine;
                $body
            }
        }
    };
}

impl Cluster {
    /// Events the engine has delivered.
    pub fn events_processed(&self) -> u64 {
        with_engine!(self, e => e.events_processed())
    }

    /// The engine's record stores, to arm a subset before the run.
    pub fn records_mut(&mut self) -> &mut Records {
        with_engine!(mut self, e => e.records_mut())
    }

    /// Snapshot the four record stores around already-harvested `stats`.
    pub fn capture(&self, stats: BarrierStats) -> FlightData {
        let substrate = match self {
            Cluster::Gm(_) => "gm",
            Cluster::Elan(_) => "elan",
        };
        with_engine!(self, e => {
            let (trace, rec, dump, ledger) = (e.trace(), e.recorder(), e.netdump(), e.ledger());
            FlightData {
                substrate,
                engine: e.kind(),
                shards: e.shards(),
                stats,
                records: trace.iter().copied().collect(),
                trace_dropped: trace.dropped(),
                spans: rec.completed().to_vec(),
                spans_dropped: rec.dropped(),
                orphaned: rec.orphaned(),
                hists: rec
                    .hists()
                    .into_iter()
                    .map(|(k, h)| (k.to_string(), h.clone()))
                    .collect(),
                packets: dump.records().to_vec(),
                packets_dropped: dump.dropped(),
                ledger: ledger.records().to_vec(),
                ledger_dropped: ledger.dropped(),
            }
        })
    }

    pub(crate) fn into_gm(self) -> GmCluster {
        match self {
            Cluster::Gm(g) => g,
            Cluster::Elan(_) => unreachable!("a GM scenario builds a GM cluster"),
        }
    }

    pub(crate) fn into_elan(self) -> ElanCluster {
        match self {
            Cluster::Elan(e) => e,
            Cluster::Gm(_) => unreachable!("an Elan scenario builds an Elan cluster"),
        }
    }
}

/// One value per rank, stored at the rank's node: `make(rank, node)` for
/// every rank of `members`, returned indexed by node.
fn place<T>(members: &[NodeId], mut make: impl FnMut(usize, NodeId) -> T) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..members.len()).map(|_| None).collect();
    for (rank, &node) in members.iter().enumerate() {
        slots[node.0] = Some(make(rank, node));
    }
    slots
        .into_iter()
        .map(|s| s.expect("placement is a bijection"))
        .collect()
}

impl Scenario {
    /// `barrier` on `n` nodes with no load alongside.
    pub fn new(barrier: Barrier, n: usize, algo: Algorithm, cfg: RunCfg) -> Self {
        Scenario {
            barrier,
            n,
            algo,
            cfg,
            load: Load::Barrier,
        }
    }

    /// The same scenario with `load` alongside the barrier.
    pub fn with_load(self, load: Load) -> Self {
        Scenario { load, ..self }
    }

    fn gm_spec(&self, params: &GmParams) -> GmClusterSpec {
        let cfg = &self.cfg;
        GmClusterSpec::new(params.clone(), self.n)
            .with_seed(cfg.seed)
            .with_drop_prob(cfg.drop_prob)
            .with_scheduler(cfg.scheduler)
            .with_engine(cfg.engine)
            .with_shards(cfg.shards)
            .with_partition(cfg.partition.clone())
    }

    fn elan_spec(&self, params: &ElanParams) -> ElanClusterSpec {
        let cfg = &self.cfg;
        ElanClusterSpec::new(params.clone(), self.n)
            .with_seed(cfg.seed)
            .with_scheduler(cfg.scheduler)
            .with_engine(cfg.engine)
            .with_shards(cfg.shards)
            .with_partition(cfg.partition.clone())
    }

    /// Build the cluster without running it. Panics on a barrier/load pair
    /// no app implements (see [`Load`]).
    pub fn build(&self) -> Cluster {
        let (n, algo, total, skew) = (self.n, self.algo, self.cfg.total(), self.cfg.skew_us);
        // One shared membership list for every rank: at 65,536 nodes a
        // per-rank copy would be 34 GB.
        let members: Arc<[NodeId]> = self.cfg.members(n).into();
        let traffic = self.load.traffic();
        let groups = match self.load {
            Load::Contend { groups, .. } => {
                assert!(groups >= 1, "need at least one group");
                Some(groups)
            }
            _ => None,
        };
        match (&self.barrier, self.load) {
            (Barrier::GmNic { params, features }, _) => {
                let gids: Arc<[GroupId]> = match groups {
                    Some(groups) => (0..groups)
                        .map(|g| {
                            GroupId(CONTEND_GROUP_BASE + u32::try_from(g).expect("group count"))
                        })
                        .collect(),
                    None => Arc::new([BARRIER_GROUP]),
                };
                let apps = place(&members, |_, node| -> Box<dyn GmApp> {
                    let gids = Arc::clone(&gids);
                    Box::new(GmContendApp::new(gids, node.0, n, total, skew, traffic))
                });
                let timeout = params.coll_timeout;
                let colls = place(&members, |rank, node| -> Box<dyn NicCollective> {
                    let specs = gids
                        .iter()
                        .map(|&g| GroupSpec::barrier(g, Arc::clone(&members), rank, algo, timeout))
                        .collect();
                    Box::new(PaperCollective::new(node, specs))
                });
                let spec = self.gm_spec(params).with_features(*features);
                Cluster::Gm(GmCluster::build(spec, apps, colls))
            }
            (Barrier::GmHost { params }, Load::Barrier | Load::UnderTraffic(_)) => {
                let apps = place(&members, |rank, _| -> Box<dyn GmApp> {
                    let members = Arc::clone(&members);
                    Box::new(
                        HostBarrierApp::new(algo, members, rank, total, skew).with_traffic(traffic),
                    )
                });
                Cluster::Gm(GmCluster::build_p2p(self.gm_spec(params), apps))
            }
            (Barrier::ElanNic { params }, Load::Barrier | Load::Contend { .. }) => {
                // Per node: its NIC program and its `(group, entry event)`
                // list; plus the completion cookies every rank expects.
                type Entries = Arc<[(u64, EventId)]>;
                let (programs, entries, cookies): (_, Vec<Entries>, HashSet<u64>) = match groups {
                    None => {
                        let mut chains = build_chains(algo, &members);
                        let programs = place(&members, |rank, _| std::mem::take(&mut chains[rank]));
                        let entry: Entries = Arc::new([(ELAN_SPAN_GROUP, ENTRY_EVENT)]);
                        (programs, vec![entry; n], HashSet::from([CHAIN_DONE_COOKIE]))
                    }
                    Some(groups) => {
                        let chains: Vec<GroupChain> = (0..groups)
                            .map(|g| GroupChain {
                                group: u64::from(CONTEND_GROUP_BASE) + g as u64,
                                algo,
                                members: members.to_vec(),
                            })
                            .collect();
                        let multi = build_chains_multi(n, &chains);
                        let entries = multi
                            .entry
                            .iter()
                            .map(|e| e.iter().map(|(&g, &ev)| (g, ev)).collect())
                            .collect();
                        let cookies = (0..groups as u64).map(chain_done_cookie).collect();
                        (multi.programs, entries, cookies)
                    }
                };
                let cookies = Arc::new(cookies);
                let apps = place(&members, |_, node| -> Box<dyn ElanApp> {
                    let (entries, cookies) = (Arc::clone(&entries[node.0]), Arc::clone(&cookies));
                    Box::new(ElanContendApp::new(
                        entries, cookies, node.0, n, total, skew, traffic,
                    ))
                });
                Cluster::Elan(ElanCluster::build(self.elan_spec(params), apps, programs))
            }
            (Barrier::ElanGsync { params, degree }, Load::Barrier) => {
                let apps = place(&members, |rank, _| -> Box<dyn ElanApp> {
                    let members = Arc::clone(&members);
                    Box::new(ElanGsyncApp::new(rank, members, *degree, total, skew))
                });
                let programs = vec![Default::default(); n];
                Cluster::Elan(ElanCluster::build(self.elan_spec(params), apps, programs))
            }
            (Barrier::ElanHw { params }, Load::Barrier) => {
                let apps = place(&members, |_, _| -> Box<dyn ElanApp> {
                    Box::new(ElanHwBarrierApp::new(total, skew))
                });
                let spec = self.elan_spec(params).with_hw_barrier();
                Cluster::Elan(ElanCluster::build(spec, apps, vec![Default::default(); n]))
            }
            (
                Barrier::ElanThread {
                    params,
                    op,
                    contribution,
                },
                Load::Barrier,
            ) => {
                let apps = place(&members, |rank, _| -> Box<dyn ElanApp> {
                    let contribs = (0..total).map(|e| contribution(rank, e)).collect();
                    Box::new(ElanThreadApp::new(contribs, skew))
                });
                let programs = vec![Default::default(); n];
                let mut cluster = ElanCluster::build(self.elan_spec(params), apps, programs);
                // Install the thread handlers on each NIC (user-level thread
                // creation).
                for (rank, &node) in members.iter().enumerate() {
                    let thread = ThreadCollective::new(Arc::clone(&members), rank, *op);
                    cluster
                        .engine
                        .component_mut::<ElanNic>(cluster.nics[node.0])
                        .expect("nic component")
                        .install_thread(Box::new(thread));
                }
                Cluster::Elan(cluster)
            }
            (barrier, load) => panic!("no app runs {barrier:?} under {load:?}"),
        }
    }

    /// Arm the record stores [`Self::flight`] captures: the ledger only
    /// under bulk traffic, where every NIC charge has an owner to bill.
    pub(crate) fn arm(&self, c: &mut Cluster) {
        let records = c.records_mut();
        records.trace.enable();
        records.recorder.enable();
        records.netdump.enable();
        if !matches!(self.load, Load::Barrier) {
            records.ledger.enable();
        }
        let participants = u32::try_from(self.n).expect("participant count exceeds u32");
        records.recorder.set_participants(participants);
    }

    /// Run the built cluster until every rank has completed every epoch. A
    /// plain barrier run goes until the engine is idle; bulk streams never
    /// idle on their own, so loaded runs go in 1 ms windows until the
    /// completion logs are full. Panics on a hang ([`RunCfg::deadline`]) or
    /// a runaway event count.
    pub fn drain(&self, c: &mut Cluster) {
        let deadline = self.cfg.deadline();
        if let Load::Barrier = self.load {
            let outcome = with_engine!(mut c, e => e.run_bounded(deadline, 2_000_000_000));
            assert_eq!(outcome, RunOutcome::Idle, "barrier run did not drain");
            return;
        }
        let total = usize::try_from(self.cfg.total()).expect("iteration count exceeds usize");
        while !(0..self.n).all(|node| self.log(c, node).completions.len() >= total) {
            let outcome = with_engine!(mut c, e => {
                e.run_bounded(e.now() + SimTime::from_us(1_000.0), 50_000_000)
            });
            assert_ne!(
                outcome,
                RunOutcome::BudgetExhausted,
                "event budget exhausted in a loaded run"
            );
            let now = with_engine!(c, e => e.now());
            assert!(now < deadline, "barriers did not complete by {deadline}");
        }
    }

    /// Node `node`'s completion log, off whichever app the scenario built.
    fn log<'a>(&self, c: &'a Cluster, node: usize) -> &'a BarrierLog {
        match (c, &self.barrier) {
            (Cluster::Gm(g), Barrier::GmNic { .. }) => &g.app_ref::<GmContendApp>(node).log,
            (Cluster::Gm(g), Barrier::GmHost { .. }) => &g.app_ref::<HostBarrierApp>(node).log,
            (Cluster::Elan(e), Barrier::ElanNic { .. }) => &e.app_ref::<ElanContendApp>(node).log,
            (Cluster::Elan(e), Barrier::ElanGsync { .. }) => &e.app_ref::<ElanGsyncApp>(node).log,
            (Cluster::Elan(e), Barrier::ElanHw { .. }) => &e.app_ref::<ElanHwBarrierApp>(node).log,
            (Cluster::Elan(e), Barrier::ElanThread { .. }) => &e.app_ref::<ElanThreadApp>(node).log,
            _ => unreachable!("a scenario builds its barrier's substrate"),
        }
    }

    /// Reduce a drained cluster's completion logs and counters to
    /// [`BarrierStats`], asserting every rank finished every epoch and
    /// barrier safety held.
    pub fn harvest(&self, c: &Cluster) -> BarrierStats {
        with_engine!(c, e => harvest_logs(self.n, &self.cfg, e.counters(), |node| self.log(c, node)))
    }

    /// Build, drain and harvest.
    pub fn run(&self) -> BarrierStats {
        let mut c = self.build();
        self.drain(&mut c);
        self.harvest(&c)
    }

    /// [`Self::run`] with the trace ring, span recorder and netdump armed —
    /// plus the occupancy ledger when the load has bulk traffic — returning
    /// the full capture. Keep `cfg.total()` small (tens of barriers): the
    /// trace ring holds 64 Ki records and the recorder 4 Ki spans before
    /// they start dropping (drops are reported, not fatal).
    pub fn flight(&self) -> FlightData {
        let mut c = self.build();
        self.arm(&mut c);
        self.drain(&mut c);
        c.capture(self.harvest(&c))
    }
}

/// Reduce per-node completion logs to global per-iteration latencies. The
/// one harvest path: [`Scenario::harvest`] and the split-form driver
/// harvests (`gm_nic_stats`, `elan_nic_stats`) all come through here.
pub(crate) fn harvest_logs<'a>(
    n: usize,
    cfg: &RunCfg,
    counters: &Counters,
    log: impl Fn(usize) -> &'a BarrierLog,
) -> BarrierStats {
    let counters: Vec<(String, u64)> = counters.iter().map(|(k, v)| (k.to_string(), v)).collect();
    let logs: Vec<&[SimTime]> = (0..n)
        .map(|node| log(node).completions.as_slice())
        .collect();
    let total = usize::try_from(cfg.total()).expect("iteration count exceeds usize");
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(
            log.len(),
            total,
            "rank {i} completed {} of {total} barriers",
            log.len()
        );
    }
    // Barrier safety: no process may exit epoch k before every process has
    // exited k−1 (exit of k requires all entries to k, and entry to k
    // happens after own exit of k−1). Checked on every run.
    for k in 1..total {
        let min_exit_k = logs.iter().map(|l| l[k]).min().expect("n >= 1");
        let max_exit_prev = logs.iter().map(|l| l[k - 1]).max().expect("n >= 1");
        assert!(
            min_exit_k >= max_exit_prev,
            "barrier safety violated at epoch {k}: exit {min_exit_k} precedes previous epoch's last exit {max_exit_prev}"
        );
    }
    // Global completion of epoch k = the last process to finish it.
    let global: Vec<SimTime> = (0..total)
        .map(|k| logs.iter().map(|l| l[k]).max().expect("n >= 1"))
        .collect();
    assert!(cfg.warmup >= 1, "need at least one warm-up iteration");
    let w = usize::try_from(cfg.warmup).expect("warmup count exceeds usize");
    let per_iter_us: Vec<f64> = (w..total)
        .map(|k| (global[k] - global[k - 1]).as_us())
        .collect();
    let mean_us = (global[total - 1] - global[w - 1]).as_us() / cfg.iters as f64;
    let wire_total = counters
        .iter()
        .find(|(k, _)| k == "wire.total" || k == "elan.wire")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    BarrierStats {
        n,
        mean_us,
        per_iter_us,
        wire_per_barrier: wire_total as f64 / total as f64,
        counters,
    }
}
