//! Scenario builders. Every cluster a workload runs is built, drained and
//! harvested through the simulator's public constructors, with the three
//! phases timed apart so construction cost (`setup_s`) never hides inside
//! execution cost (`run_s`).
//!
//! The GM and Elan NIC-barrier clusters come straight from the
//! `nicbar_core` driver constructors. The host-based baseline, the Elanlib
//! tree barrier and the contend scenario have no build-only constructor, so
//! they are assembled here from the same public parts the driver uses; the
//! self-test checks that each assembly reproduces its driver function's
//! results exactly.

use nicbar_core::contend::{ElanContendApp, GmContendApp};
use nicbar_core::elan_apps::ElanGsyncApp;
use nicbar_core::elan_chain::{build_chains_multi, chain_done_cookie, GroupChain};
use nicbar_core::host_app::HostBarrierApp;
use nicbar_core::{
    build_elan_nic_cluster, build_gm_nic_cluster, elan_nic_stats, gm_nic_stats, Algorithm,
    GroupSpec, PaperCollective, RunCfg, TrafficCfg, CONTEND_GROUP_BASE,
};
use nicbar_elan::{ElanApp, ElanCluster, ElanClusterSpec, ElanParams, EventId, NicProgram};
use nicbar_gm::{CollFeatures, GmApp, GmCluster, GmClusterSpec, GmParams, GroupId, NicCollective};
use nicbar_net::{NodeId, Permutation};
use nicbar_sim::{FlightRecorder, Ledger, NetDump, RunOutcome, SimRng, SimTime, Trace};
use std::collections::HashSet;
use std::time::Instant;

/// The Elanlib tree barrier's fan-out (the paper's Fig. 7 comparator).
pub const GSYNC_DEGREE: usize = 4;
/// Collective groups in the contend scenario.
pub const CONTEND_GROUPS: usize = 4;
/// Bulk traffic in the contend scenario: 4 streams of 4 KiB per node.
pub const CONTEND_TRAFFIC: TrafficCfg = TrafficCfg {
    msg_bytes: 4096,
    outstanding: 4,
};

/// Trace-ring capacity of the contend scenario: the default 64 Ki ring
/// would evict most of a 256-node run, and the benchmark requires every
/// record store to keep everything.
pub const CONTEND_TRACE_RING: usize = 1 << 20;

/// One cluster configuration a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Paper NIC-based dissemination barrier over GM / LANai-XP.
    GmNic,
    /// Host-based dissemination baseline over GM / LANai-XP.
    GmHost,
    /// Paper NIC-based dissemination barrier (chained RDMA) over Elan3.
    ElanNic,
    /// Elanlib `elan_gsync` tree barrier (degree 4) over Elan3.
    ElanGsync,
    /// Overlapping groups plus bulk traffic over GM, every record store on.
    GmContend,
    /// Overlapping groups plus bulk traffic over Elan3, every record store on.
    ElanContend,
}

impl Kind {
    /// Stable label used in reports and the golden table.
    pub fn label(self) -> &'static str {
        match self {
            Kind::GmNic => "gm-nic-ds",
            Kind::GmHost => "gm-host-ds",
            Kind::ElanNic => "elan-nic-ds",
            Kind::ElanGsync => "elan-gsync4",
            Kind::GmContend => "gm-contend",
            Kind::ElanContend => "elan-contend",
        }
    }

    /// The contend scenario (either substrate)?
    pub fn contend(self) -> bool {
        matches!(self, Kind::GmContend | Kind::ElanContend)
    }
}

/// A cluster configuration: what to build, at which size, how long to run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Which cluster.
    pub kind: Kind,
    /// Nodes.
    pub n: usize,
    /// Epochs, seed, placement, engine.
    pub cfg: RunCfg,
    /// Arm every record store (trace ring, span recorder, netdump, ledger)
    /// before the first event. Host-based and gsync runs have none.
    pub observe: bool,
}

/// A built cluster of either substrate.
pub enum Cluster {
    /// GM / Myrinet.
    Gm(GmCluster),
    /// Elan / Quadrics.
    Elan(ElanCluster),
}

macro_rules! engine {
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
}

macro_rules! engine_mut {
    ($c:expr, $e:ident => $body:expr) => {
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

/// Record-store sizes of a finished run (all zero unless the scenario arms
/// them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stores {
    /// Trace-ring records retained and evicted.
    pub trace: (u64, u64),
    /// Completed span summaries retained and dropped.
    pub span: (u64, u64),
    /// Netdump packet records retained and dropped.
    pub causal: (u64, u64),
    /// Ledger records retained and dropped.
    pub ledger: (u64, u64),
}

impl Stores {
    fn of(trace: &Trace, rec: &FlightRecorder, dump: &NetDump, ledger: &Ledger) -> Self {
        Stores {
            trace: (trace.len() as u64, trace.dropped()),
            span: (rec.completed().len() as u64, rec.dropped()),
            causal: (dump.records().len() as u64, dump.dropped()),
            ledger: (ledger.records().len() as u64, ledger.dropped()),
        }
    }

    /// Accumulate another run's store sizes.
    pub fn add(&mut self, o: &Stores) {
        for (a, b) in [
            (&mut self.trace, o.trace),
            (&mut self.span, o.span),
            (&mut self.causal, o.causal),
            (&mut self.ledger, o.ledger),
        ] {
            *a = (a.0 + b.0, a.1 + b.1);
        }
    }

    /// Records kept across all four stores.
    pub fn records(&self) -> u64 {
        self.trace.0 + self.span.0 + self.causal.0 + self.ledger.0
    }

    /// Records lost across all four stores.
    pub fn dropped(&self) -> u64 {
        self.trace.1 + self.span.1 + self.causal.1 + self.ledger.1
    }
}

/// The simulated results of one run: everything the oracle compares. These
/// are outputs of the model, never host-time metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Outputs {
    /// Mean barrier latency over the measured window, µs (simulated).
    pub mean_us: f64,
    /// Events the engine delivered.
    pub events: u64,
    /// Wire packets per barrier.
    pub wire_per_barrier: f64,
    /// Final engine counters, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// Record-store sizes.
    pub stores: Stores,
}

impl Outputs {
    /// A named counter's value (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    }
}

/// Host time of one scenario run, split by phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Cluster construction.
    pub setup_s: f64,
    /// Inside `run_until` / `run_bounded` (or the timed `step` loop).
    pub engine_s: f64,
    /// Harvest of logs and counters plus the safety scan.
    pub harvest_s: f64,
}

impl Timing {
    /// Host time from the first event until results are checked.
    pub fn run_s(&self) -> f64 {
        self.engine_s + self.harvest_s
    }
}

/// Per-call host time of `step()`, in nanoseconds, plus the queue depth
/// high-water mark seen between steps.
#[derive(Default)]
pub struct StepTrace {
    /// One entry per delivered event.
    pub step_ns: Vec<u32>,
    /// Largest pending-event count seen.
    pub pending_hwm: usize,
}

/// Rank-to-node placement of `cfg`: the rule the driver constructors use.
pub fn members(cfg: &RunCfg, n: usize) -> Vec<NodeId> {
    if cfg.permute {
        let mut rng = SimRng::new(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        Permutation::random(n, n, &mut rng).nodes().to_vec()
    } else {
        (0..n).map(NodeId).collect()
    }
}

fn gm_spec(cfg: &RunCfg, n: usize) -> GmClusterSpec {
    GmClusterSpec::new(GmParams::lanai_xp(), n)
        .with_seed(cfg.seed)
        .with_drop_prob(cfg.drop_prob)
        .with_scheduler(cfg.scheduler)
        .with_engine(cfg.engine)
        .with_shards(cfg.shards)
        .with_partition(cfg.partition.clone())
}

fn elan_spec(cfg: &RunCfg, n: usize) -> ElanClusterSpec {
    ElanClusterSpec::new(ElanParams::elan3(), n)
        .with_seed(cfg.seed)
        .with_scheduler(cfg.scheduler)
        .with_engine(cfg.engine)
        .with_shards(cfg.shards)
        .with_partition(cfg.partition.clone())
}

fn contend_deadline(cfg: &RunCfg) -> SimTime {
    SimTime::from_us(cfg.total() as f64 * 50_000.0 + 1_000_000.0)
}

impl Scenario {
    /// Build the cluster (timed by the caller).
    pub fn build(&self) -> Cluster {
        let (n, cfg) = (self.n, &self.cfg);
        let algo = Algorithm::Dissemination;
        match self.kind {
            Kind::GmNic => {
                let params = GmParams::lanai_xp();
                let features = CollFeatures::paper();
                let mut c = build_gm_nic_cluster(params, features, n, algo, cfg, self.observe);
                if self.observe {
                    c.engine.enable_ledger();
                }
                Cluster::Gm(c)
            }
            Kind::ElanNic => {
                let mut c = build_elan_nic_cluster(ElanParams::elan3(), n, algo, cfg, self.observe);
                if self.observe {
                    c.engine.enable_ledger();
                }
                Cluster::Elan(c)
            }
            Kind::GmHost => {
                let members = members(cfg, n);
                let mut apps: Vec<Option<Box<dyn GmApp>>> = (0..n).map(|_| None).collect();
                for (rank, &node) in members.iter().enumerate() {
                    apps[node.0] = Some(Box::new(HostBarrierApp::new(
                        algo,
                        members.clone(),
                        rank,
                        cfg.total(),
                        cfg.skew_us,
                    )));
                }
                let apps = apps.into_iter().map(|a| a.expect("bijection")).collect();
                Cluster::Gm(GmCluster::build_p2p(gm_spec(cfg, n), apps))
            }
            Kind::ElanGsync => {
                let members = members(cfg, n);
                let mut apps: Vec<Option<Box<dyn ElanApp>>> = (0..n).map(|_| None).collect();
                for (rank, &node) in members.iter().enumerate() {
                    apps[node.0] = Some(Box::new(ElanGsyncApp::new(
                        rank,
                        members.clone(),
                        GSYNC_DEGREE,
                        cfg.total(),
                        cfg.skew_us,
                    )));
                }
                let apps = apps.into_iter().map(|a| a.expect("bijection")).collect();
                Cluster::Elan(ElanCluster::build(
                    elan_spec(cfg, n),
                    apps,
                    vec![NicProgram::default(); n],
                ))
            }
            Kind::GmContend => {
                let params = GmParams::lanai_xp();
                let timeout = params.coll_timeout;
                let spec = gm_spec(cfg, n).with_features(CollFeatures::paper());
                let shared: std::sync::Arc<[NodeId]> =
                    (0..n).map(NodeId).collect::<Vec<_>>().into();
                let gids: Vec<GroupId> = (0..CONTEND_GROUPS as u32)
                    .map(|g| GroupId(CONTEND_GROUP_BASE + g))
                    .collect();
                let mut apps: Vec<Box<dyn GmApp>> = Vec::with_capacity(n);
                let mut colls: Vec<Box<dyn NicCollective>> = Vec::with_capacity(n);
                for rank in 0..n {
                    apps.push(Box::new(GmContendApp::new(
                        gids.clone(),
                        rank,
                        n,
                        cfg.total(),
                        cfg.skew_us,
                        CONTEND_TRAFFIC,
                    )));
                    colls.push(Box::new(PaperCollective::new(
                        NodeId(rank),
                        gids.iter()
                            .map(|&g| GroupSpec::barrier(g, shared.clone(), rank, algo, timeout))
                            .collect(),
                    )));
                }
                let mut c = GmCluster::build(spec, apps, colls);
                if self.observe {
                    *c.engine.trace_mut() = Trace::with_capacity(CONTEND_TRACE_RING);
                    c.engine.enable_recorder();
                    c.engine.enable_netdump();
                    c.engine.enable_ledger();
                    c.engine
                        .recorder_mut()
                        .set_participants(u32::try_from(n).expect("participants fit u32"));
                }
                Cluster::Gm(c)
            }
            Kind::ElanContend => {
                let all: Vec<NodeId> = (0..n).map(NodeId).collect();
                let chains: Vec<GroupChain> = (0..CONTEND_GROUPS as u64)
                    .map(|g| GroupChain {
                        group: u64::from(CONTEND_GROUP_BASE) + g,
                        algo,
                        members: all.clone(),
                    })
                    .collect();
                let multi = build_chains_multi(n, &chains);
                let cookies: HashSet<u64> =
                    (0..CONTEND_GROUPS as u64).map(chain_done_cookie).collect();
                let apps: Vec<Box<dyn ElanApp>> = (0..n)
                    .map(|rank| {
                        let entries: Vec<(u64, EventId)> =
                            multi.entry[rank].iter().map(|(&g, &ev)| (g, ev)).collect();
                        Box::new(ElanContendApp::new(
                            entries,
                            cookies.clone(),
                            rank,
                            n,
                            cfg.total(),
                            cfg.skew_us,
                            CONTEND_TRAFFIC,
                        )) as Box<dyn ElanApp>
                    })
                    .collect();
                let mut c = ElanCluster::build(elan_spec(cfg, n), apps, multi.programs);
                if self.observe {
                    *c.engine.trace_mut() = Trace::with_capacity(CONTEND_TRACE_RING);
                    c.engine.enable_recorder();
                    c.engine.enable_netdump();
                    c.engine.enable_ledger();
                    c.engine
                        .recorder_mut()
                        .set_participants(u32::try_from(n).expect("participants fit u32"));
                }
                Cluster::Elan(c)
            }
        }
    }

    fn contend_done(&self, c: &Cluster) -> bool {
        let total = self.cfg.total();
        match c {
            Cluster::Gm(g) => (0..self.n).all(|i| g.app_ref::<GmContendApp>(i).done() >= total),
            Cluster::Elan(e) => (0..self.n).all(|i| e.app_ref::<ElanContendApp>(i).done() >= total),
        }
    }

    /// Run the built cluster to completion. With `steps`, every event is
    /// delivered through a timed `step()` call instead of `run_bounded`; the
    /// simulated outcome is the same either way.
    pub fn drain(&self, c: &mut Cluster, mut steps: Option<&mut StepTrace>) -> Result<(), String> {
        if self.kind.contend() {
            // The bulk streams never go idle: run in 1 ms windows until every
            // process has finished its epochs (the contend driver's loop).
            let deadline = contend_deadline(&self.cfg);
            while !self.contend_done(c) {
                let until = engine!(c, e => e.now()) + SimTime::from_us(1_000.0);
                let outcome = run_to(c, until, 50_000_000, steps.as_deref_mut());
                if outcome == RunOutcome::BudgetExhausted {
                    return Err("event budget exhausted in contend run".into());
                }
                if engine!(c, e => e.now()) >= deadline {
                    return Err(format!("contend epochs did not complete by {deadline}"));
                }
            }
            Ok(())
        } else {
            match run_to(c, self.cfg.deadline(), 2_000_000_000, steps) {
                RunOutcome::Idle => Ok(()),
                other => Err(format!("{} did not drain: {other:?}", self.kind.label())),
            }
        }
    }

    /// Harvest the completion logs, check barrier safety and return the
    /// simulated outputs.
    pub fn harvest(&self, c: &Cluster) -> Result<Outputs, String> {
        let (n, cfg) = (self.n, &self.cfg);
        let counters = counters(c);
        let wire = counters
            .iter()
            .find(|(k, _)| k == "wire.total" || k == "elan.wire")
            .map_or(0, |(_, v)| *v);
        let per_barrier = wire as f64 / cfg.total() as f64;
        let (mean_us, wire_per_barrier) = match (self.kind, c) {
            (Kind::GmNic, Cluster::Gm(g)) => {
                let s = catch(|| gm_nic_stats(g, n, cfg))?;
                (s.mean_us, s.wire_per_barrier)
            }
            (Kind::ElanNic, Cluster::Elan(e)) => {
                let s = catch(|| elan_nic_stats(e, n, cfg))?;
                (s.mean_us, s.wire_per_barrier)
            }
            (Kind::GmHost, Cluster::Gm(g)) => {
                let logs =
                    (0..n).map(|i| g.app_ref::<HostBarrierApp>(i).log.completions.as_slice());
                (self.mean_us(logs.collect())?, per_barrier)
            }
            (Kind::ElanGsync, Cluster::Elan(e)) => {
                let logs = (0..n).map(|i| e.app_ref::<ElanGsyncApp>(i).log.completions.as_slice());
                (self.mean_us(logs.collect())?, per_barrier)
            }
            (Kind::GmContend, Cluster::Gm(g)) => {
                let logs = (0..n).map(|i| g.app_ref::<GmContendApp>(i).log.completions.as_slice());
                (self.mean_us(logs.collect())?, per_barrier)
            }
            (Kind::ElanContend, Cluster::Elan(e)) => {
                let logs =
                    (0..n).map(|i| e.app_ref::<ElanContendApp>(i).log.completions.as_slice());
                (self.mean_us(logs.collect())?, per_barrier)
            }
            _ => return Err("scenario/cluster substrate mismatch".into()),
        };
        Ok(Outputs {
            mean_us,
            events: engine!(c, e => e.events_processed()),
            wire_per_barrier,
            counters,
            stores: engine!(c, e => Stores::of(e.trace(), e.recorder(), e.netdump(), e.ledger())),
        })
    }

    /// Mean barrier latency (µs) over the measured epochs of per-rank
    /// completion logs, checking that every rank finished every epoch and
    /// that no rank left epoch k before every rank had left epoch k−1.
    fn mean_us(&self, logs: Vec<&[SimTime]>) -> Result<f64, String> {
        let total = usize::try_from(self.cfg.total()).map_err(|e| e.to_string())?;
        let warmup = usize::try_from(self.cfg.warmup).map_err(|e| e.to_string())?;
        if warmup == 0 || warmup >= total {
            return Err("need at least one warm-up and one measured epoch".into());
        }
        for (i, log) in logs.iter().enumerate() {
            if log.len() != total {
                return Err(format!(
                    "rank {i} completed {} of {total} barriers",
                    log.len()
                ));
            }
        }
        let global: Vec<SimTime> = (0..total)
            .map(|k| logs.iter().map(|l| l[k]).max().unwrap_or(SimTime::ZERO))
            .collect();
        for k in 1..total {
            let min_exit = logs.iter().map(|l| l[k]).min().unwrap_or(SimTime::ZERO);
            if min_exit < global[k - 1] {
                return Err(format!("barrier safety violated at epoch {k}"));
            }
        }
        Ok((global[total - 1] - global[warmup - 1]).as_us() / self.cfg.iters as f64)
    }

    /// Build, drain and harvest once, timing each phase. Returns the
    /// drained cluster too, for analyses of its record stores.
    pub fn run(&self, steps: Option<&mut StepTrace>) -> Result<(Cluster, Outputs, Timing), String> {
        let t0 = Instant::now();
        let mut c = catch(|| self.build())?;
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        catch(|| self.drain(&mut c, steps))??;
        let engine_s = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let out = self.harvest(&c)?;
        let harvest_s = t2.elapsed().as_secs_f64();
        let timing = Timing {
            setup_s,
            engine_s,
            harvest_s,
        };
        Ok((c, out, timing))
    }
}

/// Run `c` up to `deadline` with an event budget, optionally one timed
/// `step()` per event. Mirrors `run_bounded` decision for decision.
fn run_to(
    c: &mut Cluster,
    deadline: SimTime,
    budget: u64,
    steps: Option<&mut StepTrace>,
) -> RunOutcome {
    let Some(tr) = steps else {
        return engine_mut!(c, e => e.run_bounded(deadline, budget));
    };
    engine_mut!(c, e => {
        let mut left = budget;
        loop {
            let Some(next) = e.next_event_time() else {
                return RunOutcome::Idle;
            };
            if next > deadline {
                return RunOutcome::DeadlineReached;
            }
            if left == 0 {
                return RunOutcome::BudgetExhausted;
            }
            left -= 1;
            tr.pending_hwm = tr.pending_hwm.max(e.pending_events());
            let t = Instant::now();
            e.step();
            let ns = t.elapsed().as_nanos();
            tr.step_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
    })
}

fn counters(c: &Cluster) -> Vec<(String, u64)> {
    engine!(c, e => e.counters().iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Run `f`, turning a simulator panic (a failed drain or safety assert)
/// into an error so it counts as a failed operation.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(panic_message)
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "panic".into())
}
