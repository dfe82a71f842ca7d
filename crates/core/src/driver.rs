//! The benchmark driver: builds a cluster, runs consecutive barriers with
//! the paper's methodology (warm-up iterations discarded, the average of
//! the measured iterations reported, optional random node permutation), and
//! returns structured statistics.

use crate::elan_apps::{ElanGsyncApp, ElanHwBarrierApp, ElanNicBarrierApp};
use crate::elan_chain::build_chains;
use crate::host_app::{HostBarrierApp, NicBarrierApp};
use crate::protocol::{GroupSpec, PaperCollective};
use crate::schedule::Algorithm;
use nicbar_elan::{ElanApp, ElanCluster, ElanClusterSpec, ElanParams, NicProgram};
use nicbar_gm::{CollFeatures, GmApp, GmCluster, GmClusterSpec, GmParams, GroupId, NicCollective};
use nicbar_net::{NodeId, Permutation};
use nicbar_sim::{
    EngineSel, ExecEngine, Histogram, LedgerRecord, PacketRecord, PartitionSel, RunOutcome,
    SchedulerKind, SimRng, SimTime, SpanSummary, TraceRecord,
};
use std::sync::Arc;

/// The collective group id used by the barrier benchmarks.
pub const BARRIER_GROUP: GroupId = GroupId(0xBA);

/// Common benchmark configuration (paper §8: 100 warm-up iterations, the
/// average of the following iterations as the latency, random node
/// permutations).
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Discarded warm-up iterations.
    pub warmup: u64,
    /// Measured iterations.
    pub iters: u64,
    /// Master seed.
    pub seed: u64,
    /// Uniform random per-process compute skew before each re-entry, µs
    /// (0 = the paper's tight loop).
    pub skew_us: f64,
    /// Fabric loss injection (GM only).
    pub drop_prob: f64,
    /// Place ranks on a random node permutation.
    pub permute: bool,
    /// Engine event-queue implementation (differential testing of the
    /// indexed scheduler against the classic binary heap).
    pub scheduler: SchedulerKind,
    /// Engine flavour ([`EngineSel::Auto`]: parallel iff `shards > 1`).
    pub engine: EngineSel,
    /// Worker shards for the parallel engine.
    pub shards: usize,
    /// Component-to-shard partition strategy for the parallel engine
    /// (profile-guided when the fig binaries get `--partition profile=..`).
    pub partition: PartitionSel,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg {
            warmup: 100,
            iters: 1000,
            seed: 42,
            skew_us: 0.0,
            drop_prob: 0.0,
            permute: false,
            scheduler: SchedulerKind::default(),
            engine: EngineSel::Auto,
            shards: 1,
            partition: PartitionSel::Contiguous,
        }
    }
}

impl RunCfg {
    /// Total epochs each process runs.
    pub fn total(&self) -> u64 {
        self.warmup + self.iters
    }

    /// Simulated-time budget for a run: generous (no realistic barrier
    /// exceeds 10 ms even under loss), so hitting it means a hang. Public
    /// for callers that drive a cluster built with
    /// [`build_gm_nic_cluster`] / [`build_elan_nic_cluster`] themselves.
    pub fn deadline(&self) -> SimTime {
        SimTime::from_us(self.total() as f64 * 10_000.0 + 1_000_000.0)
    }

    fn members(&self, n: usize) -> Vec<NodeId> {
        if self.permute {
            let mut rng = SimRng::new(self.seed ^ 0x9E3779B97F4A7C15);
            Permutation::random(n, n, &mut rng).nodes().to_vec()
        } else {
            (0..n).map(NodeId).collect()
        }
    }
}

/// Results of one barrier benchmark run.
#[derive(Clone, Debug)]
pub struct BarrierStats {
    /// Group size.
    pub n: usize,
    /// Mean barrier latency over the measured window, µs.
    pub mean_us: f64,
    /// Per-iteration global latencies in the measured window, µs.
    pub per_iter_us: Vec<f64>,
    /// Wire packets per barrier (all kinds), averaged over every epoch.
    pub wire_per_barrier: f64,
    /// Raw engine counters at the end of the run.
    pub counters: Vec<(String, u64)>,
}

impl BarrierStats {
    /// Largest single-iteration latency in the window, µs.
    pub fn max_us(&self) -> f64 {
        self.per_iter_us.iter().copied().fold(0.0, f64::max)
    }

    /// Smallest single-iteration latency in the window, µs.
    pub fn min_us(&self) -> f64 {
        self.per_iter_us
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// A named counter's final value.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// Reduce per-rank completion logs to global per-iteration latencies.
pub(crate) fn stats_from_logs(
    n: usize,
    cfg: &RunCfg,
    logs: Vec<&[SimTime]>,
    counters: Vec<(String, u64)>,
) -> BarrierStats {
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

/// Everything a flight-recorded run captures: the usual statistics plus the
/// raw trace, per-barrier span summaries, and the latency histograms. Every
/// drop/orphan counter rides along so exporters can qualify the capture.
#[derive(Clone, Debug)]
pub struct FlightData {
    /// Substrate label for exporters ("gm" or "elan").
    pub substrate: &'static str,
    /// Which execution engine produced the run ("sequential" or
    /// "parallel"). Results are byte-identical across engines, so the
    /// exporters stamp this to make cross-engine diffs self-describing.
    pub engine: &'static str,
    /// Worker shard count of the producing engine (1 when sequential).
    pub shards: usize,
    /// Aggregate statistics of the run (same as the untraced driver).
    pub stats: BarrierStats,
    /// Every trace record the ring retained, in emission order.
    pub records: Vec<TraceRecord>,
    /// Records the trace ring evicted (0 = complete capture).
    pub trace_dropped: u64,
    /// Per-barrier span summaries, in completion order.
    pub spans: Vec<SpanSummary>,
    /// Span summaries discarded once the recorder filled (histograms still
    /// observed them).
    pub spans_dropped: u64,
    /// Span events that arrived with no open span to own them.
    pub orphaned: u64,
    /// Latency histograms `(name, histogram)`, name-ordered.
    pub hists: Vec<(String, Histogram)>,
    /// Causal netdump: every wire-visible event with its parent id, in
    /// record order (id order). Feed to `nicbar_bench`'s critical-path
    /// analyzer.
    pub packets: Vec<PacketRecord>,
    /// Packet records the netdump discarded once full (0 = complete DAG).
    pub packets_dropped: u64,
    /// Resource-occupancy ledger records (empty unless the run enabled the
    /// ledger — the `contend` scenario does). Feed to the interference
    /// attribution in `nicbar_bench`'s critical-path analyzer.
    pub ledger: Vec<LedgerRecord>,
    /// Ledger records lost to the capacity bound (0 = complete ledger).
    pub ledger_dropped: u64,
}

impl FlightData {
    /// True when any part of the capture lost data.
    pub fn lossy(&self) -> bool {
        self.trace_dropped > 0
            || self.spans_dropped > 0
            || self.packets_dropped > 0
            || self.ledger_dropped > 0
    }
}

/// Snapshot the four observability stores off any engine into a
/// [`FlightData`] around already-harvested `stats`.
pub fn capture_observability<M: Send + 'static>(
    substrate: &'static str,
    engine: &ExecEngine<M>,
    stats: BarrierStats,
) -> FlightData {
    let trace = engine.trace();
    let rec = engine.recorder();
    let dump = engine.netdump();
    let ledger = engine.ledger();
    FlightData {
        substrate,
        engine: engine.kind(),
        shards: engine.shards(),
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
}

/// Build a GM NIC-barrier cluster without running it; `observe` turns on
/// the trace ring and the flight recorder before any event runs. Callers
/// that need to separate construction cost from execution cost (allocation
/// accounting, throughput measurement) drive
/// `cluster.run_until(cfg.deadline())` themselves and harvest results with
/// [`gm_nic_stats`].
pub fn build_gm_nic_cluster(
    params: GmParams,
    features: CollFeatures,
    n: usize,
    algo: Algorithm,
    cfg: &RunCfg,
    observe: bool,
) -> GmCluster {
    let timeout = params.coll_timeout;
    let spec = GmClusterSpec::new(params, n)
        .with_seed(cfg.seed)
        .with_drop_prob(cfg.drop_prob)
        .with_features(features)
        .with_scheduler(cfg.scheduler)
        .with_engine(cfg.engine)
        .with_shards(cfg.shards)
        .with_partition(cfg.partition.clone());
    let members = cfg.members(n);
    // One shared membership list for every rank's GroupSpec: at 65,536
    // nodes a per-rank copy would be 34 GB.
    let shared: Arc<[NodeId]> = members.as_slice().into();
    // apps/colls are indexed by *node*; rank r lives on members[r].
    let mut apps: Vec<Option<Box<dyn GmApp>>> = (0..n).map(|_| None).collect();
    let mut colls: Vec<Option<Box<dyn NicCollective>>> = (0..n).map(|_| None).collect();
    for (rank, &node) in members.iter().enumerate() {
        apps[node.0] = Some(Box::new(NicBarrierApp::new(
            BARRIER_GROUP,
            cfg.total(),
            cfg.skew_us,
        )));
        colls[node.0] = Some(Box::new(PaperCollective::new(
            node,
            vec![GroupSpec::barrier(
                BARRIER_GROUP,
                shared.clone(),
                rank,
                algo,
                timeout,
            )],
        )));
    }
    let apps: Vec<Box<dyn GmApp>> = apps.into_iter().map(|a| a.expect("bijection")).collect();
    let colls: Vec<Box<dyn NicCollective>> =
        colls.into_iter().map(|c| c.expect("bijection")).collect();
    let mut cluster = GmCluster::build(spec, apps, colls);
    if observe {
        cluster.engine.enable_trace();
        cluster.engine.enable_recorder();
        cluster.engine.enable_netdump();
        cluster
            .engine
            .recorder_mut()
            .set_participants(u32::try_from(n).expect("participant count exceeds u32"));
    }
    cluster
}

/// Build and drain a GM NIC-barrier cluster.
fn gm_nic_cluster(
    params: GmParams,
    features: CollFeatures,
    n: usize,
    algo: Algorithm,
    cfg: &RunCfg,
    observe: bool,
) -> GmCluster {
    let mut cluster = build_gm_nic_cluster(params, features, n, algo, cfg, observe);
    let outcome = cluster.run_until(cfg.deadline());
    assert_eq!(outcome, RunOutcome::Idle, "NIC barrier run did not drain");
    cluster
}

/// Harvest counters and completion logs of a drained GM NIC-barrier
/// cluster into [`BarrierStats`].
pub fn gm_nic_stats(cluster: &GmCluster, n: usize, cfg: &RunCfg) -> BarrierStats {
    let counters: Vec<(String, u64)> = cluster
        .engine
        .counters()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let logs: Vec<&[SimTime]> = (0..n)
        .map(|node| {
            cluster
                .app_ref::<NicBarrierApp>(node)
                .log
                .completions
                .as_slice()
        })
        .collect();
    stats_from_logs(n, cfg, logs, counters)
}

/// Run the paper's NIC-based barrier over the GM/Myrinet substrate.
pub fn gm_nic_barrier(
    params: GmParams,
    features: CollFeatures,
    n: usize,
    algo: Algorithm,
    cfg: RunCfg,
) -> BarrierStats {
    let cluster = gm_nic_cluster(params, features, n, algo, &cfg, false);
    gm_nic_stats(&cluster, n, &cfg)
}

/// Run the GM NIC barrier with the flight recorder on and return the full
/// capture. Keep `cfg.total()` small (tens of barriers): the trace ring
/// holds 64 Ki records and the recorder 4 Ki spans before they start
/// dropping (drops are reported, not fatal).
pub fn gm_nic_barrier_flight(
    params: GmParams,
    features: CollFeatures,
    n: usize,
    algo: Algorithm,
    cfg: RunCfg,
) -> FlightData {
    let cluster = gm_nic_cluster(params, features, n, algo, &cfg, true);
    let stats = gm_nic_stats(&cluster, n, &cfg);
    capture_observability("gm", &cluster.engine, stats)
}

/// Run the host-based barrier baseline over the GM/Myrinet substrate.
pub fn gm_host_barrier(params: GmParams, n: usize, algo: Algorithm, cfg: RunCfg) -> BarrierStats {
    let spec = GmClusterSpec::new(params, n)
        .with_seed(cfg.seed)
        .with_drop_prob(cfg.drop_prob)
        .with_scheduler(cfg.scheduler)
        .with_engine(cfg.engine)
        .with_shards(cfg.shards)
        .with_partition(cfg.partition.clone());
    let members: Arc<[NodeId]> = cfg.members(n).into();
    let mut apps: Vec<Option<Box<dyn GmApp>>> = (0..n).map(|_| None).collect();
    for (rank, &node) in members.iter().enumerate() {
        apps[node.0] = Some(Box::new(HostBarrierApp::new(
            algo,
            Arc::clone(&members),
            rank,
            cfg.total(),
            cfg.skew_us,
        )));
    }
    let apps: Vec<Box<dyn GmApp>> = apps.into_iter().map(|a| a.expect("bijection")).collect();
    let mut cluster = GmCluster::build_p2p(spec, apps);
    let outcome = cluster.run_until(cfg.deadline());
    assert_eq!(outcome, RunOutcome::Idle, "host barrier run did not drain");
    let counters: Vec<(String, u64)> = cluster
        .engine
        .counters()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let logs: Vec<&[SimTime]> = (0..n)
        .map(|node| {
            cluster
                .app_ref::<HostBarrierApp>(node)
                .log
                .completions
                .as_slice()
        })
        .collect();
    stats_from_logs(n, &cfg, logs, counters)
}

/// Build a Quadrics NIC-barrier cluster (chained RDMA) without running it;
/// `observe` turns on the trace ring and flight recorder up front. See
/// [`build_gm_nic_cluster`] for when to use the split form; harvest with
/// [`elan_nic_stats`] after draining.
pub fn build_elan_nic_cluster(
    params: ElanParams,
    n: usize,
    algo: Algorithm,
    cfg: &RunCfg,
    observe: bool,
) -> ElanCluster {
    let spec = ElanClusterSpec::new(params, n)
        .with_seed(cfg.seed)
        .with_scheduler(cfg.scheduler)
        .with_engine(cfg.engine)
        .with_shards(cfg.shards)
        .with_partition(cfg.partition.clone());
    let members = cfg.members(n);
    let chain_by_rank = build_chains(algo, &members);
    let mut apps: Vec<Option<Box<dyn ElanApp>>> = (0..n).map(|_| None).collect();
    let mut programs: Vec<NicProgram> = vec![NicProgram::default(); n];
    for (rank, &node) in members.iter().enumerate() {
        apps[node.0] = Some(Box::new(ElanNicBarrierApp::new(cfg.total(), cfg.skew_us)));
        programs[node.0] = chain_by_rank[rank].clone();
    }
    let apps: Vec<Box<dyn ElanApp>> = apps.into_iter().map(|a| a.expect("bijection")).collect();
    let mut cluster = ElanCluster::build(spec, apps, programs);
    if observe {
        cluster.engine.enable_trace();
        cluster.engine.enable_recorder();
        cluster.engine.enable_netdump();
        cluster
            .engine
            .recorder_mut()
            .set_participants(u32::try_from(n).expect("participant count exceeds u32"));
    }
    cluster
}

/// Build and drain a Quadrics NIC-barrier cluster.
fn elan_nic_cluster(
    params: ElanParams,
    n: usize,
    algo: Algorithm,
    cfg: &RunCfg,
    observe: bool,
) -> ElanCluster {
    let mut cluster = build_elan_nic_cluster(params, n, algo, cfg, observe);
    let outcome = cluster.run_until(cfg.deadline());
    assert_eq!(outcome, RunOutcome::Idle, "elan NIC barrier did not drain");
    cluster
}

/// Harvest counters and completion logs of a drained Quadrics NIC-barrier
/// cluster into [`BarrierStats`].
pub fn elan_nic_stats(cluster: &ElanCluster, n: usize, cfg: &RunCfg) -> BarrierStats {
    let counters: Vec<(String, u64)> = cluster
        .engine
        .counters()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let logs: Vec<&[SimTime]> = (0..n)
        .map(|node| {
            cluster
                .app_ref::<ElanNicBarrierApp>(node)
                .log
                .completions
                .as_slice()
        })
        .collect();
    stats_from_logs(n, cfg, logs, counters)
}

/// Run the NIC-based barrier over the Quadrics substrate (chained RDMA).
pub fn elan_nic_barrier(
    params: ElanParams,
    n: usize,
    algo: Algorithm,
    cfg: RunCfg,
) -> BarrierStats {
    let cluster = elan_nic_cluster(params, n, algo, &cfg, false);
    elan_nic_stats(&cluster, n, &cfg)
}

/// Run the Quadrics NIC barrier with the flight recorder on and return the
/// full capture. Same sizing advice as [`gm_nic_barrier_flight`].
pub fn elan_nic_barrier_flight(
    params: ElanParams,
    n: usize,
    algo: Algorithm,
    cfg: RunCfg,
) -> FlightData {
    let cluster = elan_nic_cluster(params, n, algo, &cfg, true);
    let stats = elan_nic_stats(&cluster, n, &cfg);
    capture_observability("elan", &cluster.engine, stats)
}

/// Run the Elanlib tree barrier (`elan_gsync`, hardware broadcast off).
pub fn elan_gsync_barrier(
    params: ElanParams,
    n: usize,
    degree: usize,
    cfg: RunCfg,
) -> BarrierStats {
    let spec = ElanClusterSpec::new(params, n)
        .with_seed(cfg.seed)
        .with_scheduler(cfg.scheduler)
        .with_engine(cfg.engine)
        .with_shards(cfg.shards)
        .with_partition(cfg.partition.clone());
    let members = cfg.members(n);
    let mut apps: Vec<Option<Box<dyn ElanApp>>> = (0..n).map(|_| None).collect();
    for (rank, &node) in members.iter().enumerate() {
        apps[node.0] = Some(Box::new(ElanGsyncApp::new(
            rank,
            members.clone(),
            degree,
            cfg.total(),
            cfg.skew_us,
        )));
    }
    let apps: Vec<Box<dyn ElanApp>> = apps.into_iter().map(|a| a.expect("bijection")).collect();
    let mut cluster = ElanCluster::build(spec, apps, vec![NicProgram::default(); n]);
    let outcome = cluster.run_until(cfg.deadline());
    assert_eq!(outcome, RunOutcome::Idle, "gsync run did not drain");
    let counters: Vec<(String, u64)> = cluster
        .engine
        .counters()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let logs: Vec<&[SimTime]> = (0..n)
        .map(|node| {
            cluster
                .app_ref::<ElanGsyncApp>(node)
                .log
                .completions
                .as_slice()
        })
        .collect();
    stats_from_logs(n, &cfg, logs, counters)
}

/// Run the hardware barrier (`elan_hgsync` fast path). Requires the
/// identity placement (hardware broadcast needs contiguous nodes — the
/// paper's stated limitation), so `cfg.permute` is ignored.
pub fn elan_hw_barrier(params: ElanParams, n: usize, cfg: RunCfg) -> BarrierStats {
    let spec = ElanClusterSpec::new(params, n)
        .with_seed(cfg.seed)
        .with_hw_barrier()
        .with_scheduler(cfg.scheduler);
    let apps: Vec<Box<dyn ElanApp>> = (0..n)
        .map(|_| Box::new(ElanHwBarrierApp::new(cfg.total(), cfg.skew_us)) as Box<dyn ElanApp>)
        .collect();
    let mut cluster = ElanCluster::build(spec, apps, vec![NicProgram::default(); n]);
    let outcome = cluster.run_until(cfg.deadline());
    assert_eq!(outcome, RunOutcome::Idle, "hw barrier run did not drain");
    let counters: Vec<(String, u64)> = cluster
        .engine
        .counters()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let logs: Vec<&[SimTime]> = (0..n)
        .map(|node| {
            cluster
                .app_ref::<ElanHwBarrierApp>(node)
                .log
                .completions
                .as_slice()
        })
        .collect();
    stats_from_logs(n, &cfg, logs, counters)
}

/// Run the *thread-processor* barrier over Quadrics — the §7 alternative
/// the paper rejected ("an extra thread does increase the processing
/// load"). Compare with [`elan_nic_barrier`] to quantify that choice.
pub fn elan_thread_barrier(params: ElanParams, n: usize, cfg: RunCfg) -> BarrierStats {
    elan_thread_collective(
        params,
        n,
        cfg,
        crate::elan_thread::ThreadOp::Barrier,
        |_, _| 0,
    )
    .0
}

/// Run a thread-processor allreduce (Moody-style NIC reduction, the
/// paper's ref \[14\]); returns stats plus every rank's per-epoch results.
pub fn elan_thread_allreduce(
    params: ElanParams,
    n: usize,
    cfg: RunCfg,
    op: crate::protocol::ReduceOp,
    contribution: impl Fn(usize, u64) -> u64,
) -> (BarrierStats, Vec<Vec<u64>>) {
    elan_thread_collective(
        params,
        n,
        cfg,
        crate::elan_thread::ThreadOp::Allreduce { op },
        contribution,
    )
}

fn elan_thread_collective(
    params: ElanParams,
    n: usize,
    cfg: RunCfg,
    op: crate::elan_thread::ThreadOp,
    contribution: impl Fn(usize, u64) -> u64,
) -> (BarrierStats, Vec<Vec<u64>>) {
    use crate::elan_thread::{ElanThreadApp, ThreadCollective};
    use nicbar_elan::ElanNic;

    let spec = ElanClusterSpec::new(params, n)
        .with_seed(cfg.seed)
        .with_scheduler(cfg.scheduler)
        .with_engine(cfg.engine)
        .with_shards(cfg.shards)
        .with_partition(cfg.partition.clone());
    let members = cfg.members(n);
    let mut apps: Vec<Option<Box<dyn ElanApp>>> = (0..n).map(|_| None).collect();
    for (rank, &node) in members.iter().enumerate() {
        let contribs: Vec<u64> = (0..cfg.total()).map(|e| contribution(rank, e)).collect();
        apps[node.0] = Some(Box::new(ElanThreadApp::new(contribs)));
    }
    let apps: Vec<Box<dyn ElanApp>> = apps.into_iter().map(|a| a.expect("bijection")).collect();
    let mut cluster = ElanCluster::build(spec, apps, vec![NicProgram::default(); n]);
    // Install the thread handlers on each NIC (user-level thread creation).
    for (rank, &node) in members.iter().enumerate() {
        let nic_id = cluster.nics[node.0];
        cluster
            .engine
            .component_mut::<ElanNic>(nic_id)
            .expect("nic component")
            .install_thread(Box::new(ThreadCollective::new(members.clone(), rank, op)));
    }
    let outcome = cluster.run_until(cfg.deadline());
    assert_eq!(outcome, RunOutcome::Idle, "thread collective did not drain");
    let counters: Vec<(String, u64)> = cluster
        .engine
        .counters()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let logs: Vec<&[SimTime]> = (0..n)
        .map(|node| {
            cluster
                .app_ref::<ElanThreadApp>(node)
                .log
                .completions
                .as_slice()
        })
        .collect();
    let stats = stats_from_logs(n, &cfg, logs, counters);
    // Harvest per-rank results from the NIC threads, in rank order.
    let results: Vec<Vec<u64>> = members
        .iter()
        .map(|&node| {
            let nic_id = cluster.nics[node.0];
            let nic = cluster
                .engine
                .component_mut::<ElanNic>(nic_id)
                .expect("nic component");
            nic.thread_mut()
                .as_any_mut()
                .downcast_mut::<ThreadCollective>()
                .expect("thread type")
                .results()
                .to_vec()
        })
        .collect();
    (stats, results)
}
