//! The benchmark driver's types — run configuration, statistics and the
//! flight capture — and the thin entry points kept over
//! [`Scenario`], which implements the paper's
//! methodology (warm-up iterations discarded, the average of the measured
//! iterations reported, optional random node permutation).

use crate::contend::{ElanContendApp, GmContendApp, TrafficCfg};
use crate::scenario::{harvest_logs, Barrier, Load, Scenario};
use crate::schedule::Algorithm;
use nicbar_elan::{ElanCluster, ElanParams};
use nicbar_gm::{CollFeatures, GmCluster, GmParams, GroupId};
use nicbar_net::{NodeId, Permutation};
use nicbar_sim::{
    EngineSel, Histogram, LedgerRecord, PacketRecord, PartitionSel, SchedulerKind, SimRng, SimTime,
    SpanSummary, TraceRecord,
};

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
    /// exceeds 10 ms even under loss or bulk traffic), so hitting it means
    /// a hang. Public for callers that drive a cluster built with
    /// [`build_gm_nic_cluster`] / [`build_elan_nic_cluster`] themselves.
    pub fn deadline(&self) -> SimTime {
        SimTime::from_us(self.total() as f64 * 10_000.0 + 1_000_000.0)
    }

    /// Rank-to-node placement of an `n`-rank group: rank `r` lives on
    /// node `members(n)[r]` (a seeded random permutation under `permute`).
    pub fn members(&self, n: usize) -> Vec<NodeId> {
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
    /// Aggregate statistics of the run (the same as `Scenario::run`).
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

/// Run the paper's NIC-based barrier over the GM/Myrinet substrate.
pub fn gm_nic_barrier(
    params: GmParams,
    features: CollFeatures,
    n: usize,
    algo: Algorithm,
    cfg: RunCfg,
) -> BarrierStats {
    Scenario::new(Barrier::GmNic { params, features }, n, algo, cfg).run()
}

/// Run the host-based barrier baseline over the GM/Myrinet substrate.
pub fn gm_host_barrier(params: GmParams, n: usize, algo: Algorithm, cfg: RunCfg) -> BarrierStats {
    Scenario::new(Barrier::GmHost { params }, n, algo, cfg).run()
}

/// Run the NIC-based barrier over the Quadrics substrate (chained RDMA).
pub fn elan_nic_barrier(
    params: ElanParams,
    n: usize,
    algo: Algorithm,
    cfg: RunCfg,
) -> BarrierStats {
    Scenario::new(Barrier::ElanNic { params }, n, algo, cfg).run()
}

/// Run the Elanlib tree barrier (`elan_gsync`, hardware broadcast off).
pub fn elan_gsync_barrier(
    params: ElanParams,
    n: usize,
    degree: usize,
    cfg: RunCfg,
) -> BarrierStats {
    let barrier = Barrier::ElanGsync { params, degree };
    Scenario::new(barrier, n, Algorithm::Dissemination, cfg).run()
}

/// Build a GM NIC-barrier cluster without running it; `observe` arms the
/// trace ring, the flight recorder and the netdump before any event runs.
/// Callers that need to separate construction cost from execution cost
/// (allocation accounting, throughput measurement) drive
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
    let s = Scenario::new(Barrier::GmNic { params, features }, n, algo, cfg.clone());
    let mut c = s.build();
    if observe {
        s.arm(&mut c);
    }
    c.into_gm()
}

/// Build a Quadrics NIC-barrier cluster (chained RDMA) without running it;
/// see [`build_gm_nic_cluster`] for `observe` and the split form; harvest
/// with [`elan_nic_stats`] after draining.
pub fn build_elan_nic_cluster(
    params: ElanParams,
    n: usize,
    algo: Algorithm,
    cfg: &RunCfg,
    observe: bool,
) -> ElanCluster {
    let s = Scenario::new(Barrier::ElanNic { params }, n, algo, cfg.clone());
    let mut c = s.build();
    if observe {
        s.arm(&mut c);
    }
    c.into_elan()
}

/// Harvest a drained [`build_gm_nic_cluster`] cluster into [`BarrierStats`].
pub fn gm_nic_stats(cluster: &GmCluster, n: usize, cfg: &RunCfg) -> BarrierStats {
    harvest_logs(n, cfg, cluster.engine.counters(), |node| {
        &cluster.app_ref::<GmContendApp>(node).log
    })
}

/// Harvest a drained [`build_elan_nic_cluster`] cluster into
/// [`BarrierStats`].
pub fn elan_nic_stats(cluster: &ElanCluster, n: usize, cfg: &RunCfg) -> BarrierStats {
    harvest_logs(n, cfg, cluster.engine.counters(), |node| {
        &cluster.app_ref::<ElanContendApp>(node).log
    })
}

/// Run the GM contend scenario ([`Load::Contend`]) with every record store
/// armed and return the capture. Keep `cfg.total()` small — every NIC
/// charge emits a ledger record.
pub fn gm_contend_flight(
    params: GmParams,
    features: CollFeatures,
    n: usize,
    groups: usize,
    algo: Algorithm,
    cfg: RunCfg,
    traffic: TrafficCfg,
) -> FlightData {
    Scenario::new(Barrier::GmNic { params, features }, n, algo, cfg)
        .with_load(Load::Contend { groups, traffic })
        .flight()
}

/// Run the Quadrics contend scenario (multi-group chained-RDMA programs
/// plus forwarding-ring tport traffic) with every record store armed.
pub fn elan_contend_flight(
    params: ElanParams,
    n: usize,
    groups: usize,
    algo: Algorithm,
    cfg: RunCfg,
    traffic: TrafficCfg,
) -> FlightData {
    Scenario::new(Barrier::ElanNic { params }, n, algo, cfg)
        .with_load(Load::Contend { groups, traffic })
        .flight()
}
