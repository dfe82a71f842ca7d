//! Barrier-under-traffic workloads.
//!
//! §6.1's motivation: "the arrived message may not immediately lead to the
//! transmission of the next message until the corresponding request gets
//! its turn in the relevant queues. This imposes unnecessary delays into
//! the barrier operations." That delay only exists when something *else*
//! occupies the queues — so this module adds a bulk-traffic generator to
//! the barrier benchmark: every process keeps `outstanding` large messages
//! in flight to its ring neighbour while running the barrier loop.
//!
//! With the paper's dedicated group queue the barrier messages bypass the
//! congested destination queues; under the group-queue ablation (or with
//! the host-based barrier) they wait their round-robin turn behind the
//! bulk tokens — the interference experiment quantifies the difference.

use crate::driver::{stats_from_logs, BarrierStats, RunCfg, BARRIER_GROUP};
use crate::host_app::{decode_tag, encode_tag, BarrierLog, HostScheduleRunner, BARRIER_MSG_BYTES};
use crate::protocol::{GroupSpec, PaperCollective};
use crate::schedule::{Algorithm, Schedule};
use nicbar_gm::{
    CollFeatures, GmApi, GmApp, GmCluster, GmClusterSpec, GmParams, GroupId, MsgId, MsgTag,
    NicCollective,
};
use nicbar_net::NodeId;
use nicbar_sim::{RunOutcome, SimTime};
use std::sync::Arc;

/// Tag marking bulk-traffic messages (distinct from barrier tags, whose
/// round field never reaches 0xFF). Lives in `nicbar-gm` so the NIC can
/// classify bulk streams as occupancy-ledger owners; re-exported here for
/// the existing benchmark API.
pub use nicbar_gm::BULK_TAG;

/// Background-traffic configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrafficCfg {
    /// Bytes per bulk message.
    pub msg_bytes: u32,
    /// Bulk messages kept in flight per process.
    pub outstanding: u32,
}

impl Default for TrafficCfg {
    fn default() -> Self {
        TrafficCfg {
            msg_bytes: 4096,
            outstanding: 4,
        }
    }
}

/// How the app synchronizes.
enum BarrierMode {
    /// NIC-based collective (doorbell + completion event).
    Nic,
    /// Host-based schedule over point-to-point messages.
    Host {
        runner: HostScheduleRunner,
        /// Rank → node, shared by every rank of the group.
        members: Arc<[NodeId]>,
    },
}

/// Benchmark app: consecutive barriers with a saturating bulk stream to the
/// next ring neighbour.
pub struct BarrierUnderTrafficApp {
    mode: BarrierMode,
    traffic: TrafficCfg,
    bulk_peer: NodeId,
    iters: u64,
    done: u64,
    /// Ids of in-flight bulk sends (to replenish exactly those on
    /// completion, keeping the pipeline depth constant).
    bulk_ids: std::collections::HashSet<MsgId>,
    /// Barrier completion times.
    pub log: BarrierLog,
    /// Bulk messages delivered to this process (sanity observability).
    pub bulk_received: u64,
}

impl BarrierUnderTrafficApp {
    /// NIC-based variant for `rank` on a ring of `n`.
    pub fn nic(rank: usize, n: usize, iters: u64, traffic: TrafficCfg) -> Self {
        BarrierUnderTrafficApp {
            mode: BarrierMode::Nic,
            traffic,
            bulk_peer: NodeId((rank + 1) % n),
            iters,
            done: 0,
            bulk_ids: Default::default(),
            log: BarrierLog::default(),
            bulk_received: 0,
        }
    }

    /// Host-based variant for `rank` of the group over `members` (rank
    /// order, shared by every rank).
    pub fn host(
        algo: Algorithm,
        members: Arc<[NodeId]>,
        rank: usize,
        iters: u64,
        traffic: TrafficCfg,
    ) -> Self {
        let n = members.len();
        BarrierUnderTrafficApp {
            mode: BarrierMode::Host {
                runner: HostScheduleRunner::new(Schedule::for_algorithm(algo, n, rank)),
                members,
            },
            traffic,
            bulk_peer: NodeId((rank + 1) % n),
            iters,
            done: 0,
            bulk_ids: Default::default(),
            log: BarrierLog::default(),
            bulk_received: 0,
        }
    }

    fn enter(&mut self, api: &mut GmApi<'_>) {
        match &mut self.mode {
            BarrierMode::Nic => api.collective(BARRIER_GROUP, 0),
            BarrierMode::Host { runner, .. } => {
                let (sends, done) = runner.begin();
                self.issue_host(api, sends, done);
            }
        }
    }

    fn issue_host(&mut self, api: &mut GmApi<'_>, sends: Vec<(usize, usize)>, done: bool) {
        let (epoch, members) = match &self.mode {
            BarrierMode::Host { runner, members } => (runner.current_epoch(), members.clone()),
            BarrierMode::Nic => unreachable!("host sends in NIC mode"),
        };
        for (dst_rank, round) in sends {
            api.send(
                members[dst_rank],
                BARRIER_MSG_BYTES,
                encode_tag(epoch, round),
            );
        }
        if done {
            self.complete(api);
        }
    }

    fn send_bulk(&mut self, api: &mut GmApi<'_>) {
        let id = api.send(self.bulk_peer, self.traffic.msg_bytes, BULK_TAG);
        self.bulk_ids.insert(id);
    }

    fn complete(&mut self, api: &mut GmApi<'_>) {
        self.done += 1;
        self.log.completions.push(api.now());
        if self.done < self.iters {
            self.enter(api);
        }
    }
}

impl GmApp for BarrierUnderTrafficApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        // Buffers for the bulk stream on top of the defaults.
        api.post_recv(self.traffic.outstanding + 4);
        for _ in 0..self.traffic.outstanding {
            self.send_bulk(api);
        }
        self.enter(api);
    }

    fn on_recv(&mut self, api: &mut GmApi<'_>, src: NodeId, tag: MsgTag, _len: u32) {
        if tag == BULK_TAG {
            self.bulk_received += 1;
            return;
        }
        let (epoch, round) = decode_tag(tag);
        let (sends, done) = match &mut self.mode {
            BarrierMode::Host { runner, members } => runner.on_msg(epoch, round, members, src),
            BarrierMode::Nic => panic!("NIC-mode app got a barrier p2p message"),
        };
        self.issue_host(api, sends, done);
    }

    fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId) {
        // Replenish exactly the bulk sends, keeping the pipeline depth at
        // `traffic.outstanding` for the whole run.
        if self.bulk_ids.remove(&msg_id) && self.done < self.iters {
            self.send_bulk(api);
        }
    }

    fn on_coll_done(&mut self, api: &mut GmApi<'_>, group: GroupId, _epoch: u64, _value: u64) {
        assert_eq!(group, BARRIER_GROUP);
        self.complete(api);
    }
}

/// Run the NIC-based barrier under bulk traffic.
pub fn gm_nic_barrier_under_traffic(
    params: GmParams,
    features: CollFeatures,
    n: usize,
    algo: Algorithm,
    cfg: RunCfg,
    traffic: TrafficCfg,
) -> BarrierStats {
    let mut cluster = nic_traffic_cluster(params, features, n, algo, &cfg, traffic);
    finish(&mut cluster, n, cfg)
}

/// Build the NIC-barrier-under-traffic cluster without running it.
fn nic_traffic_cluster(
    params: GmParams,
    features: CollFeatures,
    n: usize,
    algo: Algorithm,
    cfg: &RunCfg,
    traffic: TrafficCfg,
) -> GmCluster {
    let timeout = params.coll_timeout;
    let spec = GmClusterSpec::new(params, n)
        .with_seed(cfg.seed)
        .with_drop_prob(cfg.drop_prob)
        .with_features(features)
        .with_scheduler(cfg.scheduler)
        .with_engine(cfg.engine)
        .with_shards(cfg.shards);
    let members: Vec<NodeId> = (0..n).map(NodeId).collect();
    let mut apps: Vec<Box<dyn GmApp>> = Vec::new();
    let mut colls: Vec<Box<dyn NicCollective>> = Vec::new();
    for rank in 0..n {
        apps.push(Box::new(BarrierUnderTrafficApp::nic(
            rank,
            n,
            cfg.total(),
            traffic,
        )));
        colls.push(Box::new(PaperCollective::new(
            NodeId(rank),
            vec![GroupSpec::barrier(
                BARRIER_GROUP,
                members.clone(),
                rank,
                algo,
                timeout,
            )],
        )));
    }
    GmCluster::build(spec, apps, colls)
}

/// [`gm_nic_barrier_under_traffic`] with full observability (trace, spans,
/// netdump, occupancy ledger) — the flight-recorded capture the parity and
/// interference tests compare byte for byte across engines.
pub fn gm_nic_barrier_under_traffic_flight(
    params: GmParams,
    features: CollFeatures,
    n: usize,
    algo: Algorithm,
    cfg: RunCfg,
    traffic: TrafficCfg,
) -> crate::driver::FlightData {
    let mut cluster = nic_traffic_cluster(params, features, n, algo, &cfg, traffic);
    cluster.engine.enable_trace();
    cluster.engine.enable_recorder();
    cluster.engine.enable_netdump();
    cluster.engine.enable_ledger();
    cluster
        .engine
        .recorder_mut()
        .set_participants(u32::try_from(n).expect("participant count exceeds u32"));
    let stats = finish(&mut cluster, n, cfg);
    crate::driver::capture_observability("gm", &cluster.engine, stats)
}

/// Run the host-based barrier under bulk traffic.
pub fn gm_host_barrier_under_traffic(
    params: GmParams,
    n: usize,
    algo: Algorithm,
    cfg: RunCfg,
    traffic: TrafficCfg,
) -> BarrierStats {
    let spec = GmClusterSpec::new(params, n)
        .with_seed(cfg.seed)
        .with_drop_prob(cfg.drop_prob)
        .with_scheduler(cfg.scheduler)
        .with_engine(cfg.engine)
        .with_shards(cfg.shards);
    let members: Arc<[NodeId]> = (0..n).map(NodeId).collect();
    let apps: Vec<Box<dyn GmApp>> = (0..n)
        .map(|rank| {
            Box::new(BarrierUnderTrafficApp::host(
                algo,
                Arc::clone(&members),
                rank,
                cfg.total(),
                traffic,
            )) as Box<dyn GmApp>
        })
        .collect();
    let mut cluster = GmCluster::build_p2p(spec, apps);
    finish(&mut cluster, n, cfg)
}

fn finish(cluster: &mut GmCluster, n: usize, cfg: RunCfg) -> BarrierStats {
    // The bulk stream never terminates on its own: run until every app has
    // completed its barriers, then stop the clock.
    let deadline = SimTime::from_us(cfg.total() as f64 * 50_000.0 + 1_000_000.0);
    loop {
        let done = (0..n).all(|i| cluster.app_ref::<BarrierUnderTrafficApp>(i).done >= cfg.total());
        if done {
            break;
        }
        let outcome = cluster
            .engine
            .run_bounded(cluster.engine.now() + SimTime::from_us(1_000.0), 50_000_000);
        assert_ne!(
            outcome,
            RunOutcome::BudgetExhausted,
            "event budget exhausted in traffic run"
        );
        assert!(
            cluster.engine.now() < deadline,
            "barriers did not complete under traffic by {deadline}"
        );
    }
    let counters: Vec<(String, u64)> = cluster
        .engine
        .counters()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let logs: Vec<&[SimTime]> = (0..n)
        .map(|node| {
            cluster
                .app_ref::<BarrierUnderTrafficApp>(node)
                .log
                .completions
                .as_slice()
        })
        .collect();
    stats_from_logs(n, &cfg, logs, counters)
}
