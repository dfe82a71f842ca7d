//! The NIC-based barrier apps of both substrates, alone, under bulk traffic
//! or in overlapping groups.
//!
//! §6.1's motivation: "the arrived message may not immediately lead to the
//! transmission of the next message until the corresponding request gets
//! its turn in the relevant queues. This imposes unnecessary delays into
//! the barrier operations." That delay only exists when something *else*
//! occupies the queues, so a rank may keep a bulk stream of
//! `outstanding` large messages in flight to its ring neighbour while it
//! runs the barrier loop. With the paper's dedicated group queue the
//! barrier messages bypass the congested destination queues; under the
//! group-queue ablation (or with the host-based barrier, which takes the
//! same stream) they wait their round-robin turn behind the bulk tokens —
//! the interference experiment quantifies the difference.
//!
//! The contention scenario goes further: every node is a member of all M
//! collective groups and streams to its neighbour, so every contended NIC
//! resource (processor, DMA engine, token queues, event slots, rx ports)
//! is shared by collective, traffic, and fabric owners at once. The run
//! captures the resource-occupancy ledger, and `nicbar_bench`'s
//! critical-path analyzer attributes every wait edge to the specific owner
//! that held the resource — the per-barrier interference breakdown the
//! `contend` command reports.
//!
//! A plain barrier is one group with no stream:
//! [`Scenario`](crate::scenario::Scenario) builds these apps for `GmNic`
//! and `ElanNic` under every [`Load`](crate::scenario::Load) each accepts.

use crate::host_app::{BarrierLog, Reentry};
use nicbar_elan::{ElanApi, ElanApp, EventId, TportTag, BULK_TPORT_TAG};
use nicbar_gm::{GmApi, GmApp, GroupId, MsgId, MsgTag, BULK_TAG};
use nicbar_net::NodeId;
use std::collections::HashSet;
use std::sync::Arc;

/// Base collective group id: contend group `g` is `CONTEND_GROUP_BASE + g`
/// (distinct from the single-group benchmarks' `0xBA`).
pub const CONTEND_GROUP_BASE: u32 = 0xC0;

/// Background-traffic configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrafficCfg {
    /// Bytes per bulk message.
    pub msg_bytes: u32,
    /// Bulk messages kept in flight per process (0 = no stream).
    pub outstanding: u32,
}

impl TrafficCfg {
    /// No bulk stream: the paper's plain barrier loop.
    pub const NONE: TrafficCfg = TrafficCfg {
        msg_bytes: 0,
        outstanding: 0,
    };
}

impl Default for TrafficCfg {
    fn default() -> Self {
        TrafficCfg {
            msg_bytes: 4096,
            outstanding: 4,
        }
    }
}

/// One node's bulk stream to its ring neighbour (node `v` streams to node
/// `v + 1`, whatever the rank placement), kept `outstanding` messages deep
/// while the barrier loop runs. Boxed and optional in every app, so a
/// plain-barrier rank carries one null pointer.
pub(crate) struct BulkStream {
    traffic: TrafficCfg,
    peer: NodeId,
    /// GM sends in flight: exactly these are replenished on completion,
    /// keeping the pipeline depth constant.
    in_flight: HashSet<MsgId>,
}

impl BulkStream {
    /// The stream from node `node` of `n`, or `None` when `traffic` keeps
    /// nothing in flight.
    pub(crate) fn new(node: usize, n: usize, traffic: TrafficCfg) -> Option<Box<Self>> {
        (traffic.outstanding > 0).then(|| {
            Box::new(BulkStream {
                traffic,
                peer: NodeId((node + 1) % n),
                in_flight: HashSet::new(),
            })
        })
    }

    /// GM: post receive buffers for the stream on top of the defaults, then
    /// fill the pipeline.
    pub(crate) fn start_gm(&mut self, api: &mut GmApi<'_>) {
        api.post_recv(self.traffic.outstanding + 4);
        for _ in 0..self.traffic.outstanding {
            self.send_gm(api);
        }
    }

    fn send_gm(&mut self, api: &mut GmApi<'_>) {
        let id = api.send(self.peer, self.traffic.msg_bytes, BULK_TAG);
        self.in_flight.insert(id);
    }

    /// GM: a send completed; if it was a bulk message and the barrier loop
    /// is still `live`, send its replacement.
    pub(crate) fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId, live: bool) {
        if self.in_flight.remove(&msg_id) && live {
            self.send_gm(api);
        }
    }

    /// Elan: fill the pipeline of the forwarding ring (each delivered
    /// message triggers the next send, see [`Self::send_elan`]).
    pub(crate) fn start_elan(&self, api: &mut ElanApi<'_>) {
        for _ in 0..self.traffic.outstanding {
            self.send_elan(api);
        }
    }

    /// Elan: send one bulk message to the neighbour.
    pub(crate) fn send_elan(&self, api: &mut ElanApi<'_>) {
        api.tport_send(self.peer, BULK_TPORT_TAG, self.traffic.msg_bytes);
    }
}

/// GM NIC-barrier app: a member of every group in `groups`, entering all of
/// them each epoch (one doorbell per group), optionally with a bulk stream
/// to the ring neighbour.
pub struct GmContendApp {
    /// Shared by every rank of the scenario.
    groups: Arc<[GroupId]>,
    iters: u64,
    skew_us: f64,
    /// Groups still outstanding in the current epoch.
    pending: usize,
    bulk: Option<Box<BulkStream>>,
    /// Epoch completion times (an epoch completes when all groups have).
    pub log: BarrierLog,
}

impl GmContendApp {
    /// A member of `groups` on node `node` of `n`, running `iters` epochs
    /// and streaming `traffic` to node `node + 1` (mod `n`). Pass every
    /// rank a clone of one `Arc` to share the group list.
    pub fn new(
        groups: impl Into<Arc<[GroupId]>>,
        node: usize,
        n: usize,
        iters: u64,
        skew_us: f64,
        traffic: TrafficCfg,
    ) -> Self {
        GmContendApp {
            groups: groups.into(),
            iters,
            skew_us,
            pending: 0,
            bulk: BulkStream::new(node, n, traffic),
            log: BarrierLog::with_capacity(iters),
        }
    }

    /// Epochs completed (all groups done).
    pub fn done(&self) -> u64 {
        self.log.done()
    }

    fn enter(&mut self, api: &mut GmApi<'_>) {
        self.pending = self.groups.len();
        for &g in self.groups.iter() {
            api.collective(g, 0);
        }
    }
}

impl GmApp for GmContendApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        if let Some(bulk) = &mut self.bulk {
            bulk.start_gm(api);
        }
        self.enter(api);
    }

    fn on_recv(&mut self, _api: &mut GmApi<'_>, _src: NodeId, tag: MsgTag, _len: u32) {
        assert!(
            tag == BULK_TAG && self.bulk.is_some(),
            "NIC-barrier app got a point-to-point message it did not stream"
        );
    }

    fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId) {
        let live = self.done() < self.iters;
        if let Some(bulk) = &mut self.bulk {
            bulk.on_send_done(api, msg_id, live);
        }
    }

    fn on_coll_done(&mut self, api: &mut GmApi<'_>, group: GroupId, epoch: u64, _value: u64) {
        assert!(self.groups.contains(&group), "completion for foreign group");
        assert_eq!(epoch, self.done(), "completions out of order");
        self.pending -= 1;
        if self.pending > 0 {
            return;
        }
        match self
            .log
            .complete(api.now(), self.iters, self.skew_us, api.rng())
        {
            Reentry::Now => self.enter(api),
            Reentry::After(delay) => api.set_timer(delay),
            Reentry::Stop => {}
        }
    }

    fn on_timer(&mut self, api: &mut GmApi<'_>) {
        self.enter(api);
    }
}

/// Elan NIC-barrier app: sets every group's entry event each epoch,
/// optionally keeping a forwarding-ring tport stream alive (each delivered
/// bulk message triggers the next send, so the pipeline depth stays
/// constant until the barriers finish).
pub struct ElanContendApp {
    /// `(group id, entry event)` per group this node belongs to.
    entries: Arc<[(u64, EventId)]>,
    /// Expected completion cookies (one per group), shared by every rank.
    cookies: Arc<HashSet<u64>>,
    iters: u64,
    skew_us: f64,
    pending: usize,
    bulk: Option<Box<BulkStream>>,
    /// Epoch completion times.
    pub log: BarrierLog,
}

impl ElanContendApp {
    /// A member of the groups in `entries` on node `node` of `n`, running
    /// `iters` epochs and streaming `traffic` to node `node + 1` (mod `n`).
    pub fn new(
        entries: impl Into<Arc<[(u64, EventId)]>>,
        cookies: impl Into<Arc<HashSet<u64>>>,
        node: usize,
        n: usize,
        iters: u64,
        skew_us: f64,
        traffic: TrafficCfg,
    ) -> Self {
        ElanContendApp {
            entries: entries.into(),
            cookies: cookies.into(),
            iters,
            skew_us,
            pending: 0,
            bulk: BulkStream::new(node, n, traffic),
            log: BarrierLog::with_capacity(iters),
        }
    }

    /// Epochs completed (all groups done).
    pub fn done(&self) -> u64 {
        self.log.done()
    }

    fn enter(&mut self, api: &mut ElanApi<'_>) {
        self.pending = self.entries.len();
        for &(group, ev) in self.entries.iter() {
            api.set_nic_event_for_group(ev, group);
        }
    }
}

impl ElanApp for ElanContendApp {
    fn on_start(&mut self, api: &mut ElanApi<'_>) {
        if let Some(bulk) = &self.bulk {
            bulk.start_elan(api);
        }
        self.enter(api);
    }

    fn on_recv(&mut self, api: &mut ElanApi<'_>, _src: NodeId, tag: TportTag, _len: u32) {
        assert_eq!(
            tag, BULK_TPORT_TAG,
            "NIC-barrier app only expects bulk tports"
        );
        let bulk = self.bulk.as_ref().expect("bulk message without a stream");
        if self.log.done() < self.iters {
            bulk.send_elan(api);
        }
    }

    fn on_coll_done(&mut self, api: &mut ElanApi<'_>, cookie: u64) {
        assert!(
            self.cookies.contains(&cookie),
            "unexpected cookie {cookie:#x}"
        );
        self.pending -= 1;
        if self.pending > 0 {
            return;
        }
        match self
            .log
            .complete(api.now(), self.iters, self.skew_us, api.rng())
        {
            Reentry::Now => self.enter(api),
            Reentry::After(delay) => api.set_timer(delay),
            Reentry::Stop => {}
        }
    }

    fn on_timer(&mut self, api: &mut ElanApi<'_>) {
        self.enter(api);
    }
}

#[cfg(test)]
mod tests {
    use super::TrafficCfg;
    use crate::driver::{elan_contend_flight, gm_contend_flight, RunCfg};
    use crate::schedule::Algorithm;
    use nicbar_elan::ElanParams;
    use nicbar_gm::{CollFeatures, GmParams};
    use nicbar_sim::{LedgerOp, OwnerKind};

    fn quick_cfg() -> RunCfg {
        RunCfg {
            warmup: 2,
            iters: 6,
            skew_us: 1.0,
            ..RunCfg::default()
        }
    }

    #[test]
    fn gm_contend_captures_multi_owner_ledger() {
        let flight = gm_contend_flight(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            8,
            2,
            Algorithm::Dissemination,
            quick_cfg(),
            TrafficCfg::default(),
        );
        assert_eq!(flight.ledger_dropped, 0);
        assert!(!flight.ledger.is_empty());
        // Both contend groups and the traffic streams show up as owners.
        let has_group = |g: u64| {
            flight
                .ledger
                .iter()
                .any(|r| r.owner.kind == OwnerKind::Collective && r.owner.group == g)
        };
        assert!(has_group(0xC0));
        assert!(has_group(0xC1));
        assert!(flight
            .ledger
            .iter()
            .any(|r| r.owner.kind == OwnerKind::Traffic));
        // Serial resources produced both holds and waits under contention.
        assert!(flight.ledger.iter().any(|r| r.op == LedgerOp::Hold));
        assert!(flight.ledger.iter().any(|r| r.op == LedgerOp::Wait));
        // The barrier epochs really ran under traffic.
        assert!(flight.stats.mean_us > 0.0);
    }

    #[test]
    fn elan_contend_captures_multi_owner_ledger() {
        let flight = elan_contend_flight(
            ElanParams::elan3(),
            8,
            2,
            Algorithm::Dissemination,
            quick_cfg(),
            TrafficCfg::default(),
        );
        assert_eq!(flight.ledger_dropped, 0);
        assert!(!flight.ledger.is_empty());
        let has_group = |g: u64| {
            flight
                .ledger
                .iter()
                .any(|r| r.owner.kind == OwnerKind::Collective && r.owner.group == g)
        };
        assert!(has_group(0xC0));
        assert!(has_group(0xC1));
        assert!(flight
            .ledger
            .iter()
            .any(|r| r.owner.kind == OwnerKind::Traffic));
        assert!(flight.ledger.iter().any(|r| r.op == LedgerOp::Hold));
        assert!(flight.stats.mean_us > 0.0);
    }
}
