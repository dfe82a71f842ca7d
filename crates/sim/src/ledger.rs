//! Resource-occupancy ledger: who held a contended resource, and when.
//!
//! The causal netdump ([`crate::causal`]) explains *which chain of events*
//! bounded an operation; it cannot explain *why an edge of that chain
//! waited*. This module adds the missing attribution half: every contended
//! resource — a NIC processor, a DMA engine, a per-destination send-token
//! queue, a receive-token pool, an Elan event/firing slot, a fabric rx
//! port — emits typed occupancy records stamped with an [`Owner`]
//! `(kind, group, seq, rank)`. A critical-path analyzer can then intersect
//! a barrier's wait intervals with the holds of *other* owners on the same
//! resource and name the interferer ("group 0xBB's broadcast held the send
//! token"), instead of reporting an anonymous queueing delay.
//!
//! Records live in a bounded [`Ledger`], one of the engine's
//! [`crate::Records`], disabled by default. While every store is off,
//! [`crate::Ctx::ledger`] is a single predictable branch, so the hot path
//! pays nothing (the allocation gate covers this).
//!
//! Ownership rules (enforced by the emitting backends, documented here and
//! in DESIGN.md "Observability IV"):
//!
//! * **Serial resources** ([`ResKind::NicCpu`], [`ResKind::DmaEngine`],
//!   [`ResKind::ElanEngine`], [`ResKind::LinkPort`]) emit a [`LedgerOp::Hold`]
//!   interval on *every* charge — even uncontended ones — and a
//!   [`LedgerOp::Wait`] interval whenever a charge found the resource busy.
//!   Because charges arrive in nondecreasing simulation time, the holds tile
//!   every busy period contiguously, so each wait interval is covered by
//!   previously emitted holds *by construction* — the analyzer's ≥95%
//!   attribution gate is not a heuristic.
//! * **Counting resources** ([`ResKind::SendQueue`], [`ResKind::PacketPool`],
//!   [`ResKind::RecvTokens`], [`ResKind::EventSlot`]) bracket occupancy with
//!   [`LedgerOp::Acquire`]/[`LedgerOp::Release`] records instead; `unit`
//!   identifies the queue/slot instance.

use crate::engine::ComponentId;
use crate::record::RecordLog;
use crate::time::SimTime;

/// Sentinel for [`LedgerRecord::unit`] when a resource has one instance.
pub const NO_UNIT: u64 = u64::MAX;

/// Which contended resource a [`LedgerRecord`] describes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ResKind {
    /// GM NIC (LANai) processor — serial; every protocol handler charges it.
    NicCpu,
    /// GM host↔NIC DMA engine — serial.
    DmaEngine,
    /// GM per-destination send-token queue — counting; `unit` = destination
    /// node.
    SendQueue,
    /// GM NIC send-packet buffer pool — counting.
    PacketPool,
    /// GM receive-token pool — counting.
    RecvTokens,
    /// Elan3 NIC microcode engine — serial; descriptor firing, event
    /// processing and tport handling all charge it.
    ElanEngine,
    /// Elan NIC event word — counting; `unit` = event index.
    EventSlot,
    /// Fabric destination rx port (the `port_wait` tag's resource) —
    /// serial; `unit` = destination node.
    LinkPort,
}

impl ResKind {
    /// Short stable name, used by exporters and the interference report.
    pub fn name(self) -> &'static str {
        match self {
            ResKind::NicCpu => "nic-cpu",
            ResKind::DmaEngine => "dma-engine",
            ResKind::SendQueue => "send-queue",
            ResKind::PacketPool => "packet-pool",
            ResKind::RecvTokens => "recv-tokens",
            ResKind::ElanEngine => "elan-engine",
            ResKind::EventSlot => "event-slot",
            ResKind::LinkPort => "link-port",
        }
    }
}

/// What class of actor occupied (or wanted) a resource.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum OwnerKind {
    /// A collective operation: `group`/`seq` key the barrier exactly as the
    /// flight recorder keys spans.
    Collective,
    /// A background bulk-traffic stream (first-class owner: the
    /// interference scenario's whole point).
    Traffic,
    /// An application point-to-point message that is neither collective nor
    /// bulk traffic.
    P2p,
    /// Fabric/protocol overhead with no single flow to bill (ACK
    /// generation, retransmit sweeps, loss recovery).
    Fabric,
}

/// Who occupied (or wanted) a resource: `(kind, group, seq, rank)`.
///
/// `group`/`seq` are only meaningful for [`OwnerKind::Collective`] (other
/// kinds carry [`crate::NO_KEY`]); `rank` is the acting node for every kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Owner {
    /// Actor class.
    pub kind: OwnerKind,
    /// Collective group key, or [`crate::NO_KEY`].
    pub group: u64,
    /// Collective sequence (epoch) key, or [`crate::NO_KEY`].
    pub seq: u64,
    /// Acting node.
    pub rank: u32,
}

impl Owner {
    /// A collective owner keyed like its flight-recorder span.
    pub fn coll(group: u64, seq: u64, rank: u32) -> Self {
        Owner {
            kind: OwnerKind::Collective,
            group,
            seq,
            rank,
        }
    }

    /// A background bulk-traffic stream owner.
    pub fn traffic(rank: u32) -> Self {
        Owner {
            kind: OwnerKind::Traffic,
            group: crate::causal::NO_KEY,
            seq: crate::causal::NO_KEY,
            rank,
        }
    }

    /// A plain point-to-point owner.
    pub fn p2p(rank: u32) -> Self {
        Owner {
            kind: OwnerKind::P2p,
            group: crate::causal::NO_KEY,
            seq: crate::causal::NO_KEY,
            rank,
        }
    }

    /// Fabric/protocol overhead acting at `rank`.
    pub fn fabric(rank: u32) -> Self {
        Owner {
            kind: OwnerKind::Fabric,
            group: crate::causal::NO_KEY,
            seq: crate::causal::NO_KEY,
            rank,
        }
    }

    /// The same owner at a different collective sequence (Elan descriptors
    /// are armed once but fire every epoch).
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Human-readable interferer name for reports ("group 0xbb barrier",
    /// "bulk traffic (rank 3)").
    pub fn label(&self) -> String {
        match self.kind {
            OwnerKind::Collective => {
                format!("group {:#x} collective (rank {})", self.group, self.rank)
            }
            OwnerKind::Traffic => format!("bulk traffic (rank {})", self.rank),
            OwnerKind::P2p => format!("p2p message (rank {})", self.rank),
            OwnerKind::Fabric => format!("fabric/protocol (rank {})", self.rank),
        }
    }
}

/// What a [`LedgerRecord`] asserts about its resource.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LedgerOp {
    /// Owner took one unit of a counting resource at `t0` (`t1 == t0`).
    Acquire,
    /// Owner returned one unit of a counting resource at `t0` (`t1 == t0`).
    Release,
    /// Owner occupied a serial resource for the interval `[t0, t1)`.
    Hold,
    /// Owner *wanted* the resource during `[t0, t1)` but it was busy.
    Wait,
}

/// One occupancy event: `owner` did `op` on `(res, unit)` at `component`
/// over `[t0, t1)`.
///
/// Deliberately `Copy` with no causal ids inside: the parallel engine can
/// replay shard-local ledgers into the merged stream without any id
/// remapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LedgerRecord {
    /// Interval start (or the instant, for acquire/release).
    pub t0: SimTime,
    /// Interval end (`== t0` for acquire/release).
    pub t1: SimTime,
    /// Which component recorded it.
    pub component: ComponentId,
    /// What happened.
    pub op: LedgerOp,
    /// Which resource.
    pub res: ResKind,
    /// The node the resource belongs to.
    pub node: u32,
    /// Resource instance (queue/slot index), or [`NO_UNIT`].
    pub unit: u64,
    /// Who did it.
    pub owner: Owner,
}

/// Builder-style argument bundle for [`crate::Ctx::ledger`]. Keeps emission
/// sites readable without an eight-argument call.
#[derive(Clone, Copy, Debug)]
pub struct Occ {
    /// Operation.
    pub op: LedgerOp,
    /// Resource kind.
    pub res: ResKind,
    /// Interval start.
    pub t0: SimTime,
    /// Interval end.
    pub t1: SimTime,
    /// Owning/acting node.
    pub node: u32,
    /// Resource instance, or [`NO_UNIT`].
    pub unit: u64,
    /// The actor.
    pub owner: Owner,
}

impl Occ {
    /// A serial-resource hold over `[t0, t1)`.
    pub fn hold(res: ResKind, t0: SimTime, t1: SimTime, node: u32, owner: Owner) -> Self {
        Occ {
            op: LedgerOp::Hold,
            res,
            t0,
            t1,
            node,
            unit: NO_UNIT,
            owner,
        }
    }

    /// A blocked interval `[t0, t1)` on a busy resource.
    pub fn wait(res: ResKind, t0: SimTime, t1: SimTime, node: u32, owner: Owner) -> Self {
        Occ {
            op: LedgerOp::Wait,
            res,
            t0,
            t1,
            node,
            unit: NO_UNIT,
            owner,
        }
    }

    /// A counting-resource acquisition at `t`.
    pub fn acquire(res: ResKind, t: SimTime, node: u32, owner: Owner) -> Self {
        Occ {
            op: LedgerOp::Acquire,
            res,
            t0: t,
            t1: t,
            node,
            unit: NO_UNIT,
            owner,
        }
    }

    /// A counting-resource release at `t`.
    pub fn release(res: ResKind, t: SimTime, node: u32, owner: Owner) -> Self {
        Occ {
            op: LedgerOp::Release,
            res,
            t0: t,
            t1: t,
            node,
            unit: NO_UNIT,
            owner,
        }
    }

    /// Attach the resource instance (queue index, slot number).
    pub fn unit(mut self, unit: u64) -> Self {
        self.unit = unit;
        self
    }

    /// The ledger record of this occupancy, emitted by `component`.
    pub(crate) fn by(self, component: ComponentId) -> LedgerRecord {
        LedgerRecord {
            t0: self.t0,
            t1: self.t1,
            component,
            op: self.op,
            res: self.res,
            node: self.node,
            unit: self.unit,
            owner: self.owner,
        }
    }
}

/// Bounded buffer of [`LedgerRecord`]s, one of the engine's
/// [`crate::Records`].
///
/// Disabled by default; [`Ledger::enable`] arms it. When the buffer fills,
/// further records are counted in [`Ledger::dropped`] but not stored (the
/// `contend --check` gate asserts zero drops). Keeping the first records
/// keeps attribution sound: every stored wait's covering holds were emitted
/// before it, so they are stored too.
pub struct Ledger {
    log: RecordLog<LedgerRecord>,
}

impl Ledger {
    /// Default record capacity. Occupancy records are denser than packet
    /// records (every charge emits a hold), so the bound matches the
    /// netdump's generous default.
    pub const DEFAULT_CAPACITY: usize = 1 << 21;

    /// A disabled ledger (records nothing, allocates nothing).
    pub fn disabled() -> Self {
        Ledger {
            log: RecordLog::first(Self::DEFAULT_CAPACITY),
        }
    }

    /// An armed ledger with a small capacity, for overflow tests.
    #[cfg(test)]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let mut log = RecordLog::first(capacity);
        log.enable();
        Ledger { log }
    }

    /// Arm the ledger.
    pub fn enable(&mut self) {
        self.log.enable();
    }

    /// Is the ledger recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.log.is_enabled()
    }

    /// Record one occupancy event (if armed).
    pub fn record(&mut self, record: LedgerRecord) {
        self.log.push(record);
    }

    /// The captured records, in emission order.
    pub fn records(&self) -> &[LedgerRecord] {
        self.log.as_slice()
    }

    /// Records lost to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.log.dropped()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget everything captured so far (between measurement phases).
    pub fn clear(&mut self) {
        self.log.clear();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code
mod tests {
    use super::*;

    #[test]
    fn res_kind_names_are_distinct() {
        let names = [
            ResKind::NicCpu,
            ResKind::DmaEngine,
            ResKind::SendQueue,
            ResKind::PacketPool,
            ResKind::RecvTokens,
            ResKind::ElanEngine,
            ResKind::EventSlot,
            ResKind::LinkPort,
        ]
        .map(ResKind::name);
        for (i, a) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(a), "{a} named twice");
        }
    }

    #[test]
    fn owner_constructors_and_labels() {
        let c = Owner::coll(0xBB, 7, 3);
        assert_eq!(c.kind, OwnerKind::Collective);
        assert_eq!((c.group, c.seq, c.rank), (0xBB, 7, 3));
        assert!(c.label().contains("0xbb"));
        assert_eq!(c.with_seq(9).seq, 9);
        let t = Owner::traffic(2);
        assert_eq!(t.group, crate::causal::NO_KEY);
        assert!(t.label().contains("traffic"));
        assert!(Owner::p2p(1).label().contains("p2p"));
        assert!(Owner::fabric(0).label().contains("fabric"));
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let mut l = Ledger::with_capacity(1);
        let rec = |t: u64| LedgerRecord {
            t0: SimTime::from_ns(t),
            t1: SimTime::from_ns(t + 5),
            component: ComponentId(0),
            op: LedgerOp::Hold,
            res: ResKind::NicCpu,
            node: 0,
            unit: NO_UNIT,
            owner: Owner::fabric(0),
        };
        l.record(rec(0));
        l.record(rec(10));
        assert_eq!(l.len(), 1);
        assert_eq!(l.dropped(), 1);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.dropped(), 0);
    }

    #[test]
    fn occ_builder_fills_every_field() {
        let o = Occ::hold(
            ResKind::LinkPort,
            SimTime::from_ns(3),
            SimTime::from_ns(9),
            4,
            Owner::traffic(1),
        )
        .unit(4);
        assert_eq!(o.op, LedgerOp::Hold);
        assert_eq!(o.unit, 4);
        let w = Occ::wait(
            ResKind::NicCpu,
            SimTime::from_ns(1),
            SimTime::from_ns(2),
            0,
            Owner::coll(1, 2, 0),
        );
        assert_eq!(w.op, LedgerOp::Wait);
        assert_eq!(w.unit, NO_UNIT);
        let a = Occ::acquire(ResKind::RecvTokens, SimTime::from_ns(5), 2, Owner::p2p(2));
        assert_eq!((a.op, a.t0), (LedgerOp::Acquire, a.t1));
        let r = Occ::release(ResKind::RecvTokens, SimTime::from_ns(6), 2, Owner::p2p(2));
        assert_eq!(r.op, LedgerOp::Release);
    }
}
