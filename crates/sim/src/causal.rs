//! Causal netdump: wire-visible events with parent ids.
//!
//! The flight recorder ([`crate::span`]) answers *how long* each phase of a
//! collective took; it cannot answer *which chain of packets and NIC events
//! bounded the operation*. This module adds the missing half: every
//! wire-visible event (host doorbell, NIC dispatch, DMA start/finish, packet
//! fired / on the wire / arrived, NACK, retransmission, host notification) is
//! recorded as a [`PacketRecord`] carrying the id of the record that caused
//! it. In a discrete-event simulation each handler runs in response to
//! exactly one message, so a single parent id per record is enough to
//! reconstruct the full causal DAG of a barrier — and walking parents back
//! from the last rank's completion yields its critical path exactly, because
//! emitters thread the *last-enabling* stimulus as the parent at every join
//! (e.g. the arrival that tripped a counting event, or the packet that
//! completed a dissemination round).
//!
//! Records live in a bounded [`NetDump`], one of the engine's
//! [`crate::Records`], disabled by default. While every store is off,
//! [`crate::Ctx::packet`] is a single predictable branch returning
//! [`CauseId::NONE`], so the hot path pays nothing; while other stores are
//! on, the disabled netdump still returns [`CauseId::NONE`] and uses up no
//! id (see [`crate::record`]).

use crate::engine::ComponentId;
use crate::record::RecordLog;
use crate::time::SimTime;

/// Identifier of a [`PacketRecord`] — the currency of causal links.
///
/// `CauseId(0)` is reserved as [`CauseId::NONE`] ("no recorded cause"): the
/// parent of chain roots, and the value every emission returns while the
/// netdump is disabled. Real record ids start at 1 and increase in emission
/// order, so a parent id is always numerically smaller than its children.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CauseId(pub u64);

impl CauseId {
    /// The null cause: chain roots and disabled-netdump emissions.
    pub const NONE: CauseId = CauseId(0);

    /// True if this is [`CauseId::NONE`].
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// True if this refers to a real record.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Sentinel for [`PacketRecord::src`] / [`PacketRecord::dst`] when a record
/// has no (or no single) node attached.
pub const NO_NODE: u32 = u32::MAX;

/// Sentinel for [`PacketRecord::group`] / [`PacketRecord::seq`] when a record
/// is not keyed to a collective span.
pub const NO_KEY: u64 = u64::MAX;

/// What kind of wire-visible event a [`PacketRecord`] describes.
///
/// The per-kind detail fields `a` / `b` of the record are documented here;
/// see DESIGN.md ("Observability II") for the full schema table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CausalKind {
    /// Host enters a collective (parent: none — chain root). `a` = operand.
    HostEnter,
    /// Host posts a point-to-point operation (parent: none). `a` = length.
    HostPost,
    /// NIC decodes a host doorbell / dispatches protocol work
    /// (parent: the `HostEnter`/`HostPost` that rang the doorbell).
    NicDispatch,
    /// A DMA transfer begins (parent: the record that queued it). `a` = bytes.
    DmaStart,
    /// A DMA transfer completes (parent: its `DmaStart`). `a` = bytes.
    DmaDone,
    /// NIC commits a packet toward the fabric (parent: the stimulus that
    /// produced the packet). `a` = round for collective packets.
    Fire,
    /// Fabric accepts the packet onto the wire (parent: its `Fire`).
    /// `a` = wire bytes, `b` = destination rx-port queuing wait in ns.
    Wire,
    /// Loss injection consumed the packet (parent: its `Wire`). Terminal.
    Drop,
    /// Destination NIC accepts the packet (parent: its `Wire`).
    /// `a` = round for collective packets.
    Arrive,
    /// Receiver-driven NACK emitted (parent: the record that last advanced
    /// the stalled epoch). `a` = stalled round, `b` = nacked sender.
    Nack,
    /// A retransmission fired (parent: the NACK arrival that requested it,
    /// or the original `Fire` for timer-driven go-back-N). `a` = round or
    /// sequence number.
    Retransmit,
    /// NIC notifies the host of completion (parent: the stimulus that
    /// completed the operation). `a` = result value.
    Notify,
    /// Host observes completion (parent: its `Notify`). `a` = result value.
    HostExit,
}

impl CausalKind {
    /// Short stable name, used by exporters and the `why-slow` report.
    pub fn name(self) -> &'static str {
        match self {
            CausalKind::HostEnter => "host-enter",
            CausalKind::HostPost => "host-post",
            CausalKind::NicDispatch => "nic-dispatch",
            CausalKind::DmaStart => "dma-start",
            CausalKind::DmaDone => "dma-done",
            CausalKind::Fire => "fire",
            CausalKind::Wire => "wire",
            CausalKind::Drop => "drop",
            CausalKind::Arrive => "arrive",
            CausalKind::Nack => "nack",
            CausalKind::Retransmit => "retransmit",
            CausalKind::Notify => "notify",
            CausalKind::HostExit => "host-exit",
        }
    }

    /// Inverse of [`CausalKind::name`] — used when re-ingesting exported
    /// netdumps (e.g. `why-slow --replay`).
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "host-enter" => CausalKind::HostEnter,
            "host-post" => CausalKind::HostPost,
            "nic-dispatch" => CausalKind::NicDispatch,
            "dma-start" => CausalKind::DmaStart,
            "dma-done" => CausalKind::DmaDone,
            "fire" => CausalKind::Fire,
            "wire" => CausalKind::Wire,
            "drop" => CausalKind::Drop,
            "arrive" => CausalKind::Arrive,
            "nack" => CausalKind::Nack,
            "retransmit" => CausalKind::Retransmit,
            "notify" => CausalKind::Notify,
            "host-exit" => CausalKind::HostExit,
            _ => return None,
        })
    }

    /// Attribution category of the causal edge *ending* at a record of this
    /// kind: where the time between the parent record and this record was
    /// spent. The `why-slow` report sums critical-path edge durations by
    /// this label.
    pub fn edge_label(self) -> &'static str {
        match self {
            CausalKind::HostEnter | CausalKind::HostPost => "host",
            CausalKind::NicDispatch => "host->nic",
            CausalKind::DmaStart => "dma-queue",
            CausalKind::DmaDone => "dma",
            CausalKind::Fire => "nic",
            CausalKind::Wire => "nic",
            CausalKind::Drop => "wire",
            CausalKind::Arrive => "wire",
            CausalKind::Nack => "nack-detour",
            CausalKind::Retransmit => "retransmit-detour",
            CausalKind::Notify => "nic->host",
            CausalKind::HostExit => "nic->host",
        }
    }

    /// True for the kinds that only exist because something went wrong on
    /// the wire (loss, stall): their presence on a critical path means the
    /// barrier was bounded by a recovery detour.
    pub fn is_detour(self) -> bool {
        matches!(
            self,
            CausalKind::Nack | CausalKind::Retransmit | CausalKind::Drop
        )
    }
}

/// One wire-visible event with its causal parent.
///
/// `src`/`dst` are node ids ([`NO_NODE`] when not applicable); `group`/`seq`
/// key the record to a collective span exactly as the flight recorder keys
/// spans ([`NO_KEY`] when the record is not span-keyed — only `HostEnter`,
/// `Notify` and `HostExit` records need keys, the analyzer assigns everything
/// else to a span by walking parents). `a`/`b` are per-kind details (see
/// [`CausalKind`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PacketRecord {
    /// This record's id (dense, emission-ordered, starting at 1).
    pub id: CauseId,
    /// The record that caused this one ([`CauseId::NONE`] for chain roots).
    pub parent: CauseId,
    /// When the event happened.
    pub time: SimTime,
    /// Which component recorded it.
    pub component: ComponentId,
    /// What happened.
    pub kind: CausalKind,
    /// Acting/source node, or [`NO_NODE`].
    pub src: u32,
    /// Destination node, or [`NO_NODE`].
    pub dst: u32,
    /// Collective group key, or [`NO_KEY`].
    pub group: u64,
    /// Collective sequence (epoch) key, or [`NO_KEY`].
    pub seq: u64,
    /// Kind-specific detail (see [`CausalKind`]).
    pub a: u64,
    /// Kind-specific detail (see [`CausalKind`]).
    pub b: u64,
}

/// Builder-style argument bundle for [`crate::Ctx::packet`]. Keeps emission
/// sites readable without a seven-argument call.
#[derive(Clone, Copy, Debug)]
pub struct PacketLog {
    /// Causal parent ([`CauseId::NONE`] for roots).
    pub parent: CauseId,
    /// Event kind.
    pub kind: CausalKind,
    /// Acting/source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Collective group key.
    pub group: u64,
    /// Collective sequence key.
    pub seq: u64,
    /// Kind-specific detail.
    pub a: u64,
    /// Kind-specific detail.
    pub b: u64,
}

impl PacketLog {
    /// A record of `kind` caused by `parent`, with all optional fields at
    /// their sentinels.
    pub fn new(parent: CauseId, kind: CausalKind) -> Self {
        PacketLog {
            parent,
            kind,
            src: NO_NODE,
            dst: NO_NODE,
            group: NO_KEY,
            seq: NO_KEY,
            a: 0,
            b: 0,
        }
    }

    /// Attach source and destination nodes.
    pub fn nodes(mut self, src: u32, dst: u32) -> Self {
        self.src = src;
        self.dst = dst;
        self
    }

    /// Attach the acting node only.
    pub fn at_node(mut self, node: u32) -> Self {
        self.src = node;
        self
    }

    /// Attach the collective span key.
    pub fn key(mut self, group: u64, seq: u64) -> Self {
        self.group = group;
        self.seq = seq;
        self
    }

    /// Attach the per-kind detail fields.
    pub fn detail(mut self, a: u64, b: u64) -> Self {
        self.a = a;
        self.b = b;
        self
    }
}

/// Bounded buffer of [`PacketRecord`]s, one of the engine's
/// [`crate::Records`].
///
/// Disabled by default; [`NetDump::enable`] arms it. When the buffer fills,
/// further records are counted in [`NetDump::dropped`] but not stored —
/// children of a dropped record still get real ids, so chains simply
/// terminate early at the hole (the `why-slow` gate asserts zero drops).
/// Keeping the first records makes the stored set prefix-closed: every
/// stored record's parent is stored too, unless it was dropped itself.
pub struct NetDump {
    next_id: u64,
    log: RecordLog<PacketRecord>,
}

impl NetDump {
    /// Default record capacity: generous — a 16-node lossy barrier run of a
    /// few thousand iterations stays well under this.
    pub const DEFAULT_CAPACITY: usize = 1 << 21;

    /// A disabled netdump (records nothing, allocates nothing).
    pub fn disabled() -> Self {
        Self::with_log(RecordLog::first(Self::DEFAULT_CAPACITY))
    }

    /// An armed netdump with a small capacity, for overflow tests.
    #[cfg(test)]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let mut dump = Self::with_log(RecordLog::first(capacity));
        dump.enable();
        dump
    }

    fn with_log(log: RecordLog<PacketRecord>) -> Self {
        NetDump { next_id: 1, log }
    }

    /// Arm the dump.
    pub fn enable(&mut self) {
        self.log.enable();
    }

    /// Is the dump recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.log.is_enabled()
    }

    /// Record one event, assigning it the next id. Returns the assigned id
    /// even when the buffer is full (the drop is counted instead). A
    /// disabled dump returns [`CauseId::NONE`] and uses up no id.
    pub fn record(&mut self, time: SimTime, component: ComponentId, log: PacketLog) -> CauseId {
        if !self.is_enabled() {
            return CauseId::NONE;
        }
        let id = CauseId(self.next_id);
        self.next_id += 1;
        self.log.push(PacketRecord {
            id,
            parent: log.parent,
            time,
            component,
            kind: log.kind,
            src: log.src,
            dst: log.dst,
            group: log.group,
            seq: log.seq,
            a: log.a,
            b: log.b,
        });
        id
    }

    /// The captured records, in emission order.
    pub fn records(&self) -> &[PacketRecord] {
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

    /// Forget everything captured so far (between measurement phases). Ids
    /// keep increasing so post-clear records never collide with pre-clear
    /// parents.
    pub fn clear(&mut self) {
        self.log.clear();
    }
}

/// Binary-search a record slice (emission-ordered, so sorted by id) for `id`.
pub fn find(records: &[PacketRecord], id: CauseId) -> Option<&PacketRecord> {
    records
        .binary_search_by_key(&id, |r| r.id)
        .ok()
        .map(|i| &records[i])
}

/// Walk causal parents from `end` back to a chain root, returning the chain
/// in time order (root first, `end` last). The walk stops at a record with
/// no parent, or at a hole (a parent id that was never stored — e.g. lost to
/// the capacity bound).
pub fn chain_to(records: &[PacketRecord], end: CauseId) -> Vec<&PacketRecord> {
    let mut chain = Vec::new();
    let mut cur = end;
    while let Some(rec) = find(records, cur) {
        chain.push(rec);
        if rec.parent.is_none() {
            break;
        }
        cur = rec.parent;
    }
    chain.reverse();
    chain
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code
mod tests {
    use super::*;

    fn rec(dump: &mut NetDump, parent: CauseId, kind: CausalKind) -> CauseId {
        dump.record(
            SimTime::from_ns(dump.next_id * 10),
            ComponentId(0),
            PacketLog::new(parent, kind),
        )
    }

    #[test]
    fn ids_are_dense_and_walkable() {
        let mut dump = NetDump::disabled();
        dump.enable();
        let a = rec(&mut dump, CauseId::NONE, CausalKind::HostEnter);
        let b = rec(&mut dump, a, CausalKind::NicDispatch);
        let c = rec(&mut dump, b, CausalKind::Fire);
        // An unrelated side branch must not appear on the chain.
        let _side = rec(&mut dump, a, CausalKind::Fire);
        let d = rec(&mut dump, c, CausalKind::Wire);
        let chain = chain_to(dump.records(), d);
        let ids: Vec<CauseId> = chain.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![a, b, c, d]);
        assert!(chain[0].parent.is_none());
    }

    #[test]
    fn capacity_overflow_counts_drops_but_keeps_ids_fresh() {
        let mut dump = NetDump::with_capacity(2);
        let a = rec(&mut dump, CauseId::NONE, CausalKind::HostEnter);
        let b = rec(&mut dump, a, CausalKind::Fire);
        let c = rec(&mut dump, b, CausalKind::Wire);
        assert_eq!(dump.len(), 2);
        assert_eq!(dump.dropped(), 1);
        assert!(c > b && b > a, "ids keep increasing past the bound");
        // The chain from the dropped record terminates at the hole.
        assert!(chain_to(dump.records(), c).is_empty());
    }

    #[test]
    fn clear_preserves_id_monotonicity() {
        let mut dump = NetDump::disabled();
        dump.enable();
        let a = rec(&mut dump, CauseId::NONE, CausalKind::HostEnter);
        dump.clear();
        let b = rec(&mut dump, CauseId::NONE, CausalKind::HostEnter);
        assert!(b > a);
        assert_eq!(dump.len(), 1);
        assert_eq!(dump.dropped(), 0);
    }

    #[test]
    fn detour_kinds_are_flagged() {
        for k in [CausalKind::Nack, CausalKind::Retransmit, CausalKind::Drop] {
            assert!(k.is_detour(), "{} must be a detour", k.name());
        }
        for k in [
            CausalKind::HostEnter,
            CausalKind::HostPost,
            CausalKind::NicDispatch,
            CausalKind::DmaStart,
            CausalKind::DmaDone,
            CausalKind::Fire,
            CausalKind::Wire,
            CausalKind::Arrive,
            CausalKind::Notify,
            CausalKind::HostExit,
        ] {
            assert!(!k.is_detour(), "{} must not be a detour", k.name());
        }
    }
}
