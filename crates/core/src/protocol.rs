//! The NIC-based collective message-passing protocol (§3 and §6 of the
//! paper), as a [`NicCollective`] engine plugged into the GM NIC.
//!
//! What the paper's protocol keeps per collective operation — and this
//! engine reproduces literally:
//!
//! * **one send token per operation** in a dedicated per-group queue (the
//!   NIC charges `nic_coll_send` with no queue traversal; see
//!   `nicbar_gm::nic`),
//! * **a static, padded send packet** carrying one integer (no buffer
//!   claim, no payload DMA),
//! * **one send record with a bit vector** over the expected messages —
//!   here the per-round arrival bit vectors of the group's
//!   [`RoundFrontier`] plus the `sent_payloads` vector, replacing
//!   per-packet send records,
//! * **receiver-driven retransmission**: no ACKs; a receiver stalled past
//!   the group timeout NACKs exactly the senders whose round messages are
//!   missing, and the sender retransmits from its static packet. This
//!   halves the wire packets relative to the ACK-per-packet point-to-point
//!   scheme (asserted by the integration tests).
//!
//! Beyond the paper's barrier case study, the same engine runs the §9
//! future-work collectives — broadcast, allreduce and allgather — by
//! attaching payload semantics to the identical round-schedule machinery.
//!
//! ## What the frontier does, and what is left here
//!
//! Each group runs one [`RoundFrontier`] with the packet payload
//! ([`CollKind`]) as its arrival type: the frontier owns the epoch
//! counters, the send frontier and the parity-banked arrival slots, so
//! epoch overlap (a neighbour entering `e+1` while this NIC is still in
//! `e`, arrivals banked at most one epoch deep) is the frontier's rule, the
//! same one the host-based barrier and the Elan NIC thread run. This engine
//! adds what is its own: what each payload means, what each send carries,
//! the `sent_payloads`/archive record that serves NACKs, the NACK timer and
//! observability.
//!
//! ## Allocation-free steady state
//!
//! The frontier's slots are sized once at construction. The per-epoch
//! `sent_payloads` vector rotates through a two-deep recycle (live →
//! archive → spare → live), so a barrier in steady state touches the heap
//! zero times per operation — the root `alloc_steady` test counts.

use crate::schedule::{Advance, Algorithm, Arrival, RoundFrontier, Schedule};
use nicbar_gm::{
    ActionBuf, AllToAllItem, CollAction, CollKind, CollOperand, CollPacket, GroupId, NicCollective,
};
use nicbar_net::NodeId;
use nicbar_sim::{CauseId, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Combine operator for allreduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum (power-of-two groups only: the dissemination butterfly would
    /// double-count on wrapped windows otherwise).
    Sum,
    /// Minimum (any group size).
    Min,
    /// Maximum (any group size).
    Max,
    /// Bitwise OR (any group size).
    BitOr,
}

impl ReduceOp {
    /// Apply the operator.
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::BitOr => a | b,
        }
    }

    /// Whether the dissemination butterfly computes this operator exactly
    /// for non-power-of-two group sizes (idempotent operators tolerate the
    /// wrapped-window double counting).
    pub fn tolerates_overlap(self) -> bool {
        !matches!(self, ReduceOp::Sum)
    }
}

/// The collective operation a group performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupOp {
    /// The paper's case study.
    Barrier,
    /// NIC-forwarded binomial-tree broadcast (extension, §9).
    Broadcast {
        /// Root rank.
        root: usize,
    },
    /// Allreduce over the dissemination butterfly (extension, §9).
    Allreduce {
        /// Combine operator.
        op: ReduceOp,
    },
    /// Bruck-style allgather (extension, §9).
    Allgather,
    /// Bruck-style personalized alltoall (extension, §9 names it
    /// explicitly: "such as Allgather or Alltoall").
    Alltoall,
}

/// Static configuration of one collective group on one NIC.
#[derive(Clone, Debug)]
pub struct GroupSpec {
    /// Group identifier (shared across members).
    pub id: GroupId,
    /// Member nodes in rank order. Shared (`Arc`) because every rank's spec
    /// lists the same membership: one allocation per group, not per rank,
    /// which is what keeps a 65,536-node sweep at O(n) instead of O(n²).
    pub members: Arc<[NodeId]>,
    /// This NIC's rank within the group.
    pub my_rank: usize,
    /// The operation this group performs.
    pub op: GroupOp,
    /// Barrier algorithm (ignored by the data collectives, which pick their
    /// natural schedules).
    pub algo: Algorithm,
    /// Receiver-driven NACK timeout.
    pub timeout: SimTime,
}

impl GroupSpec {
    /// A barrier group over `members` with `my_rank`, using `algo`.
    pub fn barrier(
        id: GroupId,
        members: impl Into<Arc<[NodeId]>>,
        my_rank: usize,
        algo: Algorithm,
        timeout: SimTime,
    ) -> Self {
        GroupSpec {
            id,
            members: members.into(),
            my_rank,
            op: GroupOp::Barrier,
            algo,
            timeout,
        }
    }

    fn build_schedule(&self) -> Schedule {
        let n = self.members.len();
        match self.op {
            GroupOp::Barrier => Schedule::for_algorithm(self.algo, n, self.my_rank),
            GroupOp::Broadcast { root } => Schedule::binomial_broadcast(n, self.my_rank, root),
            GroupOp::Allreduce { op } => {
                assert!(
                    n.is_power_of_two() || op.tolerates_overlap(),
                    "dissemination allreduce with Sum requires a power-of-two group"
                );
                Schedule::dissemination(n, self.my_rank)
            }
            GroupOp::Allgather | GroupOp::Alltoall => Schedule::dissemination(n, self.my_rank),
        }
    }
}

/// The in-progress epoch's payload state. Its epoch number and send
/// frontier live in the group's [`RoundFrontier`].
#[derive(Clone, Debug)]
struct LiveEpoch {
    /// Accumulator (bcast value / reduce partial / unused for barrier).
    acc: u64,
    /// Allgather state: contribution per rank.
    gathered: Vec<Option<u64>>,
    /// Alltoall state: items this NIC currently holds in transit.
    held: Vec<AllToAllItem>,
    /// Alltoall state: values received for this rank, by origin.
    row: Vec<Option<u64>>,
    /// Last time this epoch made forward progress (NACK pacing).
    last_progress: SimTime,
    /// What was sent in each round (for NACK retransmission).
    sent_payloads: Vec<Option<CollKind>>,
    /// Netdump id of the record that last advanced this epoch (the doorbell
    /// dispatch or the most recent consumed arrival). Sends and completions
    /// emitted by a transition parent on this; timer NACKs for a stalled
    /// epoch parent on it too, tying the detour to the point of the stall.
    cause: CauseId,
}

/// One group's protocol state.
#[derive(Clone)]
struct GroupState {
    // The group's `GroupSpec`, less its membership (the frontier holds it)
    // and its algorithm (already compiled into the frontier's schedule).
    id: GroupId,
    my_rank: usize,
    op: GroupOp,
    timeout: SimTime,
    /// Membership, epoch counters, send frontier and the parity-banked
    /// arrival bit vectors, each arrival carrying its packet's payload.
    frontier: RoundFrontier<CollKind>,
    /// Payload state of the live epoch; `Some` exactly while the frontier
    /// has a live epoch.
    live: Option<LiveEpoch>,
    /// Epoch whose sent payloads `archive` holds, for late NACKs. Exactly
    /// one epoch deep: a NACK for anything older can only come from a
    /// requester that has itself already completed that epoch (it reached
    /// the current one), so its retransmission would be filtered as a stale
    /// duplicate anyway.
    archive_epoch: Option<u64>,
    /// Sent payloads of the most recently completed epoch.
    archive: Vec<Option<CollKind>>,
    /// Recycled `sent_payloads` storage for the next doorbell (the vector
    /// the previous completion displaced from `archive`).
    spare_payloads: Vec<Option<CollKind>>,
    nacks_sent: u64,
    retransmits: u64,
    /// Completed alltoall rows per epoch (test observability).
    rows_history: Vec<Vec<u64>>,
    /// Fault injection for the model checker: when set, `try_progress`
    /// "forgets" to record what it sent, reproducing the protocol bug the
    /// `PR002` lint guards against. Never set outside `nicbar-verify`.
    fault_skip_payload_record: bool,
}

/// Fold one consumed arrival's payload into the live epoch's state.
fn fold_payload(op: GroupOp, my_rank: usize, live: &mut LiveEpoch, payload: CollKind) {
    match (op, payload) {
        (GroupOp::Barrier, CollKind::Barrier) => {}
        (GroupOp::Broadcast { .. }, CollKind::Bcast { value }) => {
            live.acc = value;
        }
        (GroupOp::Allreduce { op }, CollKind::Reduce { value }) => {
            live.acc = op.combine(live.acc, value);
        }
        (GroupOp::Allgather, CollKind::Gather { base_rank, values }) => {
            let n = live.gathered.len();
            for (k, v) in values.into_iter().enumerate() {
                let r = (base_rank as usize + k) % n;
                live.gathered[r] = Some(v);
            }
        }
        (GroupOp::Alltoall, CollKind::AllToAll { items }) => {
            for item in items {
                if item.dst as usize == my_rank {
                    live.row[item.origin as usize] = Some(item.value);
                } else {
                    live.held.push(item);
                }
            }
        }
        (op, payload) => {
            panic!("payload {payload:?} does not match group op {op:?}")
        }
    }
}

impl GroupState {
    fn new(spec: GroupSpec) -> Self {
        GroupState {
            id: spec.id,
            my_rank: spec.my_rank,
            op: spec.op,
            timeout: spec.timeout,
            frontier: RoundFrontier::new(spec.build_schedule(), spec.members),
            live: None,
            archive_epoch: None,
            archive: Vec::new(),
            spare_payloads: Vec::new(),
            nacks_sent: 0,
            retransmits: 0,
            rows_history: Vec::new(),
            fault_skip_payload_record: false,
        }
    }

    fn n(&self) -> usize {
        self.frontier.members().len()
    }

    /// Build the payload for a send in `round`, removing in-transit items
    /// that move this phase (alltoall).
    fn payload_for_round(&mut self, round: usize) -> CollKind {
        if matches!(self.op, GroupOp::Alltoall) {
            // Bruck phase m: forward every held item whose remaining
            // distance to its destination has bit m set.
            let n = self.n();
            let me = self.my_rank;
            let live = self.live.as_mut().expect("send without live epoch");
            let (moving, staying): (Vec<_>, Vec<_>) = live.held.drain(..).partition(|item| {
                let remaining = (item.dst as usize + n - me) % n;
                remaining & (1 << round) != 0
            });
            live.held = staying;
            return CollKind::AllToAll { items: moving };
        }
        let live = self.live.as_ref().expect("send without live epoch");
        match self.op {
            GroupOp::Barrier => CollKind::Barrier,
            GroupOp::Broadcast { .. } => CollKind::Bcast { value: live.acc },
            GroupOp::Allreduce { .. } => CollKind::Reduce { value: live.acc },
            GroupOp::Allgather => {
                // Bruck block sizes: 2^m per round, with the final round
                // truncated to the n − 2^m entries the receiver still lacks.
                let n = self.n();
                let len = (1usize << round).min(n - (1usize << round));
                let me = self.my_rank;
                let base = (me + n - (len - 1)) % n;
                let values: Vec<u64> = (0..len)
                    .map(|k| {
                        let r = (base + k) % n;
                        live.gathered[r].expect("gathered window incomplete at send time")
                    })
                    .collect();
                CollKind::Gather {
                    base_rank: u32::try_from(base).expect("group rank exceeds u32"),
                    values,
                }
            }
            GroupOp::Alltoall => unreachable!("handled by the early return above"),
        }
    }

    /// The operation result delivered with `HostDone`.
    fn result(&self) -> u64 {
        let live = self.live.as_ref().expect("result without live epoch");
        match self.op {
            GroupOp::Barrier => 0,
            GroupOp::Broadcast { .. } | GroupOp::Allreduce { .. } => live.acc,
            GroupOp::Allgather => live
                .gathered
                .iter()
                .map(|v| v.expect("allgather incomplete at completion"))
                .fold(0u64, u64::wrapping_add),
            GroupOp::Alltoall => {
                assert!(
                    live.held.is_empty(),
                    "undelivered alltoall items at completion"
                );
                live.row
                    .iter()
                    .map(|v| v.expect("alltoall row incomplete at completion"))
                    .fold(0u64, u64::wrapping_add)
            }
        }
    }

    /// Drive the round frontier as far as arrivals allow; emit sends and,
    /// on completion, the host notification.
    fn try_progress(&mut self, now: SimTime, my_node: NodeId, actions: &mut ActionBuf) {
        loop {
            let GroupState {
                op,
                my_rank,
                frontier,
                live,
                ..
            } = self;
            let Some(live) = live.as_mut() else {
                return;
            };
            let cause = live.cause;
            match frontier.advance(|payload| fold_payload(*op, *my_rank, live, payload)) {
                Advance::Blocked => return,
                Advance::Done { epoch } => {
                    // Every round's arrivals consumed and all sends issued.
                    let value = self.result();
                    let live = self.live.take().expect("checked above");
                    if matches!(self.op, GroupOp::Alltoall) {
                        let row = live.row.iter().map(|v| v.expect("checked in result()"));
                        self.rows_history.push(row.collect());
                    }
                    // Rotate the payload storage: the just-sent vector
                    // becomes the archive (serving late NACKs for this
                    // epoch), and the vector it displaces is cleared and
                    // kept as the spare the next doorbell will reuse. Steady
                    // state: two vectors, zero allocations.
                    let mut retired = std::mem::replace(&mut self.archive, live.sent_payloads);
                    self.archive_epoch = Some(epoch);
                    retired.clear();
                    self.spare_payloads = retired;
                    actions.push(CollAction::HostDone {
                        group: self.id,
                        epoch,
                        value,
                        cause,
                    });
                    return;
                }
                Advance::Send { epoch, round: r } => {
                    let payload = if self.frontier.schedule().rounds[r].sends.is_empty() {
                        None
                    } else {
                        Some(self.payload_for_round(r))
                    };
                    let live = self.live.as_mut().expect("checked above");
                    live.sent_payloads[r] = if self.fault_skip_payload_record {
                        None // injected bug: send without the bit-vector/payload record
                    } else {
                        payload.clone()
                    };
                    live.last_progress = now;
                    let Some(kind) = payload else {
                        continue;
                    };
                    for &dst_rank in &self.frontier.schedule().rounds[r].sends {
                        actions.push(CollAction::Send {
                            dst: self.frontier.members()[dst_rank],
                            pkt: CollPacket {
                                src: my_node,
                                group: self.id,
                                epoch,
                                round: u16::try_from(r).expect("round exceeds u16 tag width"),
                                kind: kind.clone(),
                            },
                            retx: false,
                            cause,
                        });
                    }
                }
            }
        }
    }
}

/// The NIC-resident collective engine implementing the paper's protocol.
///
/// `Clone` exists for the model checker (`nicbar-verify`), which forks the
/// engine at every explored interleaving point; the simulator itself never
/// clones a NIC.
#[derive(Clone)]
pub struct PaperCollective {
    node: NodeId,
    // BTreeMap, not HashMap: `on_timer` iterates this map and emits NACK
    // sends in iteration order, so the order must be keyed, not hashed.
    groups: BTreeMap<GroupId, GroupState>,
}

impl PaperCollective {
    /// Build the engine for `node` serving the given groups.
    pub fn new(node: NodeId, specs: Vec<GroupSpec>) -> Self {
        let mut groups = BTreeMap::new();
        for spec in specs {
            assert_eq!(
                spec.members[spec.my_rank], node,
                "group {:?}: my_rank does not map to this node",
                spec.id
            );
            let id = spec.id;
            let prev = groups.insert(id, GroupState::new(spec));
            assert!(prev.is_none(), "duplicate group {id:?}");
        }
        PaperCollective { node, groups }
    }

    fn group_mut(&mut self, id: GroupId) -> &mut GroupState {
        self.groups
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown group {id:?}"))
    }

    /// NACKs this NIC has issued (test observability).
    pub fn nacks_sent(&self, id: GroupId) -> u64 {
        self.groups[&id].nacks_sent
    }

    /// NACK-triggered retransmissions served (test observability).
    pub fn retransmits(&self, id: GroupId) -> u64 {
        self.groups[&id].retransmits
    }

    /// Completed epochs for a group (test observability).
    pub fn completed_epochs(&self, id: GroupId) -> u64 {
        self.groups[&id].frontier.completed()
    }

    /// Completed alltoall rows (per epoch, indexed by origin rank).
    pub fn alltoall_rows(&self, id: GroupId) -> &[Vec<u64>] {
        &self.groups[&id].rows_history
    }

    fn handle_nack(&mut self, pkt: &CollPacket, cause: CauseId, actions: &mut ActionBuf) {
        let my_node = self.node;
        let state = self.group_mut(pkt.group);
        let round = pkt.round as usize;
        let requester = pkt.src;
        debug_assert!(
            state.frontier.schedule().rounds[round]
                .sends
                .iter()
                .any(|&r| state.frontier.members()[r] == requester),
            "NACK from a non-target of round {round}"
        );
        // Locate the payload we sent (or would send) for (epoch, round).
        let archived = |state: &GroupState| -> Option<CollKind> {
            (state.archive_epoch == Some(pkt.epoch))
                .then(|| state.archive[round].clone())
                .flatten()
        };
        let payload: Option<CollKind> = if let Some(live) = state.live.as_ref() {
            if state.frontier.live_epoch() == Some(pkt.epoch) {
                if round < state.frontier.next_send_round() {
                    live.sent_payloads[round].clone()
                } else {
                    None // not sent yet; the normal path will deliver it
                }
            } else {
                archived(state)
            }
        } else {
            archived(state)
        };
        if let Some(kind) = payload {
            state.retransmits += 1;
            actions.push(CollAction::Send {
                dst: requester,
                pkt: CollPacket {
                    src: my_node,
                    group: pkt.group,
                    epoch: pkt.epoch,
                    round: pkt.round,
                    kind,
                },
                retx: true,
                cause,
            });
        }
    }
}

/// FNV-1a over the bytes `Hash` implementations feed it — a deterministic,
/// dependency-free 64-bit hasher for protocol-state fingerprints. (The std
/// `DefaultHasher` would work today but its algorithm is explicitly
/// unspecified; fingerprints must be stable across toolchains.)
struct Fnv(u64);

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Model-checker hooks (`nicbar-verify`).
///
/// The checker explores the *real* engine — these methods only expose what
/// exhaustive exploration needs: canonical state identity, machine-checkable
/// invariants, time canonicalization (so states differing only in wall-clock
/// bookkeeping merge), and one injectable protocol bug for validating that
/// the checker actually catches violations.
impl PaperCollective {
    /// Canonical 64-bit fingerprint of the protocol-visible state.
    ///
    /// Excludes observability-only fields (`nacks_sent`, `retransmits`,
    /// `rows_history`), causal bookkeeping (`cause`) and wall-clock pacing
    /// (`last_progress`, which [`PaperCollective::canonicalize_times`]
    /// zeroes before fingerprinting): two states with equal fingerprints
    /// are behaviourally equivalent under the checker's abstract clock.
    pub fn state_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for (id, g) in &self.groups {
            id.hash(&mut h);
            g.frontier.entered().hash(&mut h);
            g.frontier.completed().hash(&mut h);
            g.archive_epoch.hash(&mut h);
            g.archive.hash(&mut h);
            match g.live.as_ref() {
                None => 0u8.hash(&mut h),
                Some(l) => {
                    1u8.hash(&mut h);
                    g.frontier.live_epoch().expect("live").hash(&mut h);
                    g.frontier.next_send_round().hash(&mut h);
                    l.acc.hash(&mut h);
                    l.gathered.hash(&mut h);
                    l.held.hash(&mut h);
                    l.row.hash(&mut h);
                    l.sent_payloads.hash(&mut h);
                }
            }
            g.frontier.hash_slots(&mut h);
            g.fault_skip_payload_record.hash(&mut h);
        }
        h.finish()
    }

    /// Zero every live epoch's `last_progress` so states that differ only
    /// in NACK-pacing timestamps collapse to one fingerprint. The checker
    /// calls this after every transition; timer firings are then modelled
    /// as happening exactly at [`NicCollective::next_deadline`].
    pub fn canonicalize_times(&mut self) {
        for g in self.groups.values_mut() {
            if let Some(live) = g.live.as_mut() {
                live.last_progress = SimTime::ZERO;
            }
        }
    }

    /// Machine-checkable protocol invariants, verified by the model checker
    /// after every transition (release builds skip the `debug_assert!`s on
    /// the hot path; these cover the same ground and more, off it).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (id, g) in &self.groups {
            g.frontier
                .check()
                .map_err(|e| format!("group {id:?}: {e}"))?;
            if g.live.is_some() != g.frontier.live_epoch().is_some() {
                return Err(format!(
                    "group {id:?}: live payload state {} while the frontier has live epoch {:?}",
                    if g.live.is_some() {
                        "present"
                    } else {
                        "absent"
                    },
                    g.frontier.live_epoch()
                ));
            }
            if let Some(l) = g.live.as_ref() {
                let schedule = g.frontier.schedule();
                if l.sent_payloads.len() != schedule.num_rounds() {
                    return Err(format!(
                        "group {id:?}: sent_payloads sized {} for a {}-round schedule",
                        l.sent_payloads.len(),
                        schedule.num_rounds()
                    ));
                }
                for r in 0..g.frontier.next_send_round() {
                    if !schedule.rounds[r].sends.is_empty() && l.sent_payloads[r].is_none() {
                        return Err(format!(
                            "group {id:?}: round {r} sends issued without a sent_payloads \
                             record — NACKs for this round can never be served"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Inject the `skip-payload-record` protocol bug into every group (see
    /// [`GroupState::fault_skip_payload_record`]). Model-checker use only.
    #[doc(hidden)]
    pub fn inject_skip_payload_record(&mut self) {
        for g in self.groups.values_mut() {
            g.fault_skip_payload_record = true;
        }
    }
}

impl NicCollective for PaperCollective {
    fn on_doorbell(
        &mut self,
        now: SimTime,
        group: GroupId,
        epoch: u64,
        operand: &CollOperand,
        cause: CauseId,
        actions: &mut ActionBuf,
    ) {
        let my_node = self.node;
        let state = self.group_mut(group);
        assert_eq!(
            epoch,
            state.frontier.entered(),
            "doorbell epoch out of order (group {group:?})"
        );
        state.frontier.enter();
        let n = state.n();
        let me = state.my_rank;
        let mut gathered = vec![
            None;
            if matches!(state.op, GroupOp::Allgather) {
                n
            } else {
                0
            }
        ];
        let mut held = Vec::new();
        let mut row = Vec::new();
        let acc = match state.op {
            GroupOp::Barrier => 0,
            GroupOp::Broadcast { root } => {
                if me == root {
                    operand.scalar()
                } else {
                    0
                }
            }
            GroupOp::Allreduce { .. } => operand.scalar(),
            GroupOp::Allgather => {
                gathered[me] = Some(operand.scalar());
                0
            }
            GroupOp::Alltoall => {
                let CollOperand::Vector(values) = operand else {
                    panic!("alltoall requires a vector operand (one value per rank)");
                };
                assert_eq!(
                    values.len(),
                    n,
                    "alltoall operand must have one value per rank"
                );
                row = vec![None; n];
                row[me] = Some(values[me]);
                held = values
                    .iter()
                    .enumerate()
                    .filter(|&(dst, _)| dst != me)
                    .map(|(dst, &value)| AllToAllItem {
                        origin: u32::try_from(me).expect("group rank exceeds u32"),
                        dst: u32::try_from(dst).expect("group rank exceeds u32"),
                        value,
                    })
                    .collect();
                0
            }
        };
        let rounds = state.frontier.schedule().num_rounds();
        // Reuse the vector retired by the completion before last; only the
        // first two doorbells ever allocate it.
        let mut sent_payloads = std::mem::take(&mut state.spare_payloads);
        sent_payloads.clear();
        sent_payloads.resize(rounds, None);
        state.live = Some(LiveEpoch {
            acc,
            gathered,
            held,
            row,
            last_progress: now,
            sent_payloads,
            cause,
        });
        state.try_progress(now, my_node, actions);
    }

    fn on_packet(
        &mut self,
        now: SimTime,
        pkt: &CollPacket,
        cause: CauseId,
        actions: &mut ActionBuf,
    ) {
        if matches!(pkt.kind, CollKind::Nack) {
            self.handle_nack(pkt, cause, actions);
            return;
        }
        if matches!(pkt.kind, CollKind::Ack) {
            return; // NIC-level ablation traffic; no protocol state
        }
        let my_node = self.node;
        let state = self.group_mut(pkt.group);
        let round = pkt.round as usize;
        let kind = pkt.kind.clone();
        if state.frontier.arrive(pkt.epoch, round, pkt.src, kind) == Arrival::Stale {
            return; // stale duplicate of a finished epoch
        }
        // This arrival is the epoch's latest stimulus: anything the
        // progress sweep emits was enabled (last) by it.
        if let Some(live) = state.live.as_mut() {
            if state.frontier.live_epoch() == Some(pkt.epoch) {
                live.cause = cause;
            }
        }
        state.try_progress(now, my_node, actions);
    }

    fn on_timer(&mut self, now: SimTime, actions: &mut ActionBuf) {
        let my_node = self.node;
        for state in self.groups.values_mut() {
            let Some(live) = state.live.as_ref() else {
                continue;
            };
            if now.saturating_sub(live.last_progress) < state.timeout {
                continue;
            }
            let epoch = state.frontier.live_epoch().expect("live payload state");
            // Timer NACKs are a detour off the stalled epoch: parent them on
            // the record that last advanced it, so the analyzer's chain shows
            // stall → nack → retransmit → arrival in causal order.
            let stall_cause = live.cause;
            let r = state.frontier.next_send_round();
            if r == 0 {
                continue; // nothing expected yet
            }
            let stall_round = r - 1;
            let have = state.frontier.arrived(epoch, stall_round);
            let expected = &state.frontier.schedule().rounds[stall_round].recv_from;
            // Iterate the schedule in place, not a clone of `recv_from`: the
            // NACK path must not allocate either (a lossy steady state is
            // still a steady state).
            for (bit, &sender_rank) in expected.iter().enumerate() {
                if have & (1u64 << bit) != 0 {
                    continue;
                }
                state.nacks_sent += 1;
                actions.push(CollAction::Send {
                    dst: state.frontier.members()[sender_rank],
                    pkt: CollPacket {
                        src: my_node,
                        group: state.id,
                        epoch,
                        round: u16::try_from(stall_round).expect("round exceeds u16 tag width"),
                        kind: CollKind::Nack,
                    },
                    retx: false,
                    cause: stall_cause,
                });
            }
            // Pace further NACKs by restarting the timeout window.
            state.live.as_mut().expect("checked above").last_progress = now;
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.groups
            .values()
            .filter_map(|s| s.live.as_ref().map(|l| l.last_progress + s.timeout))
            .min()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
mod tests {
    use super::*;

    fn members(n: usize) -> Arc<[NodeId]> {
        (0..n).map(NodeId).collect()
    }

    fn barrier_engine(n: usize, rank: usize) -> PaperCollective {
        let spec = GroupSpec::barrier(
            GroupId(1),
            members(n),
            rank,
            Algorithm::Dissemination,
            SimTime::from_us(100.0),
        );
        PaperCollective::new(NodeId(rank), vec![spec])
    }

    // Collect-into-Vec shims over the out-param API, so assertions can
    // stay slice-shaped.
    fn doorbell(
        e: &mut PaperCollective,
        now: SimTime,
        group: GroupId,
        epoch: u64,
        operand: &CollOperand,
    ) -> Vec<CollAction> {
        let mut buf = ActionBuf::new();
        e.on_doorbell(now, group, epoch, operand, CauseId::NONE, &mut buf);
        buf.drain().collect()
    }

    fn packet(e: &mut PaperCollective, now: SimTime, pkt: &CollPacket) -> Vec<CollAction> {
        let mut buf = ActionBuf::new();
        e.on_packet(now, pkt, CauseId::NONE, &mut buf);
        buf.drain().collect()
    }

    fn timer(e: &mut PaperCollective, now: SimTime) -> Vec<CollAction> {
        let mut buf = ActionBuf::new();
        e.on_timer(now, &mut buf);
        buf.drain().collect()
    }

    #[test]
    fn doorbell_emits_round_zero_sends() {
        let mut e = barrier_engine(4, 0);
        let actions = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        // Dissemination round 0: send to rank 1; no completion yet.
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            CollAction::Send { dst, pkt, retx, .. } => {
                assert_eq!(*dst, NodeId(1));
                assert_eq!(pkt.round, 0);
                assert_eq!(pkt.kind, CollKind::Barrier);
                assert!(!retx);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn in_order_arrivals_complete_a_barrier() {
        // Drive rank 0 of a 4-rank dissemination barrier by hand: expects
        // round 0 from rank 3, round 1 from rank 2.
        let mut e = barrier_engine(4, 0);
        let a0 = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        assert_eq!(a0.len(), 1);
        let from3 = CollPacket {
            src: NodeId(3),
            group: GroupId(1),
            epoch: 0,
            round: 0,
            kind: CollKind::Barrier,
        };
        let a1 = packet(&mut e, SimTime::from_us(1.0), &from3);
        // Round 0 satisfied → round 1 send to rank 2.
        assert_eq!(a1.len(), 1);
        assert!(matches!(&a1[0], CollAction::Send { dst, .. } if *dst == NodeId(2)));
        let from2 = CollPacket {
            src: NodeId(2),
            group: GroupId(1),
            epoch: 0,
            round: 1,
            kind: CollKind::Barrier,
        };
        let a2 = packet(&mut e, SimTime::from_us(2.0), &from2);
        assert_eq!(a2.len(), 1);
        assert!(matches!(
            &a2[0],
            CollAction::HostDone {
                epoch: 0,
                value: 0,
                ..
            }
        ));
        assert_eq!(e.completed_epochs(GroupId(1)), 1);
    }

    #[test]
    fn out_of_order_and_early_epoch_arrivals_are_banked() {
        let mut e = barrier_engine(4, 0);
        // Round 1 message arrives before the doorbell and before round 0.
        let from2 = CollPacket {
            src: NodeId(2),
            group: GroupId(1),
            epoch: 0,
            round: 1,
            kind: CollKind::Barrier,
        };
        assert!(packet(&mut e, SimTime::ZERO, &from2).is_empty());
        let from3 = CollPacket {
            src: NodeId(3),
            group: GroupId(1),
            epoch: 0,
            round: 0,
            kind: CollKind::Barrier,
        };
        assert!(packet(&mut e, SimTime::ZERO, &from3).is_empty());
        // The doorbell now releases the whole chain to completion at once.
        let actions = doorbell(
            &mut e,
            SimTime::from_us(5.0),
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        let sends = actions
            .iter()
            .filter(|a| matches!(a, CollAction::Send { .. }))
            .count();
        let dones = actions
            .iter()
            .filter(|a| matches!(a, CollAction::HostDone { .. }))
            .count();
        assert_eq!(sends, 2, "round 0 and round 1 sends");
        assert_eq!(dones, 1);
    }

    #[test]
    fn duplicate_arrivals_are_idempotent() {
        let mut e = barrier_engine(4, 0);
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        let from3 = CollPacket {
            src: NodeId(3),
            group: GroupId(1),
            epoch: 0,
            round: 0,
            kind: CollKind::Barrier,
        };
        let a1 = packet(&mut e, SimTime::ZERO, &from3);
        let a2 = packet(&mut e, SimTime::ZERO, &from3);
        assert_eq!(a1.len(), 1);
        assert!(a2.is_empty(), "duplicate must not re-trigger sends");
    }

    #[test]
    fn parity_slots_recycle_across_epochs() {
        // A 2-rank barrier has one round (recv from the peer). Run many
        // epochs, always delivering the peer's packet one epoch early (the
        // deepest banking the protocol allows), so every epoch exercises
        // slot retagging on both parities.
        let spec = GroupSpec::barrier(
            GroupId(1),
            members(2),
            0,
            Algorithm::Dissemination,
            SimTime::from_us(100.0),
        );
        let mut e = PaperCollective::new(NodeId(0), vec![spec]);
        // Epoch 0's arrival lands before its doorbell.
        let peer = |epoch| CollPacket {
            src: NodeId(1),
            group: GroupId(1),
            epoch,
            round: 0,
            kind: CollKind::Barrier,
        };
        assert!(packet(&mut e, SimTime::ZERO, &peer(0)).is_empty());
        for epoch in 0..64 {
            let t = SimTime::from_us(epoch as f64);
            let actions = doorbell(&mut e, t, GroupId(1), epoch, &CollOperand::Scalar(0));
            // Arrival already banked → send + completion in one sweep.
            assert_eq!(actions.len(), 2, "epoch {epoch}: {actions:?}");
            assert!(matches!(actions[1], CollAction::HostDone { .. }));
            // Bank the next epoch's arrival early (one epoch ahead).
            assert!(packet(&mut e, t, &peer(epoch + 1)).is_empty());
        }
        assert_eq!(e.completed_epochs(GroupId(1)), 64);
    }

    #[test]
    fn timer_nacks_exactly_the_missing_sender() {
        let mut e = barrier_engine(4, 0);
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        // Nothing arrived; after the timeout the stall round is 0 and the
        // missing sender is rank 3.
        let actions = timer(&mut e, SimTime::from_us(150.0));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            CollAction::Send { dst, pkt, retx, .. } => {
                assert_eq!(*dst, NodeId(3));
                assert_eq!(pkt.kind, CollKind::Nack);
                assert_eq!(pkt.round, 0);
                assert!(!retx, "a first-time NACK is not a retransmission");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.nacks_sent(GroupId(1)), 1);
        // Immediately after, the window restarts: no NACK storm.
        assert!(timer(&mut e, SimTime::from_us(151.0)).is_empty());
    }

    #[test]
    fn nacked_sender_retransmits_from_bit_vector() {
        let mut e = barrier_engine(4, 1);
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        // Rank 2 claims it never got our round-0 message.
        let nack = CollPacket {
            src: NodeId(2),
            group: GroupId(1),
            epoch: 0,
            round: 0,
            kind: CollKind::Nack,
        };
        let actions = packet(&mut e, SimTime::from_us(200.0), &nack);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            CollAction::Send { dst, pkt, retx, .. } => {
                assert_eq!(*dst, NodeId(2));
                assert_eq!(pkt.kind, CollKind::Barrier);
                assert_eq!(pkt.round, 0);
                assert!(*retx, "a NACK-triggered resend must be flagged retx");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.retransmits(GroupId(1)), 1);
    }

    #[test]
    fn nack_for_unsent_round_is_ignored() {
        let mut e = barrier_engine(4, 1);
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        // Round 1 not sent yet (round 0 arrival missing).
        let nack = CollPacket {
            src: NodeId(3),
            group: GroupId(1),
            epoch: 0,
            round: 1,
            kind: CollKind::Nack,
        };
        assert!(packet(&mut e, SimTime::from_us(200.0), &nack).is_empty());
        assert_eq!(e.retransmits(GroupId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "before the previous operation completed")]
    fn pipelined_doorbells_rejected() {
        let mut e = barrier_engine(4, 0);
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            1,
            &CollOperand::Scalar(0),
        );
    }

    fn barrier_packet(src: usize, round: u16) -> CollPacket {
        CollPacket {
            src: NodeId(src),
            group: GroupId(1),
            epoch: 0,
            round,
            kind: CollKind::Barrier,
        }
    }

    /// Senders resolve through the rank → node map, not the node ids: with
    /// ranks placed on nodes in reverse, rank 0 (node 3) of a 4-rank
    /// dissemination hears from rank 3 (node 0), then rank 2 (node 1).
    #[test]
    fn permuted_senders_resolve_through_members() {
        let reversed: Arc<[NodeId]> = (0..4).rev().map(NodeId).collect();
        let spec = GroupSpec::barrier(
            GroupId(1),
            reversed,
            0,
            Algorithm::Dissemination,
            SimTime::from_us(100.0),
        );
        let mut e = PaperCollective::new(NodeId(3), vec![spec]);
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        let a = packet(&mut e, SimTime::from_us(1.0), &barrier_packet(0, 0));
        assert!(
            matches!(a.as_slice(), [CollAction::Send { dst: NodeId(1), .. }]),
            "round 1 send to rank 2 = node 1, got {a:?}"
        );
        let a = packet(&mut e, SimTime::from_us(2.0), &barrier_packet(1, 1));
        assert!(
            matches!(a.as_slice(), [CollAction::HostDone { .. }]),
            "{a:?}"
        );
    }

    #[test]
    #[should_panic(expected = "not an expected sender in round 0")]
    fn member_outside_its_round_panics() {
        // Rank 0 of 4 expects rank 3 in round 0; rank 1 sends nothing to it.
        let mut e = barrier_engine(4, 0);
        let _ = packet(&mut e, SimTime::ZERO, &barrier_packet(1, 0));
    }

    #[test]
    #[should_panic(expected = "not an expected sender")]
    fn non_member_packet_panics() {
        let mut e = barrier_engine(4, 0);
        let _ = packet(&mut e, SimTime::ZERO, &barrier_packet(9, 0));
    }

    #[test]
    fn two_rank_allreduce_sums() {
        let spec = |rank| GroupSpec {
            id: GroupId(2),
            members: members(2),
            my_rank: rank,
            op: GroupOp::Allreduce { op: ReduceOp::Sum },
            algo: Algorithm::Dissemination,
            timeout: SimTime::from_us(100.0),
        };
        let mut e0 = PaperCollective::new(NodeId(0), vec![spec(0)]);
        let a = doorbell(
            &mut e0,
            SimTime::ZERO,
            GroupId(2),
            0,
            &CollOperand::Scalar(10),
        );
        // Round 0 send carries our contribution.
        let sent = a
            .iter()
            .find_map(|x| match x {
                CollAction::Send { pkt, .. } => Some(pkt.kind.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(sent, CollKind::Reduce { value: 10 });
        // Peer's contribution arrives.
        let from1 = CollPacket {
            src: NodeId(1),
            group: GroupId(2),
            epoch: 0,
            round: 0,
            kind: CollKind::Reduce { value: 32 },
        };
        let done = packet(&mut e0, SimTime::from_us(1.0), &from1);
        assert!(matches!(done[0], CollAction::HostDone { value: 42, .. }));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn sum_allreduce_rejects_non_power_of_two() {
        let spec = GroupSpec {
            id: GroupId(3),
            members: members(6),
            my_rank: 0,
            op: GroupOp::Allreduce { op: ReduceOp::Sum },
            algo: Algorithm::Dissemination,
            timeout: SimTime::from_us(100.0),
        };
        let _ = PaperCollective::new(NodeId(0), vec![spec]);
    }

    #[test]
    fn reduce_op_semantics() {
        assert_eq!(ReduceOp::Sum.combine(2, 3), 5);
        assert_eq!(ReduceOp::Min.combine(2, 3), 2);
        assert_eq!(ReduceOp::Max.combine(2, 3), 3);
        assert_eq!(ReduceOp::BitOr.combine(0b01, 0b10), 0b11);
        assert!(!ReduceOp::Sum.tolerates_overlap());
        assert!(ReduceOp::Min.tolerates_overlap());
    }
}
