//! The LANai NIC model — a faithful-in-structure rendition of the Myrinet
//! Control Program's communication processing (§4.2 of the paper), plus the
//! hook for the NIC-based collective protocol (§3/§6).
//!
//! ## Point-to-point send path
//!
//! ```text
//! host SendPost ─► token create ─► per-destination FIFO queue
//!                 ─► round-robin scheduler pass (SendWork)
//!                 ─► claim send packet buffer (bounded pool)
//!                 ─► DMA payload host→NIC        (DmaToNicDone)
//!                 ─► create send record, inject  (Inject → fabric)
//! ```
//!
//! The receiver checks the sequence number, consumes a receive token, DMAs
//! the payload to host memory (`DmaToHostDone`), generates a cumulative ACK
//! from the per-peer static packet, and raises a receive event to the host.
//! ACKs retire send records and release packet buffers; a periodic timer
//! sweep retransmits unacked packets (go-back-N), so the protocol survives
//! the fabric's loss injection.
//!
//! ## Collective path
//!
//! A `CollPost` doorbell or an arriving collective packet is handed to the
//! installed [`NicCollective`] engine. Executing its actions costs
//! `nic_coll_send` / `nic_coll_recv` only — the dedicated group queue,
//! static packet and bit-vector record mean no queue traversal, no buffer
//! claim, no payload DMA and no per-packet record churn. Ablation flags
//! ([`CollFeatures`]) add those point-to-point surcharges back one by one.
//!
//! ## Resource model
//!
//! The LANai processor is a *serial* resource (`cpu_free`): every processing
//! step starts no earlier than the previous one finished. This is what makes
//! concurrent arrivals serialize at a hot-spot NIC — the effect the paper
//! cites to explain pairwise-exchange's behaviour on Myrinet. The DMA engine
//! is a second serial resource that overlaps the CPU.

use crate::collective::{ActionBuf, CollAction, NicCollective};
use crate::events::GmEvent;
use crate::params::{CollFeatures, GmParams};
use crate::types::{
    CollKind, CollPacket, MsgTag, Packet, PacketKind, SendRecord, SendToken, BULK_TAG,
};
use nicbar_net::{NodeId, WireModel, WireRx};
use nicbar_sim::counter_id;
use nicbar_sim::{
    CausalKind, CauseId, Component, ComponentId, Ctx, Occ, Owner, PacketLog, ResKind, SimTime,
    SpanEvent,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-source reassembly state for a partially received message.
#[derive(Clone, Copy, Debug)]
struct Assembly {
    received: u32,
    total_len: u32,
}

/// Point-to-point protocol state: per-peer queues and sequence tracking,
/// O(n) per NIC and therefore O(n²) per cluster. Allocated lazily on the
/// first p2p stimulus, so a collective-only simulation (the paper's barrier,
/// and the 4096-node `fig-scale` sweep) keeps every NIC at O(1) memory.
struct P2pState {
    // --- send side ---
    send_queues: Vec<VecDeque<SendToken>>,
    rr_cursor: usize,
    next_seq: Vec<u32>,
    inflight: Vec<VecDeque<SendRecord>>,

    // --- receive side ---
    expect_seq: Vec<u32>,
    /// Per-source FIFO of messages being reassembled. Packets from one
    /// source arrive in seq order and host DMAs complete in order, so the
    /// front entry is always the message whose payload lands next.
    assembling: Vec<VecDeque<Assembly>>,
}

impl P2pState {
    fn new(n: usize) -> Self {
        P2pState {
            send_queues: (0..n).map(|_| VecDeque::new()).collect(),
            rr_cursor: 0,
            next_seq: vec![0; n],
            inflight: (0..n).map(|_| VecDeque::new()).collect(),
            expect_seq: vec![0; n],
            assembling: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Is the front token of queue `d` launchable right now?
    fn queue_eligible(
        &self,
        d: usize,
        window: usize,
        free_packets: usize,
        static_packet: bool,
    ) -> bool {
        let Some(front) = self.send_queues[d].front() else {
            return false;
        };
        if front.coll.is_some() {
            // A collective token riding the p2p queues (group-queue
            // ablation): its payload is NIC-resident, so it only needs a
            // buffer when the static packet is also ablated.
            static_packet || free_packets > 0
        } else {
            self.inflight[d].len() < window && free_packets > 0
        }
    }
}

/// Occupancy-ledger owner of a point-to-point stream, by its user tag:
/// the traffic generator's [`BULK_TAG`] marks first-class background
/// traffic; anything else is an ordinary p2p message.
fn stream_owner(tag: MsgTag, rank: u32) -> Owner {
    if tag == BULK_TAG {
        Owner::traffic(rank)
    } else {
        Owner::p2p(rank)
    }
}

/// Occupancy-ledger owner of a collective packet. Protocol plumbing
/// (collective ACKs and NACKs) bills to the fabric bucket: it is
/// reliability overhead, not the operation's own progress.
fn coll_owner(cp: &CollPacket) -> Owner {
    match cp.kind {
        CollKind::Ack | CollKind::Nack => Owner::fabric(cp.src.0 as u32),
        CollKind::Barrier
        | CollKind::Bcast { .. }
        | CollKind::Reduce { .. }
        | CollKind::Gather { .. }
        | CollKind::AllToAll { .. } => Owner::coll(cp.group.0 as u64, cp.epoch, cp.src.0 as u32),
    }
}

/// Occupancy-ledger owner of a wire packet, classified at the receiving
/// port: data by its stream tag, collectives by `(group, epoch)`, ACKs as
/// fabric overhead.
fn packet_owner(pkt: &Packet) -> Owner {
    match &pkt.kind {
        PacketKind::Data { tag, .. } => stream_owner(*tag, pkt.src.0 as u32),
        PacketKind::Ack { .. } => Owner::fabric(pkt.src.0 as u32),
        PacketKind::Coll(cp) => coll_owner(cp),
    }
}

/// The Myrinet LANai NIC component.
pub struct LanaiNic {
    node: NodeId,
    n: usize,
    params: GmParams,
    features: CollFeatures,
    /// This NIC's wire receive port (shared routing model + private
    /// destination-port contention state).
    wire: WireRx,
    /// Component id of NIC 0; NIC `d` is `nic0 + d` (contiguous layout).
    nic0: ComponentId,
    host: ComponentId,

    /// LANai processor busy-until (serial resource).
    cpu_free: SimTime,
    /// DMA engine busy-until (serial resource, overlaps the CPU).
    dma_free: SimTime,

    // --- point-to-point (lazy: None until the first p2p stimulus) ---
    p2p: Option<Box<P2pState>>,
    free_packets: usize,
    work_scheduled: bool,
    recv_tokens: u32,

    // --- collective ---
    coll: Box<dyn NicCollective>,
    /// Reusable scratch the collective engine fills and
    /// [`LanaiNic::run_coll_actions`] drains; taken out of `self` around
    /// each engine call (leaving an empty, allocation-free placeholder) and
    /// put back with its capacity intact.
    coll_buf: ActionBuf,
    /// Reusable scratch for message ids completed by a cumulative ACK.
    ack_scratch: Vec<u64>,

    // --- timer ---
    timer_armed: bool,
}

impl LanaiNic {
    /// Build a NIC for `node` in an `n`-node cluster.
    ///
    /// `initial_recv_tokens` models the host library pre-posting receive
    /// buffers at startup (as GM applications do).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node: NodeId,
        n: usize,
        params: GmParams,
        features: CollFeatures,
        wire: WireRx,
        nic0: ComponentId,
        host: ComponentId,
        coll: Box<dyn NicCollective>,
        initial_recv_tokens: u32,
    ) -> Self {
        LanaiNic {
            node,
            n,
            free_packets: params.send_packet_pool,
            params,
            features,
            wire,
            nic0,
            host,
            cpu_free: SimTime::ZERO,
            dma_free: SimTime::ZERO,
            p2p: None,
            work_scheduled: false,
            recv_tokens: initial_recv_tokens,
            coll,
            coll_buf: ActionBuf::new(),
            ack_scratch: Vec::new(),
            timer_armed: false,
        }
    }

    /// The p2p state, allocated on first use.
    fn p2p_mut(&mut self) -> &mut P2pState {
        let n = self.n;
        self.p2p.get_or_insert_with(|| Box::new(P2pState::new(n)))
    }

    /// Claim the NIC processor for `cost`, starting no earlier than `now`;
    /// returns `(start, done)`.
    fn cpu_claim(&mut self, now: SimTime, cost: SimTime) -> (SimTime, SimTime) {
        let start = now.max(self.cpu_free);
        self.cpu_free = start + cost;
        (start, self.cpu_free)
    }

    /// Occupy the NIC processor for `cost` on `owner`'s behalf, starting no
    /// earlier than `now`; returns the completion time. Every charge emits
    /// a ledger hold (and a wait when the processor was busy), so the holds
    /// tile each busy period exactly — the invariant the interference
    /// attribution's coverage gate relies on.
    fn cpu(
        &mut self,
        ctx: &mut Ctx<'_, GmEvent>,
        now: SimTime,
        cost: SimTime,
        owner: Owner,
    ) -> SimTime {
        let (start, done) = self.cpu_claim(now, cost);
        let node = self.node.0 as u32;
        if start > now {
            ctx.ledger(Occ::wait(ResKind::NicCpu, now, start, node, owner));
        }
        ctx.ledger(Occ::hold(ResKind::NicCpu, start, done, node, owner));
        done
    }

    /// Claim the DMA engine for a `bytes` transfer starting no earlier than
    /// `now`; returns `(start, done)`.
    fn dma_claim(&mut self, now: SimTime, bytes: u32) -> (SimTime, SimTime) {
        let start = now.max(self.dma_free);
        self.dma_free = start + self.params.dma_time(bytes);
        (start, self.dma_free)
    }

    /// Occupy the DMA engine for a `bytes` transfer on `owner`'s behalf,
    /// starting no earlier than `now`; returns the completion time. Ledger
    /// semantics as for [`LanaiNic::cpu`].
    fn dma(
        &mut self,
        ctx: &mut Ctx<'_, GmEvent>,
        now: SimTime,
        bytes: u32,
        owner: Owner,
    ) -> SimTime {
        let (start, done) = self.dma_claim(now, bytes);
        let node = self.node.0 as u32;
        if start > now {
            ctx.ledger(Occ::wait(ResKind::DmaEngine, now, start, node, owner));
        }
        ctx.ledger(Occ::hold(ResKind::DmaEngine, start, done, node, owner));
        done
    }

    /// Arm the periodic timer sweep if there is anything to watch.
    fn ensure_timer(&mut self, ctx: &mut Ctx<'_, GmEvent>) {
        if self.timer_armed {
            return;
        }
        let p2p_pending = self
            .p2p
            .as_ref()
            .is_some_and(|p| p.inflight.iter().any(|q| !q.is_empty()));
        if p2p_pending || self.coll.next_deadline().is_some() {
            self.timer_armed = true;
            ctx.send_self(self.params.timer_interval, GmEvent::TimerCheck);
        }
    }

    /// Kick the send scheduler (idempotent: at most one `SendWork` pending).
    fn kick_scheduler(&mut self, ctx: &mut Ctx<'_, GmEvent>) {
        if !self.work_scheduled {
            self.work_scheduled = true;
            // The pass itself runs on the NIC CPU; schedule it at the point
            // the CPU can take it.
            let at = ctx.now().max(self.cpu_free);
            ctx.send_at(at, ctx.self_id(), GmEvent::SendWork);
        }
    }

    /// One scheduler pass: launch at most one packet, then reschedule if
    /// more work is eligible.
    fn send_work(&mut self, ctx: &mut Ctx<'_, GmEvent>) {
        // Take the p2p box out of `self` for the pass: the scheduler reads
        // its queues while also charging `self.cpu`, and the split keeps
        // both borrows legal without cloning anything.
        let Some(mut p2p) = self.p2p.take() else {
            return; // no p2p state yet: nothing can be queued
        };
        self.send_work_inner(ctx, &mut p2p);
        self.p2p = Some(p2p);
    }

    fn send_work_inner(&mut self, ctx: &mut Ctx<'_, GmEvent>, p2p: &mut P2pState) {
        let now = ctx.now();
        let n = self.n;
        let window = self.params.window;
        let static_packet = self.features.static_packet;
        // Round-robin scan for a destination with an eligible token.
        let mut chosen: Option<usize> = None;
        for k in 0..n {
            let d = (p2p.rr_cursor + k) % n;
            if p2p.queue_eligible(d, window, self.free_packets, static_packet) {
                chosen = Some(d);
                break;
            }
            if !p2p.send_queues[d].is_empty() {
                // Head-of-line token blocked on the packet pool or window —
                // the waiting the paper's §6.1/§6.2 machinery eliminates.
                ctx.count_id(counter_id!("gm.packet_wait"), 1);
            }
        }
        let Some(dst) = chosen else {
            return; // nothing eligible; re-kicked on token/ACK arrival
        };
        p2p.rr_cursor = (dst + 1) % n;

        if p2p.send_queues[dst]
            .front()
            .expect("eligible queue")
            .coll
            .is_some()
        {
            // Launch a queued collective token: no payload DMA (the value
            // lives in NIC memory); buffer claim only under static-packet
            // ablation.
            let token = p2p.send_queues[dst].pop_front().expect("checked");
            let pkt = token.coll.expect("checked");
            let owner = coll_owner(&pkt);
            let mut cost = self.params.nic_sched_pass + self.params.nic_coll_send;
            if !self.features.static_packet {
                cost += self.params.nic_packet_claim.scale(0.5);
            }
            if !self.features.bitvec_bookkeeping {
                cost += self.params.nic_record_create;
            }
            let t = self.cpu(ctx, now, cost, owner);
            ctx.ledger(
                Occ::release(ResKind::SendQueue, t, self.node.0 as u32, owner).unit(dst as u64),
            );
            let is_nack = matches!(pkt.kind, CollKind::Nack);
            ctx.count_id(
                if is_nack {
                    counter_id!("gm.nack_sent")
                } else {
                    counter_id!("gm.coll_sent")
                },
                1,
            );
            // Span: the queued token finally launches. The retx flag did
            // not survive the SendToken wrapping, so a NACK-triggered
            // resend on this ablated path reports as a fire/nack.
            if is_nack {
                ctx.span(SpanEvent::Nack {
                    dst: dst as u64,
                    round: pkt.round as u64,
                });
            } else {
                ctx.span(SpanEvent::Fire {
                    unit: pkt.group.0 as u64,
                    dst: dst as u64,
                });
            }
            // Netdump: the token's stored cause covers the queuing wait —
            // the edge from protocol decision to actual launch.
            let fire = ctx.packet(
                PacketLog::new(
                    token.cause,
                    if is_nack {
                        CausalKind::Nack
                    } else {
                        CausalKind::Fire
                    },
                )
                .nodes(self.node.0 as u32, dst as u32)
                .key(pkt.group.0 as u64, pkt.epoch)
                .detail(pkt.round as u64, 0),
            );
            self.inject(
                ctx,
                t,
                Packet {
                    src: self.node,
                    dst: NodeId(dst),
                    kind: PacketKind::Coll(pkt),
                    cause: fire,
                },
            );
        } else {
            let token = p2p.send_queues[dst].front_mut().expect("checked above");
            let owner = stream_owner(token.tag, self.node.0 as u32);
            let payload = (token.len - token.offset).min(self.params.mtu);
            let (msg_id, offset, total_len, tag, token_cause) = (
                token.msg_id,
                token.offset,
                token.len,
                token.tag,
                token.cause,
            );
            token.offset += payload;
            let msg_exhausted = token.offset >= token.len;
            if msg_exhausted {
                p2p.send_queues[dst].pop_front();
            }

            // Scheduler pass + buffer claim burn NIC cycles.
            let t = self.cpu(
                ctx,
                now,
                self.params.nic_sched_pass + self.params.nic_packet_claim,
                owner,
            );
            self.free_packets -= 1;
            ctx.ledger(
                Occ::acquire(ResKind::PacketPool, t, self.node.0 as u32, owner)
                    .unit(self.free_packets as u64),
            );
            if msg_exhausted {
                ctx.ledger(
                    Occ::release(ResKind::SendQueue, t, self.node.0 as u32, owner).unit(dst as u64),
                );
            }

            // Netdump: payload DMA begins (parent: the host post).
            let dma_cause = ctx.packet(
                PacketLog::new(token_cause, CausalKind::DmaStart)
                    .nodes(self.node.0 as u32, dst as u32)
                    .detail(payload as u64, 0),
            );

            // Payload crosses the I/O bus into the claimed buffer.
            let dma_done = self.dma(ctx, t, payload, owner);
            ctx.send_at(
                dma_done,
                ctx.self_id(),
                GmEvent::DmaToNicDone {
                    dst: NodeId(dst),
                    msg_id,
                    offset,
                    payload,
                    total_len,
                    tag,
                    cause: dma_cause,
                },
            );
        }

        // More eligible work? Keep the scheduler hot.
        let more = (0..n).any(|d| p2p.queue_eligible(d, window, self.free_packets, static_packet));
        if more {
            self.work_scheduled = true;
            ctx.send_at(
                self.cpu_free.max(ctx.now()),
                ctx.self_id(),
                GmEvent::SendWork,
            );
        }
    }

    /// Packet build finished: create the send record and inject.
    #[allow(clippy::too_many_arguments)]
    fn on_dma_to_nic_done(
        &mut self,
        ctx: &mut Ctx<'_, GmEvent>,
        dst: NodeId,
        msg_id: u64,
        offset: u32,
        payload: u32,
        total_len: u32,
        tag: crate::types::MsgTag,
        cause: CauseId,
    ) {
        let now = ctx.now();
        let owner = stream_owner(tag, self.node.0 as u32);
        let t = self.cpu(
            ctx,
            now,
            self.params.nic_record_create + self.params.nic_inject,
            owner,
        );
        let seq = {
            let p2p = self.p2p_mut();
            let seq = p2p.next_seq[dst.0];
            p2p.next_seq[dst.0] += 1;
            seq
        };
        // Netdump: DMA completed, then the packet commits to the fabric.
        let dma_done = ctx.packet(
            PacketLog::new(cause, CausalKind::DmaDone)
                .nodes(self.node.0 as u32, dst.0 as u32)
                .detail(payload as u64, 0),
        );
        let fire = ctx.packet(
            PacketLog::new(dma_done, CausalKind::Fire)
                .nodes(self.node.0 as u32, dst.0 as u32)
                .detail(seq as u64, 0),
        );
        self.p2p_mut().inflight[dst.0].push_back(SendRecord {
            seq,
            msg_id,
            end_offset: offset + payload,
            total_len,
            tag,
            payload,
            sent_at: t,
            retries: 0,
            cause: fire,
        });
        let pkt = Packet {
            src: self.node,
            dst,
            kind: PacketKind::Data {
                seq,
                msg_id,
                offset,
                payload,
                total_len,
                tag,
            },
            cause: fire,
        };
        ctx.count_id(counter_id!("gm.data_sent"), 1);
        self.inject(ctx, t, pkt);
        self.ensure_timer(ctx);
    }

    /// An in-order data packet was accepted; move its payload to the host.
    #[allow(clippy::too_many_arguments)]
    fn accept_data(
        &mut self,
        ctx: &mut Ctx<'_, GmEvent>,
        after: SimTime,
        src: NodeId,
        seq: u32,
        offset: u32,
        payload: u32,
        total_len: u32,
        tag: crate::types::MsgTag,
        cause: CauseId,
    ) {
        let owner = stream_owner(tag, src.0 as u32);
        let t = self.cpu(ctx, after, self.params.nic_recv_match, owner);
        if offset == 0 {
            // New message: reserve the receive buffer.
            self.recv_tokens -= 1;
            ctx.ledger(
                Occ::acquire(ResKind::RecvTokens, t, self.node.0 as u32, owner)
                    .unit(self.recv_tokens as u64),
            );
            self.p2p_mut().assembling[src.0].push_back(Assembly {
                received: 0,
                total_len,
            });
        }
        // Netdump: NIC→host payload DMA begins.
        let dma_cause = ctx.packet(
            PacketLog::new(cause, CausalKind::DmaStart)
                .nodes(src.0 as u32, self.node.0 as u32)
                .detail(payload as u64, 0),
        );
        let dma_done = self.dma(ctx, t, payload, owner);
        ctx.send_at(
            dma_done,
            ctx.self_id(),
            GmEvent::DmaToHostDone {
                src,
                seq,
                tag,
                payload,
                total_len,
                offset,
                cause: dma_cause,
            },
        );
    }

    /// Send a cumulative ACK to `dst` from the per-peer static packet.
    /// `cause` is the netdump record the ACK responds to.
    fn send_ack(
        &mut self,
        ctx: &mut Ctx<'_, GmEvent>,
        after: SimTime,
        dst: NodeId,
        upto: u32,
        cause: CauseId,
    ) {
        let t = self.cpu(
            ctx,
            after,
            self.params.nic_ack_gen,
            Owner::fabric(self.node.0 as u32),
        );
        let fire = ctx.packet(
            PacketLog::new(cause, CausalKind::Fire)
                .nodes(self.node.0 as u32, dst.0 as u32)
                .detail(upto as u64, 0),
        );
        let pkt = Packet {
            src: self.node,
            dst,
            kind: PacketKind::Ack { upto },
            cause: fire,
        };
        ctx.count_id(counter_id!("gm.ack_sent"), 1);
        self.inject(ctx, t, pkt);
    }

    fn on_arrive(&mut self, ctx: &mut Ctx<'_, GmEvent>, pkt: Packet) {
        let now = ctx.now();
        match pkt.kind {
            PacketKind::Data {
                seq,
                offset,
                payload,
                total_len,
                tag,
                ..
            } => {
                let src = pkt.src;
                let t = self.cpu(
                    ctx,
                    now,
                    self.params.nic_seq_check,
                    stream_owner(tag, src.0 as u32),
                );
                let arrive = ctx.packet(
                    PacketLog::new(pkt.cause, CausalKind::Arrive)
                        .nodes(src.0 as u32, self.node.0 as u32)
                        .detail(seq as u64, 0),
                );
                let expected = self.p2p_mut().expect_seq[src.0];
                if seq == expected {
                    if offset == 0 && self.recv_tokens == 0 {
                        // No receive buffer: GM drops the packet; the
                        // sender's timeout recovers it.
                        ctx.count_id(counter_id!("gm.drop_no_token"), 1);
                        return;
                    }
                    self.p2p_mut().expect_seq[src.0] = expected + 1;
                    self.accept_data(ctx, t, src, seq, offset, payload, total_len, tag, arrive);
                } else if seq < expected {
                    // Duplicate from a retransmission: re-ACK so the sender
                    // advances past it (covers lost-ACK cases).
                    ctx.count_id(counter_id!("gm.duplicate"), 1);
                    self.send_ack(ctx, t, src, expected.wrapping_sub(1), arrive);
                } else {
                    // A gap: an earlier packet was lost. GM drops unexpected
                    // packets immediately (§4.2).
                    ctx.count_id(counter_id!("gm.drop_unexpected"), 1);
                }
            }
            PacketKind::Ack { upto } => {
                let src = pkt.src;
                let t = self.cpu(
                    ctx,
                    now,
                    self.params.nic_ack_process,
                    Owner::fabric(src.0 as u32),
                );
                ctx.packet(
                    PacketLog::new(pkt.cause, CausalKind::Arrive)
                        .nodes(src.0 as u32, self.node.0 as u32)
                        .detail(upto as u64, 0),
                );
                // Reusable scratch for completed message ids: ACK bursts in
                // steady state must not touch the heap.
                let mut completed = std::mem::take(&mut self.ack_scratch);
                let mut freed = 0;
                {
                    let q = &mut self.p2p_mut().inflight[src.0];
                    while let Some(front) = q.front() {
                        if front.seq > upto {
                            break;
                        }
                        let rec = q.pop_front().expect("front checked");
                        freed += 1;
                        if rec.end_offset >= rec.total_len {
                            completed.push(rec.msg_id);
                        }
                    }
                }
                self.free_packets += freed;
                if freed > 0 {
                    // One release per cumulative ACK; `unit` carries the
                    // pool level after the return.
                    ctx.ledger(
                        Occ::release(
                            ResKind::PacketPool,
                            t,
                            self.node.0 as u32,
                            Owner::fabric(src.0 as u32),
                        )
                        .unit(self.free_packets as u64),
                    );
                }
                for &msg_id in completed.iter() {
                    ctx.send_at(
                        t + self.params.host_event_dma,
                        self.host,
                        GmEvent::SendDone { msg_id },
                    );
                }
                completed.clear();
                self.ack_scratch = completed;
                self.kick_scheduler(ctx);
            }
            PacketKind::Coll(cp) => {
                if matches!(cp.kind, CollKind::Ack) {
                    // NIC-level collective ACK (ablation mode only): retire
                    // the per-message record; carries no protocol state.
                    let _ = self.cpu(
                        ctx,
                        now,
                        self.params.nic_ack_process,
                        Owner::fabric(cp.src.0 as u32),
                    );
                    ctx.count_id(counter_id!("gm.coll_ack_recv"), 1);
                    return;
                }
                let t = self.cpu(ctx, now, self.params.nic_coll_recv, coll_owner(&cp));
                ctx.count_id(counter_id!("gm.coll_recv"), 1);
                // Span: collective packet accepted (info = epoch).
                ctx.span(SpanEvent::Arrive {
                    src: cp.src.0 as u64,
                    info: cp.epoch,
                });
                // Netdump: the arrival record is the cause handed to the
                // protocol engine — every action it enables chains here.
                let arrive = ctx.packet(
                    PacketLog::new(pkt.cause, CausalKind::Arrive)
                        .nodes(cp.src.0 as u32, self.node.0 as u32)
                        .key(cp.group.0 as u64, cp.epoch)
                        .detail(cp.round as u64, 0),
                );
                let mut buf = std::mem::take(&mut self.coll_buf);
                self.coll.on_packet(t, &cp, arrive, &mut buf);
                let needs_ack =
                    !self.features.recv_driven_retx && !matches!(cp.kind, CollKind::Nack);
                self.run_coll_actions(ctx, t, &mut buf);
                self.coll_buf = buf;
                if needs_ack {
                    // Ablated reliability: acknowledge every collective
                    // packet like a point-to-point message would be. The
                    // ACK is generated after any triggered sends (the MCP
                    // forwards first), so it burns NIC cycles without
                    // sitting directly on the trigger path.
                    let ack = crate::types::CollPacket {
                        src: self.node,
                        group: cp.group,
                        epoch: cp.epoch,
                        round: cp.round,
                        kind: CollKind::Ack,
                    };
                    let after_sends = ctx.now();
                    let ta = self.cpu(
                        ctx,
                        after_sends,
                        self.params.nic_ack_gen,
                        Owner::fabric(self.node.0 as u32),
                    );
                    ctx.count_id(counter_id!("gm.coll_ack_sent"), 1);
                    let ack_fire = ctx.packet(
                        PacketLog::new(arrive, CausalKind::Fire)
                            .nodes(self.node.0 as u32, cp.src.0 as u32)
                            .key(cp.group.0 as u64, cp.epoch)
                            .detail(cp.round as u64, 0),
                    );
                    self.inject(
                        ctx,
                        ta,
                        Packet {
                            src: self.node,
                            dst: cp.src,
                            kind: PacketKind::Coll(ack),
                            cause: ack_fire,
                        },
                    );
                }
            }
        }
    }

    /// Execute the actions the collective engine buffered, charging the
    /// collective (or ablated) cost model. Drains `actions` in place; the
    /// caller owns the buffer (normally `self.coll_buf`, taken out around
    /// the engine call) and puts it back to keep its capacity.
    fn run_coll_actions(
        &mut self,
        ctx: &mut Ctx<'_, GmEvent>,
        after: SimTime,
        actions: &mut ActionBuf,
    ) {
        let mut at = after;
        for action in actions.drain() {
            match action {
                CollAction::Send {
                    dst,
                    pkt,
                    retx,
                    cause,
                } => {
                    assert_ne!(dst, self.node, "collective self-send");
                    let owner = coll_owner(&pkt);
                    if !self.features.group_queue {
                        // Group-queue ablation: the collective message is
                        // enqueued as an ordinary send token and takes its
                        // round-robin turn behind whatever else is queued
                        // to this destination (§6.1's problem, structural).
                        let t = self.cpu(ctx, at, self.params.nic_token_create.scale(0.5), owner);
                        ctx.ledger(
                            Occ::acquire(ResKind::SendQueue, t, self.node.0 as u32, owner)
                                .unit(dst.0 as u64),
                        );
                        // Span: queue depth the collective token waits
                        // behind.
                        ctx.span(SpanEvent::Enqueue {
                            dst: dst.0 as u64,
                            depth: self.p2p_mut().send_queues[dst.0].len() as u64,
                        });
                        // The fire record is emitted when the token finally
                        // launches (`send_work`), so the queuing wait shows
                        // up as the edge from `cause` to that record.
                        self.p2p_mut().send_queues[dst.0].push_back(SendToken {
                            msg_id: 0,
                            dst,
                            len: 0,
                            tag: crate::types::MsgTag(0),
                            offset: 0,
                            coll: Some(pkt),
                            cause,
                        });
                        at = t;
                        self.kick_scheduler(ctx);
                        continue;
                    }
                    // Dedicated group queue: one token per operation, always
                    // at the front of its own queue — emit immediately from
                    // the static packet.
                    let mut cost = self.params.nic_coll_send;
                    if !self.features.static_packet {
                        // Claim and fill a send buffer like a regular
                        // message (§6.2). Barrier payloads fit the small
                        // packet pool, so the claim is about half a
                        // full-size claim; release folds in.
                        cost += self.params.nic_packet_claim.scale(0.5);
                    }
                    if !self.features.bitvec_bookkeeping {
                        // One send record per message instead of one bit
                        // vector per operation (§6.3).
                        cost += self.params.nic_record_create;
                    }
                    at = self.cpu(ctx, at, cost, owner);
                    let is_nack = matches!(pkt.kind, CollKind::Nack);
                    ctx.count_id(
                        if is_nack {
                            counter_id!("gm.nack_sent")
                        } else {
                            counter_id!("gm.coll_sent")
                        },
                        1,
                    );
                    // Span: the §6.1 bypass in action, attributed to the
                    // retransmit / nack / fire phase as appropriate.
                    if retx {
                        ctx.span(SpanEvent::Retransmit {
                            dst: dst.0 as u64,
                            round: pkt.round as u64,
                        });
                    } else if is_nack {
                        ctx.span(SpanEvent::Nack {
                            dst: dst.0 as u64,
                            round: pkt.round as u64,
                        });
                    } else {
                        ctx.span(SpanEvent::Fire {
                            unit: pkt.group.0 as u64,
                            dst: dst.0 as u64,
                        });
                    }
                    // Netdump: NACK-triggered resends and the NACKs
                    // themselves are distinct kinds, so the analyzer can
                    // name the recovery detour on a critical path.
                    let fire = ctx.packet(
                        PacketLog::new(
                            cause,
                            if retx {
                                CausalKind::Retransmit
                            } else if is_nack {
                                CausalKind::Nack
                            } else {
                                CausalKind::Fire
                            },
                        )
                        .nodes(self.node.0 as u32, dst.0 as u32)
                        .key(pkt.group.0 as u64, pkt.epoch)
                        .detail(pkt.round as u64, 0),
                    );
                    self.inject(
                        ctx,
                        at,
                        Packet {
                            src: self.node,
                            dst,
                            kind: PacketKind::Coll(pkt),
                            cause: fire,
                        },
                    );
                }
                CollAction::HostDone {
                    group,
                    epoch,
                    value,
                    cause,
                } => {
                    // Span: completion event DMAed up to the host.
                    ctx.span(SpanEvent::Notify {
                        unit: group.0 as u64,
                        cookie: epoch,
                    });
                    let notify = ctx.packet(
                        PacketLog::new(cause, CausalKind::Notify)
                            .at_node(self.node.0 as u32)
                            .key(group.0 as u64, epoch)
                            .detail(value, 0),
                    );
                    ctx.send_at(
                        at + self.params.host_event_dma,
                        self.host,
                        GmEvent::CollDone {
                            group,
                            epoch,
                            value,
                            cause: notify,
                        },
                    );
                }
            }
        }
        self.ensure_timer(ctx);
    }

    /// Periodic sweep: go-back-N retransmission for the point-to-point
    /// protocol, then the collective engine's own timer.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, GmEvent>) {
        self.timer_armed = false;
        let now = ctx.now();
        let timeout = self.params.ack_timeout;
        if let Some(mut p2p) = self.p2p.take() {
            self.retransmit_sweep(ctx, &mut p2p, now, timeout);
            self.p2p = Some(p2p);
        }
        let mut buf = std::mem::take(&mut self.coll_buf);
        self.coll.on_timer(now.max(self.cpu_free), &mut buf);
        self.run_coll_actions(ctx, now.max(self.cpu_free), &mut buf);
        self.coll_buf = buf;
        self.ensure_timer(ctx);
    }

    fn retransmit_sweep(
        &mut self,
        ctx: &mut Ctx<'_, GmEvent>,
        p2p: &mut P2pState,
        now: SimTime,
        timeout: SimTime,
    ) {
        for d in 0..p2p.inflight.len() {
            let overdue = p2p.inflight[d]
                .front()
                .map(|r| now.saturating_sub(r.sent_at) >= timeout)
                .unwrap_or(false);
            if !overdue {
                continue;
            }
            // Go-back-N: re-inject every unacked packet to this destination
            // (payloads are still in the NIC's claimed buffers).
            for i in 0..p2p.inflight[d].len() {
                let t = self.cpu(
                    ctx,
                    now,
                    self.params.nic_inject,
                    Owner::fabric(self.node.0 as u32),
                );
                let rec = &mut p2p.inflight[d][i];
                rec.sent_at = t;
                rec.retries += 1;
                let (seq, orig_cause) = (rec.seq, rec.cause);
                let mut pkt = Packet {
                    src: self.node,
                    dst: NodeId(d),
                    kind: PacketKind::Data {
                        seq: rec.seq,
                        msg_id: rec.msg_id,
                        offset: rec.end_offset - rec.payload,
                        payload: rec.payload,
                        total_len: rec.total_len,
                        tag: rec.tag,
                    },
                    cause: CauseId::NONE,
                };
                ctx.count_id(counter_id!("gm.retransmit"), 1);
                // Span: go-back-N re-injection (round = wire sequence).
                ctx.span(SpanEvent::Retransmit {
                    dst: d as u64,
                    round: seq as u64,
                });
                // Netdump: the detour parents on the original injection.
                pkt.cause = ctx.packet(
                    PacketLog::new(orig_cause, CausalKind::Retransmit)
                        .nodes(self.node.0 as u32, d as u32)
                        .detail(seq as u64, 0),
                );
                self.inject(ctx, t, pkt);
            }
        }
    }

    /// Commit `pkt` to the wire at time `t`: the routed flight latency
    /// comes from the shared (immutable) wire model, and the packet
    /// presents at the destination NIC's input port as a
    /// [`GmEvent::Inject`]. Contention and the loss draw resolve there,
    /// in [`LanaiNic::on_inject`] — the receiver owns the wire's only
    /// mutable state, which is what lets clusters shard.
    fn inject(&mut self, ctx: &mut Ctx<'_, GmEvent>, t: SimTime, pkt: Packet) {
        let flight = self.wire.model().flight(pkt.src, pkt.dst, pkt.wire_bytes());
        let target = ComponentId(self.nic0.0 + pkt.dst.0);
        ctx.send_at(t + flight, target, GmEvent::Inject(pkt));
    }

    /// A packet presents at this NIC's input port after its routed
    /// flight. Port contention (arrival order at *this* port), the loss
    /// draw (this NIC's RNG), the wire counters, and the wire/drop
    /// netdump records all happen here at the receiver.
    fn on_inject(&mut self, ctx: &mut Ctx<'_, GmEvent>, mut pkt: Packet) {
        debug_assert_eq!(pkt.dst, self.node, "packet presented at the wrong NIC");
        let label = match &pkt.kind {
            PacketKind::Data { .. } => counter_id!("wire.data"),
            PacketKind::Ack { .. } => counter_id!("wire.ack"),
            PacketKind::Coll(c) => match c.kind {
                CollKind::Nack => counter_id!("wire.coll_nack"),
                CollKind::Ack => counter_id!("wire.coll_ack"),
                CollKind::Barrier
                | CollKind::Bcast { .. }
                | CollKind::Reduce { .. }
                | CollKind::Gather { .. }
                | CollKind::AllToAll { .. } => counter_id!("wire.coll"),
            },
        };
        ctx.count_id(label, 1);
        ctx.count_id(counter_id!("wire.total"), 1);
        let bytes = pkt.wire_bytes();
        // Span: the wire crossing (emitted before the loss draw so dropped
        // packets still show their attempt).
        ctx.span(SpanEvent::Wire {
            src: pkt.src.0 as u64,
            dst: pkt.dst.0 as u64,
            bytes: bytes as u64,
        });
        // Loss is drawn before the port admission: a dropped packet never
        // occupies the port (it died somewhere in the switch stages).
        let p = self.wire.model().drop_prob();
        let dropped = p > 0.0 && ctx.rng().chance(p);
        let admitted = if dropped {
            None
        } else {
            Some(self.wire.admit(ctx.now(), bytes))
        };
        if let Some(a) = admitted {
            // Ledger: the admitted packet's owner occupies this rx port for
            // `[arrive, until)`; a queued packet also waited behind earlier
            // holders.
            let owner = packet_owner(&pkt);
            let node = self.node.0 as u32;
            let routed = ctx.now();
            if a.port_wait > SimTime::ZERO {
                ctx.ledger(
                    Occ::wait(ResKind::LinkPort, routed, a.arrive, node, owner)
                        .unit(self.node.0 as u64),
                );
            }
            ctx.ledger(
                Occ::hold(ResKind::LinkPort, a.arrive, a.until, node, owner)
                    .unit(self.node.0 as u64),
            );
        }
        // Netdump: the wire record carries the link-occupancy tag (bytes +
        // destination-port queuing wait), so the analyzer can separate
        // "slow link" from "busy port".
        let mut log = PacketLog::new(pkt.cause, CausalKind::Wire)
            .nodes(pkt.src.0 as u32, pkt.dst.0 as u32)
            .detail(bytes as u64, admitted.map_or(0, |a| a.port_wait.as_ns()));
        if let PacketKind::Coll(c) = &pkt.kind {
            log = log.key(c.group.0 as u64, c.epoch);
        }
        let wire = ctx.packet(log);
        let Some(admission) = admitted else {
            ctx.count_id(counter_id!("wire.dropped"), 1);
            ctx.packet(
                PacketLog::new(wire, CausalKind::Drop).nodes(pkt.src.0 as u32, pkt.dst.0 as u32),
            );
            return;
        };
        pkt.cause = wire;
        ctx.send_at(admission.arrive, ctx.self_id(), GmEvent::Arrive(pkt));
    }

    /// Swap in a different wire model (topology ablations). The new model
    /// must cover the same node count; receive-port state resets.
    pub fn set_wire_model(&mut self, model: Arc<WireModel>) {
        assert_eq!(
            model.topology().num_nodes(),
            self.wire.model().topology().num_nodes(),
            "replacement wire model must cover the same nodes"
        );
        self.wire = WireRx::new(model);
    }

    /// The shared wire model this NIC sends through.
    pub fn wire_model(&self) -> &Arc<WireModel> {
        self.wire.model()
    }

    /// The installed collective engine (downcast access for tests).
    pub fn collective_mut(&mut self) -> &mut dyn NicCollective {
        self.coll.as_mut()
    }

    /// Number of free send-packet buffers (test observability).
    pub fn free_packets(&self) -> usize {
        self.free_packets
    }

    /// Number of posted receive tokens (test observability).
    pub fn recv_tokens(&self) -> u32 {
        self.recv_tokens
    }
}

impl Component<GmEvent> for LanaiNic {
    fn handle(&mut self, msg: GmEvent, ctx: &mut Ctx<'_, GmEvent>) {
        match msg {
            GmEvent::SendPost(token) => {
                let now = ctx.now();
                let owner = match &token.coll {
                    Some(cp) => coll_owner(cp),
                    None => stream_owner(token.tag, self.node.0 as u32),
                };
                let t = self.cpu(ctx, now, self.params.nic_token_create, owner);
                ctx.ledger(
                    Occ::acquire(ResKind::SendQueue, t, self.node.0 as u32, owner)
                        .unit(token.dst.0 as u64),
                );
                self.p2p_mut().send_queues[token.dst.0].push_back(token);
                ctx.count_id(counter_id!("gm.token_posted"), 1);
                self.kick_scheduler(ctx);
            }
            GmEvent::RecvPost { count, .. } => {
                self.recv_tokens += count;
                // Host replenish is protocol plumbing: no single stream to
                // bill. `unit` carries the pool level after the post.
                let now = ctx.now();
                ctx.ledger(
                    Occ::release(
                        ResKind::RecvTokens,
                        now,
                        self.node.0 as u32,
                        Owner::fabric(self.node.0 as u32),
                    )
                    .unit(self.recv_tokens as u64),
                );
            }
            GmEvent::CollPost {
                group,
                epoch,
                operand,
                cause,
            } => {
                let now = ctx.now();
                // Doorbell decode: one token for the whole operation, front
                // of its own queue (§6.1). Under the group-queue ablation
                // the per-message queue costs are charged structurally when
                // each send takes its round-robin turn.
                let t = self.cpu(
                    ctx,
                    now,
                    self.params.nic_coll_send.scale(0.5),
                    Owner::coll(group.0 as u64, epoch, self.node.0 as u32),
                );
                let dispatch = ctx.packet(
                    PacketLog::new(cause, CausalKind::NicDispatch)
                        .at_node(self.node.0 as u32)
                        .key(group.0 as u64, epoch),
                );
                let mut buf = std::mem::take(&mut self.coll_buf);
                self.coll
                    .on_doorbell(t, group, epoch, &operand, dispatch, &mut buf);
                self.run_coll_actions(ctx, t, &mut buf);
                self.coll_buf = buf;
            }
            GmEvent::SendWork => {
                self.work_scheduled = false;
                self.send_work(ctx);
            }
            GmEvent::DmaToNicDone {
                dst,
                msg_id,
                offset,
                payload,
                total_len,
                tag,
                cause,
            } => {
                self.on_dma_to_nic_done(ctx, dst, msg_id, offset, payload, total_len, tag, cause);
            }
            GmEvent::DmaToHostDone {
                src,
                seq,
                tag,
                payload,
                total_len,
                offset,
                cause,
            } => {
                let now = ctx.now();
                let dma_done = ctx.packet(
                    PacketLog::new(cause, CausalKind::DmaDone)
                        .nodes(src.0 as u32, self.node.0 as u32)
                        .detail(payload as u64, 0),
                );
                self.send_ack(ctx, now, src, seq, dma_done);
                let done = {
                    let asm = self.p2p_mut().assembling[src.0]
                        .front_mut()
                        .expect("assembly state for arriving payload");
                    asm.received += payload;
                    debug_assert_eq!(asm.received, offset + payload);
                    asm.received >= asm.total_len
                };
                if done {
                    self.p2p_mut().assembling[src.0].pop_front();
                    ctx.count_id(counter_id!("gm.msg_delivered"), 1);
                    ctx.send_at(
                        self.cpu_free + self.params.host_event_dma,
                        self.host,
                        GmEvent::RecvDelivered {
                            src,
                            tag,
                            len: total_len,
                        },
                    );
                }
            }
            GmEvent::Inject(pkt) => self.on_inject(ctx, pkt),
            GmEvent::Arrive(pkt) => self.on_arrive(ctx, pkt),
            GmEvent::TimerCheck => self.on_timer(ctx),
            other => panic!("NIC {:?} got unexpected event {other:?}", self.node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::NullCollective;
    use crate::params::{CollFeatures, GmParams};
    use crate::types::{MsgTag, Packet};
    use nicbar_net::{LinkTiming, WormholeClos};
    use nicbar_sim::Engine;

    fn wire_model(n: usize) -> Arc<WireModel> {
        Arc::new(WireModel::new(
            Box::new(WormholeClos::myrinet2000(n)),
            LinkTiming::myrinet2000(),
            GmParams::lanai_xp().hotspot_ns,
        ))
    }

    fn nic() -> LanaiNic {
        LanaiNic::new(
            NodeId(0),
            4,
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            WireRx::new(wire_model(4)),
            ComponentId(100),
            ComponentId(200),
            Box::new(NullCollective),
            16,
        )
    }

    /// A host stand-in that swallows every completion event.
    struct SinkHost;
    impl Component<GmEvent> for SinkHost {
        fn handle(&mut self, _msg: GmEvent, _ctx: &mut Ctx<'_, GmEvent>) {}
    }

    /// Minimal two-NIC engine: NICs at components 0 and 1, sink hosts at
    /// 2 and 3.
    fn two_nics(model: Arc<WireModel>) -> Engine<GmEvent> {
        let mut engine: Engine<GmEvent> = Engine::new(7);
        for node in 0..2usize {
            let id = engine.add(LanaiNic::new(
                NodeId(node),
                2,
                GmParams::lanai_xp(),
                CollFeatures::paper(),
                WireRx::new(Arc::clone(&model)),
                ComponentId(0),
                ComponentId(2 + node),
                Box::new(NullCollective),
                16,
            ));
            assert_eq!(id, ComponentId(node));
        }
        engine.add(SinkHost);
        engine.add(SinkHost);
        engine
    }

    fn data_packet(src: usize, dst: usize) -> Packet {
        Packet {
            src: NodeId(src),
            dst: NodeId(dst),
            kind: PacketKind::Data {
                seq: 0,
                msg_id: 1,
                offset: 0,
                payload: 4,
                total_len: 4,
                tag: MsgTag(0),
            },
            cause: CauseId::NONE,
        }
    }

    #[test]
    fn wire_counts_and_delivery() {
        let model = wire_model(2);
        let mut engine = two_nics(Arc::clone(&model));
        let flight = model.flight(NodeId(0), NodeId(1), data_packet(0, 1).wire_bytes());
        // Present a data packet at NIC 1's port, as `inject` would.
        engine.schedule_at(flight, ComponentId(1), GmEvent::Inject(data_packet(0, 1)));
        engine.run();
        assert_eq!(engine.counters().get("wire.data"), 1);
        // The receiver's cumulative ACK crosses the wire back.
        assert_eq!(engine.counters().get("wire.ack"), 1);
        assert_eq!(engine.counters().get("wire.total"), 2);
        assert_eq!(engine.counters().get("wire.dropped"), 0);
        // The packet was admitted and processed (sequence check counts it).
        assert_eq!(engine.counters().get("gm.msg_delivered"), 1);
    }

    #[test]
    fn dropped_packets_never_arrive() {
        let model = Arc::new(
            WireModel::new(
                Box::new(WormholeClos::myrinet2000(2)),
                LinkTiming::myrinet2000(),
                0,
            )
            .with_drop_prob(1.0),
        );
        let mut engine = two_nics(model);
        engine.schedule_at(
            SimTime::from_ns(500),
            ComponentId(1),
            GmEvent::Inject(data_packet(0, 1)),
        );
        engine.run();
        assert_eq!(engine.counters().get("wire.data"), 1);
        assert_eq!(engine.counters().get("wire.dropped"), 1);
        assert_eq!(
            engine.counters().get("gm.msg_delivered"),
            0,
            "a dropped packet must never reach the protocol"
        );
    }

    #[test]
    fn cpu_is_a_serial_resource() {
        let mut n = nic();
        let c = SimTime::from_us(1.0);
        // Two requests at t=0 serialize.
        let t1 = n.cpu_claim(SimTime::ZERO, c).1;
        let t2 = n.cpu_claim(SimTime::ZERO, c).1;
        assert_eq!(t1, SimTime::from_us(1.0));
        assert_eq!(t2, SimTime::from_us(2.0));
        // A request far in the future starts at its own time.
        let t3 = n.cpu_claim(SimTime::from_us(10.0), c).1;
        assert_eq!(t3, SimTime::from_us(11.0));
    }

    #[test]
    fn dma_engine_overlaps_cpu() {
        let mut n = nic();
        let cpu_done = n.cpu_claim(SimTime::ZERO, SimTime::from_us(5.0)).1;
        // DMA starting at t=0 is not delayed by the busy CPU.
        let dma_done = n.dma_claim(SimTime::ZERO, 0).1;
        assert!(dma_done < cpu_done);
    }

    #[test]
    fn dma_cost_scales_with_bytes() {
        let mut n = nic();
        let small = n.dma_claim(SimTime::ZERO, 0).1;
        let mut n2 = nic();
        let big = n2.dma_claim(SimTime::ZERO, 4096).1;
        assert!(big > small);
        // XP preset: 1 ns/byte.
        assert_eq!(big - small, SimTime::from_ns(4096));
    }

    #[test]
    fn initial_resources_match_params() {
        let n = nic();
        assert_eq!(n.free_packets(), 16);
        assert_eq!(n.recv_tokens(), 16);
    }

    #[test]
    fn queue_eligibility_rules() {
        let window = GmParams::lanai_xp().window;
        let mut p2p = P2pState::new(4);
        // Empty queues: nothing eligible.
        assert!(!p2p.queue_eligible(1, window, 16, false));
        // A data token is eligible while packets and window allow.
        p2p.send_queues[1].push_back(SendToken {
            msg_id: 1,
            dst: NodeId(1),
            len: 100,
            tag: crate::types::MsgTag(0),
            offset: 0,
            coll: None,
            cause: CauseId::NONE,
        });
        assert!(p2p.queue_eligible(1, window, 16, false));
        // Exhaust the packet pool: data token blocked…
        assert!(!p2p.queue_eligible(1, window, 0, false));
        // …but a collective token with the static packet still flies.
        p2p.send_queues[2].push_back(SendToken {
            msg_id: 0,
            dst: NodeId(2),
            len: 0,
            tag: crate::types::MsgTag(0),
            offset: 0,
            coll: Some(crate::types::CollPacket {
                src: NodeId(0),
                group: crate::types::GroupId(1),
                epoch: 0,
                round: 0,
                kind: CollKind::Barrier,
            }),
            cause: CauseId::NONE,
        });
        assert!(p2p.queue_eligible(2, window, 0, true));
    }

    #[test]
    fn p2p_state_is_lazy() {
        let n = nic();
        assert!(
            n.p2p.is_none(),
            "a freshly built NIC must not pay the O(n) p2p footprint"
        );
    }
}
