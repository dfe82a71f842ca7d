//! # nicbar-verify — exhaustive model checking of the collective protocol
//!
//! Drives the *real* [`PaperCollective`] engine (not a re-model of it)
//! through the full interleaving space of an adversarial network at small
//! group sizes, and proves three properties over every reachable state:
//!
//! * **safety** — [`PaperCollective::check_invariants`] holds after every
//!   transition: bit vectors never exceed their expected-sender sets, a
//!   mask bit and its banked payload agree, and every issued send left a
//!   `sent_payloads` record for NACK service (the dynamic twin of the
//!   `PR002` lint rule),
//! * **deadlock-freedom** — no non-goal state whose every transition leads
//!   back to itself,
//! * **liveness (NACK recovery)** — from every reachable state, some
//!   execution completes all epochs: receiver-driven retransmission can
//!   always finish the barrier no matter what the fabric did.
//!
//! ## The adversary
//!
//! In-flight packets form a canonically sorted *set*; the explorer may
//! deliver any eligible packet next (reorder), deliver it while keeping it
//! in flight (duplication, GM only), or drop it (loss, GM only — Quadrics
//! is hardware-reliable, so the Elan adversary reorders but never drops or
//! duplicates). Timeouts are abstract: a NACK sweep may fire whenever a
//! live epoch exists (unbounded delay), except under a bounded-delay
//! window (`window > 0`, used at N=8) where a pending delivery to a node
//! always beats its timeout and only the first `window` packets of the
//! sorted set are deliverable.
//!
//! Loss and duplication can be capped with a per-execution fault budget
//! (`faults`): the gate runs N = 2 with the budget unbounded (arbitrarily
//! many losses and duplicates — the NACK recovery loop is closed by state
//! dedup) and larger groups with a small budget, which keeps exhaustive
//! exploration tractable while still covering every ≤ budget-fault
//! interleaving.
//!
//! ## State identity
//!
//! States are fingerprinted with [`PaperCollective::state_fingerprint`]
//! (wall-clock pacing canonicalized to zero first, observability counters
//! excluded) plus the in-flight set and per-node host progress. Loss →
//! NACK → retransmit loops therefore close: re-losing a retransmission
//! reproduces an already-visited fingerprint and exploration terminates.
//!
//! ## Counterexamples
//!
//! Violations come with the BFS-minimal transition sequence from the
//! initial state. [`trace_records`] re-executes that sequence and emits it
//! as causally-linked netdump records (the same JSONL schema the flight
//! recorder dumps), so `nicbar-bench why-slow --replay trace.jsonl` renders
//! the failing interleaving with the ordinary observability tooling.

#![warn(missing_docs)]

use nicbar_core::{Algorithm, GroupSpec, PaperCollective};
use nicbar_gm::{ActionBuf, CollAction, CollKind, CollOperand, CollPacket, GroupId, NicCollective};
use nicbar_net::NodeId;
use nicbar_sim::{CausalKind, CauseId, ComponentId, PacketRecord, SimTime, NO_KEY, NO_NODE};
use std::collections::{HashMap, VecDeque};

/// The single collective group every checked cluster runs.
pub const GROUP: GroupId = GroupId(0xBA);

/// Receiver-driven NACK timeout used by every checked group. The checker's
/// clock is abstract (time is canonicalized away between transitions), so
/// the exact value is irrelevant — it only has to be nonzero.
pub const TIMEOUT_NS: u64 = 1_000;

/// Which substrate's fabric semantics the adversary models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Substrate {
    /// Myrinet/GM: the fabric may lose, duplicate and reorder.
    Gm,
    /// Quadrics/Elan: hardware-reliable — reorder only.
    Elan,
}

impl Substrate {
    /// May the adversary drop packets?
    pub fn lossy(self) -> bool {
        matches!(self, Substrate::Gm)
    }

    /// May the adversary duplicate packets?
    pub fn dup(self) -> bool {
        matches!(self, Substrate::Gm)
    }

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            Substrate::Gm => "gm",
            Substrate::Elan => "elan",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "gm" => Some(Substrate::Gm),
            "elan" => Some(Substrate::Elan),
            _ => None,
        }
    }

    /// Human-readable adversary description.
    pub fn adversary(self) -> &'static str {
        match self {
            Substrate::Gm => "loss+dup+reorder",
            Substrate::Elan => "reorder",
        }
    }
}

/// Injectable protocol bugs, for validating that the checker catches them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Sends fire without recording their payload for NACK service
    /// ([`PaperCollective::inject_skip_payload_record`]).
    SkipPayloadRecord,
}

impl Fault {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "skip-payload-record" => Some(Fault::SkipPayloadRecord),
            _ => None,
        }
    }
}

/// One exploration configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Group size.
    pub nodes: usize,
    /// Barrier schedule.
    pub algo: Algorithm,
    /// Fabric semantics.
    pub substrate: Substrate,
    /// Consecutive barrier epochs each host performs (2 exercises the
    /// one-epoch-deep banking window).
    pub epochs: u64,
    /// Bounded-delay window: 0 explores unrestricted reorder; `W > 0`
    /// makes only the first `W` packets of the sorted in-flight set
    /// deliverable and suppresses timeouts while a delivery is pending.
    pub window: usize,
    /// Exploration cap; hitting it truncates (reported, and fatal for the
    /// liveness proof, which needs the full graph).
    pub max_states: usize,
    /// Total loss + duplication events the adversary may inject along one
    /// execution (`None` = unbounded). Ignored on reliable substrates.
    pub faults: Option<u32>,
    /// Injected protocol bug, if any.
    pub fault: Option<Fault>,
}

impl Config {
    /// One-line human description.
    pub fn describe(&self) -> String {
        let faults = if !self.substrate.lossy() {
            String::new()
        } else {
            match self.faults {
                None => ", unbounded faults".to_string(),
                Some(b) => format!(", fault budget {b}"),
            }
        };
        format!(
            "{} barrier, {} nodes, {} adversary ({}), {} epoch(s), {}{}",
            self.algo.short_name(),
            self.nodes,
            self.substrate.name(),
            self.substrate.adversary(),
            self.epochs,
            if self.window == 0 {
                "unbounded delay".to_string()
            } else {
                format!("delivery window {}", self.window)
            },
            faults
        )
    }
}

/// One in-flight packet. The adversary treats the in-flight collection as
/// a sorted, deduplicated set — `cause` (the netdump id of the wire record
/// that launched it, used only during trace replay) is deliberately
/// excluded from identity.
#[derive(Clone, Debug)]
struct Msg {
    dst: NodeId,
    pkt: CollPacket,
    cause: CauseId,
}

impl Msg {
    fn key(&self) -> (NodeId, &CollPacket) {
        (self.dst, &self.pkt)
    }
}

/// Full system state: every NIC engine plus the network and host model.
#[derive(Clone)]
struct Sys {
    nodes: Vec<PaperCollective>,
    /// Canonically sorted, deduplicated in-flight set.
    inflight: Vec<Msg>,
    /// Doorbells each host has rung (next epoch to enter).
    rung: Vec<u64>,
    /// Epochs each host has observed completing.
    done: Vec<u64>,
    /// Loss + duplication events injected so far (stays 0 when the budget
    /// is unbounded, so unbounded fault loops can close on themselves).
    faults_used: u32,
}

/// One adversary decision — the label on a transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Choice {
    /// Host `node` rings the doorbell for its next epoch.
    Doorbell {
        /// Host rank.
        node: usize,
    },
    /// Deliver in-flight packet `msg` (index into the sorted set).
    Deliver {
        /// Index into the canonical in-flight set.
        msg: usize,
    },
    /// Deliver a copy of packet `msg` while the original stays in flight
    /// (duplication; consumes fault budget when one is set).
    Duplicate {
        /// Index into the canonical in-flight set.
        msg: usize,
    },
    /// The fabric loses packet `msg` (consumes fault budget when one is
    /// set).
    Drop {
        /// Index into the canonical in-flight set.
        msg: usize,
    },
    /// Node `node`'s NACK timer sweep fires at its deadline.
    Timer {
        /// Node rank.
        node: usize,
    },
}

impl Choice {
    /// Render one step of a counterexample trace.
    fn describe(self, sys_before: &Sys) -> String {
        let pkt = |m: usize| {
            let msg = &sys_before.inflight[m];
            format!(
                "{:?} (epoch {}, round {}) {:?} -> {:?}",
                msg.pkt.kind, msg.pkt.epoch, msg.pkt.round, msg.pkt.src, msg.dst
            )
        };
        match self {
            Choice::Doorbell { node } => {
                format!("host {node} enters epoch {}", sys_before.rung[node])
            }
            Choice::Deliver { msg } => format!("deliver {}", pkt(msg)),
            Choice::Duplicate { msg } => {
                format!(
                    "deliver duplicate of {} (original stays in flight)",
                    pkt(msg)
                )
            }
            Choice::Drop { msg } => format!("fabric drops {}", pkt(msg)),
            Choice::Timer { node } => format!("node {node} timeout sweep (NACK scan)"),
        }
    }
}

/// Why a run stopped.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Every property holds on the explored graph.
    Ok,
    /// An invariant broke; the trace reproduces it.
    Safety {
        /// What broke.
        message: String,
        /// Minimal transition sequence from the initial state.
        trace: Vec<Choice>,
    },
    /// A non-goal state loops only to itself.
    Deadlock {
        /// Minimal transition sequence from the initial state.
        trace: Vec<Choice>,
    },
    /// Completion is unreachable from some reachable state.
    Liveness {
        /// Minimal transition sequence to the doomed state.
        trace: Vec<Choice>,
    },
}

impl Outcome {
    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Safety { .. } => "safety",
            Outcome::Deadlock { .. } => "deadlock",
            Outcome::Liveness { .. } => "liveness",
        }
    }

    /// The counterexample trace, if this outcome is a violation.
    pub fn trace(&self) -> Option<&[Choice]> {
        match self {
            Outcome::Ok => None,
            Outcome::Safety { trace, .. }
            | Outcome::Deadlock { trace }
            | Outcome::Liveness { trace } => Some(trace),
        }
    }
}

/// Exploration result.
#[derive(Clone, Debug)]
pub struct Report {
    /// Distinct canonical states reached.
    pub explored: usize,
    /// Transitions executed (including ones leading to known states).
    pub transitions: usize,
    /// True when `max_states` stopped exploration early (liveness then
    /// unproven).
    pub truncated: bool,
    /// What the run concluded.
    pub outcome: Outcome,
}

// FNV-1a, same constants as the engine's fingerprint hasher: deterministic
// across runs and toolchains, no dependencies.
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

fn initial(cfg: &Config) -> Sys {
    let members: Vec<NodeId> = (0..cfg.nodes).map(NodeId).collect();
    let nodes = (0..cfg.nodes)
        .map(|rank| {
            let spec = GroupSpec::barrier(
                GROUP,
                members.clone(),
                rank,
                cfg.algo,
                SimTime::from_ns(TIMEOUT_NS),
            );
            let mut engine = PaperCollective::new(members[rank], vec![spec]);
            if cfg.fault == Some(Fault::SkipPayloadRecord) {
                engine.inject_skip_payload_record();
            }
            engine
        })
        .collect();
    Sys {
        nodes,
        inflight: Vec::new(),
        rung: vec![0; cfg.nodes],
        done: vec![0; cfg.nodes],
        faults_used: 0,
    }
}

fn fingerprint(sys: &Sys) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for n in &sys.nodes {
        n.state_fingerprint().hash(&mut h);
    }
    for m in &sys.inflight {
        m.dst.hash(&mut h);
        m.pkt.hash(&mut h);
    }
    sys.rung.hash(&mut h);
    sys.done.hash(&mut h);
    sys.faults_used.hash(&mut h);
    h.finish()
}

fn is_goal(cfg: &Config, sys: &Sys) -> bool {
    sys.done.iter().all(|&d| d == cfg.epochs)
}

/// Enumerate every adversary decision available in `sys`, in a fixed
/// deterministic order.
fn choices(cfg: &Config, sys: &Sys) -> Vec<Choice> {
    let mut out = Vec::new();
    for node in 0..cfg.nodes {
        if sys.rung[node] < cfg.epochs && sys.done[node] == sys.rung[node] {
            out.push(Choice::Doorbell { node });
        }
    }
    let eligible = if cfg.window == 0 {
        sys.inflight.len()
    } else {
        cfg.window.min(sys.inflight.len())
    };
    let budget_left = cfg.faults.is_none_or(|b| sys.faults_used < b);
    for msg in 0..eligible {
        out.push(Choice::Deliver { msg });
        if cfg.substrate.dup() && budget_left {
            out.push(Choice::Duplicate { msg });
        }
        if cfg.substrate.lossy() && budget_left {
            out.push(Choice::Drop { msg });
        }
    }
    for (node, engine) in sys.nodes.iter().enumerate() {
        if engine.next_deadline().is_none() {
            continue;
        }
        // Bounded delay: while any delivery is still pending for a node,
        // its delivery happens before the timeout would fire.
        let delivery_pending = cfg.window > 0 && sys.inflight.iter().any(|m| m.dst == NodeId(node));
        if !delivery_pending {
            out.push(Choice::Timer { node });
        }
    }
    out
}

/// Causal trace recorder used when re-executing a counterexample. Builds
/// netdump-schema [`PacketRecord`]s with the engine's own cause threading.
struct TraceRec {
    records: Vec<PacketRecord>,
    t: u64,
}

impl TraceRec {
    fn new() -> Self {
        TraceRec {
            records: Vec::new(),
            t: 0,
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the PacketRecord field list
    fn emit(
        &mut self,
        parent: CauseId,
        kind: CausalKind,
        component: usize,
        src: u32,
        dst: u32,
        keyed: Option<u64>,
        a: u64,
        b: u64,
    ) -> CauseId {
        self.t += 100;
        let id = CauseId(self.records.len() as u64 + 1);
        self.records.push(PacketRecord {
            id,
            parent,
            time: SimTime::from_ns(self.t),
            component: ComponentId(component),
            kind,
            src,
            dst,
            group: if keyed.is_some() {
                u64::from(GROUP.0)
            } else {
                NO_KEY
            },
            seq: keyed.unwrap_or(NO_KEY),
            a,
            b,
        });
        id
    }
}

/// Execute `choice` on `sys` in place. Returns the safety-violation
/// message, if the transition lands in a state that breaks an invariant or
/// misbehaves at the host boundary.
fn apply(
    cfg: &Config,
    sys: &mut Sys,
    choice: Choice,
    mut rec: Option<&mut TraceRec>,
) -> Result<(), String> {
    let mut actions = ActionBuf::new();
    // The node whose engine ran, for attributing emitted sends.
    let acting: usize;
    match choice {
        Choice::Doorbell { node } => {
            let epoch = sys.rung[node];
            let cause = match rec.as_deref_mut() {
                Some(r) => {
                    let enter = r.emit(
                        CauseId::NONE,
                        CausalKind::HostEnter,
                        node,
                        node as u32,
                        NO_NODE,
                        Some(epoch),
                        0,
                        0,
                    );
                    r.emit(
                        enter,
                        CausalKind::NicDispatch,
                        node,
                        node as u32,
                        NO_NODE,
                        None,
                        0,
                        0,
                    )
                }
                None => CauseId::NONE,
            };
            sys.rung[node] = epoch + 1;
            sys.nodes[node].on_doorbell(
                SimTime::ZERO,
                GROUP,
                epoch,
                &CollOperand::Scalar(0),
                cause,
                &mut actions,
            );
            acting = node;
        }
        Choice::Deliver { msg } | Choice::Duplicate { msg } => {
            // Duplication = deliver a copy while the original stays in
            // flight (it can be delivered again, or dropped, later).
            let m = if matches!(choice, Choice::Duplicate { .. }) {
                if cfg.faults.is_some() {
                    sys.faults_used += 1;
                }
                sys.inflight[msg].clone()
            } else {
                sys.inflight.remove(msg)
            };
            let node = m.dst.0;
            let cause = match rec.as_deref_mut() {
                Some(r) => r.emit(
                    m.cause,
                    CausalKind::Arrive,
                    node,
                    m.pkt.src.0 as u32,
                    node as u32,
                    None,
                    u64::from(m.pkt.round),
                    0,
                ),
                None => CauseId::NONE,
            };
            sys.nodes[node].on_packet(SimTime::ZERO, &m.pkt, cause, &mut actions);
            acting = node;
        }
        Choice::Drop { msg } => {
            if cfg.faults.is_some() {
                sys.faults_used += 1;
            }
            let m = sys.inflight.remove(msg);
            if let Some(r) = rec.as_deref_mut() {
                r.emit(
                    m.cause,
                    CausalKind::Drop,
                    m.dst.0,
                    m.pkt.src.0 as u32,
                    m.dst.0 as u32,
                    None,
                    0,
                    0,
                );
            }
            acting = m.dst.0;
        }
        Choice::Timer { node } => {
            let deadline = sys.nodes[node]
                .next_deadline()
                .ok_or_else(|| "timer fired with no deadline armed".to_string())?;
            if let Some(r) = rec.as_deref_mut() {
                r.t += TIMEOUT_NS;
            }
            sys.nodes[node].on_timer(deadline, &mut actions);
            acting = node;
        }
    }

    for action in actions.drain() {
        match action {
            CollAction::Send {
                dst,
                pkt,
                retx,
                cause,
            } => {
                let wire_cause = match rec.as_deref_mut() {
                    Some(r) => {
                        let kind = if retx {
                            CausalKind::Retransmit
                        } else if matches!(pkt.kind, CollKind::Nack) {
                            CausalKind::Nack
                        } else {
                            CausalKind::Fire
                        };
                        let fire = r.emit(
                            cause,
                            kind,
                            acting,
                            acting as u32,
                            dst.0 as u32,
                            None,
                            u64::from(pkt.round),
                            dst.0 as u64,
                        );
                        r.emit(
                            fire,
                            CausalKind::Wire,
                            acting,
                            acting as u32,
                            dst.0 as u32,
                            None,
                            u64::from(pkt.wire_bytes()),
                            0,
                        )
                    }
                    None => CauseId::NONE,
                };
                sys.inflight.push(Msg {
                    dst,
                    pkt,
                    cause: wire_cause,
                });
            }
            CollAction::HostDone {
                group,
                epoch,
                value,
                cause,
            } => {
                if group != GROUP {
                    return Err(format!("completion for unknown group {group:?}"));
                }
                if value != 0 {
                    return Err(format!("barrier completed with nonzero value {value}"));
                }
                if epoch != sys.done[acting] {
                    return Err(format!(
                        "node {acting} completed epoch {epoch} but epoch {} was next",
                        sys.done[acting]
                    ));
                }
                sys.done[acting] = epoch + 1;
                if let Some(r) = rec.as_deref_mut() {
                    let notify = r.emit(
                        cause,
                        CausalKind::Notify,
                        acting,
                        acting as u32,
                        NO_NODE,
                        Some(epoch),
                        value,
                        0,
                    );
                    r.emit(
                        notify,
                        CausalKind::HostExit,
                        acting,
                        acting as u32,
                        NO_NODE,
                        Some(epoch),
                        value,
                        0,
                    );
                }
            }
        }
    }

    // Canonicalize: abstract the clock away and restore set semantics.
    for n in &mut sys.nodes {
        n.canonicalize_times();
    }
    sys.inflight.sort_by(|a, b| a.key().cmp(&b.key()));
    sys.inflight.dedup_by(|a, b| a.key() == b.key());

    for (i, n) in sys.nodes.iter().enumerate() {
        n.check_invariants().map_err(|e| format!("node {i}: {e}"))?;
    }
    Ok(())
}

// Per explored state: how we first reached it (BFS ⇒ minimal).
struct StateMeta {
    parent: usize,
    via: Option<Choice>,
    goal: bool,
}

fn trace_to(meta: &[StateMeta], mut idx: usize) -> Vec<Choice> {
    let mut trace = Vec::new();
    while let Some(via) = meta[idx].via {
        trace.push(via);
        idx = meta[idx].parent;
    }
    trace.reverse();
    trace
}

/// Exhaustively explore `cfg` and check every property.
pub fn explore(cfg: &Config) -> Report {
    let init = initial(cfg);
    let mut meta: Vec<StateMeta> = Vec::new();
    // Fingerprint → state index. Lookup/insert only (iteration order never
    // observed), so exploration stays deterministic.
    let mut visited: HashMap<u64, usize> = HashMap::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut queue: VecDeque<(usize, Sys)> = VecDeque::new();
    let mut transitions = 0usize;
    let mut truncated = false;

    visited.insert(fingerprint(&init), 0);
    meta.push(StateMeta {
        parent: 0,
        via: None,
        goal: is_goal(cfg, &init),
    });
    queue.push_back((0, init));

    while let Some((cur, sys)) = queue.pop_front() {
        if truncated {
            break;
        }
        let cur_fp = fingerprint(&sys);
        let opts = choices(cfg, &sys);
        // A non-goal state with no choices, or whose every transition leads
        // back to itself, has deadlocked.
        let mut all_self_loops = true;
        for choice in opts {
            transitions += 1;
            let mut succ = sys.clone();
            if let Err(message) = apply(cfg, &mut succ, choice, None) {
                let mut trace = trace_to(&meta, cur);
                trace.push(choice);
                return Report {
                    explored: meta.len(),
                    transitions,
                    truncated,
                    outcome: Outcome::Safety { message, trace },
                };
            }
            let fp = fingerprint(&succ);
            if fp != cur_fp {
                all_self_loops = false;
            }
            let idx = match visited.get(&fp) {
                Some(&idx) => idx,
                None => {
                    let idx = meta.len();
                    visited.insert(fp, idx);
                    meta.push(StateMeta {
                        parent: cur,
                        via: Some(choice),
                        goal: is_goal(cfg, &succ),
                    });
                    if meta.len() >= cfg.max_states {
                        truncated = true;
                    } else {
                        queue.push_back((idx, succ));
                    }
                    idx
                }
            };
            edges.push((cur as u32, idx as u32));
        }
        if all_self_loops && !meta[cur].goal {
            return Report {
                explored: meta.len(),
                transitions,
                truncated,
                outcome: Outcome::Deadlock {
                    trace: trace_to(&meta, cur),
                },
            };
        }
    }

    // Liveness: every state must be able to reach a goal state. Backward
    // reachability from the goal set over the recorded edges; only valid
    // when the graph is complete (not truncated).
    if !truncated {
        let n = meta.len();
        let mut pred_count = vec![0u32; n];
        for &(_, to) in &edges {
            pred_count[to as usize] += 1;
        }
        let mut start = vec![0usize; n + 1];
        for i in 0..n {
            start[i + 1] = start[i] + pred_count[i] as usize;
        }
        let mut preds = vec![0u32; edges.len()];
        let mut fill = start.clone();
        for &(from, to) in &edges {
            preds[fill[to as usize]] = from;
            fill[to as usize] += 1;
        }
        let mut coreach = vec![false; n];
        let mut stack: Vec<usize> = (0..n).filter(|&i| meta[i].goal).collect();
        for &g in &stack {
            coreach[g] = true;
        }
        while let Some(s) = stack.pop() {
            for &p in &preds[start[s]..start[s + 1]] {
                if !coreach[p as usize] {
                    coreach[p as usize] = true;
                    stack.push(p as usize);
                }
            }
        }
        if let Some(doomed) = (0..n).find(|&i| !coreach[i]) {
            return Report {
                explored: n,
                transitions,
                truncated,
                outcome: Outcome::Liveness {
                    trace: trace_to(&meta, doomed),
                },
            };
        }
    }

    Report {
        explored: meta.len(),
        transitions,
        truncated,
        outcome: Outcome::Ok,
    }
}

/// Re-execute a counterexample trace and return it as causally-linked
/// netdump records, plus the human-readable step list. The final element
/// of `trace` may be the violating transition itself; its records are
/// included even when it ends in an invariant violation (returned as the
/// second element).
pub fn trace_records(
    cfg: &Config,
    trace: &[Choice],
) -> (Vec<PacketRecord>, Vec<String>, Option<String>) {
    let mut sys = initial(cfg);
    let mut rec = TraceRec::new();
    let mut steps = Vec::new();
    let mut violation = None;
    for (i, &choice) in trace.iter().enumerate() {
        steps.push(format!("{:>3}. {}", i + 1, choice.describe(&sys)));
        if let Err(e) = apply(cfg, &mut sys, choice, Some(&mut rec)) {
            violation = Some(e);
            break;
        }
    }
    (rec.records, steps, violation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: usize, substrate: Substrate) -> Config {
        Config {
            nodes,
            algo: Algorithm::Dissemination,
            substrate,
            epochs: 1,
            window: 0,
            max_states: 200_000,
            faults: None,
            fault: None,
        }
    }

    #[test]
    fn two_node_gm_barrier_verifies() {
        let c = cfg(2, Substrate::Gm);
        let r = explore(&c);
        assert!(matches!(r.outcome, Outcome::Ok), "{:?}", r.outcome);
        assert!(!r.truncated);
        assert!(r.explored > 10, "suspiciously small: {}", r.explored);
    }

    #[test]
    fn two_node_elan_is_smaller_than_gm() {
        let gm = explore(&cfg(2, Substrate::Gm));
        let elan = explore(&cfg(2, Substrate::Elan));
        assert!(matches!(elan.outcome, Outcome::Ok));
        assert!(
            elan.explored < gm.explored,
            "reliable fabric must shrink the space: elan {} vs gm {}",
            elan.explored,
            gm.explored
        );
    }

    #[test]
    fn epoch_overlap_two_epochs_verifies() {
        let mut c = cfg(2, Substrate::Gm);
        c.epochs = 2;
        let r = explore(&c);
        assert!(matches!(r.outcome, Outcome::Ok), "{:?}", r.outcome);
    }

    #[test]
    fn pairwise_exchange_verifies() {
        let mut c = cfg(2, Substrate::Gm);
        c.algo = Algorithm::PairwiseExchange;
        let r = explore(&c);
        assert!(matches!(r.outcome, Outcome::Ok), "{:?}", r.outcome);
    }

    #[test]
    fn injected_skip_payload_record_is_caught_with_minimal_trace() {
        let mut c = cfg(2, Substrate::Gm);
        c.fault = Some(Fault::SkipPayloadRecord);
        let r = explore(&c);
        let Outcome::Safety { message, trace } = &r.outcome else {
            panic!("expected a safety violation, got {:?}", r.outcome);
        };
        assert!(
            message.contains("sent_payloads"),
            "unexpected violation: {message}"
        );
        // BFS minimality: the very first doorbell already sends without
        // recording, so the counterexample is a single transition.
        assert_eq!(trace.len(), 1, "trace not minimal: {trace:?}");
    }

    #[test]
    fn counterexample_replays_to_causally_linked_records() {
        let mut c = cfg(2, Substrate::Gm);
        c.fault = Some(Fault::SkipPayloadRecord);
        let r = explore(&c);
        let trace = r.outcome.trace().expect("violation expected").to_vec();
        let (records, steps, violation) = trace_records(&c, &trace);
        assert_eq!(steps.len(), trace.len());
        assert!(violation.is_some(), "replay must reproduce the violation");
        assert!(!records.is_empty());
        for r in &records {
            assert!(r.parent < r.id, "parents precede children: {r:?}");
        }
    }

    #[test]
    fn bounded_window_explores_fewer_states() {
        let full = explore(&cfg(2, Substrate::Gm));
        let mut c = cfg(2, Substrate::Gm);
        c.window = 1;
        let bounded = explore(&c);
        assert!(
            matches!(bounded.outcome, Outcome::Ok),
            "{:?}",
            bounded.outcome
        );
        assert!(bounded.explored <= full.explored);
    }
}
