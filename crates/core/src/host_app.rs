//! GM applications: the host-based barrier baselines and the NIC-based
//! barrier driver.
//!
//! The host-based barrier (the paper's `Host-DS` / `Host-PE` curves) runs
//! the same schedules as the NIC-based protocol, but every message crosses
//! the I/O bus twice and traverses the full point-to-point send path —
//! token queues, packet claim, payload DMA, per-packet ACKs — with the host
//! CPU dispatching every round. The NIC-based driver posts one doorbell per
//! barrier and waits for the completion event.

use crate::schedule::{Algorithm, Schedule};
use nicbar_gm::{GmApi, GmApp, GroupId, MsgTag};
use nicbar_net::NodeId;
use nicbar_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Barrier message payload size (one integer, as in the paper).
pub const BARRIER_MSG_BYTES: u32 = 4;

/// Encode `(epoch, round)` into a GM tag. Epochs are bounded by the
/// benchmark's iteration count, so 24 bits are ample.
pub fn encode_tag(epoch: u64, round: usize) -> MsgTag {
    assert!(epoch < (1 << 24), "epoch too large for tag encoding");
    assert!(round < 256, "round too large for tag encoding");
    let epoch = u32::try_from(epoch).expect("checked by the 24-bit assert above");
    let round = u32::try_from(round).expect("checked by the 8-bit assert above");
    MsgTag((epoch << 8) | round)
}

/// Decode a tag produced by [`encode_tag`].
pub fn decode_tag(tag: MsgTag) -> (u64, usize) {
    ((tag.0 >> 8) as u64, (tag.0 & 0xff) as usize)
}

/// Host-side schedule executor: the same round-frontier rule as the NIC
/// protocol engine, minus payloads and NACKs (GM's point-to-point layer
/// already guarantees reliable ordered delivery to the host).
pub struct HostScheduleRunner {
    schedule: Schedule,
    entered: u64,
    completed: u64,
    live: bool,
    next_send_round: usize,
    banked: BTreeMap<(u64, usize), u64>,
}

/// Sends requested by the runner: `(destination rank, round)`.
pub type HostSends = Vec<(usize, usize)>;

impl HostScheduleRunner {
    /// Build for one rank's schedule.
    pub fn new(schedule: Schedule) -> Self {
        HostScheduleRunner {
            schedule,
            entered: 0,
            completed: 0,
            live: false,
            next_send_round: 0,
            banked: BTreeMap::new(),
        }
    }

    /// Barriers completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Epoch of the most recently entered barrier (valid for tagging the
    /// sends returned by the call that entered or progressed it).
    ///
    /// # Panics
    /// Panics before the first [`HostScheduleRunner::begin`].
    pub fn current_epoch(&self) -> u64 {
        self.entered.checked_sub(1).expect("no barrier entered yet")
    }

    /// The rank's schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Enter the next barrier; returns the initially issuable sends.
    /// The `bool` is true if the barrier completed immediately (trivial
    /// schedules or fully banked arrivals).
    pub fn begin(&mut self) -> (HostSends, bool) {
        assert!(!self.live, "re-entered barrier before completion");
        self.live = true;
        self.next_send_round = 0;
        self.entered += 1;
        self.progress()
    }

    /// Feed an arrival from node `src`, resolved to its slot through the
    /// round's expected senders and `members` (rank → node, rank order).
    /// Returns newly issuable sends and whether the current barrier
    /// completed.
    ///
    /// # Panics
    /// If `src` is not an expected sender of `round`.
    pub fn on_msg(
        &mut self,
        epoch: u64,
        round: usize,
        members: &[NodeId],
        src: NodeId,
    ) -> (HostSends, bool) {
        let slot = self
            .schedule
            .sender_slot(round, members, src)
            .unwrap_or_else(|| panic!("unexpected sender {src:?} in round {round}"));
        let entry = self.banked.entry((epoch, round)).or_insert(0);
        if *entry & (1 << slot) != 0 {
            return (Vec::new(), false); // duplicate
        }
        *entry |= 1 << slot;
        if self.live && epoch + 1 == self.entered {
            self.progress()
        } else {
            (Vec::new(), false)
        }
    }

    fn round_satisfied(&self, epoch: u64, round: usize) -> bool {
        let expected = self.schedule.rounds[round].recv_from.len();
        if expected == 0 {
            return true;
        }
        let full = (1u64 << expected) - 1;
        self.banked
            .get(&(epoch, round))
            .map(|m| m & full == full)
            .unwrap_or(false)
    }

    fn progress(&mut self) -> (HostSends, bool) {
        let epoch = self.entered - 1;
        let mut sends = Vec::new();
        loop {
            let r = self.next_send_round;
            if r > 0 && !self.round_satisfied(epoch, r - 1) {
                return (sends, false);
            }
            if r > 0 {
                self.banked.remove(&(epoch, r - 1));
            }
            if r == self.schedule.num_rounds() {
                self.live = false;
                self.completed = epoch + 1;
                return (sends, true);
            }
            for &dst in &self.schedule.rounds[r].sends {
                sends.push((dst, r));
            }
            self.next_send_round = r + 1;
        }
    }
}

/// Shared measurement record for barrier benchmark apps.
#[derive(Clone, Debug, Default)]
pub struct BarrierLog {
    /// Completion time of each epoch, in order.
    pub completions: Vec<SimTime>,
}

impl BarrierLog {
    /// A log with room for `iters` completions, so steady-state pushes
    /// never reallocate (the zero-allocation gate measures the run).
    pub fn with_capacity(iters: u64) -> Self {
        BarrierLog {
            completions: Vec::with_capacity(
                usize::try_from(iters).expect("iteration count exceeds usize"),
            ),
        }
    }
}

/// The host-based barrier benchmark application (`Host-DS` / `Host-PE`).
pub struct HostBarrierApp {
    runner: HostScheduleRunner,
    /// Rank → node, shared by every rank of the group.
    members: Arc<[NodeId]>,
    iters: u64,
    /// Uniform random compute skew before re-entering (0 = tight loop, the
    /// paper's setup).
    skew_us: f64,
    /// Measurements.
    pub log: BarrierLog,
    pending_enter: bool,
}

impl HostBarrierApp {
    /// Build for `rank` of a group over `members` (rank order), running
    /// `iters` consecutive barriers with `algo`. Pass every rank a clone of
    /// one `Arc` to keep the build linear in the group size.
    pub fn new(
        algo: Algorithm,
        members: impl Into<Arc<[NodeId]>>,
        rank: usize,
        iters: u64,
        skew_us: f64,
    ) -> Self {
        let members = members.into();
        let schedule = Schedule::for_algorithm(algo, members.len(), rank);
        HostBarrierApp {
            runner: HostScheduleRunner::new(schedule),
            members,
            iters,
            skew_us,
            log: BarrierLog::with_capacity(iters),
            pending_enter: false,
        }
    }

    fn issue(&mut self, api: &mut GmApi<'_>, sends: HostSends, done: bool) {
        let epoch = self.runner.entered - 1;
        for (dst_rank, round) in sends {
            api.send(
                self.members[dst_rank],
                BARRIER_MSG_BYTES,
                encode_tag(epoch, round),
            );
        }
        if done {
            self.log.completions.push(api.now());
            if self.runner.completed() < self.iters {
                if self.skew_us > 0.0 {
                    let d = api.rng().range_f64(0.0, self.skew_us);
                    self.pending_enter = true;
                    api.set_timer(SimTime::from_us(d));
                } else {
                    let (s, d) = self.runner.begin();
                    self.issue(api, s, d);
                }
            }
        }
    }
}

impl GmApp for HostBarrierApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        let (sends, done) = self.runner.begin();
        self.issue(api, sends, done);
    }

    fn on_recv(&mut self, api: &mut GmApi<'_>, src: NodeId, tag: MsgTag, _len: u32) {
        let (epoch, round) = decode_tag(tag);
        let (sends, done) = self.runner.on_msg(epoch, round, &self.members, src);
        self.issue(api, sends, done);
    }

    fn on_timer(&mut self, api: &mut GmApi<'_>) {
        if self.pending_enter {
            self.pending_enter = false;
            let (s, d) = self.runner.begin();
            self.issue(api, s, d);
        }
    }
}

/// The NIC-based barrier benchmark application: one doorbell per barrier.
pub struct NicBarrierApp {
    group: GroupId,
    iters: u64,
    skew_us: f64,
    /// Measurements.
    pub log: BarrierLog,
    done: u64,
}

impl NicBarrierApp {
    /// Run `iters` consecutive NIC-based barriers on `group`.
    pub fn new(group: GroupId, iters: u64, skew_us: f64) -> Self {
        NicBarrierApp {
            group,
            iters,
            skew_us,
            log: BarrierLog::with_capacity(iters),
            done: 0,
        }
    }
}

impl GmApp for NicBarrierApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        api.collective(self.group, 0);
    }

    fn on_recv(&mut self, _api: &mut GmApi<'_>, _src: NodeId, _tag: MsgTag, _len: u32) {
        panic!("NIC-barrier app received a point-to-point message");
    }

    fn on_coll_done(&mut self, api: &mut GmApi<'_>, group: GroupId, epoch: u64, _value: u64) {
        assert_eq!(group, self.group);
        assert_eq!(epoch, self.done, "completions out of order");
        self.done += 1;
        self.log.completions.push(api.now());
        if self.done < self.iters {
            if self.skew_us > 0.0 {
                let d = api.rng().range_f64(0.0, self.skew_us);
                api.set_timer(SimTime::from_us(d));
            } else {
                api.collective(self.group, 0);
            }
        }
    }

    fn on_timer(&mut self, api: &mut GmApi<'_>) {
        api.collective(self.group, 0);
    }
}

/// A driver for the extension collectives: performs `iters` operations,
/// recording completion values (`on_coll_done`'s result word).
pub struct CollOpApp {
    group: GroupId,
    iters: u64,
    /// Contribution for each epoch (indexed by epoch).
    contributions: Vec<u64>,
    /// `(completion time, result value)` per epoch.
    pub results: Vec<(SimTime, u64)>,
}

impl CollOpApp {
    /// Run `iters` operations contributing `contributions[epoch]` each time.
    pub fn new(group: GroupId, contributions: Vec<u64>) -> Self {
        CollOpApp {
            group,
            iters: contributions.len() as u64,
            contributions,
            results: Vec::new(),
        }
    }
}

impl GmApp for CollOpApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        if self.iters > 0 {
            api.collective(self.group, self.contributions[0]);
        }
    }

    fn on_recv(&mut self, _api: &mut GmApi<'_>, _src: NodeId, _tag: MsgTag, _len: u32) {
        panic!("collective app received a point-to-point message");
    }

    fn on_coll_done(&mut self, api: &mut GmApi<'_>, _group: GroupId, epoch: u64, value: u64) {
        self.results.push((api.now(), value));
        let next = epoch + 1;
        if next < self.iters {
            let next = usize::try_from(next).expect("iteration count exceeds usize");
            api.collective(self.group, self.contributions[next]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity rank → node map of an `n`-rank group.
    fn nodes(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn tag_round_trip() {
        let t = encode_tag(123_456, 7);
        assert_eq!(decode_tag(t), (123_456, 7));
    }

    #[test]
    #[should_panic(expected = "epoch too large")]
    fn tag_overflow_rejected() {
        encode_tag(1 << 24, 0);
    }

    #[test]
    fn runner_walks_dissemination_rounds() {
        // rank 0 of 4: sends to 1 then 2; receives from 3 then 2.
        let mut r = HostScheduleRunner::new(Schedule::dissemination(4, 0));
        let (sends, done) = r.begin();
        assert_eq!(sends, vec![(1, 0)]);
        assert!(!done);
        let (sends, done) = r.on_msg(0, 0, &nodes(4), NodeId(3));
        assert_eq!(sends, vec![(2, 1)]);
        assert!(!done);
        let (sends, done) = r.on_msg(0, 1, &nodes(4), NodeId(2));
        assert!(sends.is_empty());
        assert!(done);
        assert_eq!(r.completed(), 1);
    }

    #[test]
    fn runner_banks_early_next_epoch_messages() {
        let mut r = HostScheduleRunner::new(Schedule::dissemination(2, 0));
        let (_, done) = r.begin();
        assert!(!done);
        // Peer races: both its epoch-0 and epoch-1 messages arrive.
        let (_, done) = r.on_msg(0, 0, &nodes(2), NodeId(1));
        assert!(done);
        let (s, d) = r.on_msg(1, 0, &nodes(2), NodeId(1));
        assert!(s.is_empty() && !d, "future epoch banked, not applied");
        // Entering epoch 1 releases it immediately.
        let (sends, done) = r.begin();
        assert_eq!(sends.len(), 1);
        assert!(done);
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn runner_ignores_duplicates() {
        let mut r = HostScheduleRunner::new(Schedule::dissemination(4, 0));
        let _ = r.begin();
        let (s1, _) = r.on_msg(0, 0, &nodes(4), NodeId(3));
        assert_eq!(s1.len(), 1);
        let (s2, d2) = r.on_msg(0, 0, &nodes(4), NodeId(3));
        assert!(s2.is_empty() && !d2);
    }

    #[test]
    #[should_panic(expected = "unexpected sender NodeId(1) in round 0")]
    fn runner_rejects_a_member_outside_its_round() {
        let mut r = HostScheduleRunner::new(Schedule::dissemination(4, 0));
        let _ = r.begin();
        let _ = r.on_msg(0, 0, &nodes(4), NodeId(1));
    }

    #[test]
    fn trivial_single_rank_barrier() {
        let mut r = HostScheduleRunner::new(Schedule::dissemination(1, 0));
        let (sends, done) = r.begin();
        assert!(sends.is_empty());
        assert!(done);
    }

    #[test]
    #[should_panic(expected = "re-entered")]
    fn runner_rejects_reentry() {
        let mut r = HostScheduleRunner::new(Schedule::dissemination(4, 0));
        let _ = r.begin();
        let _ = r.begin();
    }
}
