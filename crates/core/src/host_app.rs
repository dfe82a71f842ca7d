//! GM host applications: the host-based barrier baselines and the
//! extension-collective driver, plus the completion log and re-entry rule
//! every closed-loop barrier app shares.
//!
//! The host-based barrier (the paper's `Host-DS` / `Host-PE` curves) runs
//! the same schedules as the NIC-based protocol, but every message crosses
//! the I/O bus twice and traverses the full point-to-point send path —
//! token queues, packet claim, payload DMA, per-packet ACKs — with the host
//! CPU dispatching every round. [`HostBarrierApp`] runs the protocol
//! engine's [`RoundFrontier`] itself, with no payloads and no NACKs, and
//! turns each round it releases into GM sends tagged by [`encode_tag`]. The
//! NIC-based barrier apps of both substrates live in [`crate::contend`].

use crate::contend::{BulkStream, TrafficCfg};
use crate::schedule::{Advance, Algorithm, RoundFrontier, Schedule};
use nicbar_gm::{GmApi, GmApp, GroupId, MsgId, MsgTag, BULK_TAG};
use nicbar_net::NodeId;
use nicbar_sim::{SimRng, SimTime};
use std::sync::Arc;

/// Barrier message payload size (one integer, as in the paper).
pub const BARRIER_MSG_BYTES: u32 = 4;

/// Encode `(epoch, round)` into a message tag: 24 bits of epoch over 8
/// bits of round. The host barrier's GM messages and the Elan NIC thread's
/// messages both carry it. Epochs are bounded by the benchmark's iteration
/// count, so 24 bits are ample.
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

/// Shared measurement record for barrier benchmark apps.
#[derive(Clone, Debug, Default)]
pub struct BarrierLog {
    /// Completion time of each epoch, in order.
    pub completions: Vec<SimTime>,
}

/// What a closed-loop app does after completing an epoch (paper §8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reentry {
    /// Enter the next barrier at once (the paper's tight loop).
    Now,
    /// Compute for this long, then enter the next barrier (`on_timer`).
    After(SimTime),
    /// Every epoch is done.
    Stop,
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

    /// Epochs completed so far.
    pub fn done(&self) -> u64 {
        self.completions.len() as u64
    }

    /// Record an epoch completed at `now` and decide what follows — the
    /// one re-entry rule of every closed-loop app: stop after `iters`
    /// epochs, otherwise re-enter at once when `skew_us` is 0, or after a
    /// compute phase drawn uniformly from `[0, skew_us)` µs off the host's
    /// `rng`.
    pub fn complete(
        &mut self,
        now: SimTime,
        iters: u64,
        skew_us: f64,
        rng: &mut SimRng,
    ) -> Reentry {
        self.completions.push(now);
        if self.done() >= iters {
            Reentry::Stop
        } else if skew_us > 0.0 {
            Reentry::After(SimTime::from_us(rng.range_f64(0.0, skew_us)))
        } else {
            Reentry::Now
        }
    }
}

/// The host-based barrier benchmark application (`Host-DS` / `Host-PE`),
/// optionally with a bulk stream from its node to the next.
pub struct HostBarrierApp {
    /// The rank's schedule run over consecutive epochs. GM's
    /// point-to-point layer already delivers reliably and in order, so a
    /// message carries nothing but its tag, and no NACKs are needed.
    frontier: RoundFrontier<()>,
    iters: u64,
    /// Uniform random compute skew before re-entering (0 = tight loop, the
    /// paper's setup).
    skew_us: f64,
    bulk: Option<Box<BulkStream>>,
    /// Measurements.
    pub log: BarrierLog,
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
            frontier: RoundFrontier::new(schedule, members),
            iters,
            skew_us,
            bulk: None,
            log: BarrierLog::with_capacity(iters),
        }
    }

    /// The same app streaming `traffic` alongside the barrier loop. The
    /// stream is node-based: it goes from this rank's node to the next
    /// node, whatever the rank placement.
    pub fn with_traffic(self, traffic: TrafficCfg) -> Self {
        let members = self.frontier.members();
        let node = members[self.frontier.schedule().rank].0;
        let bulk = BulkStream::new(node, members.len(), traffic);
        HostBarrierApp { bulk, ..self }
    }

    fn enter(&mut self, api: &mut GmApi<'_>) {
        self.frontier.enter();
        self.advance(api);
    }

    /// Send every round the frontier releases, straight into GM; on
    /// completion, record it and re-enter as the log's rule says.
    fn advance(&mut self, api: &mut GmApi<'_>) {
        loop {
            match self.frontier.advance(|()| {}) {
                Advance::Blocked => return,
                Advance::Send { epoch, round } => {
                    let f = &self.frontier;
                    for &dst_rank in &f.schedule().rounds[round].sends {
                        let tag = encode_tag(epoch, round);
                        api.send(f.members()[dst_rank], BARRIER_MSG_BYTES, tag);
                    }
                }
                Advance::Done { .. } => {
                    match self
                        .log
                        .complete(api.now(), self.iters, self.skew_us, api.rng())
                    {
                        Reentry::Now => {}
                        Reentry::After(delay) => {
                            api.set_timer(delay);
                            return;
                        }
                        Reentry::Stop => return,
                    }
                    self.frontier.enter();
                }
            }
        }
    }
}

impl GmApp for HostBarrierApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        if let Some(bulk) = &mut self.bulk {
            bulk.start_gm(api);
        }
        self.enter(api);
    }

    fn on_recv(&mut self, api: &mut GmApi<'_>, src: NodeId, tag: MsgTag, _len: u32) {
        if tag == BULK_TAG {
            return;
        }
        let (epoch, round) = decode_tag(tag);
        self.frontier.arrive(epoch, round, src, ());
        self.advance(api);
    }

    fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId) {
        let live = self.log.done() < self.iters;
        if let Some(bulk) = &mut self.bulk {
            bulk.on_send_done(api, msg_id, live);
        }
    }

    fn on_timer(&mut self, api: &mut GmApi<'_>) {
        self.enter(api);
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
}
