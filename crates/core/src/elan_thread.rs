//! Thread-processor collectives on Quadrics — the §7 road not taken, plus
//! the Moody-et-al. reduction (the paper's ref \[14\]) that *requires* it.
//!
//! §7 chooses chained RDMA descriptors for the barrier because "an extra
//! thread does increase the processing load to the Elan NIC". This module
//! implements the rejected design — a NIC-thread barrier — so the claim can
//! be measured (`thread_vs_chain` tests/bench), and the thread-based
//! *allreduce*, which chained descriptors cannot express at all (they move
//! no data and compute nothing): NIC-side combining needs the thread
//! processor.
//!
//! [`ThreadCollective`] runs a dissemination schedule on the GM protocol
//! engine's [`RoundFrontier`], each arrival carrying its sender's value, so
//! consecutive operations overlap under the same one-epoch parity banking.
//! What the thread adds is its accumulator. Its messages carry the host
//! barrier's tag codec ([`encode_tag`]).

use crate::host_app::{decode_tag, encode_tag, BarrierLog, Reentry};
use crate::protocol::ReduceOp;
use crate::schedule::{Advance, Arrival, RoundFrontier, Schedule};
use nicbar_elan::{ElanApi, ElanApp, ElanCluster, ElanNic, ElanThread, ThreadAction};
use nicbar_gm::MsgTag;
use nicbar_net::NodeId;
use nicbar_sim::SimTime;
use std::sync::Arc;

/// Completion cookie for thread-based collectives.
pub const THREAD_DONE_COOKIE: u64 = 0x7442;

/// What the thread computes each operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadOp {
    /// Pure synchronization (the §7 alternative barrier).
    Barrier,
    /// Dissemination-butterfly allreduce (Moody-style NIC reduction).
    Allreduce {
        /// Combine operator (Sum requires power-of-two groups).
        op: ReduceOp,
    },
}

/// The NIC-thread collective engine for one rank.
pub struct ThreadCollective {
    /// The rank's dissemination schedule over consecutive operations; an
    /// arrival carries its sender's value.
    frontier: RoundFrontier<u64>,
    op: ThreadOp,
    /// Accumulator of the live epoch.
    acc: u64,
    /// Results per completed epoch (test observability).
    results: Vec<u64>,
}

impl ThreadCollective {
    /// Build for `rank` of a group placed on `members`. Pass every rank a
    /// clone of one `Arc` to keep the build linear in the group size.
    pub fn new(members: impl Into<Arc<[NodeId]>>, rank: usize, op: ThreadOp) -> Self {
        let members = members.into();
        let n = members.len();
        if let ThreadOp::Allreduce { op } = op {
            assert!(
                n.is_power_of_two() || op.tolerates_overlap(),
                "dissemination allreduce with Sum requires a power-of-two group"
            );
        }
        ThreadCollective {
            frontier: RoundFrontier::new(Schedule::dissemination(n, rank), members),
            op,
            acc: 0,
            results: Vec::new(),
        }
    }

    /// Completed operation results (barrier: zeros).
    pub fn results(&self) -> &[u64] {
        &self.results
    }

    fn progress(&mut self) -> Vec<ThreadAction> {
        let mut actions = Vec::new();
        loop {
            let (op, acc) = (self.op, &mut self.acc);
            let step = self.frontier.advance(|v| {
                if let ThreadOp::Allreduce { op } = op {
                    *acc = op.combine(*acc, v);
                }
            });
            match step {
                Advance::Blocked => return actions,
                Advance::Done { .. } => {
                    self.results.push(match self.op {
                        ThreadOp::Barrier => 0,
                        ThreadOp::Allreduce { .. } => self.acc,
                    });
                    actions.push(ThreadAction::NotifyHost {
                        cookie: THREAD_DONE_COOKIE,
                        value: self.acc,
                    });
                    return actions;
                }
                Advance::Send { epoch, round } => {
                    for &dst_rank in &self.frontier.schedule().rounds[round].sends {
                        actions.push(ThreadAction::Send {
                            dst: self.frontier.members()[dst_rank],
                            tag: encode_tag(epoch, round).0,
                            value: self.acc,
                        });
                    }
                }
            }
        }
    }
}

impl ElanThread for ThreadCollective {
    fn on_doorbell(&mut self, _now: SimTime, value: u64) -> Vec<ThreadAction> {
        self.frontier.enter();
        self.acc = match self.op {
            ThreadOp::Barrier => 0,
            ThreadOp::Allreduce { .. } => value,
        };
        self.progress()
    }

    fn on_msg(&mut self, _now: SimTime, src: NodeId, tag: u32, value: u64) -> Vec<ThreadAction> {
        let (epoch, round) = decode_tag(MsgTag(tag));
        let arrival = self.frontier.arrive(epoch, round, src, value);
        debug_assert_eq!(
            arrival,
            Arrival::Banked,
            "duplicate thread arrival (hw-reliable net)"
        );
        self.progress()
    }
}

/// Benchmark app driving consecutive thread-based collectives.
pub struct ElanThreadApp {
    iters: u64,
    skew_us: f64,
    /// Contribution per epoch (allreduce operand; ignored for barrier).
    contributions: Vec<u64>,
    /// Measurements.
    pub log: BarrierLog,
}

impl ElanThreadApp {
    /// Run one operation per entry of `contributions`, where
    /// `contributions[e]` is this rank's operand in epoch `e` (pass zeros
    /// for a barrier), computing for up to `skew_us` between operations.
    pub fn new(contributions: Vec<u64>, skew_us: f64) -> Self {
        let iters = contributions.len() as u64;
        ElanThreadApp {
            iters,
            skew_us,
            contributions,
            log: BarrierLog::with_capacity(iters),
        }
    }

    fn enter(&mut self, api: &mut ElanApi<'_>) {
        let next = usize::try_from(self.log.done()).expect("iteration count exceeds usize");
        api.thread_doorbell(self.contributions[next]);
    }
}

impl ElanApp for ElanThreadApp {
    fn on_start(&mut self, api: &mut ElanApi<'_>) {
        if self.iters > 0 {
            self.enter(api);
        }
    }

    fn on_coll_done(&mut self, api: &mut ElanApi<'_>, cookie: u64) {
        assert_eq!(cookie, THREAD_DONE_COOKIE);
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

/// Every rank's completed-operation results, in rank order, off a drained
/// cluster whose NICs run [`ThreadCollective`]s for the group placed on
/// `members`.
pub fn thread_results(cluster: &mut ElanCluster, members: &[NodeId]) -> Vec<Vec<u64>> {
    members
        .iter()
        .map(|&node| {
            let nic_id = cluster.nics[node.0];
            let nic = cluster
                .engine
                .component_mut::<ElanNic>(nic_id)
                .expect("nic component");
            nic.thread_mut()
                .as_any_mut()
                .downcast_mut::<ThreadCollective>()
                .expect("thread type")
                .results()
                .to_vec()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_rank_thread_barrier_by_hand() {
        let members = vec![NodeId(0), NodeId(1)];
        let mut t0 = ThreadCollective::new(members.clone(), 0, ThreadOp::Barrier);
        let a = t0.on_doorbell(SimTime::ZERO, 0);
        assert_eq!(a.len(), 1, "round-0 send");
        let a = t0.on_msg(SimTime::ZERO, NodeId(1), encode_tag(0, 0).0, 0);
        assert!(matches!(a[0], ThreadAction::NotifyHost { .. }));
        assert_eq!(t0.results(), &[0]);
    }

    #[test]
    fn allreduce_accumulates_across_rounds() {
        // Rank 0 of 4, Sum: contributes 1; hears 8 (round 0, covers rank 3)
        // and 6 (round 1, covers ranks 1+2 = 2+4).
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut t = ThreadCollective::new(members, 0, ThreadOp::Allreduce { op: ReduceOp::Sum });
        let a = t.on_doorbell(SimTime::ZERO, 1);
        // Round-0 send carries own contribution.
        assert!(matches!(a[0], ThreadAction::Send { value: 1, .. }));
        let a = t.on_msg(SimTime::ZERO, NodeId(3), encode_tag(0, 0).0, 8);
        // Round-1 send carries 1+8.
        assert!(matches!(a[0], ThreadAction::Send { value: 9, .. }));
        let a = t.on_msg(SimTime::ZERO, NodeId(2), encode_tag(0, 1).0, 6);
        assert!(matches!(a[0], ThreadAction::NotifyHost { value: 15, .. }));
        assert_eq!(t.results(), &[15]);
    }

    #[test]
    fn early_next_epoch_arrivals_are_banked() {
        let members = vec![NodeId(0), NodeId(1)];
        let mut t = ThreadCollective::new(members, 0, ThreadOp::Barrier);
        // Epoch 0: our entry, then the peer's epoch-0 message completes it.
        let a = t.on_doorbell(SimTime::ZERO, 0);
        assert_eq!(a.len(), 1);
        let a = t.on_msg(SimTime::ZERO, NodeId(1), encode_tag(0, 0).0, 0);
        assert!(matches!(a[0], ThreadAction::NotifyHost { .. }));
        // The peer races into epoch 1 before our host re-enters: its message
        // must be banked (a peer can be at most one epoch ahead — it needed
        // our epoch-0 entry, which has happened).
        assert!(t
            .on_msg(SimTime::ZERO, NodeId(1), encode_tag(1, 0).0, 0)
            .is_empty());
        // Our epoch-1 doorbell releases send + immediate completion.
        let a = t.on_doorbell(SimTime::ZERO, 0);
        assert_eq!(a.len(), 2);
        assert_eq!(t.results().len(), 2);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn sum_requires_power_of_two() {
        let members: Vec<NodeId> = (0..6).map(NodeId).collect();
        let _ = ThreadCollective::new(members, 0, ThreadOp::Allreduce { op: ReduceOp::Sum });
    }
}
