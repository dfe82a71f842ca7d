//! Communication schedules for the barrier (and extension) algorithms, and
//! the one executor that runs them round by round.
//!
//! A [`Schedule`] is one rank's view of a round-synchronous communication
//! pattern: in round `r` it sends to `sends[r]` and expects messages from
//! `recv_from[r]`. The execution rule is:
//!
//! > the sends of round `r` may be issued once the process has entered the
//! > operation and every expected message of rounds `< r` has arrived; the
//! > operation completes when every expected message of every round has
//! > arrived and all sends are issued.
//!
//! [`RoundFrontier`] is that rule, written once. It counts entered and
//! completed epochs, holds the live epoch's send frontier, and banks
//! arrivals in `2 × rounds` parity slots, one `u64` bit vector each (the
//! paper's §3 bit vector; the `myflags[parity][round]` layout of the MCS
//! dissemination barrier). Its three executors differ only in what they do
//! around it: the GM protocol engine ([`crate::protocol`]) attaches payload
//! semantics and NACKs, the host-based barrier ([`crate::host_app`]) turns
//! each due round into point-to-point sends, and the Elan NIC thread
//! ([`crate::elan_thread`]) folds values into its accumulator. The Elan
//! chain builder ([`crate::elan_chain`]) compiles the same rule into
//! counting events instead.
//!
//! Three barrier algorithms from §5 of the paper are provided —
//! [`Schedule::dissemination`], [`Schedule::pairwise_exchange`] and
//! [`Schedule::gather_broadcast`] — plus a binomial broadcast tree used by
//! the extension collectives. [`validate`] checks global consistency (every
//! expected receive is someone's send in the same round, and vice versa) and
//! [`disseminates`] checks the barrier correctness condition (every rank's
//! entry causally precedes every rank's exit).

use nicbar_net::NodeId;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One rank's plan for one round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundPlan {
    /// Peer ranks this rank sends to in this round.
    pub sends: Vec<usize>,
    /// Peer ranks this rank expects a message from in this round.
    pub recv_from: Vec<usize>,
}

/// One rank's complete schedule.
///
/// ```
/// use nicbar_core::schedule::{Algorithm, Schedule};
///
/// // Rank 0 of an 8-rank dissemination barrier: 3 rounds, sending to
/// // ranks 1, 2, 4 and hearing from ranks 7, 6, 4.
/// let s = Schedule::for_algorithm(Algorithm::Dissemination, 8, 0);
/// assert_eq!(s.num_rounds(), 3);
/// assert_eq!(s.rounds[0].sends, vec![1]);
/// assert_eq!(s.rounds[2].recv_from, vec![4]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Group size.
    pub n: usize,
    /// This rank.
    pub rank: usize,
    /// Per-round plans; all ranks of a group have the same number of rounds.
    pub rounds: Vec<RoundPlan>,
}

/// The algorithm selector (paper §5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// ⌈log₂N⌉ rounds; rank `i` sends to `(i + 2^m) mod N` in round `m`.
    Dissemination,
    /// Recursive doubling (MPICH); `log₂N` rounds for powers of two,
    /// `⌊log₂N⌋ + 2` steps otherwise.
    PairwiseExchange,
    /// Combine up a d-ary tree, broadcast down (2·depth+1 rounds). Included
    /// for completeness; the paper dismisses it as inferior.
    GatherBroadcast {
        /// Tree degree.
        degree: usize,
    },
}

impl Algorithm {
    /// Human-readable short name (used by the benchmark harness).
    pub fn short_name(&self) -> &'static str {
        match self {
            Algorithm::Dissemination => "DS",
            Algorithm::PairwiseExchange => "PE",
            Algorithm::GatherBroadcast { .. } => "GB",
        }
    }
}

impl Schedule {
    /// Build the schedule for `rank` under `algo`.
    pub fn for_algorithm(algo: Algorithm, n: usize, rank: usize) -> Schedule {
        match algo {
            Algorithm::Dissemination => Schedule::dissemination(n, rank),
            Algorithm::PairwiseExchange => Schedule::pairwise_exchange(n, rank),
            Algorithm::GatherBroadcast { degree } => Schedule::gather_broadcast(n, rank, degree),
        }
    }

    /// The dissemination algorithm (§5.1, Fig. 4): in round `m`, rank `i`
    /// sends to `(i + 2^m) mod N` and hears from `(i − 2^m) mod N`. Takes
    /// ⌈log₂N⌉ rounds for any `N`.
    pub fn dissemination(n: usize, rank: usize) -> Schedule {
        assert!(rank < n, "rank out of range");
        let rounds = ceil_log2(n);
        let plans = (0..rounds)
            .map(|m| {
                let d = (1usize << m) % n;
                RoundPlan {
                    sends: vec![(rank + d) % n],
                    recv_from: vec![(rank + n - d) % n],
                }
            })
            .collect();
        Schedule {
            n,
            rank,
            rounds: plans,
        }
    }

    /// The pairwise-exchange algorithm (§5.1, Fig. 3). For `N` a power of
    /// two: `log₂N` rounds of partner exchange (`j = i XOR 2^m`). Otherwise
    /// (`M` = largest power of two ≤ `N`): a pre-step in which ranks `≥ M`
    /// notify `i − M`, the `M`-rank exchange, and a post-step notifying the
    /// high ranks back — `⌊log₂N⌋ + 2` steps, matching the paper.
    pub fn pairwise_exchange(n: usize, rank: usize) -> Schedule {
        assert!(rank < n, "rank out of range");
        if n == 1 {
            return Schedule {
                n,
                rank,
                rounds: Vec::new(),
            };
        }
        let m_rounds = floor_log2(n);
        let m = 1usize << m_rounds; // largest power of two ≤ n
        if m == n {
            let rounds = (0..m_rounds)
                .map(|k| {
                    let partner = rank ^ (1usize << k);
                    RoundPlan {
                        sends: vec![partner],
                        recv_from: vec![partner],
                    }
                })
                .collect();
            return Schedule { n, rank, rounds };
        }
        // Non-power-of-two: pre round + m_rounds exchange rounds + post round.
        let total = m_rounds + 2;
        let mut rounds = vec![RoundPlan::default(); total];
        if rank >= m {
            // Extra rank: announce in the pre-step, wait for the post-step.
            rounds[0].sends = vec![rank - m];
            rounds[total - 1].recv_from = vec![rank - m];
        } else {
            if rank + m < n {
                // Partnered low rank: absorb the extra's announcement first…
                rounds[0].recv_from = vec![rank + m];
                // …and release it at the end.
                rounds[total - 1].sends = vec![rank + m];
            }
            for k in 0..m_rounds {
                let partner = rank ^ (1usize << k);
                rounds[k + 1].sends = vec![partner];
                rounds[k + 1].recv_from = vec![partner];
            }
        }
        Schedule { n, rank, rounds }
    }

    /// Gather-broadcast over a `degree`-ary tree rooted at rank 0 (§5.1,
    /// Fig. 2): leaves combine upward (deepest level first), the root
    /// releases a broadcast downward. `2·D + 1` rounds for tree depth `D`.
    pub fn gather_broadcast(n: usize, rank: usize, degree: usize) -> Schedule {
        assert!(rank < n, "rank out of range");
        assert!(degree >= 2, "tree degree must be at least 2");
        if n == 1 {
            return Schedule {
                n,
                rank,
                rounds: Vec::new(),
            };
        }
        let depth_of = |i: usize| -> usize {
            let mut d = 0;
            let mut x = i;
            while x != 0 {
                x = (x - 1) / degree;
                d += 1;
            }
            d
        };
        let max_depth = (0..n).map(depth_of).max().expect("n > 0");
        let my_depth = depth_of(rank);
        let parent = if rank == 0 {
            None
        } else {
            Some((rank - 1) / degree)
        };
        let children: Vec<usize> = (1..=degree)
            .map(|k| degree * rank + k)
            .filter(|&c| c < n)
            .collect();
        // Gather rounds 0..max_depth: a node at depth k sends up in round
        // (max_depth - k); its children (depth k+1) sent in the round
        // before. Broadcast rounds max_depth..2·max_depth+1: a node at depth
        // k sends down in round (max_depth + 1 + k) and received from its
        // parent in round (max_depth + k).
        let total = 2 * max_depth + 1;
        let mut rounds = vec![RoundPlan::default(); total];
        if let Some(p) = parent {
            rounds[max_depth - my_depth].sends = vec![p];
            rounds[max_depth + my_depth].recv_from = vec![p];
        }
        if !children.is_empty() {
            let child_depth = my_depth + 1;
            rounds[max_depth - child_depth].recv_from = children.clone();
            rounds[max_depth + child_depth].sends = children;
        }
        Schedule { n, rank, rounds }
    }

    /// Binomial broadcast tree rooted at `root` (extension collective):
    /// relative rank `q = (rank − root) mod N` receives in round
    /// `⌊log₂ q⌋` from `q − 2^⌊log₂ q⌋` and forwards in later rounds.
    pub fn binomial_broadcast(n: usize, rank: usize, root: usize) -> Schedule {
        assert!(rank < n && root < n, "rank out of range");
        let rounds_total = ceil_log2(n);
        let q = (rank + n - root) % n;
        let abs = |rel: usize| (rel + root) % n;
        let mut rounds = vec![RoundPlan::default(); rounds_total];
        for (m, round) in rounds.iter_mut().enumerate() {
            let d = 1usize << m;
            if q < d && q + d < n {
                round.sends = vec![abs(q + d)];
            }
            if q >= d && q < 2 * d {
                round.recv_from = vec![abs(q - d)];
            }
        }
        Schedule { n, rank, rounds }
    }

    /// Number of rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total messages this rank sends per operation.
    pub fn total_sends(&self) -> usize {
        self.rounds.iter().map(|r| r.sends.len()).sum()
    }

    /// Total messages this rank expects per operation.
    pub fn total_recvs(&self) -> usize {
        self.rounds.iter().map(|r| r.recv_from.len()).sum()
    }

    /// The slot of the message round `r` expects from node `src`: its index
    /// in `recv_from`, matched through `members` (rank → node, in rank
    /// order), or `None` if `src` is not an expected sender of that round.
    ///
    /// The scan covers the round's expected senders only — at most 64, and
    /// one for dissemination and pairwise exchange — never the group, so a
    /// receive costs the same at any group size and under any rank → node
    /// permutation, with no per-rank node → rank table to build.
    pub fn sender_slot(&self, r: usize, members: &[NodeId], src: NodeId) -> Option<usize> {
        self.rounds[r]
            .recv_from
            .iter()
            .position(|&rank| members[rank] == src)
    }
}

/// ⌈log₂ n⌉ (0 for n ≤ 1).
pub fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// ⌊log₂ n⌋ (0 for n ≤ 1).
pub fn floor_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - 1 - n.leading_zeros()) as usize
    }
}

/// Build all ranks' schedules for a group.
pub fn schedules_for(algo: Algorithm, n: usize) -> Vec<Schedule> {
    (0..n)
        .map(|r| Schedule::for_algorithm(algo, n, r))
        .collect()
}

/// Check global consistency: all ranks agree on the round count, and every
/// `recv_from` entry in round `r` is matched by exactly one `sends` entry of
/// that peer in round `r` (and vice versa). Returns an error description.
pub fn validate(schedules: &[Schedule]) -> Result<(), String> {
    let n = schedules.len();
    if n == 0 {
        return Err("empty group".into());
    }
    let rounds = schedules[0].num_rounds();
    for s in schedules {
        if s.num_rounds() != rounds {
            return Err(format!(
                "rank {} has {} rounds, rank 0 has {rounds}",
                s.rank,
                s.num_rounds()
            ));
        }
        if s.n != n {
            return Err(format!("rank {} built for group size {}", s.rank, s.n));
        }
    }
    for r in 0..rounds {
        for s in schedules {
            for &dst in &s.rounds[r].sends {
                if dst >= n {
                    return Err(format!("rank {} sends to out-of-range {dst}", s.rank));
                }
                if dst == s.rank {
                    return Err(format!("rank {} sends to itself in round {r}", s.rank));
                }
                let matched = schedules[dst].rounds[r]
                    .recv_from
                    .iter()
                    .filter(|&&x| x == s.rank)
                    .count();
                if matched != 1 {
                    return Err(format!(
                        "round {r}: rank {} sends to {dst} but {dst} expects it {matched} times",
                        s.rank
                    ));
                }
            }
            for &src in &s.rounds[r].recv_from {
                let matched = schedules[src].rounds[r]
                    .sends
                    .iter()
                    .filter(|&&x| x == s.rank)
                    .count();
                if matched != 1 {
                    return Err(format!(
                        "round {r}: rank {} expects from {src} but {src} sends it {matched} times",
                        s.rank
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Check the barrier correctness condition: for every pair `(a, b)`, rank
/// `a`'s entry causally precedes rank `b`'s completion. Uses the execution
/// rule (send of round r happens after own entry and all receives < r) to
/// propagate "knowledge sets" round by round.
pub fn disseminates(schedules: &[Schedule]) -> bool {
    let n = schedules.len();
    if n == 0 {
        return false;
    }
    let rounds = schedules[0].num_rounds();
    // knows[i] = set of ranks whose entry causally precedes i's current state.
    let mut knows: Vec<Vec<bool>> = (0..n).map(|i| (0..n).map(|j| j == i).collect()).collect();
    for r in 0..rounds {
        // All sends of round r are computed from pre-round knowledge.
        let snapshot = knows.clone();
        for s in schedules {
            for &dst in &s.rounds[r].sends {
                for j in 0..n {
                    if snapshot[s.rank][j] {
                        knows[dst][j] = true;
                    }
                }
            }
        }
    }
    knows.iter().all(|k| k.iter().all(|&b| b))
}

/// Where [`RoundFrontier::arrive`] put an arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// Recorded in its round's bit vector.
    Banked,
    /// Its sender's bit was already set: a retransmission, ignored.
    Duplicate,
    /// Its epoch already completed here: a late duplicate, ignored.
    Stale,
}

/// The next move of a [`RoundFrontier`] (see [`RoundFrontier::advance`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Advance {
    /// Round `round`'s sends of the live `epoch` are due now.
    Send {
        /// The live epoch.
        epoch: u64,
        /// The round whose sends are due.
        round: usize,
    },
    /// The live `epoch` completed: every round's arrivals were consumed and
    /// every send was issued.
    Done {
        /// The epoch that completed.
        epoch: u64,
    },
    /// Waiting for an arrival, or no epoch is live.
    Blocked,
}

/// One round's arrivals for the epoch that owns the slot: the bit vector
/// over the round's expected senders, and what each of them carried.
#[derive(Clone, Debug)]
struct RoundSlot<P> {
    epoch: u64,
    mask: u64,
    payloads: Vec<Option<P>>,
}

/// One rank running its [`Schedule`] over consecutive epochs: the module's
/// execution rule, with arrivals of type `P` (`()` when a message carries
/// nothing the rank keeps).
///
/// Consecutive epochs overlap: a peer can enter epoch `e + 1` while this
/// rank is still in `e`, and an arrival can precede this rank's own entry.
/// Completing epoch `e` anywhere requires every rank's entry into `e`, so
/// no arrival is ever more than one epoch ahead of this rank's entries, and
/// at most two epochs' arrivals coexist. A fixed array of `2 × rounds`
/// slots indexed by `(epoch parity, round)` therefore holds every arrival,
/// each slot's payload vector sized once at construction: banking needs no
/// map and touches the heap zero times per epoch.
///
/// ```
/// use nicbar_core::schedule::{Advance, RoundFrontier, Schedule};
/// use nicbar_net::NodeId;
///
/// // Rank 0 of a 2-rank barrier: send to rank 1, hear from rank 1.
/// let members = [NodeId(0), NodeId(1)];
/// let mut f = RoundFrontier::<()>::new(Schedule::dissemination(2, 0), members.into());
/// f.enter();
/// assert_eq!(f.advance(|_| {}), Advance::Send { epoch: 0, round: 0 });
/// assert_eq!(f.advance(|_| {}), Advance::Blocked);
/// f.arrive(0, 0, NodeId(1), ());
/// assert_eq!(f.advance(|_| {}), Advance::Done { epoch: 0 });
/// ```
#[derive(Clone, Debug)]
pub struct RoundFrontier<P> {
    schedule: Schedule,
    /// Rank → node, shared by every rank of the group.
    members: Arc<[NodeId]>,
    /// Epochs entered (the next epoch to enter).
    entered: u64,
    /// Epochs completed.
    completed: u64,
    /// The live epoch's next round whose sends have not been issued.
    next_send_round: usize,
    /// Arrival slots indexed `(epoch & 1) * rounds + round`.
    slots: Vec<RoundSlot<P>>,
}

impl<P> RoundFrontier<P> {
    /// The frontier of `schedule`'s rank in a group placed on `members`
    /// (rank → node, rank order). Pass every rank a clone of one `Arc` to
    /// keep the build linear in the group size.
    ///
    /// # Panics
    /// If a round expects more than 64 senders: a round's bit vector is
    /// one `u64`.
    pub fn new(schedule: Schedule, members: Arc<[NodeId]>) -> Self {
        for (r, plan) in schedule.rounds.iter().enumerate() {
            assert!(
                plan.recv_from.len() <= 64,
                "round {r} expects more than 64 messages; widen the bit vector"
            );
        }
        let rounds = schedule.num_rounds();
        let slots = (0..2 * rounds)
            .map(|i| RoundSlot {
                epoch: 0,
                mask: 0,
                payloads: (0..schedule.rounds[i % rounds].recv_from.len())
                    .map(|_| None)
                    .collect(),
            })
            .collect();
        RoundFrontier {
            schedule,
            members,
            entered: 0,
            completed: 0,
            next_send_round: 0,
            slots,
        }
    }

    /// The rank's schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Rank → node of the group.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Epochs entered so far: the number of the next epoch to enter.
    pub fn entered(&self) -> u64 {
        self.entered
    }

    /// Epochs completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The epoch entered and not yet completed, if any.
    pub fn live_epoch(&self) -> Option<u64> {
        (self.entered > self.completed).then(|| self.entered - 1)
    }

    /// The live epoch's next round whose sends have not been issued.
    pub fn next_send_round(&self) -> usize {
        self.next_send_round
    }

    fn slot_index(&self, epoch: u64, round: usize) -> usize {
        (epoch & 1) as usize * self.schedule.num_rounds() + round
    }

    /// The bit vector of a complete round: one bit per expected sender (0
    /// for a round that expects nothing).
    fn full_mask(&self, round: usize) -> u64 {
        match self.schedule.rounds[round].recv_from.len() {
            64 => u64::MAX,
            expected => (1u64 << expected) - 1,
        }
    }

    /// The bit vector of `round`'s arrivals banked for `epoch`.
    pub fn arrived(&self, epoch: u64, round: usize) -> u64 {
        let slot = &self.slots[self.slot_index(epoch, round)];
        if slot.epoch == epoch {
            slot.mask
        } else {
            0
        }
    }

    /// Enter the next epoch; [`Self::advance`] then issues what is due.
    ///
    /// # Panics
    /// If the previous epoch has not completed.
    pub fn enter(&mut self) {
        assert!(
            self.live_epoch().is_none(),
            "re-entered before the previous operation completed"
        );
        self.next_send_round = 0;
        self.entered += 1;
    }

    /// Bank an arrival of `epoch` from node `src` in `round`, whatever
    /// epoch is live. The sender resolves to its bit through the round's
    /// expected senders ([`Schedule::sender_slot`]), never the group.
    ///
    /// # Panics
    /// If the round is outside the schedule, or `src` is not one of the
    /// round's expected senders (a non-member included).
    pub fn arrive(&mut self, epoch: u64, round: usize, src: NodeId, payload: P) -> Arrival {
        assert!(round < self.schedule.num_rounds(), "round out of schedule");
        let bit = self
            .schedule
            .sender_slot(round, &self.members, src)
            .unwrap_or_else(|| {
                panic!(
                    "unexpected sender {src:?} in round {round}: not an expected sender in \
                     round {round} of rank {}",
                    self.schedule.rank
                )
            });
        debug_assert!(
            epoch <= self.entered,
            "arrival more than one epoch ahead (epoch {epoch}, entered {})",
            self.entered
        );
        if epoch < self.completed {
            return Arrival::Stale;
        }
        let idx = self.slot_index(epoch, round);
        let slot = &mut self.slots[idx];
        if slot.epoch != epoch {
            // Recycle the slot in place. Safe because banking is one epoch
            // deep: before any epoch-e arrival lands, epoch e−2 (the slot's
            // previous same-parity owner) has completed locally, so its
            // arrivals were consumed; any residue here is duplicate
            // retransmissions of a finished epoch.
            debug_assert!(
                slot.mask == 0 || slot.epoch + 2 <= epoch,
                "parity slot collision: epoch {epoch} arrivals over unconsumed epoch {}",
                slot.epoch
            );
            slot.epoch = epoch;
            slot.mask = 0;
            for p in slot.payloads.iter_mut() {
                *p = None;
            }
        }
        if slot.mask & (1u64 << bit) != 0 {
            return Arrival::Duplicate;
        }
        slot.mask |= 1u64 << bit;
        slot.payloads[bit] = Some(payload);
        Arrival::Banked
    }

    /// Move the live epoch's frontier one step. When round `r − 1` is
    /// complete, its payloads go to `consume` in sender order and its bits
    /// clear; then either round `r`'s sends are due or, past the last
    /// round, the epoch is done. Call until [`Advance::Blocked`].
    pub fn advance(&mut self, mut consume: impl FnMut(P)) -> Advance {
        let Some(epoch) = self.live_epoch() else {
            return Advance::Blocked;
        };
        let r = self.next_send_round;
        let full = if r > 0 { self.full_mask(r - 1) } else { 0 };
        if full != 0 {
            let idx = self.slot_index(epoch, r - 1);
            let slot = &mut self.slots[idx];
            if slot.epoch != epoch || slot.mask & full != full {
                return Advance::Blocked; // waiting for round r-1 arrivals
            }
            slot.mask = 0;
            slot.payloads
                .iter_mut()
                .filter_map(Option::take)
                .for_each(&mut consume);
        }
        if r == self.schedule.num_rounds() {
            self.completed = epoch + 1;
            return Advance::Done { epoch };
        }
        self.next_send_round = r + 1;
        Advance::Send { epoch, round: r }
    }

    /// Check the frontier's invariants: no more epochs completed than
    /// entered, the send frontier inside the schedule, and every slot's bit
    /// vector within its round's senders and in step with its payloads.
    pub fn check(&self) -> Result<(), String> {
        if self.completed > self.entered {
            return Err(format!(
                "completed {} epochs but only entered {}",
                self.completed, self.entered
            ));
        }
        let rounds = self.schedule.num_rounds();
        if self.next_send_round > rounds {
            return Err(format!(
                "send frontier {} beyond the {rounds}-round schedule",
                self.next_send_round
            ));
        }
        for (i, s) in self.slots.iter().enumerate() {
            let round = i % rounds;
            let full = self.full_mask(round);
            if s.mask & !full != 0 {
                return Err(format!(
                    "slot {i} bit vector {:#x} has bits beyond the {} expected senders of \
                     round {round}",
                    s.mask,
                    full.count_ones()
                ));
            }
            for (bit, p) in s.payloads.iter().enumerate() {
                let have = s.mask & (1u64 << bit) != 0;
                if have && p.is_none() {
                    return Err(format!(
                        "slot {i} mask bit {bit} set without a banked payload"
                    ));
                }
                if !have && p.is_some() {
                    return Err(format!(
                        "slot {i} holds a payload at {bit} outside its bit vector"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Feed every slot's epoch, bit vector and payloads to `h`, in slot
    /// order (state fingerprints).
    pub fn hash_slots<H: Hasher>(&self, h: &mut H)
    where
        P: Hash,
    {
        for s in &self.slots {
            s.epoch.hash(h);
            s.mask.hash(h);
            s.payloads.hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: &[usize] = &[
        1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 24, 31, 32, 33, 64,
    ];

    #[test]
    fn log_helpers() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(7), 2);
        assert_eq!(floor_log2(8), 3);
    }

    #[test]
    fn dissemination_round_count_matches_paper() {
        // "This algorithm takes ⌈log₂N⌉ steps, irrespective of whether N is
        // a power of two or not."
        for &n in SIZES {
            let s = Schedule::dissemination(n, 0);
            assert_eq!(s.num_rounds(), ceil_log2(n), "n={n}");
        }
    }

    #[test]
    fn pairwise_exchange_round_count_matches_paper() {
        // log₂N for powers of two, ⌊log₂N⌋ + 2 otherwise.
        for &n in SIZES {
            let s = Schedule::pairwise_exchange(n, 0);
            let expect = if n == 1 {
                0
            } else if n.is_power_of_two() {
                floor_log2(n)
            } else {
                floor_log2(n) + 2
            };
            assert_eq!(s.num_rounds(), expect, "n={n}");
        }
    }

    #[test]
    fn gather_broadcast_round_count() {
        // Depth-2 complete binary tree over 7 ranks: 2*2+1 = 5 rounds.
        let s = Schedule::gather_broadcast(7, 0, 2);
        assert_eq!(s.num_rounds(), 5);
    }

    #[test]
    fn all_schedules_globally_consistent() {
        for &n in SIZES {
            for algo in [
                Algorithm::Dissemination,
                Algorithm::PairwiseExchange,
                Algorithm::GatherBroadcast { degree: 2 },
                Algorithm::GatherBroadcast { degree: 4 },
            ] {
                let all = schedules_for(algo, n);
                validate(&all).unwrap_or_else(|e| panic!("{algo:?} n={n}: {e}"));
            }
        }
    }

    #[test]
    fn all_barrier_schedules_disseminate() {
        for &n in SIZES {
            for algo in [
                Algorithm::Dissemination,
                Algorithm::PairwiseExchange,
                Algorithm::GatherBroadcast { degree: 2 },
                Algorithm::GatherBroadcast { degree: 4 },
            ] {
                let all = schedules_for(algo, n);
                assert!(disseminates(&all), "{algo:?} n={n} is not a barrier");
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone_from_any_root() {
        for &n in &[1usize, 2, 3, 5, 8, 13, 16] {
            for root in [0, n / 2, n - 1] {
                let all: Vec<Schedule> = (0..n)
                    .map(|r| Schedule::binomial_broadcast(n, r, root))
                    .collect();
                validate(&all).unwrap_or_else(|e| panic!("bcast n={n} root={root}: {e}"));
                // Reachability from the root only.
                let rounds = all[0].num_rounds();
                let mut has = vec![false; n];
                has[root] = true;
                for r in 0..rounds {
                    let snap = has.clone();
                    for s in &all {
                        if snap[s.rank] {
                            for &d in &s.rounds[r].sends {
                                has[d] = true;
                            }
                        } else {
                            assert!(
                                s.rounds[r].sends.is_empty(),
                                "rank {} forwards before receiving (n={n}, root={root}, r={r})",
                                s.rank
                            );
                        }
                    }
                }
                assert!(has.iter().all(|&x| x), "bcast n={n} root={root} incomplete");
            }
        }
    }

    #[test]
    fn broadcast_message_count_is_n_minus_1() {
        for &n in &[2usize, 3, 5, 8, 13] {
            let total: usize = (0..n)
                .map(|r| Schedule::binomial_broadcast(n, r, 0).total_sends())
                .sum();
            assert_eq!(total, n - 1, "n={n}");
        }
    }

    #[test]
    fn dissemination_messages_per_barrier() {
        // N·⌈log₂N⌉ messages total.
        for &n in &[2usize, 5, 8, 16] {
            let total: usize = schedules_for(Algorithm::Dissemination, n)
                .iter()
                .map(|s| s.total_sends())
                .sum();
            assert_eq!(total, n * ceil_log2(n), "n={n}");
        }
    }

    #[test]
    fn pe_extras_have_pre_and_post_steps() {
        // n=6: extras are ranks 4 and 5; they speak only in the pre round
        // and listen only in the post round.
        let s5 = Schedule::pairwise_exchange(6, 5);
        assert_eq!(s5.rounds[0].sends, vec![1]);
        assert!(s5.rounds[0].recv_from.is_empty());
        let last = s5.num_rounds() - 1;
        assert_eq!(s5.rounds[last].recv_from, vec![1]);
        assert!(s5.rounds[last].sends.is_empty());
        // Their partners mirror that.
        let s1 = Schedule::pairwise_exchange(6, 1);
        assert_eq!(s1.rounds[0].recv_from, vec![5]);
        assert_eq!(s1.rounds[last].sends, vec![5]);
    }

    #[test]
    fn sender_slot_lookup() {
        let s = Schedule::gather_broadcast(7, 0, 2);
        // Root gathers from children 1 and 2 in round 1 (depth-2 tree).
        let r = s
            .rounds
            .iter()
            .position(|p| p.recv_from.len() == 2)
            .expect("gather round");
        // Ranks map to nodes in reverse, so a rank-keyed lookup would miss.
        let members: Vec<NodeId> = (0..7).rev().map(NodeId).collect();
        assert_eq!(s.sender_slot(r, &members, NodeId(5)), Some(0));
        assert_eq!(s.sender_slot(r, &members, NodeId(4)), Some(1));
        assert_eq!(
            s.sender_slot(r, &members, NodeId(3)),
            None,
            "member, not a sender this round"
        );
        assert_eq!(s.sender_slot(r, &members, NodeId(99)), None, "non-member");
    }

    /// Identity rank → node map of an `n`-rank group.
    fn nodes(n: usize) -> Arc<[NodeId]> {
        (0..n).map(NodeId).collect()
    }

    /// The frontier of `schedule`'s rank over the identity placement.
    fn frontier(schedule: Schedule) -> RoundFrontier<()> {
        let n = schedule.n;
        RoundFrontier::new(schedule, nodes(n))
    }

    /// Advance until the frontier blocks or completes: the sends released,
    /// as `(destination rank, round)`, and whether the epoch completed.
    fn drive(f: &mut RoundFrontier<()>) -> (Vec<(usize, usize)>, bool) {
        let mut sends = Vec::new();
        loop {
            match f.advance(|()| {}) {
                Advance::Send { round, .. } => {
                    let dsts = &f.schedule().rounds[round].sends;
                    sends.extend(dsts.iter().map(|&dst| (dst, round)));
                }
                Advance::Done { .. } => return (sends, true),
                Advance::Blocked => return (sends, false),
            }
        }
    }

    /// Enter the next epoch and drive it.
    fn begin(f: &mut RoundFrontier<()>) -> (Vec<(usize, usize)>, bool) {
        f.enter();
        drive(f)
    }

    /// Bank an arrival and drive the live epoch.
    fn on_msg(
        f: &mut RoundFrontier<()>,
        epoch: u64,
        round: usize,
        src: NodeId,
    ) -> (Vec<(usize, usize)>, bool) {
        f.arrive(epoch, round, src, ());
        drive(f)
    }

    #[test]
    fn frontier_walks_dissemination_rounds() {
        // rank 0 of 4: sends to 1 then 2; receives from 3 then 2.
        let mut r = frontier(Schedule::dissemination(4, 0));
        let (sends, done) = begin(&mut r);
        assert_eq!(sends, vec![(1, 0)]);
        assert!(!done);
        let (sends, done) = on_msg(&mut r, 0, 0, NodeId(3));
        assert_eq!(sends, vec![(2, 1)]);
        assert!(!done);
        let (sends, done) = on_msg(&mut r, 0, 1, NodeId(2));
        assert!(sends.is_empty());
        assert!(done);
        assert_eq!(r.completed(), 1);
    }

    #[test]
    fn frontier_banks_early_next_epoch_messages() {
        let mut r = frontier(Schedule::dissemination(2, 0));
        let (_, done) = begin(&mut r);
        assert!(!done);
        // Peer races: both its epoch-0 and epoch-1 messages arrive.
        let (_, done) = on_msg(&mut r, 0, 0, NodeId(1));
        assert!(done);
        let (s, d) = on_msg(&mut r, 1, 0, NodeId(1));
        assert!(s.is_empty() && !d, "future epoch banked, not applied");
        // Entering epoch 1 releases it immediately.
        let (sends, done) = begin(&mut r);
        assert_eq!(sends.len(), 1);
        assert!(done);
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn frontier_ignores_duplicates() {
        let mut r = frontier(Schedule::dissemination(4, 0));
        let _ = begin(&mut r);
        let (s1, _) = on_msg(&mut r, 0, 0, NodeId(3));
        assert_eq!(s1.len(), 1);
        let (s2, d2) = on_msg(&mut r, 0, 0, NodeId(3));
        assert!(s2.is_empty() && !d2);
    }

    #[test]
    fn frontier_classifies_arrivals() {
        let mut r = frontier(Schedule::dissemination(2, 0));
        let _ = begin(&mut r);
        assert_eq!(r.arrive(0, 0, NodeId(1), ()), Arrival::Banked);
        assert_eq!(r.arrive(0, 0, NodeId(1), ()), Arrival::Duplicate);
        assert!(drive(&mut r).1);
        assert_eq!(r.arrive(0, 0, NodeId(1), ()), Arrival::Stale);
    }

    #[test]
    #[should_panic(expected = "unexpected sender NodeId(1) in round 0")]
    fn frontier_rejects_a_member_outside_its_round() {
        let mut r = frontier(Schedule::dissemination(4, 0));
        let _ = begin(&mut r);
        let _ = on_msg(&mut r, 0, 0, NodeId(1));
    }

    #[test]
    fn frontier_waits_for_all_64_senders() {
        // The root of a 64-ary gather-broadcast over 65 ranks hears from
        // all 64 children in round 0 before it releases the broadcast.
        let n = 65;
        let mut r = frontier(Schedule::gather_broadcast(n, 0, 64));
        let (sends, done) = begin(&mut r);
        assert!(sends.is_empty() && !done);
        for child in 1..n {
            let (sends, done) = on_msg(&mut r, 0, 0, NodeId(child));
            if child < 64 {
                assert!(sends.is_empty() && !done, "released after {child} of 64");
            } else {
                assert_eq!(sends.len(), 64, "broadcast to every child");
                assert!(done);
            }
        }
        assert_eq!(r.completed(), 1);
    }

    #[test]
    #[should_panic(expected = "round 0 expects more than 64 messages; widen the bit vector")]
    fn frontier_rejects_65_senders() {
        let _ = frontier(Schedule::gather_broadcast(66, 0, 65));
    }

    #[test]
    fn trivial_single_rank_barrier() {
        let mut r = frontier(Schedule::dissemination(1, 0));
        let (sends, done) = begin(&mut r);
        assert!(sends.is_empty());
        assert!(done);
    }

    #[test]
    #[should_panic(expected = "re-entered")]
    fn frontier_rejects_reentry() {
        let mut r = frontier(Schedule::dissemination(4, 0));
        let _ = begin(&mut r);
        let _ = begin(&mut r);
    }

    #[test]
    fn frontier_folds_payloads_in_sender_order() {
        // The gather-broadcast root hears from ranks 1 and 2 in one round.
        let s = Schedule::gather_broadcast(3, 0, 2);
        let mut f = RoundFrontier::<u64>::new(s, nodes(3));
        f.enter();
        assert!(matches!(f.advance(|_| {}), Advance::Send { round: 0, .. }));
        f.arrive(0, 0, NodeId(2), 20);
        f.arrive(0, 0, NodeId(1), 10);
        let mut seen = Vec::new();
        assert!(matches!(
            f.advance(|v| seen.push(v)),
            Advance::Send { round: 1, .. }
        ));
        assert_eq!(seen, vec![10, 20]);
        assert_eq!(f.arrived(0, 0), 0, "consumed bits clear");
        assert_eq!(f.check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn out_of_range_rank_panics() {
        Schedule::dissemination(4, 4);
    }
}
