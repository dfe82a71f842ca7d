//! # nicbar-core — the paper's contribution
//!
//! The NIC-based collective message passing protocol of *"Efficient and
//! Scalable Barrier over Quadrics and Myrinet with a New NIC-Based
//! Collective Message Passing Protocol"* (Yu, Buntinas, Graham, Panda —
//! IPPS 2004), implemented over the two simulated substrates:
//!
//! * [`schedule`] — the barrier algorithms of §5 (dissemination,
//!   pairwise-exchange, gather-broadcast) plus the binomial broadcast tree,
//!   as validated round schedules, and [`schedule::RoundFrontier`], the one
//!   executor of the round rule: epoch counters, send frontier and the
//!   parity-banked arrival bit vectors.
//! * [`protocol`] — the collective protocol engine of §3/§6: per-group
//!   queues, static packets, payloads over the frontier's bit vectors,
//!   receiver-driven NACK retransmission; plugged into the GM NIC via
//!   [`nicbar_gm::NicCollective`]. Also the §9 extension collectives
//!   (broadcast, allreduce, allgather).
//! * [`elan_chain`] — §7's Quadrics lowering: schedules compiled to chained
//!   RDMA descriptors and counting events, no NIC thread.
//! * [`contend`] / [`host_app`] / [`elan_apps`] / [`elan_thread`] — the
//!   closed-loop benchmark applications, one per entry mechanism: the
//!   NIC-based barrier of each network (one or several groups, optionally
//!   under a bulk stream), the host-based baseline (optionally under the
//!   same stream), the Elanlib `elan_gsync`/`elan_hgsync` comparators and
//!   the §7 NIC-thread collectives. They share one completion log and one
//!   re-entry rule ([`host_app::BarrierLog::complete`]); the host baseline
//!   and the NIC thread run their schedules on the protocol engine's
//!   [`schedule::RoundFrontier`].
//! * [`scenario`] — the measurement harness reproducing the paper's
//!   methodology (§8): one plain [`Scenario`] value (barrier kind, N,
//!   algorithm, [`RunCfg`], load) with one `build` → `drain` → `harvest`
//!   path — consecutive barriers, warm-up discarded, average latency,
//!   optional random node permutation, barrier safety checked every run.
//! * [`driver`] — [`RunCfg`], [`BarrierStats`], [`FlightData`] and the
//!   one-line entry points over [`Scenario`] that external benchmarks call.

#![warn(missing_docs)]

pub mod contend;
pub mod driver;
pub mod elan_apps;
pub mod elan_chain;
pub mod elan_thread;
pub mod host_app;
pub mod protocol;
pub mod scenario;
pub mod schedule;

pub use contend::{TrafficCfg, CONTEND_GROUP_BASE};
pub use driver::{
    build_elan_nic_cluster, build_gm_nic_cluster, elan_contend_flight, elan_gsync_barrier,
    elan_nic_barrier, elan_nic_stats, gm_contend_flight, gm_host_barrier, gm_nic_barrier,
    gm_nic_stats, BarrierStats, FlightData, RunCfg, BARRIER_GROUP,
};
pub use elan_thread::{thread_results, ThreadOp};
pub use protocol::{GroupOp, GroupSpec, PaperCollective, ReduceOp};
pub use scenario::{Barrier, Cluster, Load, Scenario};
pub use schedule::{ceil_log2, floor_log2, schedules_for, Algorithm, RoundPlan, Schedule};
