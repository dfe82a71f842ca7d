//! # nicbar-core — the paper's contribution
//!
//! The NIC-based collective message passing protocol of *"Efficient and
//! Scalable Barrier over Quadrics and Myrinet with a New NIC-Based
//! Collective Message Passing Protocol"* (Yu, Buntinas, Graham, Panda —
//! IPPS 2004), implemented over the two simulated substrates:
//!
//! * [`schedule`] — the barrier algorithms of §5 (dissemination,
//!   pairwise-exchange, gather-broadcast) plus the binomial broadcast tree,
//!   as validated round schedules.
//! * [`protocol`] — the collective protocol engine of §3/§6: per-group
//!   queues, static packets, bit-vector bookkeeping, receiver-driven NACK
//!   retransmission; plugged into the GM NIC via
//!   [`nicbar_gm::NicCollective`]. Also the §9 extension collectives
//!   (broadcast, allreduce, allgather).
//! * [`elan_chain`] — §7's Quadrics lowering: schedules compiled to chained
//!   RDMA descriptors and counting events, no NIC thread.
//! * [`host_app`] / [`elan_apps`] — benchmark applications: host-based
//!   baselines and NIC-based drivers for both networks, plus the Elanlib
//!   `elan_gsync`/`elan_hgsync` comparators.
//! * [`driver`] — the measurement harness reproducing the paper's
//!   methodology (§8): consecutive barriers, warm-up discarded, average
//!   latency, optional random node permutation.

#![warn(missing_docs)]

pub mod contend;
pub mod driver;
pub mod elan_apps;
pub mod elan_chain;
pub mod elan_thread;
pub mod host_app;
pub mod protocol;
pub mod schedule;
pub mod traffic;

pub use contend::{elan_contend_flight, gm_contend_flight, CONTEND_GROUP_BASE};
pub use driver::{
    build_elan_nic_cluster, build_gm_nic_cluster, capture_observability, elan_gsync_barrier,
    elan_hw_barrier, elan_nic_barrier, elan_nic_barrier_flight, elan_nic_stats,
    elan_thread_allreduce, elan_thread_barrier, gm_host_barrier, gm_nic_barrier,
    gm_nic_barrier_flight, gm_nic_stats, BarrierStats, FlightData, RunCfg, BARRIER_GROUP,
};
pub use protocol::{GroupOp, GroupSpec, PaperCollective, ReduceOp};
pub use schedule::{ceil_log2, floor_log2, schedules_for, Algorithm, RoundPlan, Schedule};
pub use traffic::{
    gm_host_barrier_under_traffic, gm_nic_barrier_under_traffic,
    gm_nic_barrier_under_traffic_flight, TrafficCfg,
};
