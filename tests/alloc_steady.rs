//! Zero-allocation steady state, proven with a counting global allocator.
//!
//! The protocol engine, NIC models, and host dispatch all recycle scratch
//! buffers, so after warm-up a NIC-based barrier epoch must not touch the
//! heap at all. Neither may a host-based barrier epoch: its round frontier
//! banks arrivals in fixed parity slots, and GM's point-to-point path
//! recycles its tokens and packets. The proof is a delta measurement: drain one cluster
//! configured for K measured iterations and one for 2K, counting allocator
//! calls during each drain (construction excluded). Any per-epoch
//! allocation would make the second count strictly larger; equality means
//! the K extra epochs allocated exactly nothing.
//!
//! This lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide, and the single `#[test]` keeps
//! the measurement windows free of concurrent test threads.

use nicbar_core::{
    build_elan_nic_cluster, build_gm_nic_cluster, Algorithm, Barrier, RunCfg, Scenario,
};
use nicbar_elan::ElanParams;
use nicbar_gm::{CollFeatures, GmParams};
use nicbar_sim::{EngineSel, RunOutcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator with a call counter (allocations and reallocations;
/// frees are irrelevant to the gate).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 8;
const WARMUP: u64 = 50;

fn cfg(iters: u64, engine: EngineSel, shards: usize) -> RunCfg {
    RunCfg {
        warmup: WARMUP,
        iters,
        engine,
        shards,
        ..RunCfg::default()
    }
}

/// Allocator calls made while *draining* (not building) a GM NIC-DS run.
fn gm_drain_allocs(algo: Algorithm, iters: u64, engine: EngineSel, shards: usize) -> u64 {
    let cfg = cfg(iters, engine, shards);
    let mut cluster = build_gm_nic_cluster(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        N,
        algo,
        &cfg,
        false,
    );
    let deadline = cfg.deadline();
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let outcome = cluster.run_until(deadline);
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(outcome, RunOutcome::Idle, "gm run did not drain");
    after - before
}

/// Allocator calls made while draining an Elan NIC-DS run.
fn elan_drain_allocs(algo: Algorithm, iters: u64, engine: EngineSel, shards: usize) -> u64 {
    let cfg = cfg(iters, engine, shards);
    let mut cluster = build_elan_nic_cluster(ElanParams::elan3(), N, algo, &cfg, false);
    let deadline = cfg.deadline();
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let outcome = cluster.run_until(deadline);
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(outcome, RunOutcome::Idle, "elan run did not drain");
    after - before
}

/// Allocator calls made while draining a GM host-based barrier run.
fn gm_host_drain_allocs(algo: Algorithm, iters: u64) -> u64 {
    let params = GmParams::lanai_xp();
    let cfg = cfg(iters, EngineSel::Sequential, 1);
    let scenario = Scenario::new(Barrier::GmHost { params }, N, algo, cfg);
    let mut cluster = scenario.build();
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    scenario.drain(&mut cluster);
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    after - before
}

fn assert_delta_free(substrate: &str, measure: impl Fn(u64) -> u64) {
    // Throwaway run: pays every process-global one-time allocation
    // (counter-name interning, lazy statics) outside the windows. Its
    // count being nonzero also proves the counting allocator is live —
    // a cold cluster must grow the event queue during its first epochs.
    let first = measure(20);
    assert!(first > 0, "{substrate}: counting allocator saw no traffic");
    // The counting allocator is process-wide, so a window can be
    // contaminated by the *harness*: libtest's main thread sits blocked in
    // a channel `recv` while the test thread runs, and lazily allocates
    // its receiver context (two small allocations) at a
    // scheduler-dependent moment — on a busy one-CPU host that can land
    // tens of milliseconds in, i.e. inside any window. Every such
    // contaminant is one-shot and additive, so the minimum of two runs
    // per window is the uncontaminated count; a real per-epoch allocation
    // inflates every run and still trips the gate.
    let base = measure(100).min(measure(100));
    let double = measure(200).min(measure(200));
    assert_eq!(
        double,
        base,
        "{substrate}: 100 extra steady-state barriers allocated {} times \
         ({base} calls at 100 iters, {double} at 200) — the hot path must \
         not touch the heap after warm-up",
        double.saturating_sub(base)
    );
}

#[test]
fn steady_state_barrier_allocates_nothing() {
    // Dissemination is the paper's headline algorithm; both substrates
    // must run it allocation-free in the steady state.
    assert_delta_free("gm NIC-DS", |iters| {
        gm_drain_allocs(Algorithm::Dissemination, iters, EngineSel::Sequential, 1)
    });
    assert_delta_free("elan NIC-DS", |iters| {
        elan_drain_allocs(Algorithm::Dissemination, iters, EngineSel::Sequential, 1)
    });
    // Pairwise exchange exercises the multi-peer rounds at n = 8 too.
    assert_delta_free("gm NIC-PE", |iters| {
        gm_drain_allocs(Algorithm::PairwiseExchange, iters, EngineSel::Sequential, 1)
    });
    assert_delta_free("elan NIC-PE", |iters| {
        elan_drain_allocs(Algorithm::PairwiseExchange, iters, EngineSel::Sequential, 1)
    });
    // The host-based baselines run the same schedules through GM's
    // point-to-point layer, with the host dispatching every round.
    assert_delta_free("gm host-DS", |iters| {
        gm_host_drain_allocs(Algorithm::Dissemination, iters)
    });
    assert_delta_free("gm host-PE", |iters| {
        gm_host_drain_allocs(Algorithm::PairwiseExchange, iters)
    });
    // The rank-sharded parallel engine must hold the same property: after
    // warm-up its windows run out of recycled scratch buffers and settled
    // queues, so extra steady-state epochs allocate exactly nothing on any
    // worker thread (the counting allocator is process-wide).
    assert_delta_free("gm NIC-DS parallel x2", |iters| {
        gm_drain_allocs(Algorithm::Dissemination, iters, EngineSel::Parallel, 2)
    });
    assert_delta_free("elan NIC-DS parallel x2", |iters| {
        elan_drain_allocs(Algorithm::Dissemination, iters, EngineSel::Parallel, 2)
    });
}
