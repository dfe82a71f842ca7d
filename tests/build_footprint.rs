//! Cluster builds are linear in N: every rank of a group shares one
//! membership list instead of holding its own copy.
//!
//! The measurement is the heap a build leaves live, counted by a tracking
//! global allocator. It lives in its own integration-test binary because
//! the allocator is process-wide, and the single `#[test]` keeps the
//! measurement free of concurrent test threads.

use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario, ThreadOp};
use nicbar_elan::ElanParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator that tracks the bytes currently allocated.
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

const N: usize = 4096;

/// Heap bytes per node that a built (not run) `barrier` cluster holds.
fn bytes_per_node(barrier: Barrier) -> usize {
    let cfg = RunCfg {
        warmup: 1,
        iters: 1,
        ..RunCfg::default()
    };
    let s = Scenario::new(barrier, N, Algorithm::Dissemination, cfg);
    let before = LIVE.load(Ordering::Relaxed);
    let cluster = s.build();
    let held = LIVE.load(Ordering::Relaxed) - before;
    drop(cluster);
    held / N
}

#[test]
fn comparator_builds_hold_constant_state_per_node() {
    // A per-rank copy of the membership alone is 8 B × N = 32 KiB per node
    // at N = 4096; the chained-RDMA NIC barrier, which shares it, holds
    // about 3 KiB.
    let params = ElanParams::elan3();
    let nic = bytes_per_node(Barrier::ElanNic {
        params: params.clone(),
    });
    let gsync = bytes_per_node(Barrier::ElanGsync {
        params: params.clone(),
        degree: 4,
    });
    let thread = bytes_per_node(Barrier::ElanThread {
        params,
        op: ThreadOp::Barrier,
        contribution: |_, _| 0,
    });
    for (kind, bytes) in [("ElanGsync", gsync), ("ElanThread", thread)] {
        assert!(
            bytes <= 8 * 1024,
            "{kind} build holds {bytes} B per node at N = {N} (ElanNic: {nic} B)"
        );
    }
}
