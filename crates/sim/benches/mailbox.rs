//! Mailbox-path microbenchmark: the cross-shard message hand-off that the
//! parallel engine drives once per window, measured both ways —
//!
//! * `mutex`: all producers share one `Mutex<Vec<u64>>` and the consumer
//!   swap-drains it — the pre-SPSC mailbox design;
//! * `spsc`: each producer owns a [`nicbar_sim::SpscRing`] and the
//!   consumer drains the rings round-robin — the engine's current
//!   per-pair topology.
//!
//! Producer counts 1–8 mirror the shard counts the figure binaries run
//! at. On a single hardware thread the contrast collapses into a
//! context-switch benchmark; the interesting numbers come from ≥8-thread
//! hosts, where the mutex variant serialises on the lock while the rings
//! stay wait-free. `engine-sweep --quick` prints the same comparison as a
//! one-shot informational report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nicbar_sim::SpscRing;
use std::sync::Mutex;

/// Items each producer pushes per measured transfer. Small enough that a
/// sample stays in the low milliseconds even single-threaded.
const ITEMS: u64 = 20_000;
const RING_CAPACITY: usize = 1024;

/// One full transfer through a shared `Mutex<Vec>`: `producers` threads
/// push, the bench thread swap-drains until every item arrived.
fn mutex_transfer(producers: usize) -> u64 {
    let shared: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let total = producers as u64 * ITEMS;
    let mut received = 0u64;
    std::thread::scope(|s| {
        for p in 0..producers {
            let shared = &shared;
            s.spawn(move || {
                for i in 0..ITEMS {
                    shared.lock().expect("mailbox mutex").push(p as u64 ^ i);
                }
            });
        }
        let mut drained = Vec::new();
        while received < total {
            {
                let mut guard = shared.lock().expect("mailbox mutex");
                std::mem::swap(&mut *guard, &mut drained);
            }
            received += drained.len() as u64;
            drained.clear();
            if received < total {
                std::thread::yield_now();
            }
        }
    });
    received
}

/// One full transfer through per-producer SPSC rings: each producer owns
/// a ring, the bench thread drains all rings round-robin.
fn spsc_transfer(producers: usize) -> u64 {
    let rings: Vec<SpscRing<u64>> = (0..producers)
        .map(|_| SpscRing::new(RING_CAPACITY))
        .collect();
    let total = producers as u64 * ITEMS;
    let mut received = 0u64;
    std::thread::scope(|s| {
        for (p, ring) in rings.iter().enumerate() {
            s.spawn(move || {
                for i in 0..ITEMS {
                    let mut v = p as u64 ^ i;
                    while let Err(back) = ring.push(v) {
                        v = back;
                        std::thread::yield_now();
                    }
                }
            });
        }
        while received < total {
            let mut progressed = false;
            for ring in &rings {
                while ring.pop().is_some() {
                    received += 1;
                    progressed = true;
                }
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
    });
    received
}

fn bench_mailbox(c: &mut Criterion) {
    for producers in [1usize, 2, 4, 8] {
        let mut g = c.benchmark_group(format!("mailbox_{producers}p"));
        g.throughput(Throughput::Elements(producers as u64 * ITEMS));
        // Thread spawn/join dominates tiny samples; keep the sample count
        // modest so a full run stays in seconds.
        g.sample_size(10);
        g.bench_with_input(BenchmarkId::from("mutex"), &producers, |b, &p| {
            b.iter(|| mutex_transfer(p));
        });
        g.bench_with_input(BenchmarkId::from("spsc"), &producers, |b, &p| {
            b.iter(|| spsc_transfer(p));
        });
        g.finish();
    }
}

criterion_group!(benches, bench_mailbox);
criterion_main!(benches);
