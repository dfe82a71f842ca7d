//! Scheduler micro-workloads for `engine-sweep`: a token bouncing around a
//! ring (pop-dominated), 64 tokens circulating at staggered strides (the
//! queue depth the figure simulations run at), and a fan-out tree (push
//! pressure), each on the production engine under any [`SchedulerKind`]
//! and on the seed engine replica. Every run returns `(events, seconds)`.
//!
//! They live in the library, not next to the command, so their code
//! generation does not depend on what else the `nicbar-bench` executable
//! contains: the zero-overhead gate compares their throughput against a
//! committed baseline, and compiled inside the executable the `fanout`
//! median measured 5-12% slower on a 2-vCPU host with identical code.

use crate::seed_engine::{SeedComponent, SeedCtx, SeedEngine};
use nicbar_sim::{Component, ComponentId, Ctx, Engine, SchedulerKind, SimTime};
use std::time::Instant;

const RING_EVENTS: u64 = 400_000;
const FANOUT_DEPTH: u32 = 9;
/// Concurrent tokens in the `flows` workload — the steady queue depth the
/// paper's figure simulations actually run at (nodes × in-flight messages).
const FLOW_TOKENS: usize = 64;

enum Msg {
    Hop(u64),
    Spawn(u32),
}

/// Bounces an event around a ring — pop-dominated scheduler load.
struct RingHop {
    next: ComponentId,
    stride: u64,
}

impl Component<Msg> for RingHop {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Hop(remaining) => {
                if remaining > 0 {
                    ctx.send(
                        SimTime::from_ns(self.stride),
                        self.next,
                        Msg::Hop(remaining - 1),
                    );
                }
            }
            Msg::Spawn(_) => unreachable!(),
        }
    }
}

/// Every event schedules four children — push/heap-pressure load.
struct FanOut;

impl Component<Msg> for FanOut {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Spawn(depth) => {
                if depth > 0 {
                    for k in 0..4u64 {
                        ctx.send_self(SimTime::from_ns(10 + k), Msg::Spawn(depth - 1));
                    }
                }
            }
            Msg::Hop(_) => unreachable!(),
        }
    }
}

/// A token bouncing around a 16-component ring for `RING_EVENTS` hops.
pub fn ring_hop_run(kind: SchedulerKind) -> (u64, f64) {
    let mut engine: Engine<Msg> = Engine::with_scheduler(0, kind);
    let ids: Vec<ComponentId> = (0..16).map(|_| engine.reserve_id()).collect();
    for (i, &id) in ids.iter().enumerate() {
        engine.install(
            id,
            RingHop {
                next: ids[(i + 1) % ids.len()],
                stride: 10,
            },
        );
    }
    engine.schedule_at(SimTime::ZERO, ids[0], Msg::Hop(RING_EVENTS));
    let start = Instant::now();
    engine.run();
    (engine.events_processed(), start.elapsed().as_secs_f64())
}

/// `FLOW_TOKENS` tokens circulating a ring at staggered strides: sustained
/// queue depth of `FLOW_TOKENS`, the profile the figure sims run at.
pub fn flows_run(kind: SchedulerKind) -> (u64, f64) {
    let mut engine: Engine<Msg> = Engine::with_scheduler(0, kind);
    let ids: Vec<ComponentId> = (0..FLOW_TOKENS).map(|_| engine.reserve_id()).collect();
    for (i, &id) in ids.iter().enumerate() {
        engine.install(
            id,
            RingHop {
                next: ids[(i + 1) % ids.len()],
                stride: 5 + (i as u64 % 13),
            },
        );
    }
    let hops = RING_EVENTS / FLOW_TOKENS as u64;
    for (i, &id) in ids.iter().enumerate() {
        engine.schedule_at(SimTime::from_ns(i as u64), id, Msg::Hop(hops));
    }
    let start = Instant::now();
    engine.run();
    (engine.events_processed(), start.elapsed().as_secs_f64())
}

/// A fan-out tree of depth `FANOUT_DEPTH` from one component.
pub fn fanout_run(kind: SchedulerKind) -> (u64, f64) {
    let mut engine: Engine<Msg> = Engine::with_scheduler(0, kind);
    let id = engine.add(FanOut);
    engine.schedule_at(SimTime::ZERO, id, Msg::Spawn(FANOUT_DEPTH));
    let start = Instant::now();
    engine.run();
    (engine.events_processed(), start.elapsed().as_secs_f64())
}

// The same workloads on the seed engine replica — the original whole-entry
// `BinaryHeap` + pending-drain + `Option::take` hot path — so the sweep
// tracks the overhaul's full speedup, not just the queue swap.

struct SeedWorker {
    next: ComponentId,
    stride: u64,
}

impl SeedComponent<Msg> for SeedWorker {
    fn handle(&mut self, msg: Msg, ctx: &mut SeedCtx<'_, Msg>) {
        match msg {
            Msg::Hop(remaining) => {
                if remaining > 0 {
                    ctx.send(
                        SimTime::from_ns(self.stride),
                        self.next,
                        Msg::Hop(remaining - 1),
                    );
                }
            }
            Msg::Spawn(depth) => {
                if depth > 0 {
                    for k in 0..4u64 {
                        ctx.send_self(SimTime::from_ns(10 + k), Msg::Spawn(depth - 1));
                    }
                }
            }
        }
    }
}

/// [`ring_hop_run`] on the seed engine replica.
pub fn seed_ring_hop_run() -> (u64, f64) {
    let mut engine: SeedEngine<Msg> = SeedEngine::new();
    let ids: Vec<ComponentId> = (0..16).map(|_| engine.reserve_id()).collect();
    for (i, &id) in ids.iter().enumerate() {
        engine.install(
            id,
            SeedWorker {
                next: ids[(i + 1) % ids.len()],
                stride: 10,
            },
        );
    }
    engine.schedule_at(SimTime::ZERO, ids[0], Msg::Hop(RING_EVENTS));
    let start = Instant::now();
    engine.run();
    (engine.events_processed(), start.elapsed().as_secs_f64())
}

/// [`flows_run`] on the seed engine replica.
pub fn seed_flows_run() -> (u64, f64) {
    let mut engine: SeedEngine<Msg> = SeedEngine::new();
    let ids: Vec<ComponentId> = (0..FLOW_TOKENS).map(|_| engine.reserve_id()).collect();
    for (i, &id) in ids.iter().enumerate() {
        engine.install(
            id,
            SeedWorker {
                next: ids[(i + 1) % ids.len()],
                stride: 5 + (i as u64 % 13),
            },
        );
    }
    let hops = RING_EVENTS / FLOW_TOKENS as u64;
    for (i, &id) in ids.iter().enumerate() {
        engine.schedule_at(SimTime::from_ns(i as u64), id, Msg::Hop(hops));
    }
    let start = Instant::now();
    engine.run();
    (engine.events_processed(), start.elapsed().as_secs_f64())
}

/// [`fanout_run`] on the seed engine replica.
pub fn seed_fanout_run() -> (u64, f64) {
    let mut engine: SeedEngine<Msg> = SeedEngine::new();
    let id = engine.add(SeedWorker {
        next: ComponentId(0),
        stride: 10,
    });
    engine.schedule_at(SimTime::ZERO, id, Msg::Spawn(FANOUT_DEPTH));
    let start = Instant::now();
    engine.run();
    (engine.events_processed(), start.elapsed().as_secs_f64())
}
