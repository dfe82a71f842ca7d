//! A faithful replica of the original (seed) discrete-event engine's hot
//! path, kept **only** as the benchmark baseline for the "≥2× events/sec"
//! claim in the engine overhaul.
//!
//! The production engine in `nicbar-sim` was rewritten around an indexed
//! 4-ary heap, split-borrow dispatch and interned counters; its retained
//! `ClassicBinaryHeap` scheduler swaps only the queue back. This module
//! instead reproduces the *whole* original per-event cost structure, taken
//! line-for-line from the seed `Engine::step`:
//!
//! * one `BinaryHeap` of full event entries (time + seq + target + payload
//!   all moved on every sift),
//! * handler sends buffered in a `pending: Vec` and drained into the heap
//!   after every event (the extra per-event copy the `push_batch` path
//!   removed),
//! * the component boxed out of its slot (`Option::take`) and reinstalled
//!   around every delivery,
//! * `peek` + `pop` touching the heap root twice per loop iteration.
//!
//! Do not use this for simulations — it exists so `benches/engine.rs` and
//! `engine-sweep` can measure the seed baseline on today's toolchain.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;

use nicbar_sim::{ComponentId, SimRng, SimTime};

/// A component in the replica engine (same shape as the seed trait).
pub trait SeedComponent<M> {
    /// Process one event addressed to this component.
    fn handle(&mut self, msg: M, ctx: &mut SeedCtx<'_, M>);
}

struct Entry<M> {
    time: SimTime,
    seq: u64,
    target: ComponentId,
    msg: M,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first — exactly the seed's ordering.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The seed's trace ring (shape only — the per-event cost is the disabled
/// check, which the replica must still pay to be a fair baseline).
#[derive(Default)]
pub struct SeedTrace {
    enabled: bool,
    records: Vec<(SimTime, ComponentId, &'static str, u64, u64)>,
}

impl SeedTrace {
    /// Record a trace event if tracing is enabled (it never is in the
    /// benches, same as the seed runs).
    #[inline]
    pub fn emit(&mut self, time: SimTime, component: ComponentId, label: &'static str) {
        if self.enabled {
            self.records.push((time, component, label, 0, 0));
        }
    }
}

/// Handler context: buffers sends into the engine's pending vector, as the
/// seed engine did. Carries the full set of references the seed `Ctx` had
/// (rng, trace, string-keyed counters, halt flag) so constructing it per
/// event costs what the seed paid.
pub struct SeedCtx<'a, M> {
    now: SimTime,
    self_id: ComponentId,
    pending: &'a mut Vec<(SimTime, ComponentId, M)>,
    rng: &'a mut SimRng,
    trace: &'a mut SeedTrace,
    counters: &'a mut BTreeMap<&'static str, u64>,
    halt: &'a mut bool,
}

impl<M> SeedCtx<'_, M> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `msg` for `target` after `delay`.
    #[inline]
    pub fn send(&mut self, delay: SimTime, target: ComponentId, msg: M) {
        self.pending.push((self.now + delay, target, msg));
    }

    /// Schedule `msg` for this component after `delay`.
    #[inline]
    pub fn send_self(&mut self, delay: SimTime, msg: M) {
        self.send(delay, self.self_id, msg);
    }

    /// The deterministic RNG (seed signature).
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Add to a string-keyed counter — the seed's `BTreeMap` lookup.
    #[inline]
    pub fn count(&mut self, key: &'static str, amount: u64) {
        *self.counters.entry(key).or_insert(0) += amount;
    }

    /// Emit a trace record (disabled-check cost included).
    #[inline]
    pub fn trace(&mut self, label: &'static str) {
        self.trace.emit(self.now, self.self_id, label);
    }

    /// Stop the run after this event.
    #[inline]
    pub fn halt(&mut self) {
        *self.halt = true;
    }
}

/// The replica engine. API subset: build, schedule, run, count events.
pub struct SeedEngine<M> {
    components: Vec<Option<Box<dyn SeedComponent<M>>>>,
    queue: BinaryHeap<Entry<M>>,
    pending: Vec<(SimTime, ComponentId, M)>,
    rng: SimRng,
    trace: SeedTrace,
    counters: BTreeMap<&'static str, u64>,
    halted: bool,
    seq: u64,
    now: SimTime,
    events_processed: u64,
}

impl<M> Default for SeedEngine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> SeedEngine<M> {
    /// An empty engine.
    pub fn new() -> Self {
        SeedEngine {
            components: Vec::new(),
            queue: BinaryHeap::new(),
            pending: Vec::new(),
            rng: SimRng::new(0),
            trace: SeedTrace::default(),
            counters: BTreeMap::new(),
            halted: false,
            seq: 0,
            now: SimTime::ZERO,
            events_processed: 0,
        }
    }

    /// Reserve a component slot.
    pub fn reserve_id(&mut self) -> ComponentId {
        let id = ComponentId(self.components.len());
        self.components.push(None);
        id
    }

    /// Install a component into a reserved slot.
    pub fn install<C: SeedComponent<M> + 'static>(&mut self, id: ComponentId, component: C) {
        assert!(self.components[id.0].is_none(), "slot occupied");
        self.components[id.0] = Some(Box::new(component));
    }

    /// Reserve + install in one step.
    pub fn add<C: SeedComponent<M> + 'static>(&mut self, component: C) -> ComponentId {
        let id = self.reserve_id();
        self.install(id, component);
        id
    }

    /// Inject an event at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, target: ComponentId, msg: M) {
        assert!(at >= self.now, "scheduling into the past");
        self.push(at, target, msg);
    }

    fn push(&mut self, time: SimTime, target: ComponentId, msg: M) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry {
            time,
            seq,
            target,
            msg,
        });
    }

    /// Total events delivered.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Deliver the single earliest event (the seed's `step`, verbatim minus
    /// rng/trace/counter plumbing that the bench workloads never touched).
    fn step(&mut self) -> bool {
        let Some(entry) = self.queue.pop() else {
            return false;
        };
        self.now = entry.time;
        self.events_processed += 1;
        let mut component = self.components[entry.target.0]
            .take()
            .unwrap_or_else(|| panic!("event for uninstalled component {}", entry.target));
        {
            let mut ctx = SeedCtx {
                now: self.now,
                self_id: entry.target,
                pending: &mut self.pending,
                rng: &mut self.rng,
                trace: &mut self.trace,
                counters: &mut self.counters,
                halt: &mut self.halted,
            };
            component.handle(entry.msg, &mut ctx);
        }
        self.components[entry.target.0] = Some(component);
        // Drain handler-scheduled events into the heap in FIFO order.
        let mut pending = std::mem::take(&mut self.pending);
        for (time, target, msg) in pending.drain(..) {
            self.push(time, target, msg);
        }
        self.pending = pending;
        true
    }

    /// Run until the queue drains; returns the final simulated time.
    pub fn run(&mut self) -> SimTime {
        // The seed's run loop peeked before every step (deadline check), so
        // the replica touches the heap root twice per event too.
        loop {
            let Some(next) = self.queue.peek() else {
                return self.now;
            };
            let _deadline_check = next.time;
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ring {
        next: ComponentId,
    }
    impl SeedComponent<u64> for Ring {
        fn handle(&mut self, msg: u64, ctx: &mut SeedCtx<'_, u64>) {
            if msg > 0 {
                ctx.send(SimTime::from_ns(10), self.next, msg - 1);
            }
        }
    }

    #[test]
    fn replica_runs_a_ring() {
        let mut e: SeedEngine<u64> = SeedEngine::new();
        let a = e.reserve_id();
        let b = e.reserve_id();
        e.install(a, Ring { next: b });
        e.install(b, Ring { next: a });
        e.schedule_at(SimTime::ZERO, a, 100);
        let end = e.run();
        assert_eq!(e.events_processed(), 101);
        assert_eq!(end, SimTime::from_ns(1000));
    }
}
