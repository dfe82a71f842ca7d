//! Event queues: the hot-path timing wheel (default), the indexed 4-ary
//! heap, and the reference binary heap they replaced.
//!
//! All queues order events by a *content-based* 128-bit key: simulated time
//! in the high 64 bits and a `(source, per-source count)` subkey in the low
//! 64 (see `crate::engine`). The key is a pure function of *who scheduled
//! the event and when*, never of global insertion order — so the same event
//! gets the same key whether the simulation runs on one thread or is
//! sharded across many, and the pop order is the total order of keys
//! regardless of the order pushes happened to arrive in. That property is
//! what lets the parallel engine (`crate::parallel`) drain per-shard queues
//! independently and still reproduce the sequential engine byte for byte.
//! The classic [`std::collections::BinaryHeap`] queue is kept selectable
//! (see [`SchedulerKind`]) purely as the differential-testing and
//! benchmarking baseline.
//!
//! ## Why a timing wheel
//!
//! Simulated delays here are nanoseconds to a few microseconds, so almost
//! every event lands inside a small sliding window. `WheelQueue` exploits
//! that: push links a slab node onto a per-nanosecond bucket kept sorted by
//! subkey (almost always a tail append), pop unlinks the first node of the
//! first occupied bucket (found by a 2048-bit bitmap scan), and a depth-1
//! bypass short-circuits ping-pong workloads entirely. Events beyond the
//! window fall back to the indexed heap and re-bucket when the window
//! advances.
//!
//! Every push costs O(1) whatever the bucket depth: an out-of-order subkey
//! walks at most 64 chain nodes to its insertion point, and an event whose
//! insertion point lies deeper takes the indexed heap too (the bounded-walk
//! rule). Large permuted runs put thousands of same-nanosecond events with
//! shuffled subkeys into one bucket; an unbounded walk made the wheel's
//! per-event cost grow with the node count there.
//!
//! ## Why the 4-ary indexed heap (the overflow and alternate scheduler)
//!
//! * **Shallower**: a 4-ary heap has half the depth of a binary heap, so a
//!   pop does half the levels of sift-down work; the four children of node
//!   `i` (`4i+1..4i+4`) sit in adjacent cache lines.
//! * **Indexed**: keys (16 bytes) live in one dense vector and are all the
//!   sift loops ever touch; message payloads sit in a slab addressed by a
//!   parallel `u32` slot vector, so growing `M` never slows the comparisons.
//! * **Batched**: `IndexedHeap::push_batch` appends a whole burst of
//!   events and restores the heap in one pass, using Floyd's bottom-up
//!   heapify when the batch dominates the existing contents.

use crate::engine::ComponentId;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering as AtomicOrd;

/// Which event-queue implementation an engine runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// The hot-path timing wheel (default): O(1) push/pop for events inside
    /// a sliding time window, with an indexed-heap overflow for the rest.
    #[default]
    TimingWheel,
    /// The indexed 4-ary heap: `O(log4 n)` operations over packed keys.
    Indexed4,
    /// The original `BinaryHeap`-of-entries scheduler, kept as the reference
    /// implementation for differential tests and regression baselines.
    ClassicBinaryHeap,
}

/// Pack an event key: time in the high 64 bits, subkey in the low 64.
#[inline(always)]
pub(crate) fn pack(time: SimTime, subkey: u64) -> u128 {
    ((time.as_ns() as u128) << 64) | subkey as u128
}

/// The time half of a packed key.
#[inline(always)]
pub(crate) fn key_time(key: u128) -> SimTime {
    SimTime::from_ns((key >> 64) as u64)
}

/// A pending event as handed back by a queue pop.
pub(crate) struct PoppedEvent<M> {
    pub key: u128,
    pub time: SimTime,
    pub target: ComponentId,
    pub msg: M,
}

/// The hot-path queue: a 4-ary min-heap over packed keys with payloads in a
/// slab.
pub(crate) struct IndexedHeap<M> {
    /// Heap-ordered packed `(time, subkey)` keys.
    keys: Vec<u128>,
    /// Parallel to `keys`: slab slot of each event's payload.
    slots: Vec<u32>,
    /// Payload slab; `None` entries are free.
    payload: Vec<Option<(ComponentId, M)>>,
    /// Free slab slots.
    free: Vec<u32>,
}

const ARITY: usize = 4;

impl<M> IndexedHeap<M> {
    fn new() -> Self {
        IndexedHeap {
            keys: Vec::new(),
            slots: Vec::new(),
            payload: Vec::new(),
            free: Vec::new(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|&k| key_time(k))
    }

    #[inline]
    fn peek_key(&self) -> Option<u128> {
        self.keys.first().copied()
    }

    /// Store a payload, returning its slab slot.
    #[inline]
    fn store(&mut self, target: ComponentId, msg: M) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.payload[slot as usize] = Some((target, msg));
                slot
            }
            None => {
                let slot = u32::try_from(self.payload.len()).expect("event slab overflow");
                self.payload.push(Some((target, msg)));
                slot
            }
        }
    }

    #[inline]
    fn push(&mut self, key: u128, target: ComponentId, msg: M) {
        let slot = self.store(target, msg);
        self.keys.push(key);
        self.slots.push(slot);
        self.sift_up(self.keys.len() - 1);
    }

    /// Insert a batch of already-keyed events in one pass. When the batch is
    /// at least as large as the existing heap, appending everything and
    /// rebuilding bottom-up (Floyd) is cheaper than per-element sift-up.
    fn push_batch(&mut self, batch: impl Iterator<Item = (u128, ComponentId, M)>) {
        let before = self.keys.len();
        for (key, target, msg) in batch {
            let slot = self.store(target, msg);
            self.keys.push(key);
            self.slots.push(slot);
        }
        let added = self.keys.len() - before;
        if added == 0 {
            return;
        }
        if added >= before {
            // Floyd's heap construction: sift down every internal node.
            for i in (0..self.keys.len() / ARITY + 1).rev() {
                self.sift_down(i);
            }
        } else {
            for i in before..self.keys.len() {
                self.sift_up(i);
            }
        }
    }

    fn pop(&mut self) -> Option<PoppedEvent<M>> {
        if self.keys.is_empty() {
            return None;
        }
        let key = self.keys[0];
        let slot = self.slots[0];
        let last_key = self.keys.pop().expect("non-empty");
        let last_slot = self.slots.pop().expect("non-empty");
        if !self.keys.is_empty() {
            // Walk the root hole to the bottom along min-children without
            // comparing against the displaced leaf, then sift the leaf up
            // from there. The displaced element almost always belongs near
            // the bottom, so this does ~1/4 of the comparisons of a
            // classical compare-as-you-go sift-down.
            let hole = self.hole_to_bottom();
            self.keys[hole] = last_key;
            self.slots[hole] = last_slot;
            self.sift_up(hole);
        }
        let (target, msg) = self.payload[slot as usize]
            .take()
            .expect("heap slot had no payload");
        self.free.push(slot);
        Some(PoppedEvent {
            key,
            time: key_time(key),
            target,
            msg,
        })
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        let slot = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[i] = self.keys[parent];
            self.slots[i] = self.slots[parent];
            i = parent;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
    }

    /// Move the hole at the root down to a leaf, always following the
    /// minimum child, and return the leaf position of the hole.
    #[inline]
    fn hole_to_bottom(&mut self) -> usize {
        let len = self.keys.len();
        let mut i = 0;
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                return i;
            }
            let last_child = (first_child + ARITY).min(len);
            let mut best = first_child;
            let mut best_key = self.keys[first_child];
            for c in first_child + 1..last_child {
                if self.keys[c] < best_key {
                    best = c;
                    best_key = self.keys[c];
                }
            }
            self.keys[i] = best_key;
            self.slots[i] = self.slots[best];
            i = best;
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let len = self.keys.len();
        if i >= len {
            return;
        }
        let key = self.keys[i];
        let slot = self.slots[i];
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + ARITY).min(len);
            let mut best = first_child;
            let mut best_key = self.keys[first_child];
            for c in first_child + 1..last_child {
                if self.keys[c] < best_key {
                    best = c;
                    best_key = self.keys[c];
                }
            }
            if best_key >= key {
                break;
            }
            self.keys[i] = best_key;
            self.slots[i] = self.slots[best];
            i = best;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
    }
}

/// The default scheduler: a timing wheel (calendar queue) over a sliding
/// `[base, base + WHEEL_BUCKETS)` nanosecond window.
///
/// Discrete-event workloads here push events a handful of nanoseconds to a
/// couple of microseconds ahead of `now`, so nearly every event lands in
/// the window: push links a slab node into its bucket (almost always a tail
/// append) and sets a bitmap bit, pop unlinks the head node. Buckets are
/// `(head, tail)` node indices into a slab whose free list is LIFO, so a
/// ping-pong workload keeps re-using the same hot node; the whole bucket
/// array is 16 KiB and stays cache-resident. Events beyond the window,
/// behind the read floor, or more than [`WALK_BOUND`] nodes deep in an
/// out-of-order insert go to an [`IndexedHeap`] overflow; when the window
/// drains, it advances to the overflow's minimum and re-buckets everything
/// now in range.
///
/// A depth-1 bypass (the classic DES "top event cache") short-circuits
/// ping-pong workloads: a push into an empty queue parks the event in
/// `single` and the next pop returns it without touching a bucket at all.
/// Any push while `single` is occupied flushes it into the wheel first.
///
/// ## Ordering proof sketch
///
/// Pop must follow the total `(time, subkey)` key order among the events
/// currently pending:
///
/// * Every bucket chain is kept sorted by subkey on insert — so within a
///   bucket delivery order *is* key order. (Unlike a global insertion
///   counter, content subkeys do not arrive in increasing order: a later
///   push from a lower-numbered source carries a smaller subkey. The sorted
///   insert restores the total order; the common case — monotone subkeys —
///   is still a tail append.)
/// * Bounded walk: an out-of-order insert walks at most [`WALK_BOUND`]
///   nodes from the head. If the insertion point lies deeper, the event
///   goes to the overflow instead, so a time may have events both in its
///   bucket and in the overflow. Chains no longer than the bound never
///   touch the overflow.
/// * Overflow events that re-bucket on a window advance are inserted in
///   key order *before* any direct push into the new window can occur, so
///   the sorted-chain property is established by tail appends alone (and
///   the bounded walk never sends one back to the overflow).
/// * An in-window push behind the read floor is routed to the overflow, and
///   the floor only moves forward, so such an event's time stays strictly
///   below every remaining bucket time.
/// * Pop compares the *full* keys of the overflow minimum and the first
///   bucket's head. Both structures are key-ordered, so the smaller of the
///   two is the global minimum — including on the overflow/bucket *time*
///   ties the bounded walk creates.
pub(crate) struct WheelQueue<M> {
    /// Depth-1 bypass: the sole queued event, iff `len == 1` came from a
    /// push into an empty queue. Invariant: `single.is_some()` implies the
    /// buckets and the overflow are empty.
    single: Option<(u128, ComponentId, M)>,
    /// Time (ns) of bucket 0.
    base: u64,
    /// Bucket index of the last bucket pop; in-window pushes behind this go
    /// to the overflow so the scan never moves backwards.
    floor: usize,
    /// First non-empty bucket index, or `WHEEL_BUCKETS` when none.
    next_bucket: usize,
    /// Per bucket: slab index of the first queued node, or `NIL`.
    head: Box<[u32; WHEEL_BUCKETS]>,
    /// Per bucket: slab index of the last queued node (stale when empty).
    tail: Box<[u32; WHEEL_BUCKETS]>,
    /// Per node: slab index of the next node in the same bucket, or `NIL`.
    next: Vec<u32>,
    /// Per node: the low 64 bits of the event key (bucket = the high bits).
    subkeys: Vec<u64>,
    /// Per node: the event payload; `None` entries are free.
    payload: Vec<Option<(ComponentId, M)>>,
    /// Free slab nodes (LIFO, so the hottest node is re-used first).
    free: Vec<u32>,
    /// One bit per bucket: non-empty.
    occupied: Box<[u64; WHEEL_WORDS]>,
    /// Events outside the window, in full `(time, subkey)` key order.
    overflow: IndexedHeap<M>,
    /// Total queued events (buckets + overflow).
    len: usize,
}

/// Wheel window width in nanoseconds (and buckets). 2 µs covers the link,
/// DMA and host-wakeup delays of both substrates while keeping the touched
/// bucket set inside the L1 cache; longer timers take the overflow path.
const WHEEL_BUCKETS: usize = 2048;
const WHEEL_WORDS: usize = WHEEL_BUCKETS / 64;
/// Most chain nodes an out-of-order push walks before it takes the
/// overflow instead. Bounds every push at a constant cost however many
/// same-nanosecond events share a bucket (thousands at 16k permuted nodes),
/// while short chains — all of them on small workloads — still sort in
/// place and never touch the heap.
const WALK_BOUND: usize = 64;
/// Null link / empty bucket marker.
const NIL: u32 = u32::MAX;

impl<M> WheelQueue<M> {
    fn new() -> Self {
        WheelQueue {
            single: None,
            base: 0,
            floor: 0,
            next_bucket: WHEEL_BUCKETS,
            head: Box::new([NIL; WHEEL_BUCKETS]),
            tail: Box::new([NIL; WHEEL_BUCKETS]),
            next: Vec::new(),
            subkeys: Vec::new(),
            payload: Vec::new(),
            free: Vec::new(),
            occupied: Box::new([0; WHEEL_WORDS]),
            overflow: IndexedHeap::new(),
            len: 0,
        }
    }

    #[inline]
    fn horizon(&self) -> u64 {
        self.base.saturating_add(WHEEL_BUCKETS as u64)
    }

    /// Insert an event into bucket `idx`'s chain, keeping the chain sorted
    /// by subkey. Monotone pushes — the overwhelmingly common case — take
    /// the tail-append fast path. An out-of-order push walks at most
    /// [`WALK_BOUND`] nodes from the head; past that it goes to the
    /// full-key overflow heap instead, so no push costs O(bucket).
    #[inline]
    fn link(&mut self, idx: usize, key: u128, target: ComponentId, msg: M) {
        // `idx` is already < WHEEL_BUCKETS; the mask lets the compiler drop
        // every bounds check on the fixed-size bucket arrays.
        let idx = idx & (WHEEL_BUCKETS - 1);
        let subkey = key as u64;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.payload[slot as usize] = Some((target, msg));
                self.subkeys[slot as usize] = subkey;
                self.next[slot as usize] = NIL;
                slot
            }
            None => {
                let slot = u32::try_from(self.payload.len()).expect("wheel slab overflow");
                self.payload.push(Some((target, msg)));
                self.subkeys.push(subkey);
                self.next.push(NIL);
                slot
            }
        };
        let tail = self.tail[idx];
        if self.head[idx] == NIL {
            self.head[idx] = slot;
            self.tail[idx] = slot;
        } else if self.subkeys[tail as usize] <= subkey {
            self.next[tail as usize] = slot;
            self.tail[idx] = slot;
        } else {
            // Out-of-order subkey: walk the chain to the insertion point.
            // The tail's subkey is larger, so the walk stops at or before
            // the tail — unless the bound stops it first.
            let mut prev = NIL;
            let mut cur = self.head[idx];
            let mut steps = 0;
            while self.subkeys[cur as usize] <= subkey {
                if steps == WALK_BOUND {
                    self.spill(slot, key);
                    return;
                }
                steps += 1;
                prev = cur;
                cur = self.next[cur as usize];
            }
            self.next[slot as usize] = cur;
            if prev == NIL {
                self.head[idx] = slot;
            } else {
                self.next[prev as usize] = slot;
            }
        }
        self.occupied[idx / 64] |= 1 << (idx % 64);
        if idx < self.next_bucket {
            self.next_bucket = idx;
        }
    }

    /// The bounded walk gave up: hand slab node `slot` back and queue its
    /// event on the overflow heap under its full `key`. Out of line so the
    /// push fast paths stay small.
    #[cold]
    #[inline(never)]
    fn spill(&mut self, slot: u32, key: u128) {
        let (target, msg) = self.payload[slot as usize]
            .take()
            .expect("spilled node has a payload");
        self.free.push(slot);
        self.overflow.push(key, target, msg);
    }

    #[inline]
    fn push(&mut self, key: u128, target: ComponentId, msg: M) {
        self.len += 1;
        if self.len == 1 {
            self.single = Some((key, target, msg));
            return;
        }
        if let Some((skey, starget, smsg)) = self.single.take() {
            self.route(skey, starget, smsg);
        }
        self.route(key, target, msg);
    }

    /// Place one event into a bucket or the overflow.
    #[inline]
    fn route(&mut self, key: u128, target: ComponentId, msg: M) {
        let t = (key >> 64) as u64;
        let off = t.wrapping_sub(self.base);
        if t >= self.base && off < WHEEL_BUCKETS as u64 && off as usize >= self.floor {
            self.link(off as usize, key, target, msg);
        } else {
            // Behind the floor or beyond the horizon: full-key heap order.
            self.overflow.push(key, target, msg);
        }
    }

    /// Full key of the head of the first occupied bucket, if any.
    #[inline]
    fn bucket_head_key(&self) -> Option<u128> {
        if self.next_bucket >= WHEEL_BUCKETS {
            return None;
        }
        let b = self.next_bucket & (WHEEL_BUCKETS - 1);
        let head = self.head[b];
        debug_assert_ne!(head, NIL, "occupied bucket empty");
        Some(pack(
            SimTime::from_ns(self.base + self.next_bucket as u64),
            self.subkeys[head as usize],
        ))
    }

    fn pop(&mut self) -> Option<PoppedEvent<M>> {
        if let Some((key, target, msg)) = self.single.take() {
            self.len -= 1;
            return Some(PoppedEvent {
                key,
                time: key_time(key),
                target,
                msg,
            });
        }
        // Fast path: no overflow pending (the common case — overflow only
        // holds events scheduled more than a window ahead and spills from
        // buckets deeper than the walk bound), so the first occupied
        // bucket's head is the global minimum.
        if self.overflow.len() == 0 {
            if self.next_bucket < WHEEL_BUCKETS {
                return self.pop_bucket();
            }
            return None;
        }
        loop {
            let bucket_key = self.bucket_head_key();
            let over_key = self.overflow.peek_key();
            match (over_key, bucket_key) {
                (None, None) => return None,
                (Some(ok), None) if (ok >> 64) as u64 >= self.horizon() => {
                    // Window fully drained and everything pending is beyond
                    // it: slide the window and re-bucket.
                    self.advance((ok >> 64) as u64);
                    continue;
                }
                (Some(ok), Some(bk)) if ok >= bk => return self.pop_bucket(),
                (Some(_), _) => {
                    self.len -= 1;
                    return self.overflow.pop();
                }
                (None, Some(_)) => return self.pop_bucket(),
            }
        }
    }

    #[inline]
    fn pop_bucket(&mut self) -> Option<PoppedEvent<M>> {
        let bucket_time = self.base + self.next_bucket as u64;
        let b = self.next_bucket & (WHEEL_BUCKETS - 1);
        let slot = self.head[b];
        debug_assert_ne!(slot, NIL, "occupied bucket empty");
        let rest = self.next[slot as usize];
        self.head[b] = rest;
        let (target, msg) = self.payload[slot as usize]
            .take()
            .expect("wheel node had no payload");
        let subkey = self.subkeys[slot as usize];
        self.free.push(slot);
        self.floor = b;
        if rest == NIL {
            self.occupied[b / 64] &= !(1 << (b % 64));
            self.next_bucket = self.scan_from(b + 1);
        }
        self.len -= 1;
        Some(PoppedEvent {
            key: pack(SimTime::from_ns(bucket_time), subkey),
            time: SimTime::from_ns(bucket_time),
            target,
            msg,
        })
    }

    /// Slide the window so bucket 0 sits at `t0` (the overflow minimum) and
    /// re-bucket every overflow event now inside the window, in key order.
    fn advance(&mut self, t0: u64) {
        debug_assert_eq!(self.next_bucket, WHEEL_BUCKETS, "advance with buckets live");
        self.base = t0;
        self.floor = 0;
        let limit = self.horizon();
        while let Some(t) = self.overflow.peek_time() {
            let tn = t.as_ns();
            if tn >= limit {
                break;
            }
            // Key order makes every link a tail append, so none of these
            // can bounce back into the overflow being drained.
            let e = self.overflow.pop().expect("peeked event vanished");
            self.link((tn - t0) as usize, e.key, e.target, e.msg);
        }
    }

    /// First occupied bucket at or after `from`, or `WHEEL_BUCKETS`.
    fn scan_from(&self, from: usize) -> usize {
        let mut w = from / 64;
        if w >= WHEEL_WORDS {
            return WHEEL_BUCKETS;
        }
        let mut word = self.occupied[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return w * 64 + word.trailing_zeros() as usize;
            }
            w += 1;
            if w == WHEEL_WORDS {
                return WHEEL_BUCKETS;
            }
            word = self.occupied[w];
        }
    }

    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        if let Some((key, _, _)) = &self.single {
            return Some(key_time(*key));
        }
        let bucket =
            (self.next_bucket < WHEEL_BUCKETS).then(|| self.base + self.next_bucket as u64);
        let over = self.overflow.peek_time().map(|t| t.as_ns());
        match (bucket, over) {
            (None, None) => None,
            (Some(b), None) => Some(SimTime::from_ns(b)),
            (None, Some(o)) => Some(SimTime::from_ns(o)),
            (Some(b), Some(o)) => Some(SimTime::from_ns(b.min(o))),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

/// The original scheduler: one `BinaryHeap` of whole entries, compared by
/// the same packed key (max-heap inverted via `Reverse`-style ordering).
pub(crate) struct ClassicHeap<M> {
    heap: BinaryHeap<ClassicEntry<M>>,
}

struct ClassicEntry<M> {
    key: u128,
    target: ComponentId,
    msg: M,
}

impl<M> PartialEq for ClassicEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for ClassicEntry<M> {}
impl<M> PartialOrd for ClassicEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for ClassicEntry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key pops first.
        other.key.cmp(&self.key)
    }
}

impl<M> ClassicHeap<M> {
    fn new() -> Self {
        ClassicHeap {
            heap: BinaryHeap::new(),
        }
    }
}

/// A queue of key-ordered events. Keys are assigned by the engine (content
/// based: time, scheduling source, per-source count), so a queue is a pure
/// priority structure with no ordering state of its own.
pub(crate) enum EventQueue<M> {
    Wheel(WheelQueue<M>),
    Indexed(IndexedHeap<M>),
    Classic(ClassicHeap<M>),
}

impl<M> EventQueue<M> {
    pub fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::TimingWheel => EventQueue::Wheel(WheelQueue::new()),
            SchedulerKind::Indexed4 => EventQueue::Indexed(IndexedHeap::new()),
            SchedulerKind::ClassicBinaryHeap => EventQueue::Classic(ClassicHeap::new()),
        }
    }

    pub fn kind(&self) -> SchedulerKind {
        match self {
            EventQueue::Wheel(_) => SchedulerKind::TimingWheel,
            EventQueue::Indexed(_) => SchedulerKind::Indexed4,
            EventQueue::Classic(_) => SchedulerKind::ClassicBinaryHeap,
        }
    }

    #[inline]
    pub fn push(&mut self, key: u128, target: ComponentId, msg: M) {
        match self {
            EventQueue::Wheel(q) => q.push(key, target, msg),
            EventQueue::Indexed(q) => q.push(key, target, msg),
            EventQueue::Classic(q) => q.heap.push(ClassicEntry { key, target, msg }),
        }
    }

    /// Insert a whole batch in one pass (see [`IndexedHeap::push_batch`]).
    pub fn push_batch(&mut self, batch: impl Iterator<Item = (u128, ComponentId, M)>) {
        match self {
            EventQueue::Wheel(q) => {
                for (key, target, msg) in batch {
                    q.push(key, target, msg);
                }
            }
            EventQueue::Indexed(q) => q.push_batch(batch),
            EventQueue::Classic(q) => {
                for (key, target, msg) in batch {
                    q.heap.push(ClassicEntry { key, target, msg });
                }
            }
        }
    }

    #[inline]
    pub fn pop(&mut self) -> Option<PoppedEvent<M>> {
        match self {
            EventQueue::Wheel(q) => q.pop(),
            EventQueue::Indexed(q) => q.pop(),
            EventQueue::Classic(q) => q.heap.pop().map(|e| PoppedEvent {
                key: e.key,
                time: key_time(e.key),
                target: e.target,
                msg: e.msg,
            }),
        }
    }

    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match self {
            EventQueue::Wheel(q) => q.peek_time(),
            EventQueue::Indexed(q) => q.peek_time(),
            EventQueue::Classic(q) => q.heap.peek().map(|e| key_time(e.key)),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Wheel(q) => q.len(),
            EventQueue::Indexed(q) => q.len(),
            EventQueue::Classic(q) => q.heap.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded SPSC ring — the lock-free cross-shard mailbox transport
// ---------------------------------------------------------------------------

/// A bounded single-producer single-consumer ring queue.
///
/// This is the transport under the parallel engine's cross-shard mailboxes
/// (`crate::parallel`): each `(from, to)` shard pair owns one ring for full
/// batches and one for recycled empties, so a deposit is one `Release`
/// store and a drain one `Acquire` load — no mutex, no syscall, no
/// contention with any third shard. The two-barrier window protocol
/// guarantees at most one undrained batch per pair per window, so a tiny
/// fixed capacity suffices and `push` failure is a protocol violation, not
/// a flow-control event.
///
/// Safety model: `head` (consumer cursor) and `tail` (producer cursor) are
/// monotonically increasing and each is written by exactly one side. A slot
/// at index `i` is owned by the producer when `i - head < capacity` and
/// `i >= tail`, and by the consumer when `head <= i < tail`; the
/// Acquire/Release pair on the cursor the *other* side reads transfers
/// ownership of the slot's contents. The cursors sit on separate cache
/// lines so the two sides never false-share.
pub struct SpscRing<T> {
    slots: Box<[std::cell::UnsafeCell<std::mem::MaybeUninit<T>>]>,
    /// Next slot to pop (written by the consumer only).
    head: CacheAligned,
    /// Next slot to push (written by the producer only).
    tail: CacheAligned,
}

/// A `u64` cursor padded to a cache line, so the producer's and consumer's
/// cursors never share one.
#[repr(align(64))]
#[derive(Default)]
struct CacheAligned(std::sync::atomic::AtomicU64);

// SAFETY: the ring hands each `T` from exactly one thread to exactly one
// other thread with Acquire/Release ordering on the cursor stores (the same
// contract as a channel), so it is `Sync` whenever `T` may move between
// threads.
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// An empty ring holding at most `capacity` items (must be nonzero).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity ring can never transfer");
        SpscRing {
            slots: (0..capacity)
                .map(|_| std::cell::UnsafeCell::new(std::mem::MaybeUninit::uninit()))
                .collect(),
            head: CacheAligned::default(),
            tail: CacheAligned::default(),
        }
    }

    /// Number of items currently in flight (approximate under concurrency:
    /// exact from either endpoint's own perspective).
    pub fn len(&self) -> usize {
        let tail = self.tail.0.load(AtomicOrd::Acquire);
        let head = self.head.0.load(AtomicOrd::Acquire);
        tail.saturating_sub(head) as usize
    }

    /// Whether the ring is currently empty (same caveat as [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer side: append `value`, or hand it back if the ring is full.
    ///
    /// Must only be called by the single producer thread of this ring.
    pub fn push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.0.load(AtomicOrd::Relaxed);
        let head = self.head.0.load(AtomicOrd::Acquire);
        if tail - head >= self.slots.len() as u64 {
            return Err(value);
        }
        let slot = &self.slots[(tail % self.slots.len() as u64) as usize];
        // SAFETY: `tail - head < capacity` means this slot's previous
        // occupant (if any) was popped — the consumer's Release store of
        // `head`, which we Acquire-loaded above, transferred the empty slot
        // back to us. We are the only producer, so nobody else writes it.
        unsafe { (*slot.get()).write(value) };
        self.tail.0.store(tail + 1, AtomicOrd::Release);
        Ok(())
    }

    /// Consumer side: take the oldest item, if any.
    ///
    /// Must only be called by the single consumer thread of this ring.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.0.load(AtomicOrd::Relaxed);
        let tail = self.tail.0.load(AtomicOrd::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        // SAFETY: `head < tail` and the Acquire load of `tail` make the
        // producer's write of this slot visible; advancing `head` below
        // hands the emptied slot back. We are the only consumer.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.head.0.store(head + 1, AtomicOrd::Release);
        Some(value)
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Exclusive access: pop and drop whatever is still in flight.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-source key generator: reproduces the classic "global insertion
    /// order" tie-break the engine's per-source counts generalize.
    struct KeyGen {
        count: u64,
    }

    impl KeyGen {
        fn new() -> Self {
            KeyGen { count: 0 }
        }
        fn key(&mut self, t: u64) -> u128 {
            let k = pack(SimTime::from_ns(t), self.count);
            self.count += 1;
            k
        }
    }

    fn drain<M>(q: &mut EventQueue<M>) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time.as_ns(), e.target.0));
        }
        out
    }

    fn exercise(kind: SchedulerKind) -> Vec<(u64, usize)> {
        let mut q = EventQueue::new(kind);
        let mut gen = KeyGen::new();
        // A deliberately adversarial mix: descending, ties, interleaved
        // pops, and a batch insert.
        for t in (0..50u64).rev() {
            q.push(gen.key(t % 7), ComponentId(t as usize), t);
        }
        let mut popped = Vec::new();
        for _ in 0..10 {
            let e = q.pop().unwrap();
            popped.push((e.time.as_ns(), e.target.0));
        }
        q.push_batch((0..100u64).map(|i| (gen.key(i % 5), ComponentId(1000 + i as usize), i)));
        popped.extend(drain(&mut q));
        popped
    }

    #[test]
    fn all_schedulers_pop_identically() {
        let classic = exercise(SchedulerKind::ClassicBinaryHeap);
        assert_eq!(exercise(SchedulerKind::TimingWheel), classic);
        assert_eq!(exercise(SchedulerKind::Indexed4), classic);
    }

    #[test]
    fn pop_order_is_time_then_subkey() {
        for kind in [
            SchedulerKind::TimingWheel,
            SchedulerKind::Indexed4,
            SchedulerKind::ClassicBinaryHeap,
        ] {
            let mut q = EventQueue::<u32>::new(kind);
            let mut gen = KeyGen::new();
            for (i, &t) in [5u64, 1, 5, 0, 1].iter().enumerate() {
                q.push(gen.key(t), ComponentId(i), i as u32);
            }
            let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|e| e.target.0).collect();
            assert_eq!(order, vec![3, 1, 4, 0, 2], "{kind:?}");
        }
    }

    /// Same-time events pushed with *descending* subkeys (a later push from
    /// a lower-numbered source) must still pop in subkey order — this is
    /// the sorted-bucket-insert path the content-key scheme depends on.
    #[test]
    fn same_time_descending_subkeys_pop_in_key_order() {
        for kind in [
            SchedulerKind::TimingWheel,
            SchedulerKind::Indexed4,
            SchedulerKind::ClassicBinaryHeap,
        ] {
            let mut q = EventQueue::<u64>::new(kind);
            // Two time buckets, each receiving subkeys in descending and
            // then interleaved order.
            for (t, sub) in [
                (10u64, 50u64),
                (10, 30),
                (20, 9),
                (10, 40),
                (20, 3),
                (10, 35),
            ] {
                q.push(
                    pack(SimTime::from_ns(t), sub),
                    ComponentId(sub as usize),
                    sub,
                );
            }
            let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|e| e.target.0).collect();
            assert_eq!(order, vec![30, 35, 40, 50, 3, 9], "{kind:?}");
        }
    }

    /// Push times far beyond the wheel window, interleave pops (advancing
    /// the wheel base), then push behind the new floor — every path through
    /// bucket / overflow / rebucketing must still yield global key order.
    #[test]
    fn wheel_overflow_and_rebucketing_match_classic() {
        let run = |kind: SchedulerKind| {
            let mut q = EventQueue::<u64>::new(kind);
            let mut gen = KeyGen::new();
            // Mix of in-window, far-future (multiple windows out), and tied
            // times, pushed in descending order.
            for t in (0..40u64).rev() {
                let time = (t % 3) * 20_000 + t % 5; // 0, 20_000, 40_000 bands
                q.push(gen.key(time), ComponentId(t as usize), t);
            }
            let mut popped = Vec::new();
            for _ in 0..20 {
                let e = q.pop().unwrap();
                popped.push((e.time.as_ns(), e.target.0));
                // Push behind the current pop time (same-time is legal);
                // lands behind the wheel floor → overflow path.
                if popped.len() % 4 == 0 {
                    q.push(
                        gen.key(e.time.as_ns()),
                        ComponentId(9000 + popped.len()),
                        popped.len() as u64,
                    );
                }
            }
            popped.extend(drain(&mut q));
            popped
        };
        assert_eq!(
            run(SchedulerKind::TimingWheel),
            run(SchedulerKind::ClassicBinaryHeap)
        );
    }

    /// `base..base + n` in a seeded random order.
    fn shuffled(rng: &mut crate::rng::SimRng, base: u64, n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (base..base + n).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i as u64 + 1) as usize);
        }
        v
    }

    /// One bucket far deeper than the walk bound, filled with shuffled
    /// subkeys, then pops interleaved with pushes into that bucket, pushes
    /// behind the read floor and a window advance: the wheel (bounded walk
    /// plus overflow) must pop exactly the classic heap's key sequence.
    #[test]
    fn wheel_bounded_walk_matches_classic() {
        let run = |kind: SchedulerKind| {
            let mut q = EventQueue::<u64>::new(kind);
            let mut rng = crate::rng::SimRng::new(0x5EED);
            let push = |q: &mut EventQueue<u64>, t: u64, sub: u64| {
                q.push(pack(SimTime::from_ns(t), sub), ComponentId(0), sub);
            };
            for sub in shuffled(&mut rng, 1_000_000, 40 * WALK_BOUND as u64) {
                push(&mut q, 100, sub);
            }
            for sub in shuffled(&mut rng, 2_000_000, 200) {
                push(&mut q, 101, sub);
            }
            // Beyond the window: drained through an advance.
            for sub in shuffled(&mut rng, 3_000_000, 500) {
                push(&mut q, 100_000, sub);
            }
            if let EventQueue::Wheel(w) = &q {
                assert!(w.overflow.len() > 500, "the deep bucket never spilled");
            }
            let mut fresh = 4_000_000u64;
            let mut popped = Vec::new();
            while let Some(e) = q.pop() {
                popped.push(e.key);
                let t = e.time.as_ns();
                if popped.len() % 7 == 0 && popped.len() < 3_000 {
                    // Into the bucket being drained, below and above the
                    // chain's remaining subkeys, and one behind the floor.
                    push(&mut q, t, rng.below(5_000_000));
                    push(&mut q, t + 1 + rng.below(3), fresh);
                    push(&mut q, t.saturating_sub(1), fresh + 1);
                    fresh += 2;
                }
            }
            assert!(popped.len() > 40 * WALK_BOUND);
            popped
        };
        assert_eq!(
            run(SchedulerKind::TimingWheel),
            run(SchedulerKind::ClassicBinaryHeap)
        );
    }

    /// A shuffled chain no longer than the walk bound sorts entirely in its
    /// bucket: the overflow heap is never touched.
    #[test]
    fn wheel_chain_within_bound_never_overflows() {
        let mut q = EventQueue::<u64>::new(SchedulerKind::TimingWheel);
        let mut rng = crate::rng::SimRng::new(7);
        let subs = shuffled(&mut rng, 0, WALK_BOUND as u64);
        for &sub in &subs {
            q.push(pack(SimTime::from_ns(50), sub), ComponentId(0), sub);
            let EventQueue::Wheel(w) = &q else {
                unreachable!()
            };
            assert_eq!(w.overflow.len(), 0, "chain of {} spilled", subs.len());
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, (0..WALK_BOUND as u64).collect::<Vec<_>>());
    }

    #[test]
    fn batch_into_empty_heap_uses_floyd_and_orders() {
        let mut q = EventQueue::<u64>::new(SchedulerKind::Indexed4);
        let mut gen = KeyGen::new();
        q.push_batch((0..200u64).map(|i| (gen.key(199 - i), ComponentId(i as usize), i)));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_ns())
            .collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(times.len(), 200);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::<u64>::new(SchedulerKind::Indexed4);
        let mut gen = KeyGen::new();
        for round in 0..10u64 {
            for i in 0..8u64 {
                q.push(gen.key(i), ComponentId(0), round * 8 + i);
            }
            while q.pop().is_some() {}
        }
        if let EventQueue::Indexed(h) = &q {
            assert!(
                h.payload.len() <= 8,
                "slab grew to {} for a working set of 8",
                h.payload.len()
            );
        } else {
            unreachable!();
        }
    }

    /// The wheel's popped keys must round-trip exactly (bucket time + stored
    /// subkey), including through the single-event bypass and rebucketing.
    #[test]
    fn popped_keys_are_exact_on_every_path() {
        let mut q = EventQueue::<u64>::new(SchedulerKind::TimingWheel);
        let keys = [
            pack(SimTime::from_ns(5), 77),        // bypass path
            pack(SimTime::from_ns(5), 12),        // bucket path
            pack(SimTime::from_ns(100_000), 3),   // overflow + advance
            pack(SimTime::from_ns(100_000), 900), // overflow tie time
        ];
        for (i, &k) in keys.iter().enumerate() {
            q.push(k, ComponentId(i), i as u64);
        }
        let mut got: Vec<u128> = std::iter::from_fn(|| q.pop()).map(|e| e.key).collect();
        let mut expect = keys.to_vec();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn spsc_push_pop_fifo_and_capacity() {
        let ring: SpscRing<u32> = SpscRing::new(2);
        assert!(ring.is_empty());
        assert!(ring.pop().is_none());
        ring.push(1).unwrap();
        ring.push(2).unwrap();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.push(3), Err(3), "full ring hands the value back");
        assert_eq!(ring.pop(), Some(1));
        ring.push(4).unwrap();
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(4));
        assert!(ring.pop().is_none());
    }

    #[test]
    fn spsc_wraps_many_times() {
        let ring: SpscRing<usize> = SpscRing::new(3);
        for i in 0..1000 {
            ring.push(i).unwrap();
            assert_eq!(ring.pop(), Some(i));
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn spsc_drops_in_flight_items() {
        // Drop with items still queued must drop each exactly once.
        use std::sync::atomic::AtomicU64;
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, AtomicOrd::Relaxed);
            }
        }
        let ring: SpscRing<Canary> = SpscRing::new(4);
        assert!(ring.push(Canary).is_ok());
        assert!(ring.push(Canary).is_ok());
        drop(ring.pop());
        drop(ring);
        assert_eq!(DROPS.load(AtomicOrd::Relaxed), 2);
    }

    #[test]
    fn spsc_transfers_across_threads() {
        // A two-thread stress run: every value arrives exactly once, in
        // order, under real concurrency (Miri-friendly size).
        let ring: SpscRing<u64> = SpscRing::new(2);
        let total: u64 = 10_000;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut next = 0u64;
                while next < total {
                    match ring.push(next) {
                        Ok(()) => next += 1,
                        Err(_) => std::hint::spin_loop(),
                    }
                }
            });
            let mut expect = 0u64;
            while expect < total {
                match ring.pop() {
                    Some(v) => {
                        assert_eq!(v, expect);
                        expect += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
        });
        assert!(ring.is_empty());
    }
}
