//! Engine self-telemetry: the shard-level self-profiler behind
//! `nicbar-bench engine-prof`.
//!
//! PRs 2–3 built observability for the *simulated* protocol; this module
//! watches the watcher. The rank-sharded parallel engine
//! ([`crate::parallel`]) wins or loses its speedup gate for reasons the
//! simulated-time instruments cannot see: shard imbalance, conservative
//! lookahead stalls, mailbox traffic. The profiler records, per shard and
//! per conservative window, what each worker actually did with its wall
//! time, and exposes enough structure to name the dominant bottleneck.
//!
//! ## Typed totals, no name table
//!
//! What a shard measures is a closed set known at compile time, so
//! [`ShardProf`] accumulates it straight into the plain fields of the
//! [`ShardProfData`] it hands to the exporters: busy/idle/drain wall time,
//! events, mailbox traffic, the queue high-water mark, the window count,
//! and one [`Histogram`] of per-window utilization. Only open-ended names
//! (the counters components bump) go through the crate's one interner,
//! [`crate::counters`].
//!
//! All engine self-measurement leaves through these typed captures — a
//! lint rule (OB001) bans ad-hoc `println!`-style telemetry in
//! `crates/sim`.
//!
//! ## Zero cost when disabled
//!
//! The profiler is an `Option<ShardProf>` per shard state, `None` unless
//! [`crate::ParallelEngine::enable_prof`] was called. Every hook in the
//! worker loop is window-granular (windows are coarse: thousands of events
//! each), guarded by one `Option` branch, and allocation-free in the
//! disabled path — the steady-state allocation gate covers the parallel
//! engine with the profiler off, and `engine-prof --check` bounds the
//! disabled-path throughput overhead at 2%.
//!
//! ## Wall clocks
//!
//! This module is the **only** place in `crates/sim` that reads a wall
//! clock ([`ProfClock`] wraps `std::time::Instant`). Wall time never
//! reaches simulated state — it only flows outward into reports — so the
//! determinism story is intact; the ND001 lint exception for this file is
//! recorded in `lint.toml`.

use crate::hist::Histogram;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Wall clock
// ---------------------------------------------------------------------------

/// The profiler's wall clock: nanoseconds since a shared epoch.
///
/// Every shard profiler of one engine shares the same epoch so their
/// timelines align in the exported trace. This type is the only sanctioned
/// wall-clock reader in `crates/sim` (see the module docs); wall time
/// never feeds back into simulated state.
#[derive(Clone, Copy, Debug)]
pub struct ProfClock {
    epoch: Instant,
}

impl ProfClock {
    /// A clock whose epoch is "now".
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        ProfClock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

// ---------------------------------------------------------------------------
// Per-window records
// ---------------------------------------------------------------------------

/// What one shard did during one conservative window iteration.
///
/// Sim-time fields (`horizon_ns`, `end_ns`, `advance_ns`) describe the
/// window the conservative protocol granted; wall-time fields (`*_ns`
/// durations plus the two timestamps) describe what the worker thread
/// spent executing it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowRec {
    /// Wall timestamp of the iteration start (mailbox drain begin).
    pub t0_ns: u64,
    /// Wall timestamp at which event execution (`run_window`) began.
    pub busy_start_ns: u64,
    /// Global simulated-time horizon `h` when the window opened.
    pub horizon_ns: u64,
    /// Window end bound: `h + lookahead`, capped by the run deadline.
    pub end_ns: u64,
    /// Simulated time actually advanced inside the window (last delivered
    /// event time minus `h`); `advance/span` is the window utilization.
    pub advance_ns: u64,
    /// Events delivered in this window.
    pub events: u64,
    /// Event-queue depth at window open (after the mailbox drain).
    pub queue_depth: u64,
    /// Wall time executing events (`run_window`).
    pub busy_ns: u64,
    /// Wall time draining inbound mailboxes and depositing outboxes.
    pub drain_ns: u64,
    /// Wall time blocked on the two window barriers.
    pub idle_ns: u64,
    /// Cross-shard events received in the drain phase.
    pub recv: u64,
    /// Cross-shard events deposited for other shards.
    pub sent: u64,
}

impl WindowRec {
    /// Sim-time span the conservative protocol granted this window.
    pub fn span_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.horizon_ns)
    }

    /// Window utilization in percent: how much of the granted lookahead
    /// span held events (100 for a fully used window, 0 for an empty one).
    pub fn util_pct(&self) -> u64 {
        let span = self.span_ns();
        if span == 0 {
            return 0;
        }
        (self.advance_ns.min(span)).saturating_mul(100) / span
    }
}

/// Window records kept per shard before the ring saturates; totals keep
/// accumulating past the cap, only the per-window detail is dropped.
pub const MAX_WINDOWS: usize = 65_536;

// ---------------------------------------------------------------------------
// Shard profiler
// ---------------------------------------------------------------------------

/// Per-shard self-profiler, owned by one worker and fed by window-granular
/// hooks in the worker loop. Every committed window folds into the running
/// totals (which survive the window cap); the per-window ring is kept
/// alongside for the timeline export.
#[derive(Clone, Debug)]
pub struct ShardProf {
    clock: ProfClock,
    /// The capture so far: totals, the per-window ring (capped at
    /// [`MAX_WINDOWS`]) and its per-destination send matrix. [`Self::data`]
    /// stamps the shard index and wall time onto a copy.
    acc: ShardProfData,
    wall_first_ns: u64,
    wall_last_ns: u64,
    cur: WindowRec,
    cur_sent: Vec<u64>,
    mark_ns: u64,
}

impl ShardProf {
    /// A profiler for one shard of a `shards`-way engine, timestamping
    /// against the engine-shared `clock`.
    pub fn new(shards: usize, clock: ProfClock) -> Self {
        ShardProf {
            clock,
            acc: ShardProfData {
                shards,
                ..ShardProfData::default()
            },
            wall_first_ns: u64::MAX,
            wall_last_ns: 0,
            cur: WindowRec::default(),
            cur_sent: vec![0; shards],
            mark_ns: 0,
        }
    }

    #[inline]
    fn stamp(&mut self) -> u64 {
        let now = self.clock.now_ns();
        if self.wall_first_ns == u64::MAX {
            self.wall_first_ns = now;
        }
        self.wall_last_ns = now;
        now
    }

    /// Start a new window iteration (before the mailbox drain).
    #[inline]
    pub fn window_open(&mut self) {
        let now = self.stamp();
        self.cur = WindowRec {
            t0_ns: now,
            ..WindowRec::default()
        };
        for s in &mut self.cur_sent {
            *s = 0;
        }
        self.mark_ns = now;
    }

    /// Begin a mailbox drain or outbox deposit phase.
    #[inline]
    pub fn drain_begin(&mut self) {
        self.mark_ns = self.stamp();
    }

    /// End a drain/deposit phase; `received` counts inbound cross-shard
    /// events pulled out of the mailboxes (0 for deposit phases).
    #[inline]
    pub fn drain_end(&mut self, received: u64) {
        let now = self.stamp();
        self.cur.drain_ns += now.saturating_sub(self.mark_ns);
        self.cur.recv += received;
    }

    /// Begin a barrier wait.
    #[inline]
    pub fn idle_begin(&mut self) {
        self.mark_ns = self.stamp();
    }

    /// End a barrier wait.
    #[inline]
    pub fn idle_end(&mut self) {
        let now = self.stamp();
        self.cur.idle_ns += now.saturating_sub(self.mark_ns);
    }

    /// Begin event execution for the window `[horizon_ns, end_ns)` with
    /// `queue_depth` events pending.
    #[inline]
    pub fn busy_begin(&mut self, horizon_ns: u64, end_ns: u64, queue_depth: u64) {
        let now = self.stamp();
        self.cur.horizon_ns = horizon_ns;
        self.cur.end_ns = end_ns;
        self.cur.queue_depth = queue_depth;
        self.cur.busy_start_ns = now;
        self.mark_ns = now;
    }

    /// End event execution: `events` delivered, simulated time advanced by
    /// `advance_ns` past the horizon.
    #[inline]
    pub fn busy_end(&mut self, events: u64, advance_ns: u64) {
        let now = self.stamp();
        self.cur.busy_ns += now.saturating_sub(self.mark_ns);
        self.cur.events += events;
        self.cur.advance_ns = advance_ns;
    }

    /// Count `events` deposited for shard `dst` this window.
    #[inline]
    pub fn deposit(&mut self, dst: usize, events: u64) {
        self.cur_sent[dst] += events;
        self.cur.sent += events;
    }

    /// Commit the current window: fold it into the totals and append the
    /// detail record (unless the ring is full).
    pub fn commit_window(&mut self) {
        self.stamp();
        let w = self.cur;
        let d = &mut self.acc;
        d.window_count += 1;
        d.events += w.events;
        d.busy_ns += w.busy_ns;
        d.idle_ns += w.idle_ns;
        d.drain_ns += w.drain_ns;
        d.recv += w.recv;
        d.sent += w.sent;
        d.queue_hwm = d.queue_hwm.max(w.queue_depth);
        d.window_util.record(w.util_pct());
        if d.windows.len() < MAX_WINDOWS {
            d.windows.push(w);
            d.sent_to.extend_from_slice(&self.cur_sent);
        } else {
            d.dropped_windows += 1;
        }
    }

    /// Snapshot this shard's capture for reporting.
    pub fn data(&self, shard: u32) -> ShardProfData {
        let first = if self.wall_first_ns == u64::MAX {
            self.wall_last_ns
        } else {
            self.wall_first_ns
        };
        ShardProfData {
            shard,
            wall_ns: self.wall_last_ns.saturating_sub(first),
            ..self.acc.clone()
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-level snapshot and analysis
// ---------------------------------------------------------------------------

/// One shard's complete capture, detached from the live engine.
#[derive(Clone, Debug, Default)]
pub struct ShardProfData {
    /// Shard index.
    pub shard: u32,
    /// Components mapped to this shard (filled by the engine snapshot).
    pub components: usize,
    /// Worker wall time: last profiler timestamp minus first.
    pub wall_ns: u64,
    /// Total wall nanoseconds executing events.
    pub busy_ns: u64,
    /// Total wall nanoseconds blocked on window barriers.
    pub idle_ns: u64,
    /// Total wall nanoseconds draining/depositing mailboxes.
    pub drain_ns: u64,
    /// Events delivered by this shard.
    pub events: u64,
    /// Cross-shard events received.
    pub recv: u64,
    /// Cross-shard events sent.
    pub sent: u64,
    /// Event-queue depth high-water mark at window open.
    pub queue_hwm: u64,
    /// Windows executed (including ones past the detail cap).
    pub window_count: u64,
    /// Windows whose per-window detail was dropped at [`MAX_WINDOWS`].
    pub dropped_windows: u64,
    /// Per-window detail records, in execution order.
    pub windows: Vec<WindowRec>,
    /// Flat `windows.len() * shards` matrix of per-destination sends.
    pub sent_to: Vec<u64>,
    /// Shard count of the owning engine (row stride of `sent_to`).
    pub shards: usize,
    /// Per-window utilization percent ([`WindowRec::util_pct`]) of every
    /// window, including ones past the detail cap.
    pub window_util: Histogram,
}

impl ShardProfData {
    /// Wall time accounted for by the three tracked phases.
    pub fn accounted_ns(&self) -> u64 {
        self.busy_ns + self.idle_ns + self.drain_ns
    }

    /// Events this shard deposited for shard `dst` during window `w`.
    pub fn sent_to(&self, w: usize, dst: usize) -> u64 {
        self.sent_to
            .get(w * self.shards + dst)
            .copied()
            .unwrap_or(0)
    }
}

/// A complete engine self-profile: one capture per shard plus the engine
/// parameters the analysis needs.
#[derive(Clone, Debug)]
pub struct EngineProf {
    /// Shard count.
    pub shards: usize,
    /// Conservative lookahead bound (ns of simulated time per window).
    pub lookahead_ns: u64,
    /// Per-shard captures, shard-index order.
    pub data: Vec<ShardProfData>,
}

/// Where the engine's idle wall time went, in nanoseconds summed over all
/// shards. `imbalance + stall = idle`; mailbox time is tracked separately
/// because it is busy-adjacent work, not barrier idleness.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProfAttribution {
    /// Idle caused by uneven per-window busy times: faster shards waiting
    /// at the barrier for the slowest shard of each window.
    pub imbalance_ns: u64,
    /// Idle not explained by imbalance — the cost of the conservative
    /// window protocol itself (short windows, barrier overhead).
    pub stall_ns: u64,
    /// Wall time spent moving cross-shard events through mailboxes.
    pub mailbox_ns: u64,
    /// Total idle wall time (imbalance + stall).
    pub idle_ns: u64,
}

impl ProfAttribution {
    /// The dominant bottleneck category and its share of total lost time
    /// (idle + mailbox). Returns `("none", 0.0)` when nothing was lost.
    pub fn dominant(&self) -> (&'static str, f64) {
        let lost = self.idle_ns + self.mailbox_ns;
        if lost == 0 {
            return ("none", 0.0);
        }
        let cands = [
            ("imbalance", self.imbalance_ns),
            ("lookahead stall", self.stall_ns),
            ("mailbox contention", self.mailbox_ns),
        ];
        let (name, ns) = cands
            .into_iter()
            .max_by_key(|&(_, ns)| ns)
            .expect("non-empty candidate list");
        (name, ns as f64 / lost as f64)
    }
}

impl EngineProf {
    /// Imbalance factor: max over shards of total busy time divided by the
    /// mean (1.0 = perfectly balanced). Zero if nothing ran.
    pub fn imbalance_factor(&self) -> f64 {
        let busies: Vec<u64> = self.data.iter().map(|d| d.busy_ns).collect();
        let max = busies.iter().copied().max().unwrap_or(0);
        let sum: u64 = busies.iter().sum();
        if sum == 0 || busies.is_empty() {
            return 0.0;
        }
        let mean = sum as f64 / busies.len() as f64;
        max as f64 / mean
    }

    /// Fraction of delivered events that crossed a shard boundary.
    pub fn traffic_fraction(&self) -> f64 {
        let events: u64 = self.data.iter().map(|d| d.events).sum();
        let sent: u64 = self.data.iter().map(|d| d.sent).sum();
        if events == 0 {
            0.0
        } else {
            sent as f64 / events as f64
        }
    }

    /// Fraction of summed worker wall time accounted for by the tracked
    /// phases (busy + idle + drain). The `--check` gate requires ≥ 0.95.
    pub fn accounted_fraction(&self) -> f64 {
        let wall: u64 = self.data.iter().map(|d| d.wall_ns).sum();
        let acct: u64 = self.data.iter().map(|d| d.accounted_ns()).sum();
        if wall == 0 {
            0.0
        } else {
            acct as f64 / wall as f64
        }
    }

    /// Total events delivered across shards.
    pub fn total_events(&self) -> u64 {
        self.data.iter().map(|d| d.events).sum()
    }

    /// Attribute idle time to imbalance vs. lookahead stall, using the
    /// window-aligned structure of the two-barrier protocol: every shard
    /// executes the same window sequence, so for each window the idle
    /// caused by imbalance is the gap between each shard's busy time and
    /// the slowest shard's. Idle beyond that is protocol stall. Windows
    /// past the detail cap contribute to `idle` but cannot be split; they
    /// are attributed proportionally to the split of the detailed windows.
    pub fn attribution(&self) -> ProfAttribution {
        let idle_ns: u64 = self.data.iter().map(|d| d.idle_ns).sum();
        let mailbox_ns: u64 = self.data.iter().map(|d| d.drain_ns).sum();
        let aligned = self.data.iter().map(|d| d.windows.len()).min().unwrap_or(0);
        let mut detailed_imbalance = 0u64;
        let mut detailed_idle = 0u64;
        for w in 0..aligned {
            let busy_max = self
                .data
                .iter()
                .map(|d| d.windows[w].busy_ns)
                .max()
                .unwrap_or(0);
            for d in &self.data {
                detailed_imbalance += busy_max - d.windows[w].busy_ns;
                detailed_idle += d.windows[w].idle_ns;
            }
        }
        // Imbalance can only manifest as idle: clamp, then scale the
        // detailed split up to the full idle total when windows were
        // dropped from the ring.
        let detailed_imbalance = detailed_imbalance.min(detailed_idle);
        let imbalance_ns = if detailed_idle == 0 {
            0
        } else {
            ((detailed_imbalance as u128 * idle_ns as u128) / detailed_idle as u128) as u64
        };
        ProfAttribution {
            imbalance_ns,
            stall_ns: idle_ns.saturating_sub(imbalance_ns),
            mailbox_ns,
            idle_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_util_pct() {
        let w = WindowRec {
            horizon_ns: 1000,
            end_ns: 2000,
            advance_ns: 400,
            ..WindowRec::default()
        };
        assert_eq!(w.span_ns(), 1000);
        assert_eq!(w.util_pct(), 40);
        let full = WindowRec {
            horizon_ns: 0,
            end_ns: 100,
            advance_ns: 250, // clamped: advance past end counts as full
            ..WindowRec::default()
        };
        assert_eq!(full.util_pct(), 100);
        assert_eq!(WindowRec::default().util_pct(), 0);
    }

    /// Drive the hook protocol by hand and check the totals and the window
    /// ring agree.
    #[test]
    fn shard_prof_accumulates_and_accounts() {
        let clock = ProfClock::new();
        let mut p = ShardProf::new(2, clock);
        for w in 0..3u64 {
            p.window_open();
            p.drain_begin();
            p.drain_end(w); // w inbound events
            p.idle_begin();
            p.idle_end();
            p.busy_begin(w * 1000, w * 1000 + 500, 10 + w);
            p.busy_end(100 + w, 250);
            p.drain_begin();
            p.deposit(1, 2);
            p.drain_end(0);
            p.idle_begin();
            p.idle_end();
            p.commit_window();
        }
        let d = p.data(0);
        assert_eq!(d.window_count, 3);
        assert_eq!(d.windows.len(), 3);
        assert_eq!(d.events, 303);
        assert_eq!(d.recv, 3);
        assert_eq!(d.sent, 6);
        assert_eq!(d.queue_hwm, 12);
        assert_eq!(d.sent_to(1, 1), 2);
        assert_eq!(d.sent_to(1, 0), 0);
        // Wall accounting: the hooks bracket every phase, so the three
        // totals cover (nearly) the whole first..last span.
        assert!(d.accounted_ns() <= d.wall_ns + 1);
        // Every window used 250 of its 500 granted nanoseconds.
        assert_eq!(d.window_util.count(), 3);
        assert_eq!(d.window_util.max(), 50);
        let prof = EngineProf {
            shards: 2,
            lookahead_ns: 500,
            data: vec![d],
        };
        assert_eq!(prof.total_events(), 303);
        assert!(prof.traffic_fraction() > 0.0);
    }

    /// Past the detail cap only the per-window ring stops growing: the
    /// totals and the utilization histogram still see every window.
    #[test]
    fn totals_survive_the_window_cap() {
        let mut p = ShardProf::new(1, ProfClock::new());
        let n = MAX_WINDOWS as u64 + 2;
        for _ in 0..n {
            p.window_open();
            p.busy_begin(0, 100, 1);
            p.busy_end(1, 100);
            p.commit_window();
        }
        let d = p.data(0);
        assert_eq!(d.windows.len(), MAX_WINDOWS);
        assert_eq!(d.dropped_windows, 2);
        assert_eq!(d.window_count, n);
        assert_eq!(d.events, n);
        assert_eq!(d.window_util.count(), n);
    }

    #[test]
    fn attribution_splits_imbalance_from_stall() {
        // Two shards, two aligned windows; shard 1 is always slower, and
        // shard 0's idle exactly mirrors the busy gap → pure imbalance.
        let mk = |busy: [u64; 2], idle: [u64; 2]| ShardProfData {
            shard: 0,
            components: 0,
            wall_ns: 0,
            busy_ns: busy.iter().sum(),
            idle_ns: idle.iter().sum(),
            drain_ns: 0,
            events: 10,
            recv: 0,
            sent: 0,
            queue_hwm: 0,
            window_count: 2,
            dropped_windows: 0,
            windows: (0..2)
                .map(|w| WindowRec {
                    busy_ns: busy[w],
                    idle_ns: idle[w],
                    ..WindowRec::default()
                })
                .collect(),
            sent_to: vec![0; 4],
            shards: 2,
            window_util: Histogram::new(),
        };
        let prof = EngineProf {
            shards: 2,
            lookahead_ns: 1,
            data: vec![mk([100, 100], [900, 900]), mk([1000, 1000], [0, 0])],
        };
        let att = prof.attribution();
        assert_eq!(att.idle_ns, 1800);
        assert_eq!(att.imbalance_ns, 1800, "all idle is the busy gap");
        assert_eq!(att.stall_ns, 0);
        let (name, share) = att.dominant();
        assert_eq!(name, "imbalance");
        assert!((share - 1.0).abs() < 1e-9);
        assert!((prof.imbalance_factor() - 2000.0 / 1100.0).abs() < 1e-9);
    }

    #[test]
    fn attribution_with_no_gap_is_all_stall() {
        let d = ShardProfData {
            shard: 0,
            components: 0,
            wall_ns: 100,
            busy_ns: 50,
            idle_ns: 40,
            drain_ns: 5,
            events: 1,
            recv: 0,
            sent: 0,
            queue_hwm: 0,
            window_count: 1,
            dropped_windows: 0,
            windows: vec![WindowRec {
                busy_ns: 50,
                idle_ns: 40,
                ..WindowRec::default()
            }],
            sent_to: vec![0],
            shards: 1,
            window_util: Histogram::new(),
        };
        let prof = EngineProf {
            shards: 1,
            lookahead_ns: 1,
            data: vec![d],
        };
        let att = prof.attribution();
        assert_eq!(att.imbalance_ns, 0);
        assert_eq!(att.stall_ns, 40);
        assert_eq!(att.mailbox_ns, 5);
        let (name, _) = att.dominant();
        assert_eq!(name, "lookahead stall");
        assert!((prof.accounted_fraction() - 0.95).abs() < 1e-9);
    }
}
