//! Typed protocol events and per-operation flight recording.
//!
//! The trace layer (see [`crate::trace`]) historically carried free-form
//! `(label, a, b)` word pairs whose meaning lived in comments at each emit
//! site and in hand-written decoders (`timeline.rs`). This module replaces
//! the payload with a typed [`SpanEvent`] enum over the protocol phases the
//! paper's latency decomposition cares about — enqueue, fire, wire, arrive,
//! notify, nack, retransmit — plus begin/end markers for a collective
//! operation keyed by `(group, seq)`.
//!
//! A [`FlightRecorder`] consumes the same event stream and folds it into
//! per-operation *spans*: for every `(group, seq)` pair it tracks the wall
//! window from the first `OpBegin` to the last `OpEnd` and attributes every
//! intervening segment of simulated time to the phase of the event that
//! ended it. The per-span phase sums therefore add up to the span's
//! end-to-end latency *exactly*, which is what makes the breakdown tables
//! trustworthy. Closed spans feed log2 histograms ([`crate::hist`]): one
//! for the end-to-end latency (`flight.op_total`) and one per phase
//! (`flight.phase.<name>`), held in fixed fields indexed by
//! [`Phase::index`] because the phase set is closed.
//!
//! Both the trace ring and the recorder are off by default; the engine
//! guards emission behind a single pre-computed branch per delivery so the
//! disabled path costs nothing measurable (checked by `engine_sweep`).

use crate::hist::Histogram;
use crate::time::SimTime;
use std::fmt;

/// A protocol phase that simulated time can be attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Host-side bookkeeping between operation begin/end markers.
    Host,
    /// A send sat behind earlier tokens in a NIC send queue.
    Enqueue,
    /// A NIC unit launched a packet (DMA descriptor fire / bypass send).
    Fire,
    /// A packet crossed the interconnect.
    Wire,
    /// A packet arrived and was processed by the receiving NIC.
    Arrive,
    /// The NIC notified the host that the operation completed.
    Notify,
    /// Receiver-driven flow control sent a NACK.
    Nack,
    /// A sender retransmitted after a NACK or timeout.
    Retransmit,
}

/// Number of distinct [`Phase`]s.
pub const NUM_PHASES: usize = 8;

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Host,
        Phase::Enqueue,
        Phase::Fire,
        Phase::Wire,
        Phase::Arrive,
        Phase::Notify,
        Phase::Nack,
        Phase::Retransmit,
    ];

    /// Stable lowercase name (also the trace label of the matching event).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Host => "host",
            Phase::Enqueue => "enqueue",
            Phase::Fire => "fire",
            Phase::Wire => "wire",
            Phase::Arrive => "arrive",
            Phase::Notify => "notify",
            Phase::Nack => "nack",
            Phase::Retransmit => "retransmit",
        }
    }

    /// Dense index into per-span phase accumulators.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Histogram name for this phase's per-span latency contribution.
    pub fn hist_name(self) -> &'static str {
        match self {
            Phase::Host => "flight.phase.host",
            Phase::Enqueue => "flight.phase.enqueue",
            Phase::Fire => "flight.phase.fire",
            Phase::Wire => "flight.phase.wire",
            Phase::Arrive => "flight.phase.arrive",
            Phase::Notify => "flight.phase.notify",
            Phase::Nack => "flight.phase.nack",
            Phase::Retransmit => "flight.phase.retransmit",
        }
    }
}

/// A typed trace event. The first seven variants map one-to-one onto the
/// [`Phase`]s of the paper's latency decomposition; `OpBegin`/`OpEnd`
/// bracket one collective operation per participant; `Raw` preserves the
/// legacy free-form `(label, a, b)` emission for ad-hoc debugging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanEvent {
    /// Legacy free-form record; carries no phase.
    Raw {
        /// Static label identifying the event kind.
        label: &'static str,
        /// First payload word.
        a: u64,
        /// Second payload word.
        b: u64,
    },
    /// One participant entered collective operation `(group, seq)`.
    OpBegin {
        /// Group identifier (backend-specific encoding).
        group: u64,
        /// Operation sequence number / epoch within the group.
        seq: u64,
    },
    /// One participant observed completion of `(group, seq)`.
    OpEnd {
        /// Group identifier (backend-specific encoding).
        group: u64,
        /// Operation sequence number / epoch within the group.
        seq: u64,
    },
    /// A send was queued behind `depth` earlier tokens for node `dst`.
    Enqueue {
        /// Destination node.
        dst: u64,
        /// Queue depth in front of this token.
        depth: u64,
    },
    /// NIC unit `unit` launched a packet towards node `dst`.
    Fire {
        /// Launching unit (DMA descriptor id, group id, ...).
        unit: u64,
        /// Destination node.
        dst: u64,
    },
    /// A packet of `bytes` wire bytes left node `src` for node `dst`.
    Wire {
        /// Source node.
        src: u64,
        /// Destination node.
        dst: u64,
        /// Wire bytes including headers.
        bytes: u64,
    },
    /// A packet from node `src` arrived and was accepted.
    Arrive {
        /// Source node.
        src: u64,
        /// Backend-specific detail (remote event id, epoch, ...).
        info: u64,
    },
    /// The NIC raised a host completion (event id / cookie pair).
    Notify {
        /// Notifying unit (event id, group id, ...).
        unit: u64,
        /// Completion cookie delivered to the host.
        cookie: u64,
    },
    /// Receiver-driven flow control NACKed node `dst`.
    Nack {
        /// Node being NACKed.
        dst: u64,
        /// Protocol round / epoch the NACK refers to.
        round: u64,
    },
    /// A packet was retransmitted towards node `dst`.
    Retransmit {
        /// Destination of the retransmission.
        dst: u64,
        /// Protocol round / sequence being retransmitted.
        round: u64,
    },
}

impl SpanEvent {
    /// Stable label for filtering (`Trace::with_label`). Typed variants use
    /// their phase name; op markers use `"op.begin"` / `"op.end"`.
    pub fn label(&self) -> &'static str {
        match self {
            SpanEvent::Raw { label, .. } => label,
            SpanEvent::OpBegin { .. } => "op.begin",
            SpanEvent::OpEnd { .. } => "op.end",
            SpanEvent::Enqueue { .. } => "enqueue",
            SpanEvent::Fire { .. } => "fire",
            SpanEvent::Wire { .. } => "wire",
            SpanEvent::Arrive { .. } => "arrive",
            SpanEvent::Notify { .. } => "notify",
            SpanEvent::Nack { .. } => "nack",
            SpanEvent::Retransmit { .. } => "retransmit",
        }
    }

    /// The phase simulated time spent reaching this event is attributed to.
    /// `Raw` events carry no phase; op markers attribute to [`Phase::Host`].
    #[inline]
    pub fn phase(&self) -> Option<Phase> {
        match self {
            SpanEvent::Raw { .. } => None,
            SpanEvent::OpBegin { .. } | SpanEvent::OpEnd { .. } => Some(Phase::Host),
            SpanEvent::Enqueue { .. } => Some(Phase::Enqueue),
            SpanEvent::Fire { .. } => Some(Phase::Fire),
            SpanEvent::Wire { .. } => Some(Phase::Wire),
            SpanEvent::Arrive { .. } => Some(Phase::Arrive),
            SpanEvent::Notify { .. } => Some(Phase::Notify),
            SpanEvent::Nack { .. } => Some(Phase::Nack),
            SpanEvent::Retransmit { .. } => Some(Phase::Retransmit),
        }
    }

    /// First payload word, matching the legacy `(a, b)` view.
    pub fn a(&self) -> u64 {
        match *self {
            SpanEvent::Raw { a, .. } => a,
            SpanEvent::OpBegin { group, .. } | SpanEvent::OpEnd { group, .. } => group,
            SpanEvent::Enqueue { dst, .. } => dst,
            SpanEvent::Fire { unit, .. } => unit,
            SpanEvent::Wire { src, .. } => src,
            SpanEvent::Arrive { src, .. } => src,
            SpanEvent::Notify { unit, .. } => unit,
            SpanEvent::Nack { dst, .. } => dst,
            SpanEvent::Retransmit { dst, .. } => dst,
        }
    }

    /// Second payload word, matching the legacy `(a, b)` view.
    pub fn b(&self) -> u64 {
        match *self {
            SpanEvent::Raw { b, .. } => b,
            SpanEvent::OpBegin { seq, .. } | SpanEvent::OpEnd { seq, .. } => seq,
            SpanEvent::Enqueue { depth, .. } => depth,
            SpanEvent::Fire { dst, .. } => dst,
            SpanEvent::Wire { dst, .. } => dst,
            SpanEvent::Arrive { info, .. } => info,
            SpanEvent::Notify { cookie, .. } => cookie,
            SpanEvent::Nack { round, .. } => round,
            SpanEvent::Retransmit { round, .. } => round,
        }
    }

    /// Human-readable detail string, shared by `timeline` and `flight` so
    /// the decoding lives next to the event definition instead of being
    /// duplicated in every exporter.
    pub fn describe(&self) -> String {
        match *self {
            SpanEvent::Raw { label, a, b } => format!("{label} a={a} b={b}"),
            SpanEvent::OpBegin { group, seq } => {
                format!("enter op seq {seq} on group {group:#x}")
            }
            SpanEvent::OpEnd { group, seq } => {
                format!("complete op seq {seq} on group {group:#x}")
            }
            SpanEvent::Enqueue { dst, depth } => {
                format!("send to node {dst} queued behind {depth} token(s)")
            }
            SpanEvent::Fire { unit, dst } => format!("unit {unit} fires packet to node {dst}"),
            SpanEvent::Wire { src, dst, bytes } => {
                format!("{bytes}B on the wire, node {src} -> node {dst}")
            }
            SpanEvent::Arrive { src, info } => {
                if info == u64::MAX {
                    format!("packet from node {src} arrives")
                } else {
                    format!("packet from node {src} arrives (info {info})")
                }
            }
            SpanEvent::Notify { unit, cookie } => {
                format!("host notified by unit {unit} (cookie {cookie:#x})")
            }
            SpanEvent::Nack { dst, round } => format!("NACK to node {dst} for round {round}"),
            SpanEvent::Retransmit { dst, round } => {
                format!("retransmit round {round} to node {dst}")
            }
        }
    }
}

/// Summary of one closed operation span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanSummary {
    /// Group the operation ran on.
    pub group: u64,
    /// Operation sequence number within the group.
    pub seq: u64,
    /// Time of the first `OpBegin`.
    pub begin: SimTime,
    /// Time of the last `OpEnd`.
    pub end: SimTime,
    /// Nanoseconds attributed to each [`Phase`], indexed by `Phase::index`.
    /// The entries sum to `end - begin` exactly.
    pub phase_ns: [u64; NUM_PHASES],
    /// Number of events folded into this span (including op markers).
    pub events: u64,
}

impl SpanSummary {
    /// End-to-end latency of the operation.
    pub fn total(&self) -> SimTime {
        self.end.saturating_sub(self.begin)
    }

    /// Nanoseconds attributed to `phase`.
    pub fn phase(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }
}

/// An operation currently in flight.
#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    group: u64,
    seq: u64,
    begin: SimTime,
    /// Time of the last event attributed to this span; the next event's
    /// segment is `[last, now]`.
    last: SimTime,
    begun: u32,
    ended: u32,
    phase_ns: [u64; NUM_PHASES],
    events: u64,
}

/// Folds the typed event stream into per-operation phase breakdowns and
/// latency histograms. Disabled by default; when disabled, `observe` is a
/// single predicted branch.
pub struct FlightRecorder {
    enabled: bool,
    /// Maximum number of closed spans retained; further closes only feed
    /// the histograms and bump `dropped`.
    capacity: usize,
    /// Expected participants per operation; when set, a span closes on the
    /// `participants`-th `OpEnd` instead of waiting for `ended == begun`.
    participants: Option<u32>,
    open: Vec<OpenSpan>,
    completed: Vec<SpanSummary>,
    dropped: u64,
    /// Phase-carrying events seen while no span was open (not attributable).
    orphaned: u64,
    /// End-to-end latency of every closed span (retained or dropped).
    op_total: Histogram,
    /// Per-phase latency contributions, indexed by [`Phase::index`]; a
    /// span only feeds the phases it spent time in.
    phase_hists: [Histogram; NUM_PHASES],
}

impl FlightRecorder {
    /// Default bound on retained closed spans.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Create a disabled recorder (the engine default).
    pub fn disabled() -> Self {
        FlightRecorder {
            enabled: false,
            capacity: 0,
            participants: None,
            open: Vec::new(),
            completed: Vec::new(),
            dropped: 0,
            orphaned: 0,
            op_total: Histogram::new(),
            phase_hists: Default::default(),
        }
    }

    /// Create an enabled recorder retaining up to `capacity` closed spans.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "recorder capacity must be non-zero");
        FlightRecorder {
            enabled: true,
            capacity,
            participants: None,
            open: Vec::new(),
            completed: Vec::new(),
            dropped: 0,
            orphaned: 0,
            op_total: Histogram::new(),
            phase_hists: Default::default(),
        }
    }

    /// Is recording active?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enable recording (with [`Self::DEFAULT_CAPACITY`] if previously
    /// disabled).
    pub fn enable(&mut self) {
        if self.capacity == 0 {
            self.capacity = Self::DEFAULT_CAPACITY;
        }
        self.enabled = true;
    }

    /// Declare how many participants join each operation. With `n` set, a
    /// span closes on its `n`-th `OpEnd`; without it, a span closes once
    /// every participant that began has ended (which only resolves at a
    /// quiescent point for lock-step workloads).
    pub fn set_participants(&mut self, n: u32) {
        assert!(n > 0, "participants must be non-zero");
        self.participants = Some(n);
    }

    /// Fold one event into the recorder. `time` must be non-decreasing
    /// across calls (engine delivery order guarantees this).
    #[inline]
    pub fn observe(&mut self, time: SimTime, event: &SpanEvent) {
        if !self.enabled {
            return;
        }
        self.observe_slow(time, event);
    }

    fn observe_slow(&mut self, time: SimTime, event: &SpanEvent) {
        match *event {
            SpanEvent::OpBegin { group, seq } => {
                if let Some(span) = self.find(group, seq) {
                    span.attribute(time, Phase::Host);
                    span.begun += 1;
                } else {
                    self.open.push(OpenSpan {
                        group,
                        seq,
                        begin: time,
                        last: time,
                        begun: 1,
                        ended: 0,
                        phase_ns: [0; NUM_PHASES],
                        events: 1,
                    });
                }
            }
            SpanEvent::OpEnd { group, seq } => {
                let participants = self.participants;
                let Some(idx) = self
                    .open
                    .iter()
                    .position(|s| s.group == group && s.seq == seq)
                else {
                    // An end without a begin: the recorder was enabled
                    // mid-operation. Not attributable.
                    self.orphaned += 1;
                    return;
                };
                let span = &mut self.open[idx];
                span.attribute(time, Phase::Host);
                span.ended += 1;
                let done = match participants {
                    Some(p) => span.ended >= p,
                    None => span.ended >= span.begun,
                };
                if done {
                    let span = self.open.swap_remove(idx);
                    self.close(span, time);
                }
            }
            ref ev => {
                let Some(phase) = ev.phase() else { return };
                // Attribute to the earliest-begun open span: with epoch
                // banking at most two operations overlap, and the elder one
                // owns the wall clock until it closes.
                if let Some(span) = self.open.iter_mut().min_by_key(|s| s.begin) {
                    span.attribute(time, phase);
                } else {
                    self.orphaned += 1;
                }
            }
        }
    }

    fn find(&mut self, group: u64, seq: u64) -> Option<&mut OpenSpan> {
        self.open
            .iter_mut()
            .find(|s| s.group == group && s.seq == seq)
    }

    fn close(&mut self, span: OpenSpan, end: SimTime) {
        let summary = SpanSummary {
            group: span.group,
            seq: span.seq,
            begin: span.begin,
            end,
            phase_ns: span.phase_ns,
            events: span.events,
        };
        self.op_total.record(summary.total().as_ns());
        for (hist, &ns) in self.phase_hists.iter_mut().zip(&summary.phase_ns) {
            if ns > 0 {
                hist.record(ns);
            }
        }
        if self.completed.len() < self.capacity {
            self.completed.push(summary);
        } else {
            self.dropped += 1;
        }
    }

    /// Closed spans, in completion order (bounded by the capacity).
    pub fn completed(&self) -> &[SpanSummary] {
        &self.completed
    }

    /// Number of operations still open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Closed spans discarded because the retention buffer was full (their
    /// latencies still reached the histograms).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Phase events observed while no span was open.
    pub fn orphaned(&self) -> u64 {
        self.orphaned
    }

    /// Name-ordered `(name, histogram)` pairs of the non-empty latency
    /// histograms: `flight.op_total` and `flight.phase.<name>`.
    pub fn hists(&self) -> Vec<(&'static str, &Histogram)> {
        let mut out: Vec<(&'static str, &Histogram)> = Phase::ALL
            .iter()
            .map(|p| (p.hist_name(), &self.phase_hists[p.index()]))
            .chain([("flight.op_total", &self.op_total)])
            .filter(|(_, h)| !h.is_empty())
            .collect();
        out.sort_unstable_by_key(|&(name, _)| name);
        out
    }

    /// Drop all state (keeps enabled flag and participants).
    pub fn clear(&mut self) {
        self.open.clear();
        self.completed.clear();
        self.dropped = 0;
        self.orphaned = 0;
        self.op_total = Histogram::new();
        self.phase_hists = Default::default();
    }
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FlightRecorder(enabled={}, open={}, completed={}, dropped={}, orphaned={})",
            self.enabled,
            self.open.len(),
            self.completed.len(),
            self.dropped,
            self.orphaned
        )
    }
}

impl OpenSpan {
    /// Charge the segment since the previous event to `phase`.
    #[inline]
    fn attribute(&mut self, now: SimTime, phase: Phase) {
        self.phase_ns[phase.index()] += now.saturating_sub(self.last).as_ns();
        self.last = now;
        self.events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn labels_and_phases_line_up() {
        for phase in Phase::ALL {
            assert!(phase.hist_name().ends_with(phase.name()));
        }
        assert_eq!(SpanEvent::Fire { unit: 1, dst: 2 }.label(), "fire");
        assert_eq!(
            SpanEvent::Fire { unit: 1, dst: 2 }.phase(),
            Some(Phase::Fire)
        );
        assert_eq!(
            SpanEvent::Raw {
                label: "x",
                a: 0,
                b: 0
            }
            .phase(),
            None
        );
        assert_eq!(SpanEvent::OpBegin { group: 1, seq: 2 }.label(), "op.begin");
    }

    #[test]
    fn legacy_word_view() {
        let ev = SpanEvent::Enqueue { dst: 3, depth: 7 };
        assert_eq!((ev.a(), ev.b()), (3, 7));
        let ev = SpanEvent::Raw {
            label: "raw",
            a: 11,
            b: 22,
        };
        assert_eq!((ev.a(), ev.b()), (11, 22));
    }

    #[test]
    fn describe_mentions_payload() {
        let s = SpanEvent::Wire {
            src: 1,
            dst: 2,
            bytes: 64,
        }
        .describe();
        assert!(
            s.contains("64B") && s.contains("node 1") && s.contains("node 2"),
            "{s}"
        );
    }

    #[test]
    fn disabled_recorder_ignores_everything() {
        let mut r = FlightRecorder::disabled();
        r.observe(t(0), &SpanEvent::OpBegin { group: 1, seq: 0 });
        r.observe(t(10), &SpanEvent::OpEnd { group: 1, seq: 0 });
        assert!(r.completed().is_empty());
        assert_eq!(r.open_count(), 0);
    }

    #[test]
    fn phase_sums_equal_total_exactly() {
        let mut r = FlightRecorder::with_capacity(16);
        r.set_participants(2);
        r.observe(t(0), &SpanEvent::OpBegin { group: 5, seq: 0 });
        r.observe(t(10), &SpanEvent::OpBegin { group: 5, seq: 0 });
        r.observe(t(30), &SpanEvent::Fire { unit: 0, dst: 1 });
        r.observe(
            t(70),
            &SpanEvent::Wire {
                src: 0,
                dst: 1,
                bytes: 32,
            },
        );
        r.observe(t(90), &SpanEvent::Arrive { src: 0, info: 0 });
        r.observe(t(100), &SpanEvent::Notify { unit: 9, cookie: 1 });
        r.observe(t(110), &SpanEvent::OpEnd { group: 5, seq: 0 });
        r.observe(t(120), &SpanEvent::OpEnd { group: 5, seq: 0 });

        assert_eq!(r.open_count(), 0);
        let spans = r.completed();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.total(), t(120));
        assert_eq!(s.phase(Phase::Host), 10 + 10 + 10);
        assert_eq!(s.phase(Phase::Fire), 20);
        assert_eq!(s.phase(Phase::Wire), 40);
        assert_eq!(s.phase(Phase::Arrive), 20);
        assert_eq!(s.phase(Phase::Notify), 10);
        let sum: u64 = s.phase_ns.iter().sum();
        assert_eq!(sum, s.total().as_ns());
    }

    #[test]
    fn closes_without_participants_when_all_enders_arrive() {
        let mut r = FlightRecorder::with_capacity(4);
        r.observe(t(0), &SpanEvent::OpBegin { group: 1, seq: 7 });
        r.observe(t(1), &SpanEvent::OpBegin { group: 1, seq: 7 });
        r.observe(t(5), &SpanEvent::OpEnd { group: 1, seq: 7 });
        assert_eq!(r.open_count(), 1);
        r.observe(t(9), &SpanEvent::OpEnd { group: 1, seq: 7 });
        assert_eq!(r.open_count(), 0);
        assert_eq!(r.completed().len(), 1);
        assert_eq!(r.completed()[0].seq, 7);
    }

    #[test]
    fn overlapping_ops_attribute_to_the_elder() {
        let mut r = FlightRecorder::with_capacity(4);
        r.set_participants(1);
        r.observe(t(0), &SpanEvent::OpBegin { group: 1, seq: 0 });
        // A banked next-epoch op opens while seq 0 is still in flight.
        r.observe(t(4), &SpanEvent::OpBegin { group: 1, seq: 1 });
        r.observe(t(10), &SpanEvent::Fire { unit: 0, dst: 1 });
        r.observe(t(20), &SpanEvent::OpEnd { group: 1, seq: 0 });
        r.observe(t(50), &SpanEvent::OpEnd { group: 1, seq: 1 });
        let spans = r.completed();
        assert_eq!(spans.len(), 2);
        // seq 0 owned the 0..10 fire segment.
        assert_eq!(spans[0].phase(Phase::Fire), 10);
        assert_eq!(spans[0].total(), t(20));
        // seq 1's whole window still adds up.
        let sum: u64 = spans[1].phase_ns.iter().sum();
        assert_eq!(sum, spans[1].total().as_ns());
    }

    #[test]
    fn orphaned_events_are_counted_not_attributed() {
        let mut r = FlightRecorder::with_capacity(4);
        r.observe(t(3), &SpanEvent::Fire { unit: 0, dst: 1 });
        r.observe(t(4), &SpanEvent::OpEnd { group: 1, seq: 0 });
        assert_eq!(r.orphaned(), 2);
        assert!(r.completed().is_empty());
    }

    #[test]
    fn capacity_bounds_retained_spans_but_histograms_see_all() {
        let mut r = FlightRecorder::with_capacity(2);
        r.set_participants(1);
        for seq in 0..5u64 {
            r.observe(t(seq * 100), &SpanEvent::OpBegin { group: 9, seq });
            r.observe(t(seq * 100 + 10), &SpanEvent::OpEnd { group: 9, seq });
        }
        assert_eq!(r.completed().len(), 2);
        assert_eq!(r.dropped(), 3);
        let hists = r.hists();
        assert_eq!(hists[0].0, "flight.op_total");
        assert_eq!(hists[0].1.count(), 5);
    }

    /// Export order is by name, not [`Phase::ALL`] order, and phases a span
    /// spent no time in are absent.
    #[test]
    fn hists_are_name_ordered_and_skip_empty_phases() {
        let mut r = FlightRecorder::with_capacity(4);
        assert!(r.hists().is_empty());
        r.set_participants(1);
        r.observe(t(0), &SpanEvent::OpBegin { group: 1, seq: 0 });
        r.observe(t(5), &SpanEvent::Fire { unit: 0, dst: 1 });
        r.observe(t(9), &SpanEvent::Nack { dst: 1, round: 0 });
        r.observe(t(10), &SpanEvent::OpEnd { group: 1, seq: 0 });
        let names: Vec<&str> = r.hists().iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "flight.op_total",
                "flight.phase.fire",
                "flight.phase.host",
                "flight.phase.nack"
            ]
        );
        // A zero-length span still counts towards the total.
        r.observe(t(20), &SpanEvent::OpBegin { group: 1, seq: 1 });
        r.observe(t(20), &SpanEvent::OpEnd { group: 1, seq: 1 });
        let hists = r.hists();
        assert_eq!(hists[0].1.count(), 2);
        assert_eq!(hists[2].1.count(), 1, "the empty span feeds no phase");
        // Recorders keep their own samples.
        assert!(FlightRecorder::with_capacity(1).hists().is_empty());
    }

    #[test]
    fn raw_events_do_not_touch_spans() {
        let mut r = FlightRecorder::with_capacity(4);
        r.set_participants(1);
        r.observe(t(0), &SpanEvent::OpBegin { group: 1, seq: 0 });
        r.observe(
            t(5),
            &SpanEvent::Raw {
                label: "debug",
                a: 0,
                b: 0,
            },
        );
        r.observe(t(10), &SpanEvent::OpEnd { group: 1, seq: 0 });
        let s = &r.completed()[0];
        // The raw event neither advanced `last` nor counted as an event.
        assert_eq!(s.phase(Phase::Host), 10);
        assert_eq!(s.events, 2);
    }

    #[test]
    fn clear_resets_but_keeps_enabled() {
        let mut r = FlightRecorder::with_capacity(4);
        r.set_participants(1);
        r.observe(t(0), &SpanEvent::OpBegin { group: 1, seq: 0 });
        r.observe(t(10), &SpanEvent::OpEnd { group: 1, seq: 0 });
        r.clear();
        assert!(r.completed().is_empty());
        assert!(r.is_enabled());
        assert!(r.hists().is_empty());
    }
}
