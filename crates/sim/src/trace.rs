//! Optional event tracing.
//!
//! A [`Trace`] is a bounded ring of `(time, component, event)` records,
//! where the payload is a typed [`SpanEvent`] (see [`crate::span`]). It is
//! one of the engine's [`crate::Records`] and is fed through the one record
//! path of [`crate::record`]; unlike the other stores it keeps the *newest*
//! records, because exporters read the tail of long runs. It is disabled
//! by default (zero cost beyond a branch); tests enable it to assert
//! fine-grained protocol behaviour, e.g. "the barrier send token never
//! waited behind a point-to-point token" or "no ACK was emitted for a
//! collective packet".

use crate::engine::ComponentId;
use crate::record::RecordLog;
use crate::span::SpanEvent;
use crate::time::SimTime;
use std::fmt;

/// One trace record: a typed event stamped with its emission time and the
/// component that emitted it. The legacy `(label, a, b)` word view is still
/// available through [`TraceRecord::label`], [`TraceRecord::a`] and
/// [`TraceRecord::b`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time the record was emitted.
    pub time: SimTime,
    /// Component that emitted it.
    pub component: ComponentId,
    /// The typed event payload.
    pub event: SpanEvent,
}

impl TraceRecord {
    /// Static label identifying the event kind.
    pub fn label(&self) -> &'static str {
        self.event.label()
    }

    /// First payload word (legacy view; meaning depends on the variant).
    pub fn a(&self) -> u64 {
        self.event.a()
    }

    /// Second payload word (legacy view; meaning depends on the variant).
    pub fn b(&self) -> u64 {
        self.event.b()
    }
}

/// A bounded trace ring. When full, the oldest records are evicted and
/// [`Trace::dropped`] counts how many: the exporters read the tail of long
/// runs (see [`crate::record`] for the per-store retention rules).
pub struct Trace {
    log: RecordLog<TraceRecord>,
}

impl Trace {
    /// Default ring capacity when enabled.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Create a disabled trace ([`Self::DEFAULT_CAPACITY`] once enabled).
    pub fn disabled() -> Self {
        Trace {
            log: RecordLog::newest(Self::DEFAULT_CAPACITY),
        }
    }

    /// Create an enabled trace with the given ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut log = RecordLog::newest(capacity);
        log.enable();
        Trace { log }
    }

    /// Is recording active?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.log.is_enabled()
    }

    /// Enable recording.
    pub fn enable(&mut self) {
        self.log.enable();
    }

    /// Append a record if enabled.
    #[inline]
    pub fn emit(&mut self, rec: TraceRecord) {
        self.log.push(rec);
    }

    /// Number of records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.log.dropped()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True if no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over retained records in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.log.iter()
    }

    /// Records with a given label, in emission order.
    pub fn with_label<'a>(
        &'a self,
        label: &'static str,
    ) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.iter().filter(move |r| r.label() == label)
    }

    /// Count of records with a given label (among retained records).
    pub fn count(&self, label: &'static str) -> usize {
        self.with_label(label).count()
    }

    /// Drop all retained records (keeps enabled state).
    pub fn clear(&mut self) {
        self.log.clear();
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Trace(enabled={}, len={}, dropped={})",
            self.is_enabled(),
            self.len(),
            self.dropped()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, label: &'static str, a: u64) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_ns(t),
            component: ComponentId(0),
            event: SpanEvent::Raw { label, a, b: 0 },
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.emit(rec(1, "x", 0));
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn records_in_order() {
        let mut t = Trace::with_capacity(8);
        for i in 0..5 {
            t.emit(rec(i, "pkt", i));
        }
        let seen: Vec<u64> = t.iter().map(|r| r.a()).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::with_capacity(4);
        for i in 0..7 {
            t.emit(rec(i, "pkt", i));
        }
        let seen: Vec<u64> = t.iter().map(|r| r.a()).collect();
        assert_eq!(seen, vec![3, 4, 5, 6]);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn label_filters() {
        let mut t = Trace::with_capacity(16);
        t.emit(rec(0, "ack", 1));
        t.emit(rec(1, "pkt", 2));
        t.emit(rec(2, "ack", 3));
        assert_eq!(t.count("ack"), 2);
        assert_eq!(t.count("pkt"), 1);
        assert_eq!(t.count("nack"), 0);
        let acks: Vec<u64> = t.with_label("ack").map(|r| r.a()).collect();
        assert_eq!(acks, vec![1, 3]);
    }

    #[test]
    fn typed_events_filter_by_phase_label() {
        let mut t = Trace::with_capacity(16);
        t.emit(TraceRecord {
            time: SimTime::from_ns(1),
            component: ComponentId(3),
            event: SpanEvent::Nack { dst: 2, round: 5 },
        });
        assert_eq!(t.count("nack"), 1);
        let r = t.with_label("nack").next().unwrap();
        assert_eq!((r.a(), r.b()), (2, 5));
        assert_eq!(r.event, SpanEvent::Nack { dst: 2, round: 5 });
    }

    #[test]
    fn clear_keeps_enabled() {
        let mut t = Trace::with_capacity(4);
        t.emit(rec(0, "x", 0));
        t.clear();
        assert!(t.is_empty());
        assert!(t.is_enabled());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn enable_from_disabled_uses_default_capacity() {
        let mut t = Trace::disabled();
        t.enable();
        assert!(t.is_enabled());
        t.emit(rec(0, "x", 0));
        assert_eq!(t.len(), 1);
    }
}
