//! One record path: where an emitted observability record goes.
//!
//! A handler emits three kinds of record through its [`crate::Ctx`]: typed
//! span events ([`SpanEvent`]), causal packet records ([`PacketLog`]) and
//! resource-occupancy records ([`Occ`]). [`Records`] bundles the four stores
//! they feed — the trace ring, the flight recorder, the causal netdump and
//! the occupancy ledger — and owns the one routing function that decides
//! where a record goes: a span goes to the trace and the recorder, a packet
//! gets its netdump id, an occupancy record is copied into the ledger. The
//! sequential engine's emit path and the parallel engine's post-run replay
//! both call it, so the two cannot route differently.
//!
//! Every store keeps its records in a `RecordLog`: one bounded buffer with
//! an enable flag, a capacity and a drop counter. What a full log does with
//! one more record is fixed per store type and cannot be set:
//!
//! * the netdump, the ledger and the recorder's completed-span list keep
//!   their *first* `capacity` records and count the rest as dropped, so a
//!   capture is prefix-closed — every retained packet's parent chain and
//!   every retained wait's covering holds were emitted earlier and are
//!   retained too;
//! * the trace ring keeps its *newest* `capacity` records, evicting the
//!   oldest, because the `flight` exporter reads the tail of long runs.
//!
//! A disabled store records nothing and allocates nothing; in particular a
//! disabled netdump answers [`CauseId::NONE`] and consumes no id.

use crate::causal::{CauseId, NetDump, PacketLog};
use crate::engine::ComponentId;
use crate::ledger::{Ledger, Occ};
use crate::span::{FlightRecorder, SpanEvent};
use crate::time::SimTime;
use crate::trace::{Trace, TraceRecord};

/// What a full [`RecordLog`] does with one more record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Retain {
    /// Keep the first `capacity` records; count later ones as dropped.
    First,
    /// Keep the newest `capacity` records; evict (and count) the oldest.
    Newest,
}

/// One bounded record buffer: enable flag, capacity, drop counter, and the
/// retention rule its owning store fixed at construction.
pub(crate) struct RecordLog<T> {
    enabled: bool,
    retain: Retain,
    capacity: usize,
    records: Vec<T>,
    /// Index of the oldest record once a [`Retain::Newest`] log has
    /// wrapped; always 0 for [`Retain::First`].
    start: usize,
    dropped: u64,
}

impl<T> RecordLog<T> {
    /// A disabled log that keeps its first `capacity` records.
    pub(crate) fn first(capacity: usize) -> Self {
        Self::new(Retain::First, capacity)
    }

    /// A disabled log that keeps its newest `capacity` records.
    pub(crate) fn newest(capacity: usize) -> Self {
        Self::new(Retain::Newest, capacity)
    }

    fn new(retain: Retain, capacity: usize) -> Self {
        assert!(capacity > 0, "record log capacity must be non-zero");
        RecordLog {
            enabled: false,
            retain,
            capacity,
            records: Vec::new(),
            start: 0,
            dropped: 0,
        }
    }

    /// Arm the log.
    pub(crate) fn enable(&mut self) {
        self.enabled = true;
    }

    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append one record if the log is armed, applying the retention rule
    /// when it is full.
    #[inline]
    pub(crate) fn push(&mut self, rec: T) {
        if !self.enabled {
            return;
        }
        if self.records.len() < self.capacity {
            self.records.push(rec);
            return;
        }
        self.dropped += 1;
        if self.retain == Retain::Newest {
            self.records[self.start] = rec;
            self.start = (self.start + 1) % self.capacity;
        }
    }

    /// Number of retained records.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Records dropped (first-kept logs) or evicted (ring logs).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained records in emission order, as one slice. Only a first-kept
    /// log is always contiguous in emission order.
    pub(crate) fn as_slice(&self) -> &[T] {
        debug_assert_eq!(self.retain, Retain::First, "a ring log may have wrapped");
        &self.records
    }

    /// Retained records in emission order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        let (tail, head) = self.records.split_at(self.start);
        head.iter().chain(tail)
    }

    /// Forget every retained record and the drop count (keeps the enable
    /// flag).
    pub(crate) fn clear(&mut self) {
        self.records.clear();
        self.start = 0;
        self.dropped = 0;
    }
}

/// One record as a handler emitted it, before routing.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Raw {
    /// A typed span event: trace ring and flight recorder.
    Span(SpanEvent),
    /// A causal packet record: the netdump, which assigns its id.
    Pkt(PacketLog),
    /// A resource-occupancy record: the ledger.
    Occ(Occ),
}

/// Which record kinds have an armed store. A shard of the parallel engine
/// captures exactly these, so it hands out a provisional packet id exactly
/// when the sequential run would hand out a real one.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Armed {
    spans: bool,
    pkts: bool,
    occs: bool,
}

impl Armed {
    pub(crate) fn any(self) -> bool {
        self.spans || self.pkts || self.occs
    }

    pub(crate) fn wants(self, rec: &Raw) -> bool {
        match rec {
            Raw::Span(_) => self.spans,
            Raw::Pkt(_) => self.pkts,
            Raw::Occ(_) => self.occs,
        }
    }
}

/// The engine's four observability stores, all disabled by default.
///
/// Arm a store through its field (`records.netdump.enable()`); read results
/// the same way. Records reach the stores only through the engine's single
/// routing function, so a sequential run and any sharding of the parallel
/// engine fill them identically.
pub struct Records {
    /// Trace ring of typed span events (keeps the newest records).
    pub trace: Trace,
    /// Per-operation flight recorder folding the same span events.
    pub recorder: FlightRecorder,
    /// Causal netdump of wire-visible events.
    pub netdump: NetDump,
    /// Resource-occupancy ledger.
    pub ledger: Ledger,
}

impl Default for Records {
    fn default() -> Self {
        Records {
            trace: Trace::disabled(),
            recorder: FlightRecorder::disabled(),
            netdump: NetDump::disabled(),
            ledger: Ledger::disabled(),
        }
    }
}

impl Records {
    /// Which stores are armed; `armed().any()` is the one flag a
    /// [`crate::Ctx`] branches on before building a record.
    #[inline]
    pub(crate) fn armed(&self) -> Armed {
        Armed {
            spans: self.trace.is_enabled() || self.recorder.is_enabled(),
            pkts: self.netdump.is_enabled(),
            occs: self.ledger.is_enabled(),
        }
    }

    /// Send one record emitted by `component` at `time` to its stores.
    /// Returns the netdump id of a packet record ([`CauseId::NONE`] for
    /// every other kind, and for packets while the netdump is off).
    pub(crate) fn route(&mut self, time: SimTime, component: ComponentId, rec: Raw) -> CauseId {
        match rec {
            Raw::Span(event) => {
                self.trace.emit(TraceRecord {
                    time,
                    component,
                    event,
                });
                self.recorder.observe(time, &event);
                CauseId::NONE
            }
            Raw::Pkt(log) => self.netdump.record(time, component, log),
            Raw::Occ(occ) => {
                self.ledger.record(occ.by(component));
                CauseId::NONE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::CausalKind;
    use crate::ledger::{Owner, ResKind};

    #[test]
    fn first_kept_log_drops_the_overflow() {
        let mut log = RecordLog::first(2);
        log.push(0);
        assert_eq!(
            log.as_slice(),
            &[] as &[i32],
            "disabled log records nothing"
        );
        log.enable();
        for i in 1..=4 {
            log.push(i);
        }
        assert_eq!(log.as_slice(), &[1, 2]);
        assert_eq!(log.dropped(), 2);
        log.clear();
        assert_eq!((log.as_slice().len(), log.dropped()), (0, 0));
        assert!(log.is_enabled());
    }

    #[test]
    fn ring_log_keeps_the_newest() {
        let mut log = RecordLog::newest(3);
        log.enable();
        for i in 0..7 {
            log.push(i);
        }
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), [4, 5, 6]);
        assert_eq!(log.dropped(), 4);
    }

    #[test]
    fn route_sends_each_kind_to_its_stores_only() {
        let t = SimTime::from_ns(7);
        let c = ComponentId(3);
        let span = Raw::Span(SpanEvent::Fire { unit: 0, dst: 1 });
        let pkt = Raw::Pkt(PacketLog::new(CauseId::NONE, CausalKind::Fire));
        let occ = Raw::Occ(Occ::hold(ResKind::NicCpu, t, t, 0, Owner::fabric(0)));

        let mut r = Records::default();
        assert!(!r.armed().any());
        for rec in [span, pkt, occ] {
            assert_eq!(r.route(t, c, rec), CauseId::NONE);
        }
        assert!(r.trace.is_empty() && r.netdump.is_empty() && r.ledger.is_empty());

        r.netdump.enable();
        assert!(r.armed().any());
        assert!(r.armed().wants(&pkt) && !r.armed().wants(&span));
        r.route(t, c, span);
        r.route(t, c, occ);
        assert_eq!(
            r.route(t, c, pkt),
            CauseId(1),
            "first id, none used earlier"
        );
        assert!(r.trace.is_empty() && r.ledger.is_empty());

        r.trace.enable();
        r.ledger.enable();
        r.route(t, c, span);
        r.route(t, c, occ);
        assert_eq!(r.trace.len(), 1);
        assert_eq!(r.ledger.records()[0].component, c);
        assert_eq!(r.netdump.len(), 1);
    }
}
