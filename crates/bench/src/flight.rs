//! Exporters for flight-recorder captures ([`nicbar_core::FlightData`]).
//!
//! Two output formats share one capture:
//!
//! * [`chrome_trace`] renders the Chrome trace-event JSON that Perfetto /
//!   `chrome://tracing` loads directly — per-barrier spans as complete
//!   (`"X"`) events with the phase breakdown in `args`, every trace record
//!   as an instant (`"i"`) event on its component's track.
//! * [`breakdown`] renders the human-readable per-phase latency table with
//!   the histogram quantiles.
//!
//! Both formats always report the capture's drop counters, so a truncated
//! recording can never masquerade as a complete one.

use crate::json::Writer;
use nicbar_core::FlightData;
use nicbar_sim::Phase;

/// Nanoseconds → microseconds for display and Chrome timestamps.
fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// The producing engine, rendered for stamps: `"sequential"` or
/// `"parallel(K)"`. Simulation results are byte-identical across engines;
/// the stamp makes a cross-engine diff of exporter output self-describing
/// (the *only* line that may differ names the engine).
pub fn engine_stamp(cap: &FlightData) -> String {
    if cap.engine == "parallel" {
        format!("parallel({})", cap.shards)
    } else {
        cap.engine.to_string()
    }
}

/// Render one or more captures as Chrome trace-event JSON (the "JSON Object
/// Format": a `traceEvents` array plus metadata). Each capture gets its own
/// `pid`; barrier spans sit on a dedicated track, trace records on one
/// track per emitting component. Timestamps are microseconds of simulated
/// time, as the format requires.
pub fn chrome_trace(captures: &[FlightData]) -> String {
    let mut w = Writer::new();
    w.open_object();
    w.field("traceEvents");
    w.open_array();
    for (pid, cap) in captures.iter().enumerate() {
        let pid = pid as u64;
        // Process metadata: name the capture after its substrate and size.
        w.open_object();
        w.field("name");
        w.string("process_name");
        w.field("ph");
        w.string("M");
        w.field("pid");
        w.uint(pid);
        w.field("args");
        w.open_object();
        w.field("name");
        w.string(&format!(
            "{} barrier ({} nodes)",
            cap.substrate, cap.stats.n
        ));
        w.close_object();
        w.close_object();

        // Track 0 carries the per-barrier spans.
        w.open_object();
        w.field("name");
        w.string("thread_name");
        w.field("ph");
        w.string("M");
        w.field("pid");
        w.uint(pid);
        w.field("tid");
        w.uint(0);
        w.field("args");
        w.open_object();
        w.field("name");
        w.string("barrier spans");
        w.close_object();
        w.close_object();

        for span in &cap.spans {
            w.open_object();
            w.field("name");
            w.string(&format!("barrier seq {}", span.seq));
            w.field("cat");
            w.string(cap.substrate);
            w.field("ph");
            w.string("X");
            w.field("pid");
            w.uint(pid);
            w.field("tid");
            w.uint(0);
            w.field("ts");
            w.number(span.begin.as_us());
            w.field("dur");
            w.number(span.total().as_us());
            w.field("args");
            w.open_object();
            w.field("group");
            w.uint(span.group);
            w.field("events");
            w.uint(span.events);
            for phase in Phase::ALL {
                let ns = span.phase(phase);
                if ns > 0 {
                    w.field(&format!("{}_us", phase.name()));
                    w.number(us(ns));
                }
            }
            w.close_object();
            w.close_object();
        }

        // Every retained trace record becomes an instant event on a track
        // named after its component (tid = component id + 1; 0 is spans).
        for r in &cap.records {
            w.open_object();
            w.field("name");
            w.string(r.label());
            w.field("cat");
            w.string(cap.substrate);
            w.field("ph");
            w.string("i");
            w.field("s");
            w.string("t");
            w.field("pid");
            w.uint(pid);
            w.field("tid");
            w.uint(r.component.0 as u64 + 1);
            w.field("ts");
            w.number(r.time.as_us());
            w.field("args");
            w.open_object();
            w.field("detail");
            w.string(&r.event.describe());
            w.close_object();
            w.close_object();
        }
    }
    w.close_array();
    w.field("displayTimeUnit");
    w.string("ns");
    // Drop counters ride in metadata so a lossy capture is self-describing.
    w.field("otherData");
    w.open_object();
    for (pid, cap) in captures.iter().enumerate() {
        w.field(&format!("{}:{}", pid, "trace_dropped"));
        w.uint(cap.trace_dropped);
        w.field(&format!("{}:{}", pid, "spans_dropped"));
        w.uint(cap.spans_dropped);
        w.field(&format!("{}:{}", pid, "orphaned"));
        w.uint(cap.orphaned);
        w.field(&format!("{}:{}", pid, "engine"));
        w.string(&engine_stamp(cap));
    }
    w.close_object();
    w.close_object();
    w.finish()
}

/// Render the human-readable breakdown: per-phase latency attribution
/// averaged over the captured spans, the histogram quantiles, and the
/// phase-sum-vs-end-to-end consistency check.
pub fn breakdown(cap: &FlightData) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== flight capture: {} barrier, {} nodes ==",
        cap.substrate, cap.stats.n
    );
    let _ = writeln!(out, "engine: {}", engine_stamp(cap));
    let _ = writeln!(
        out,
        "spans: {} captured, {} trace records retained",
        cap.spans.len(),
        cap.records.len()
    );
    if cap.trace_dropped > 0 {
        let _ = writeln!(
            out,
            "warning: trace ring dropped {} records; instants are truncated",
            cap.trace_dropped
        );
    }
    if cap.spans_dropped > 0 {
        let _ = writeln!(
            out,
            "warning: recorder dropped {} span summaries (histograms still saw them)",
            cap.spans_dropped
        );
    }
    if cap.orphaned > 0 {
        let _ = writeln!(
            out,
            "note: {} events arrived with no open span (unattributed)",
            cap.orphaned
        );
    }
    if cap.spans.is_empty() {
        let _ = writeln!(out, "(no spans captured)");
        return out;
    }

    // Phase attribution, averaged over spans. Per-span phase sums equal the
    // span's end-to-end latency by construction; the table re-derives the
    // totals independently as a cross-check.
    let n_spans = cap.spans.len() as f64;
    let total_ns: u64 = cap.spans.iter().map(|s| s.total().as_ns()).sum();
    let phase_sum_ns: u64 = cap
        .spans
        .iter()
        .flat_map(|s| Phase::ALL.iter().map(|&p| s.phase(p)))
        .sum();
    let _ = writeln!(out, "\n{:>12} {:>12} {:>8}", "phase", "mean (µs)", "share");
    for phase in Phase::ALL {
        let ns: u64 = cap.spans.iter().map(|s| s.phase(phase)).sum();
        if ns == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:>12} {:>12.3} {:>7.1}%",
            phase.name(),
            us(ns) / n_spans,
            ns as f64 / total_ns as f64 * 100.0
        );
    }
    let _ = writeln!(out, "{:>12} {:>12.3}", "end-to-end", us(total_ns) / n_spans);
    let drift = (phase_sum_ns as f64 - total_ns as f64).abs() / total_ns as f64;
    let _ = writeln!(
        out,
        "phase sums cover {:.3}% of end-to-end latency",
        phase_sum_ns as f64 / total_ns as f64 * 100.0
    );
    debug_assert!(drift < 0.01, "phase attribution drifted {drift}");

    if !cap.hists.is_empty() {
        let _ = writeln!(
            out,
            "\n{:>24} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "histogram (µs)", "count", "p50", "p95", "p99", "max"
        );
        for (name, h) in &cap.hists {
            let _ = writeln!(
                out,
                "{:>24} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                name,
                h.count(),
                us(h.p50()),
                us(h.p95()),
                us(h.p99()),
                us(h.max())
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicbar_core::{gm_nic_barrier_flight, Algorithm, RunCfg};
    use nicbar_gm::{CollFeatures, GmParams};

    fn capture() -> FlightData {
        gm_nic_barrier_flight(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            4,
            Algorithm::Dissemination,
            RunCfg {
                warmup: 1,
                iters: 4,
                ..RunCfg::default()
            },
        )
    }

    #[test]
    fn chrome_trace_contains_spans_and_instants() {
        let cap = capture();
        assert_eq!(cap.spans.len(), 5, "one span per epoch");
        let json = chrome_trace(std::slice::from_ref(&cap));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""), "complete span events");
        assert!(json.contains("\"ph\": \"i\""), "instant events");
        assert!(json.contains("barrier seq 0"));
        assert!(json.contains("\"0:trace_dropped\": 0"));
    }

    #[test]
    fn breakdown_phases_sum_to_end_to_end() {
        let cap = capture();
        for s in &cap.spans {
            let sum: u64 = nicbar_sim::Phase::ALL.iter().map(|&p| s.phase(p)).sum();
            assert_eq!(sum, s.total().as_ns(), "exact attribution per span");
        }
        let text = breakdown(&cap);
        assert!(text.contains("end-to-end"));
        assert!(text.contains("100.000% of end-to-end"), "got:\n{text}");
        assert!(!text.contains("warning:"), "clean capture warns nothing");
    }

    /// Overflow a real engine's trace ring through `Ctx::span` and check
    /// the drop count rides into both exporter outputs.
    #[test]
    fn overflowing_the_ring_reports_the_drop_count() {
        use nicbar_core::BarrierStats;
        use nicbar_sim::{Component, Ctx, Engine, SimTime, SpanEvent, Trace};

        struct Chatter;
        impl Component<u32> for Chatter {
            fn handle(&mut self, msg: u32, ctx: &mut Ctx<'_, u32>) {
                ctx.span(SpanEvent::Fire { unit: 0, dst: 1 });
                if msg > 0 {
                    ctx.send_self(SimTime::from_ns(10), msg - 1);
                }
            }
        }

        let mut engine: Engine<u32> = Engine::new(1);
        let id = engine.add(Chatter);
        engine.records_mut().trace = Trace::with_capacity(4);
        engine.schedule_at(SimTime::ZERO, id, 9);
        engine.run();
        assert_eq!(
            engine.records().trace.dropped(),
            6,
            "10 emits into a 4-slot ring"
        );

        let cap = FlightData {
            substrate: "gm",
            engine: "sequential",
            shards: 1,
            stats: BarrierStats {
                n: 1,
                mean_us: 0.0,
                per_iter_us: Vec::new(),
                wire_per_barrier: 0.0,
                counters: Vec::new(),
            },
            records: engine.records().trace.iter().copied().collect(),
            trace_dropped: engine.records().trace.dropped(),
            spans: Vec::new(),
            spans_dropped: 0,
            orphaned: 0,
            hists: Vec::new(),
            packets: Vec::new(),
            packets_dropped: 0,
            ledger: Vec::new(),
            ledger_dropped: 0,
        };
        let json = chrome_trace(std::slice::from_ref(&cap));
        assert!(json.contains("\"0:trace_dropped\": 6"), "got:\n{json}");
        let text = breakdown(&cap);
        assert!(text.contains("dropped 6 records"), "got:\n{text}");
    }

    #[test]
    fn exporters_stamp_the_producing_engine() {
        let cap = capture();
        assert_eq!(cap.engine, "sequential");
        assert!(breakdown(&cap).contains("engine: sequential"));
        assert!(chrome_trace(std::slice::from_ref(&cap)).contains("\"0:engine\": \"sequential\""));

        let par = gm_nic_barrier_flight(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            4,
            Algorithm::Dissemination,
            RunCfg {
                warmup: 1,
                iters: 4,
                engine: nicbar_sim::EngineSel::Parallel,
                shards: 2,
                ..RunCfg::default()
            },
        );
        assert_eq!((par.engine, par.shards), ("parallel", 2));
        assert!(breakdown(&par).contains("engine: parallel(2)"));
        assert!(chrome_trace(std::slice::from_ref(&par)).contains("\"0:engine\": \"parallel(2)\""));
    }

    #[test]
    fn dropped_counts_surface_in_every_exporter() {
        let mut cap = capture();
        cap.trace_dropped = 7;
        cap.spans_dropped = 3;
        let json = chrome_trace(std::slice::from_ref(&cap));
        assert!(json.contains("\"0:trace_dropped\": 7"), "got:\n{json}");
        assert!(json.contains("\"0:spans_dropped\": 3"));
        let text = breakdown(&cap);
        assert!(text.contains("dropped 7 records"), "got:\n{text}");
        assert!(text.contains("dropped 3 span summaries"));
    }
}
