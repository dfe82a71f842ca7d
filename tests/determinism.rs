//! Same-seed determinism regression: the DES contract is that one seed
//! yields one run — the same event order, the same span stream, the same
//! counters, the same final latencies, byte for byte. Hash-order leaks
//! (the class of bug `nicbar-lint` rule ND003 guards against) break this
//! silently and intermittently; this test makes the breakage loud.
//!
//! The GM run injects loss so the NACK/retransmit machinery — the paths
//! that iterate protocol maps under a timer — is exercised, not just the
//! lossless fast path.

use nicbar::core::{elan_nic_barrier_flight, gm_nic_barrier_flight, Algorithm, FlightData, RunCfg};
use nicbar::elan::ElanParams;
use nicbar::gm::{CollFeatures, GmParams};

/// Byte-exact projection of everything a run observes: trace records in
/// emission order, span summaries in completion order, histograms,
/// counters, causal packet records and the final latency statistics.
fn witness(f: &FlightData) -> String {
    format!(
        "substrate={}\nrecords={:?}\ntrace_dropped={}\nspans={:?}\nspans_dropped={}\norphaned={}\nhists={:?}\nstats={:?}\npackets={:?}\npackets_dropped={}\n",
        f.substrate, f.records, f.trace_dropped, f.spans, f.spans_dropped, f.orphaned, f.hists, f.stats, f.packets, f.packets_dropped
    )
}

fn lossy_cfg(seed: u64) -> RunCfg {
    RunCfg {
        warmup: 20,
        iters: 150,
        seed,
        skew_us: 2.0,
        drop_prob: 0.02,
        ..RunCfg::default()
    }
}

#[test]
fn gm_lossy_8_node_run_is_bit_deterministic() {
    let run = || {
        gm_nic_barrier_flight(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            8,
            Algorithm::Dissemination,
            lossy_cfg(0xD0_0DAD),
        )
    };
    let a = witness(&run());
    let b = witness(&run());
    assert!(
        a == b,
        "same seed produced different GM runs; first divergence at byte {}",
        a.bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.len().min(b.len()))
    );
    // A different seed must actually change the run — otherwise the
    // witness is vacuous (e.g. everything empty).
    let c = witness(&gm_nic_barrier_flight(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        8,
        Algorithm::Dissemination,
        lossy_cfg(0xC0FFEE),
    ));
    assert!(a != c, "seed does not influence the run witness");
}

#[test]
fn elan_8_node_run_is_bit_deterministic() {
    let run = || {
        elan_nic_barrier_flight(
            ElanParams::elan3(),
            8,
            Algorithm::Dissemination,
            RunCfg {
                warmup: 20,
                iters: 150,
                seed: 0xE1A0,
                skew_us: 2.0,
                ..RunCfg::default()
            },
        )
    };
    let a = witness(&run());
    let b = witness(&run());
    assert!(
        a == b,
        "same seed produced different Elan runs; first divergence at byte {}",
        a.bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.len().min(b.len()))
    );
}

/// The `why-slow` report and the JSONL netdump are derived artifacts of
/// the same run; both must be byte-identical across same-seed runs, or
/// the analyzer itself has nondeterminism (map iteration, float
/// formatting drift, unordered slack).
#[test]
fn why_slow_report_is_byte_identical_across_same_seed_runs() {
    use nicbar_bench::{critpath, netdump};

    let report = || {
        let cap = gm_nic_barrier_flight(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            8,
            Algorithm::Dissemination,
            lossy_cfg(0xD0_0DAD),
        );
        let paths = critpath::analyze(&cap.packets);
        (critpath::render(&paths), netdump::jsonl(&cap.packets))
    };
    let (text_a, jsonl_a) = report();
    let (text_b, jsonl_b) = report();
    assert!(
        text_a == text_b,
        "why-slow report diverged across same-seed runs"
    );
    assert!(
        jsonl_a == jsonl_b,
        "JSONL netdump diverged across same-seed runs"
    );
    assert!(
        text_a.contains("critical path"),
        "report is non-empty: {text_a}"
    );
    assert!(
        text_a.contains("[detour]"),
        "lossy run surfaces a NACK/retransmit detour:\n{text_a}"
    );
}

/// The flight-histogram export is a name-ordered list of the non-empty
/// histograms, not `Phase::ALL` order: `flight.op_total`, then the phases
/// alphabetically, with phases no span spent time in left out. The name
/// lists below were recorded from the registry-backed recorder this export
/// replaced. The lossy run closes more spans than the recorder retains, so
/// it also checks that `flight.op_total` counts dropped spans too.
#[test]
fn flight_hist_export_names_are_pinned() {
    let cases: [(RunCfg, &[&str]); 2] = [
        (
            RunCfg {
                warmup: 20,
                iters: 150,
                seed: 11,
                skew_us: 2.0,
                ..RunCfg::default()
            },
            &[
                "flight.op_total",
                "flight.phase.fire",
                "flight.phase.host",
                "flight.phase.wire",
            ],
        ),
        (
            RunCfg {
                iters: 4200,
                ..lossy_cfg(0xD0_0DAD)
            },
            &[
                "flight.op_total",
                "flight.phase.arrive",
                "flight.phase.fire",
                "flight.phase.host",
                "flight.phase.nack",
                "flight.phase.wire",
            ],
        ),
    ];
    for (cfg, expected) in cases {
        let lossy = cfg.drop_prob > 0.0;
        let f = gm_nic_barrier_flight(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            8,
            Algorithm::Dissemination,
            cfg,
        );
        let names: Vec<&str> = f.hists.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, expected, "lossy={lossy}");
        let closed = f.spans.len() as u64 + f.spans_dropped;
        assert_eq!(f.hists[0].1.count(), closed, "lossy={lossy}");
        assert_eq!(
            f.spans_dropped > 0,
            lossy,
            "only the long lossy run drops spans"
        );
        for (name, h) in &f.hists {
            assert!(h.count() <= closed, "{name} saw more samples than spans");
        }
    }
}
