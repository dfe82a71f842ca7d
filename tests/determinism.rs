//! Same-seed determinism regression: the DES contract is that one seed
//! yields one run — the same event order, the same span stream, the same
//! counters, the same final latencies, byte for byte. Hash-order leaks
//! (the class of bug `nicbar-lint` rule ND003 guards against) break this
//! silently and intermittently; this test makes the breakage loud.
//!
//! The GM run injects loss so the NACK/retransmit machinery — the paths
//! that iterate protocol maps under a timer — is exercised, not just the
//! lossless fast path.

mod common;

use common::{elan_nic, first_divergence, gm_nic, witness};
use nicbar::core::{Algorithm, RunCfg, Scenario};

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
    let run =
        || Scenario::new(gm_nic(), 8, Algorithm::Dissemination, lossy_cfg(0xD0_0DAD)).flight();
    let a = witness(&run());
    let b = witness(&run());
    assert!(
        a == b,
        "same seed produced different GM runs; first divergence at byte {}",
        first_divergence(&a, &b)
    );
    // A different seed must actually change the run — otherwise the
    // witness is vacuous (e.g. everything empty).
    let c = witness(
        &Scenario::new(gm_nic(), 8, Algorithm::Dissemination, lossy_cfg(0xC0FFEE)).flight(),
    );
    assert!(a != c, "seed does not influence the run witness");
}

#[test]
fn elan_8_node_run_is_bit_deterministic() {
    let run = || {
        Scenario::new(
            elan_nic(),
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
        .flight()
    };
    let a = witness(&run());
    let b = witness(&run());
    assert!(
        a == b,
        "same seed produced different Elan runs; first divergence at byte {}",
        first_divergence(&a, &b)
    );
}

/// Bulk traffic arms the occupancy ledger too, so the witness covers the
/// ledger's record stream and drop count under the same-seed contract.
#[test]
fn gm_traffic_run_with_ledger_is_bit_deterministic() {
    use nicbar::core::{Load, TrafficCfg};
    let run = || {
        Scenario::new(
            gm_nic(),
            8,
            Algorithm::Dissemination,
            RunCfg {
                iters: 40,
                ..lossy_cfg(0x1ED6E2)
            },
        )
        .with_load(Load::UnderTraffic(TrafficCfg {
            msg_bytes: 4096,
            outstanding: 2,
        }))
        .flight()
    };
    let (a, b) = (run(), run());
    assert!(!a.ledger.is_empty(), "traffic flight must arm the ledger");
    let (a, b) = (witness(&a), witness(&b));
    assert!(
        a == b,
        "same seed produced different ledger-armed runs; first divergence at byte {}",
        first_divergence(&a, &b)
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
        let cap =
            Scenario::new(gm_nic(), 8, Algorithm::Dissemination, lossy_cfg(0xD0_0DAD)).flight();
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
        let f = Scenario::new(gm_nic(), 8, Algorithm::Dissemination, cfg).flight();
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
