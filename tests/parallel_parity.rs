//! Rank-sharded parallel engine parity: the conservative windowed engine
//! must be an *implementation detail* — same seed, same cluster, same
//! byte-exact observable run as the sequential engine, at any shard count.
//!
//! "Observable run" is the full flight capture: trace records in emission
//! order, span summaries, histograms, counters, causal packet records and
//! the final latency statistics. The parallel engine merges per-shard
//! observability streams in delivered-event order, so every byte must
//! agree, not just the aggregate latencies.

mod common;

use common::{first_divergence, witness};
use nicbar::core::{
    build_gm_nic_cluster, elan_nic_barrier_flight, gm_nic_barrier_flight, Algorithm, FlightData,
    RunCfg,
};
use nicbar::elan::ElanParams;
use nicbar::gm::{CollFeatures, GmParams};
use nicbar::sim::EngineSel;

fn cfg(engine: EngineSel, shards: usize) -> RunCfg {
    RunCfg {
        warmup: 5,
        iters: 40,
        skew_us: 1.0,
        engine,
        shards,
        ..RunCfg::default()
    }
}

fn assert_parity(label: &str, seq: &FlightData, par: &FlightData) {
    let a = witness(seq);
    let b = witness(par);
    if a != b {
        let at = first_divergence(&a, &b);
        let lo = at.saturating_sub(120);
        panic!(
            "{label}: parallel run diverges from sequential at byte {at}\nsequential: ...{}\nparallel:   ...{}",
            &a[lo..(at + 120).min(a.len())],
            &b[lo..(at + 120).min(b.len())],
        );
    }
}

fn gm_flight(n: usize, algo: Algorithm, engine: EngineSel, shards: usize) -> FlightData {
    gm_nic_barrier_flight(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        n,
        algo,
        cfg(engine, shards),
    )
}

fn elan_flight(n: usize, algo: Algorithm, engine: EngineSel, shards: usize) -> FlightData {
    elan_nic_barrier_flight(ElanParams::elan3(), n, algo, cfg(engine, shards))
}

#[test]
fn gm_parallel_matches_sequential_byte_for_byte() {
    for algo in [Algorithm::Dissemination, Algorithm::PairwiseExchange] {
        for n in [16, 256] {
            let seq = gm_flight(n, algo, EngineSel::Sequential, 1);
            for shards in [2, 5, 8] {
                let par = gm_flight(n, algo, EngineSel::Parallel, shards);
                assert_parity(&format!("gm {algo:?} n={n} shards={shards}"), &seq, &par);
            }
        }
    }
}

#[test]
fn elan_parallel_matches_sequential_byte_for_byte() {
    for algo in [Algorithm::Dissemination, Algorithm::PairwiseExchange] {
        for n in [16, 256] {
            let seq = elan_flight(n, algo, EngineSel::Sequential, 1);
            for shards in [2, 5, 8] {
                let par = elan_flight(n, algo, EngineSel::Parallel, shards);
                assert_parity(&format!("elan {algo:?} n={n} shards={shards}"), &seq, &par);
            }
        }
    }
}

/// Packet loss draws happen on the receiving NIC's private RNG stream, so
/// sharding must not change which packets drop — the NACK/retransmit
/// detours have to replay identically.
#[test]
fn gm_lossy_parallel_matches_sequential() {
    let lossy = |engine, shards| {
        gm_nic_barrier_flight(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            16,
            Algorithm::Dissemination,
            RunCfg {
                warmup: 10,
                iters: 80,
                drop_prob: 0.02,
                skew_us: 2.0,
                engine,
                shards,
                ..RunCfg::default()
            },
        )
    };
    let seq = lossy(EngineSel::Sequential, 1);
    assert!(
        seq.packets
            .iter()
            .any(|p| format!("{p:?}").contains("Drop")),
        "lossy config produced no drops; the test is vacuous"
    );
    for shards in [2, 4] {
        let par = lossy(EngineSel::Parallel, shards);
        assert_parity(&format!("gm lossy shards={shards}"), &seq, &par);
    }
}

/// Bulk-traffic scenarios: the saturating background stream exercises the
/// send-queue/packet-pool paths (and, with the ledger armed, emits
/// occupancy records from every NIC charge), so sharding must reproduce
/// the whole capture — ledger included — byte for byte on both substrates.
#[test]
fn gm_traffic_parallel_matches_sequential_byte_for_byte() {
    use nicbar::core::{gm_nic_barrier_under_traffic_flight, TrafficCfg};
    let traffic = TrafficCfg {
        msg_bytes: 4096,
        outstanding: 2,
    };
    let run = |engine, shards| {
        gm_nic_barrier_under_traffic_flight(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            8,
            Algorithm::Dissemination,
            cfg(engine, shards),
            traffic,
        )
    };
    let seq = run(EngineSel::Sequential, 1);
    assert!(!seq.ledger.is_empty(), "traffic flight must arm the ledger");
    for shards in [2, 8] {
        let par = run(EngineSel::Parallel, shards);
        assert_parity(&format!("gm traffic shards={shards}"), &seq, &par);
    }
}

#[test]
fn elan_traffic_parallel_matches_sequential_byte_for_byte() {
    use nicbar::core::{elan_contend_flight, TrafficCfg};
    let traffic = TrafficCfg {
        msg_bytes: 4096,
        outstanding: 2,
    };
    // One group + the forwarding-ring tport stream: the Elan bulk-traffic
    // scenario (the multi-group contend gate covers the M-group case).
    let run = |engine, shards| {
        elan_contend_flight(
            ElanParams::elan3(),
            8,
            1,
            Algorithm::Dissemination,
            RunCfg {
                warmup: 2,
                iters: 8,
                skew_us: 1.0,
                engine,
                shards,
                ..RunCfg::default()
            },
            traffic,
        )
    };
    let seq = run(EngineSel::Sequential, 1);
    assert!(!seq.ledger.is_empty(), "contend flight must arm the ledger");
    for shards in [2, 8] {
        let par = run(EngineSel::Parallel, shards);
        assert_parity(&format!("elan traffic shards={shards}"), &seq, &par);
    }
}

/// `Auto` with one shard must take the sequential fast path — no worker
/// threads, no windowing — while `Parallel` at one shard goes through the
/// parallel machinery and still reproduces the same run.
#[test]
fn one_shard_engine_selection() {
    let auto = build_gm_nic_cluster(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        16,
        Algorithm::Dissemination,
        &cfg(EngineSel::Auto, 1),
        false,
    );
    assert_eq!(auto.engine.kind(), "sequential");

    let par = build_gm_nic_cluster(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        16,
        Algorithm::Dissemination,
        &cfg(EngineSel::Parallel, 1),
        false,
    );
    assert_eq!(par.engine.kind(), "parallel");

    let seq = gm_flight(16, Algorithm::Dissemination, EngineSel::Sequential, 1);
    let one = gm_flight(16, Algorithm::Dissemination, EngineSel::Parallel, 1);
    assert_parity("gm 1-shard degenerate", &seq, &one);
}

/// Drop every line that carries the engine stamp — the one *intentional*
/// difference between exporter outputs of different engines.
fn strip_engine_stamp(text: &str) -> String {
    text.lines()
        .filter(|l| !l.trim_start().starts_with("engine: ") && !l.contains(":engine\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The rendered exporter artifacts — flight breakdown, Chrome trace,
/// critical-path report, packet JSONL — must be byte-identical across
/// engines once the self-describing engine-stamp line is removed, and that
/// stamp must name the actual producer.
#[test]
fn exporter_output_is_byte_identical_across_engines() {
    use nicbar_bench::{critpath, flight, netdump};

    type FlightRun = fn(EngineSel, usize) -> FlightData;
    let cases: [(&str, FlightRun); 2] = [
        ("gm", |e, s| gm_flight(16, Algorithm::Dissemination, e, s)),
        ("elan", |e, s| {
            elan_flight(16, Algorithm::Dissemination, e, s)
        }),
    ];
    for (substrate, run) in cases {
        let seq = run(EngineSel::Sequential, 1);
        let seq_breakdown = flight::breakdown(&seq);
        let seq_chrome = flight::chrome_trace(std::slice::from_ref(&seq));
        let seq_crit = critpath::render(&critpath::analyze(&seq.packets));
        let seq_jsonl = netdump::jsonl(&seq.packets);
        assert!(
            seq_breakdown.contains("engine: sequential"),
            "{substrate}: breakdown lacks the sequential stamp"
        );
        assert!(seq_chrome.contains("\"0:engine\": \"sequential\""));

        for shards in [2, 8] {
            let par = run(EngineSel::Parallel, shards);
            let label = format!("{substrate} shards={shards}");
            let par_breakdown = flight::breakdown(&par);
            assert!(
                par_breakdown.contains(&format!("engine: parallel({shards})")),
                "{label}: breakdown lacks the parallel stamp:\n{par_breakdown}"
            );
            assert_eq!(
                strip_engine_stamp(&seq_breakdown),
                strip_engine_stamp(&par_breakdown),
                "{label}: breakdown differs beyond the engine stamp"
            );

            let par_chrome = flight::chrome_trace(std::slice::from_ref(&par));
            assert!(par_chrome.contains(&format!("\"0:engine\": \"parallel({shards})\"")));
            assert_eq!(
                strip_engine_stamp(&seq_chrome),
                strip_engine_stamp(&par_chrome),
                "{label}: Chrome trace differs beyond the engine stamp"
            );

            // The critical-path report and the packet JSONL carry no stamp
            // at all: byte-identical, full stop.
            assert_eq!(
                seq_crit,
                critpath::render(&critpath::analyze(&par.packets)),
                "{label}: critical-path report differs"
            );
            assert_eq!(
                seq_jsonl,
                netdump::jsonl(&par.packets),
                "{label}: packet JSONL differs"
            );
        }
    }
}

/// Shard counts beyond the rank count clamp to the rank count — excess
/// shards would sit empty yet still pay every window barrier — and the
/// clamped run still reproduces the sequential bytes.
#[test]
fn oversharded_run_clamps_and_matches_sequential() {
    let seq = gm_flight(16, Algorithm::Dissemination, EngineSel::Sequential, 1);
    let par = gm_flight(16, Algorithm::Dissemination, EngineSel::Parallel, 64);
    // The breakdown stamp names the *effective* shard count.
    let stamp = nicbar_bench::flight::breakdown(&par);
    assert!(
        stamp.contains("engine: parallel(16)"),
        "shards=64 on n=16 should clamp to 16 shards, got:\n{stamp}"
    );
    assert_parity("gm shards=64 clamped to n=16", &seq, &par);
}

/// A hand-built `Weighted` partition — deliberately lumpy weights and
/// boundary costs, so the cut points move away from the contiguous
/// default — must be invisible in the observable run: partitioning only
/// redistributes work across workers, never reorders delivered events.
#[test]
fn weighted_partition_matches_sequential_byte_for_byte() {
    use nicbar::sim::PartitionSel;
    let sel = PartitionSel::Weighted {
        weights: (0..16u64).map(|j| 1 + (j % 5) * 7).collect(),
        boundary_cost: (0..16u64).map(|j| (j * 13) % 11).collect(),
    };
    let run = |engine, shards, partition| {
        gm_nic_barrier_flight(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            16,
            Algorithm::Dissemination,
            RunCfg {
                partition,
                ..cfg(engine, shards)
            },
        )
    };
    let seq = run(EngineSel::Sequential, 1, PartitionSel::Contiguous);
    for shards in [2, 5, 8] {
        let par = run(EngineSel::Parallel, shards, sel.clone());
        assert_parity(&format!("gm weighted shards={shards}"), &seq, &par);
    }
}

/// The full profile-guided loop: a real `engine-prof` capture (the
/// committed PR-7 baseline) feeds `partition_from_profile`, and the
/// resulting partition must preserve byte-identity. The profile was taken
/// at a different node count — `balanced_by_weight` resamples it — which
/// is exactly how a stale profile will be used in practice.
#[test]
fn profile_guided_partition_matches_sequential() {
    use nicbar::sim::PartitionSel;
    use nicbar_bench::engineprof::partition_from_profile;
    let sel = partition_from_profile("results/engine_prof_pr7.json").unwrap_or_else(|| {
        // Tree without the committed capture: a synthetic ramp profile
        // keeps the parity claim under test.
        PartitionSel::Weighted {
            weights: (0..64u64).map(|j| 1 + j / 4).collect(),
            boundary_cost: (0..64u64).map(|j| j % 9).collect(),
        }
    });
    assert!(
        matches!(sel, PartitionSel::Weighted { .. }),
        "profile must produce a weighted partition"
    );
    let run = |engine, shards, partition| {
        elan_nic_barrier_flight(
            ElanParams::elan3(),
            16,
            Algorithm::Dissemination,
            RunCfg {
                partition,
                ..cfg(engine, shards)
            },
        )
    };
    let seq = run(EngineSel::Sequential, 1, PartitionSel::Contiguous);
    for shards in [3, 8] {
        let par = run(EngineSel::Parallel, shards, sel.clone());
        assert_parity(&format!("elan profile-guided shards={shards}"), &seq, &par);
    }
}

/// Which stores a partial-enablement case arms.
#[derive(Clone, Copy)]
struct Armed {
    trace: bool,
    recorder: bool,
    netdump: bool,
    ledger: bool,
}

const fn armed(trace: bool, recorder: bool, netdump: bool, ledger: bool) -> Armed {
    Armed {
        trace,
        recorder,
        netdump,
        ledger,
    }
}

const ALL_ON: Armed = armed(true, true, true, true);

const PARTIAL: [(&str, Armed); 5] = [
    ("trace-only", armed(true, false, false, false)),
    ("recorder-only", armed(false, true, false, false)),
    ("netdump-only", armed(false, false, true, false)),
    ("ledger-only", armed(false, false, false, true)),
    ("all-off", armed(false, false, false, false)),
];

fn arm<M: Send + 'static>(engine: &mut nicbar::sim::ExecEngine<M>, on: Armed, n: usize) {
    let records = engine.records_mut();
    if on.trace {
        records.trace.enable();
    }
    if on.recorder {
        records.recorder.enable();
        records.recorder.set_participants(n as u32);
    }
    if on.netdump {
        records.netdump.enable();
    }
    if on.ledger {
        records.ledger.enable();
    }
}

const PARTIAL_NODES: usize = 8;

/// Lossy gm NIC barrier with only the `on` stores armed.
fn gm_armed(on: Armed, engine: EngineSel, shards: usize) -> FlightData {
    use nicbar::core::{capture_observability, gm_nic_stats};
    let cfg = RunCfg {
        drop_prob: 0.02,
        ..cfg(engine, shards)
    };
    let mut c = build_gm_nic_cluster(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        PARTIAL_NODES,
        Algorithm::Dissemination,
        &cfg,
        false,
    );
    arm(&mut c.engine, on, PARTIAL_NODES);
    assert_eq!(c.run_until(cfg.deadline()), nicbar::sim::RunOutcome::Idle);
    let stats = gm_nic_stats(&c, PARTIAL_NODES, &cfg);
    capture_observability("gm", &c.engine, stats)
}

/// Elan NIC barrier with only the `on` stores armed.
fn elan_armed(on: Armed, engine: EngineSel, shards: usize) -> FlightData {
    use nicbar::core::{build_elan_nic_cluster, capture_observability, elan_nic_stats};
    let cfg = cfg(engine, shards);
    let mut c = build_elan_nic_cluster(
        ElanParams::elan3(),
        PARTIAL_NODES,
        Algorithm::Dissemination,
        &cfg,
        false,
    );
    arm(&mut c.engine, on, PARTIAL_NODES);
    assert_eq!(c.run_until(cfg.deadline()), nicbar::sim::RunOutcome::Idle);
    let stats = elan_nic_stats(&c, PARTIAL_NODES, &cfg);
    capture_observability("elan", &c.engine, stats)
}

/// One record path serves every store, so arming a subset must route each
/// record into its own store only — on both engines — and must not change
/// the run: a disabled netdump hands out no ids, yet the trace, spans and
/// ledger match the all-on run exactly.
#[test]
fn partially_armed_stores_match_sequential_and_stay_separate() {
    type Run = fn(Armed, EngineSel, usize) -> FlightData;
    let cases: [(&str, Run); 2] = [("gm", gm_armed), ("elan", elan_armed)];
    for (substrate, run) in cases {
        let all = run(ALL_ON, EngineSel::Sequential, 1);
        assert!(
            !all.records.is_empty()
                && !all.spans.is_empty()
                && !all.packets.is_empty()
                && !all.ledger.is_empty(),
            "{substrate}: the all-on run must fill every store"
        );
        for (label, on) in PARTIAL {
            let label = format!("{substrate} {label}");
            let seq = run(on, EngineSel::Sequential, 1);
            assert_parity(&label, &seq, &run(on, EngineSel::Parallel, 3));
            assert_eq!(
                format!("{:?}", seq.stats),
                format!("{:?}", all.stats),
                "{label}: arming stores changed the run"
            );
            let (trace, spans) = (&seq.records, &seq.spans);
            let (packets, ledger) = (&seq.packets, &seq.ledger);
            if on.trace {
                assert_eq!(trace, &all.records, "{label}: trace differs from all-on");
            } else {
                assert!(trace.is_empty() && seq.trace_dropped == 0, "{label}: trace");
            }
            if on.recorder {
                assert_eq!(spans, &all.spans, "{label}: spans differ from all-on");
                assert_eq!(format!("{:?}", seq.hists), format!("{:?}", all.hists));
            } else {
                assert!(
                    spans.is_empty() && seq.hists.is_empty() && seq.orphaned == 0,
                    "{label}: recorder"
                );
            }
            if on.netdump {
                assert_eq!(
                    packets, &all.packets,
                    "{label}: netdump differs from all-on"
                );
            } else {
                assert!(
                    packets.is_empty() && seq.packets_dropped == 0,
                    "{label}: netdump"
                );
            }
            if on.ledger {
                assert_eq!(ledger, &all.ledger, "{label}: ledger differs from all-on");
            } else {
                assert!(
                    ledger.is_empty() && seq.ledger_dropped == 0,
                    "{label}: ledger"
                );
            }
        }
    }
}
