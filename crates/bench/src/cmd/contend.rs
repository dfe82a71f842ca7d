//! Contention scenario: M overlapping barrier groups plus background bulk
//! traffic over shared NICs, with the resource-occupancy ledger armed —
//! the interference-attribution companion of `why-slow`.
//!
//! Every wait on the critical path of every barrier is attributed to the
//! owner that held the contended resource meanwhile (same group, rival
//! group, bulk traffic, or fabric overhead), and the report names the top
//! interferer. Runs the scenario on both substrates (gm and elan) and on
//! both execution engines; the flight captures must be byte-identical
//! across engines modulo the engine stamp.
//!
//! Writes `results/contend.json` (full runs) and appends to
//! `BENCH_contend.json` (always). `--check` gates: zero dropped ledger
//! records, ≥95% of critical-path wait time attributed to a named owner, a
//! named top interferer, and sequential/parallel byte-parity.

use crate::cli::Args;
use nicbar_bench::critpath::{self, Interference};
use nicbar_bench::{json::Writer, trajectory, Manifest};
use nicbar_core::{
    elan_contend_flight, gm_contend_flight, Algorithm, FlightData, RunCfg, TrafficCfg,
    CONTEND_GROUP_BASE,
};
use nicbar_elan::ElanParams;
use nicbar_gm::{CollFeatures, GmParams};
use nicbar_sim::EngineSel;

/// Byte-exact projection of a capture, minus the engine stamp (the one
/// intentional difference between engines).
fn witness(f: &FlightData) -> String {
    format!(
        "substrate={}\nrecords={:?}\ntrace_dropped={}\nspans={:?}\nspans_dropped={}\norphaned={}\nhists={:?}\nstats={:?}\npackets={:?}\npackets_dropped={}\nledger={:?}\nledger_dropped={}\n",
        f.substrate,
        f.records,
        f.trace_dropped,
        f.spans,
        f.spans_dropped,
        f.orphaned,
        f.hists,
        f.stats,
        f.packets,
        f.packets_dropped,
        f.ledger,
        f.ledger_dropped,
    )
}

struct SubstrateReport {
    substrate: &'static str,
    flight: FlightData,
    summary: Interference,
    per_path: Vec<Interference>,
}

fn run_substrate(
    substrate: &'static str,
    n: usize,
    groups: usize,
    cfg: RunCfg,
    traffic: TrafficCfg,
    shards: usize,
    check: bool,
) -> SubstrateReport {
    let run = |engine: EngineSel, shards: usize| -> FlightData {
        let cfg = RunCfg {
            engine,
            shards,
            ..cfg.clone()
        };
        match substrate {
            "gm" => gm_contend_flight(
                GmParams::lanai_xp(),
                CollFeatures::paper(),
                n,
                groups,
                Algorithm::Dissemination,
                cfg.clone(),
                traffic,
            ),
            _ => elan_contend_flight(
                ElanParams::elan3(),
                n,
                groups,
                Algorithm::Dissemination,
                cfg.clone(),
                traffic,
            ),
        }
    };
    let seq = run(EngineSel::Sequential, 1);
    let par = run(EngineSel::Parallel, shards);
    assert_eq!(seq.engine, "sequential");
    assert_eq!(par.engine, "parallel");
    let (a, b) = (witness(&seq), witness(&par));
    if a != b {
        let at = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.len().min(b.len()));
        let lo = at.saturating_sub(120);
        eprintln!(
            "contend: {substrate} parallel({shards}) diverges from sequential at byte {at}\n\
             sequential: ...{}\nparallel:   ...{}",
            &a[lo..(at + 120).min(a.len())],
            &b[lo..(at + 120).min(b.len())],
        );
        if check {
            std::process::exit(1);
        }
    } else {
        println!("contend: {substrate} sequential/parallel({shards}) byte-identical");
    }

    // Attribute interference on the contend groups only (the analyzer sees
    // every keyed span in the dump).
    let paths: Vec<_> = critpath::analyze(&seq.packets)
        .into_iter()
        .filter(|p| {
            (u64::from(CONTEND_GROUP_BASE)..u64::from(CONTEND_GROUP_BASE) + groups as u64)
                .contains(&p.group)
        })
        .collect();
    let per_path = critpath::interference(&paths, &seq.ledger);
    let summary = critpath::interference_summary(&per_path);

    println!(
        "\n== contend [{substrate}]: {n} nodes, {groups} groups, traffic {}x{}B, {} barriers ==",
        traffic.outstanding,
        traffic.msg_bytes,
        paths.len()
    );
    println!(
        "mean barrier latency {:.2} µs; ledger {} records ({} dropped)",
        seq.stats.mean_us,
        seq.ledger.len(),
        seq.ledger_dropped
    );
    print!("{}", critpath::render_interference(&per_path));

    if check {
        let mut ok = true;
        if seq.ledger_dropped > 0 {
            eprintln!(
                "contend: {substrate} dropped {} ledger records",
                seq.ledger_dropped
            );
            ok = false;
        }
        if paths.is_empty() {
            eprintln!("contend: {substrate} produced no analyzable barrier spans");
            ok = false;
        }
        if summary.attributed_pct() < 95.0 {
            eprintln!(
                "contend: {substrate} attributed only {:.1}% of critical-path wait time (< 95%)",
                summary.attributed_pct()
            );
            ok = false;
        }
        if summary.top().is_none() {
            eprintln!("contend: {substrate} named no top interferer");
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "contend: {substrate} check OK ({:.1}% attributed, top: {})",
            summary.attributed_pct(),
            summary
                .top()
                .map(|(o, _)| o.label())
                .unwrap_or_else(|| "none".into())
        );
    }

    SubstrateReport {
        substrate,
        flight: seq,
        summary,
        per_path,
    }
}

fn artifact_json(reports: &[SubstrateReport], n: usize, groups: usize, m: &Manifest) -> String {
    let mut w = Writer::new();
    w.open_object();
    w.field("id");
    w.string("contend");
    m.emit(&mut w);
    w.field("nodes");
    w.uint(n as u64);
    w.field("groups");
    w.uint(groups as u64);
    w.field("substrates");
    w.open_array();
    for r in reports {
        let s = &r.summary;
        w.open_object();
        w.field("substrate");
        w.string(r.substrate);
        w.field("mean_us");
        w.number(r.flight.stats.mean_us);
        w.field("barriers");
        w.uint(r.per_path.len() as u64);
        w.field("ledger_records");
        w.uint(r.flight.ledger.len() as u64);
        w.field("wait_us");
        w.number(s.wait_total.as_us());
        w.field("self_us");
        w.number(s.self_time.as_us());
        w.field("other_group_us");
        w.number(s.other_group.as_us());
        w.field("traffic_us");
        w.number(s.traffic.as_us());
        w.field("fabric_us");
        w.number(s.fabric.as_us());
        w.field("unattributed_us");
        w.number(s.unattributed.as_us());
        w.field("attributed_pct");
        w.number(s.attributed_pct());
        w.field("top_interferer");
        match s.top() {
            Some((o, t)) => {
                w.string(&o.label());
                w.field("top_held_us");
                w.number(t.as_us());
            }
            None => w.string("none"),
        }
        w.close_object();
    }
    w.close_array();
    w.close_object();
    w.finish()
}

pub fn run(args: &Args) {
    let check = args.check;
    let base = args.run_cfg();
    let shards = base.shards.max(2);
    // The contend run keeps every observability stream on (the ledger
    // records every NIC charge), so the epoch counts stay deliberately
    // small; `--quick` shrinks them further for the CI smoke.
    let (n, groups, cfg) = if args.quick {
        (
            6,
            2,
            RunCfg {
                warmup: 2,
                iters: 8,
                skew_us: 1.0,
                ..base
            },
        )
    } else {
        (
            8,
            3,
            RunCfg {
                warmup: 5,
                iters: 24,
                skew_us: 1.0,
                ..base
            },
        )
    };
    let traffic = TrafficCfg {
        msg_bytes: 4096,
        outstanding: 2,
    };

    let reports: Vec<SubstrateReport> = ["gm", "elan"]
        .into_iter()
        .map(|s| run_substrate(s, n, groups, cfg.clone(), traffic, shards, check))
        .collect();

    let manifest = Manifest::new(
        cfg.seed,
        format!(
            "contend n={n}, groups={groups}, traffic={}x{}B, warmup={}, iters={}, shards={}, quick={}",
            traffic.outstanding, traffic.msg_bytes, cfg.warmup, cfg.iters, shards, args.quick
        ),
    );

    // Quick (CI) runs refresh the BENCH trajectory but must not downgrade
    // the tracked full-fidelity artifact.
    if !args.quick {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir).expect("create results/");
        let path = dir.join("contend.json");
        std::fs::write(&path, artifact_json(&reports, n, groups, &manifest))
            .expect("write results/contend.json");
        println!("[saved {}]", path.display());
    }

    let traj: Vec<(&str, Vec<trajectory::TrajectoryPoint>)> = reports
        .iter()
        .map(|r| (r.substrate, vec![trajectory::point(n, &r.flight.stats)]))
        .collect();
    trajectory::save("contend", &traj, &manifest).expect("write BENCH_contend.json");
}
