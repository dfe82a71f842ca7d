//! `why-slow` — explain where every nanosecond of a barrier goes.
//!
//! Runs a short instrumented window of the paper's NIC barrier with the
//! causal netdump on, extracts each barrier's critical path from the
//! packet DAG, and prints it edge by edge: host→NIC handoff, NIC compute,
//! wire time, port queuing, NACK/retransmission detours, plus the
//! per-rank completion slack and the aggregate attribution table.
//!
//! `--jsonl PATH` also dumps every packet record as JSONL; the first line
//! is a dump-level header carrying the dropped-record count, so consumers
//! can detect truncated dumps. `--check` is the gate mode: exit nonzero
//! unless every barrier has a non-empty critical path with >= 95% wall-time
//! coverage and the dump dropped zero records. `--replay PATH` skips the
//! simulation: it re-ingests a JSONL netdump (ours, or a `nicbar-verify
//! --trace-out` counterexample) and runs the analysis on it, exiting 1
//! naming the line of an unparseable record or of a record id that is not
//! strictly increasing.
//!
//! The header stamps which engine produced the run; everything below it is
//! byte-identical across engines and shard counts.

use crate::cli::Args;
use nicbar_bench::{critpath, flight, netdump};
use nicbar_core::{elan_nic_barrier_flight, gm_nic_barrier_flight, Algorithm, FlightData, RunCfg};
use nicbar_elan::ElanParams;
use nicbar_gm::{CollFeatures, GmParams};

/// Re-ingest an exported JSONL netdump and run the causal analysis on it.
/// Counterexample traces from `nicbar-verify` usually end *at* the violating
/// transition — before any barrier completes — so when no span closes, the
/// replay prints the causal chain to the last event instead of a critical
/// path.
fn replay(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: could not read {path}: {e}");
            return 1;
        }
    };
    let netdump::Dump { header, records } = match netdump::parse_dump(&text) {
        Ok(dump) => dump,
        Err(e) => {
            eprintln!("error: {path}:{e}");
            return 1;
        }
    };
    println!(
        "== why-slow --replay: {} records from {path} ==",
        records.len()
    );
    if let Some((expected, dropped)) = header {
        if dropped > 0 {
            eprintln!(
                "warning: this dump is TRUNCATED — the capture dropped {dropped} records; \
                 critical paths may hit holes"
            );
        }
        if expected != records.len() as u64 {
            eprintln!(
                "error: header promises {expected} records but the file has {}",
                records.len()
            );
            return 1;
        }
    }
    if records.is_empty() {
        eprintln!("error: trace is empty");
        return 1;
    }

    let mut kind_counts: Vec<(&'static str, usize)> = Vec::new();
    let mut detours = 0usize;
    for r in &records {
        match kind_counts.iter_mut().find(|(n, _)| *n == r.kind.name()) {
            Some((_, c)) => *c += 1,
            None => kind_counts.push((r.kind.name(), 1)),
        }
        detours += usize::from(r.kind.is_detour());
    }
    let counts: Vec<String> = kind_counts
        .iter()
        .map(|(n, c)| format!("{n} x{c}"))
        .collect();
    println!("events: {}", counts.join(", "));
    println!("detour events (nack/retransmit/drop): {detours}");

    let paths = critpath::analyze(&records);
    if paths.is_empty() {
        println!(
            "no completed barrier span in this trace (it ends at the violating \
             transition); causal chain to the final event:"
        );
        let last = records.last().expect("nonempty").id;
        for r in nicbar_sim::chain_to(&records, last) {
            println!(
                "  t={:>6}ns  node {:>2}  {}",
                r.time.as_ns(),
                if r.src == nicbar_sim::NO_NODE {
                    "-".to_string()
                } else {
                    r.src.to_string()
                },
                r.kind.name()
            );
        }
    } else {
        print!("{}", critpath::render(&paths));
    }
    0
}

pub fn run(args: &Args) {
    if let Some(path) = &args.replay {
        std::process::exit(replay(path));
    }
    let nodes = args.nodes.unwrap_or(8);
    let substrate = args.substrate.unwrap_or("gm");
    let (drop_prob, seed) = (args.drop, args.seed.unwrap_or(42));

    let cfg = RunCfg {
        warmup: 2,
        iters: args.iters.unwrap_or(4),
        seed,
        drop_prob,
        engine: args.engine,
        shards: args.shards.unwrap_or(1),
        ..RunCfg::default()
    };
    let cap: FlightData = match substrate {
        "gm" => gm_nic_barrier_flight(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            nodes,
            Algorithm::Dissemination,
            cfg,
        ),
        _ => elan_nic_barrier_flight(ElanParams::elan3(), nodes, Algorithm::Dissemination, cfg),
    };

    println!(
        "== why-slow: {} barrier, {} nodes, seed {}, drop {} ==",
        cap.substrate, nodes, seed, drop_prob
    );
    println!("engine: {}", flight::engine_stamp(&cap));
    println!(
        "netdump: {} records, {} dropped",
        cap.packets.len(),
        cap.packets_dropped
    );

    let paths = critpath::analyze(&cap.packets);
    print!("{}", critpath::render(&paths));

    if let Some(path) = &args.jsonl {
        let text = netdump::jsonl_with_header(&cap.packets, cap.packets_dropped);
        match std::fs::write(path, text) {
            Ok(()) => println!(
                "wrote {} packet records to {path} (header: {} dropped)",
                cap.packets.len(),
                cap.packets_dropped
            ),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if args.check {
        let mut failed = false;
        if paths.is_empty() {
            eprintln!("check FAILED: no completed barrier spans in the dump");
            failed = true;
        }
        if cap.packets_dropped > 0 {
            eprintln!(
                "check FAILED: netdump dropped {} records",
                cap.packets_dropped
            );
            failed = true;
        }
        for p in &paths {
            if p.edges.is_empty() {
                eprintln!(
                    "check FAILED: barrier (group {:#x}, seq {}) has an empty critical path",
                    p.group, p.seq
                );
                failed = true;
            }
            if p.coverage_pct() < 95.0 {
                eprintln!(
                    "check FAILED: barrier (group {:#x}, seq {}) coverage {:.1}% < 95%",
                    p.group,
                    p.seq,
                    p.coverage_pct()
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check OK: {} barriers, all critical paths non-empty with >= 95% coverage, \
             0 dropped records",
            paths.len()
        );
    }
}
