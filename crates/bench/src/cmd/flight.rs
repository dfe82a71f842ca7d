//! Flight-recorder capture of the paper's NIC barrier on both substrates.
//!
//! Runs a short instrumented window (2 warm-up + 8 recorded barriers) of
//! the NIC barrier (4 nodes unless `--nodes`) over Quadrics/Elan3 and
//! GM/Myrinet (`--gm-only`/`--elan-only` pick one) with the trace
//! ring and flight recorder on, then prints the per-phase latency breakdown
//! for each capture. With `--chrome <path>` it also writes both captures as
//! Chrome trace-event JSON (open in Perfetto or `chrome://tracing`).
//!
//! Each breakdown stamps which engine produced it; everything else is
//! byte-identical across engines and shard counts.

use crate::cli::Args;
use nicbar_bench::flight::{breakdown, chrome_trace};
use nicbar_core::{elan_nic_barrier_flight, gm_nic_barrier_flight, Algorithm, FlightData, RunCfg};
use nicbar_elan::ElanParams;
use nicbar_gm::{CollFeatures, GmParams};

pub fn run(args: &Args) {
    let nodes = args.nodes.unwrap_or(4);
    // A short window: the point is a readable trace, not tight statistics.
    let cfg = RunCfg {
        warmup: 2,
        iters: 8,
        engine: args.engine,
        shards: args.shards.unwrap_or(1),
        ..RunCfg::default()
    };

    let mut captures: Vec<FlightData> = Vec::new();
    if !args.gm_only {
        captures.push(elan_nic_barrier_flight(
            ElanParams::elan3(),
            nodes,
            Algorithm::Dissemination,
            cfg.clone(),
        ));
    }
    if !args.elan_only {
        captures.push(gm_nic_barrier_flight(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            nodes,
            Algorithm::Dissemination,
            cfg,
        ));
    }

    for cap in &captures {
        print!("{}", breakdown(cap));
        println!();
    }

    if let Some(path) = &args.chrome {
        let json = chrome_trace(&captures);
        std::fs::write(path, json).expect("write Chrome trace");
        println!("[saved {path}]");
    }
}
