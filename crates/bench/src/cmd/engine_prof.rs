//! `engine-prof` — the parallel engine profiling itself.
//!
//! Arms the shard self-profiler ([`nicbar_sim::ShardProf`]) on a parallel
//! figure-scale barrier run and renders the three views of the capture:
//! the human `engine-prof` report (imbalance factor, cross-shard traffic,
//! window-efficiency percentiles, idle-time attribution), the Chrome-trace
//! shard-lane timeline (`--chrome PATH`), and the manifest-stamped
//! `results/engine_prof.json`.
//!
//! `--quick` is the CI smoke: 2 shards × 64 nodes instead of the full
//! 8 shards × 4096, and it never writes `results/`. `--check` is the gate
//! mode: assert the profile accounts for ≥95% of worker wall time and
//! (full mode only) that the *disabled* profiler keeps the one-shard engine
//! overhead within 2 percentage points of the committed
//! `results/engine_sweep.json` baseline, and that the bottleneck the
//! committed `results/engine_prof_pr7.json` capture named has a strictly
//! smaller share of lost time today. On failure the report's top
//! bottleneck attribution is printed before exiting non-zero.
//! `--shards`/`--nodes` override the run shape (shards clamp to the node
//! count — excess shards would sit empty yet pay every window barrier),
//! and `--partition profile=PATH` closes the loop by feeding a prior
//! capture back into the partitioner.

use crate::cli::Args;
use nicbar_bench::engineprof;
use nicbar_bench::json::Manifest;
use nicbar_core::{build_gm_nic_cluster, Algorithm, RunCfg};
use nicbar_gm::{CollFeatures, GmParams};
use nicbar_sim::{EngineProf, EngineSel, RunOutcome};
use std::time::Instant;

/// The profile must explain at least this fraction of worker wall time.
const ACCOUNTING_GATE: f64 = 0.95;
/// Allowed drift of the disabled-profiler one-shard overhead vs baseline.
const OVERHEAD_SLACK: f64 = 0.02;

/// Capture a profiled parallel run: build the cluster, arm the profiler,
/// run to the deadline, snapshot. Returns the profile and wall seconds.
fn capture(nodes: usize, shards: usize, cfg: &RunCfg) -> (EngineProf, f64) {
    let mut cluster = build_gm_nic_cluster(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        nodes,
        Algorithm::Dissemination,
        cfg,
        false,
    );
    cluster.engine.enable_prof();
    let start = Instant::now();
    let outcome = cluster.engine.run_until(cfg.deadline());
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(outcome, RunOutcome::Idle, "run hit the deadline, not idle");
    let prof = cluster
        .engine
        .prof_snapshot()
        .expect("parallel engine was built, profiler was armed");
    assert_eq!(
        prof.shards,
        shards.min(nodes),
        "builder clamps shards to nodes"
    );
    (prof, wall_s)
}

/// Disabled-path overhead gate: with the profiler never armed, the
/// parallel engine at one shard must stay within [`OVERHEAD_SLACK`] of the
/// committed baseline overhead, timed exactly as `engine-sweep` timed that
/// baseline (the fig5 point, best of paired back-to-back repeats).
fn disabled_overhead_gate() -> Result<(), String> {
    let baseline = engineprof::baseline_one_shard_overhead("results/engine_sweep.json");
    let Some(baseline) = baseline else {
        println!("no results/engine_sweep.json baseline; skipping overhead gate");
        return Ok(());
    };
    let (seq_s, par_s) = super::engine_sweep::best_one_shard_pair();
    let overhead = par_s / seq_s - 1.0;
    // The gate is against the committed baseline, floored at zero: a
    // baseline that happened to measure the parallel wrapper as *faster*
    // must not tighten the budget below "no regression + slack".
    let budget = baseline.max(0.0) + OVERHEAD_SLACK;
    println!(
        "profiler-disabled 1-shard overhead: {:+.2}% (baseline {:+.2}%, budget {:+.2}%)",
        overhead * 100.0,
        baseline * 100.0,
        budget * 100.0
    );
    if overhead > budget {
        return Err(format!(
            "disabled-profiler overhead {:+.2}% exceeds budget {:+.2}% — the \
             profiler hooks are not free when off",
            overhead * 100.0,
            budget * 100.0
        ));
    }
    println!(
        "profiler-disabled path within {:.0}% of baseline ✓",
        OVERHEAD_SLACK * 100.0
    );
    Ok(())
}

/// Bottleneck-delta gate: the bottleneck the committed PR-7 capture named
/// must hold a strictly smaller share of lost time in today's profile —
/// the check that this PR's adaptive lookahead / lock-free mailboxes /
/// profile-guided partition actually moved the number the profiler blamed.
fn bottleneck_delta_gate(prof: &EngineProf) -> Result<(), String> {
    const BASELINE: &str = "results/engine_prof_pr7.json";
    let Some((name, base_share)) = engineprof::baseline_bottleneck(BASELINE) else {
        println!("no {BASELINE} baseline; skipping bottleneck-delta gate");
        return Ok(());
    };
    let today = engineprof::bottleneck_share(prof, &name);
    println!(
        "'{name}' share of lost time: {:.1}% (committed baseline {:.1}%)",
        today * 100.0,
        base_share * 100.0
    );
    if today >= base_share {
        return Err(format!(
            "'{name}' still holds {:.1}% of lost time (baseline {:.1}%) — the \
             profile-guided loop did not shrink the named bottleneck",
            today * 100.0,
            base_share * 100.0
        ));
    }
    println!("named bottleneck's share shrank vs baseline ✓");
    Ok(())
}

/// Print the top idle-time attribution — the failure diagnosis `--check`
/// leaves behind so a red gate names its suspect.
fn print_attribution(prof: &EngineProf) {
    let att = prof.attribution();
    let (name, share) = att.dominant();
    eprintln!(
        "top bottleneck attribution: {name} ({:.1}% of lost time; \
         imbalance {} ns, lookahead stall {} ns, mailbox {} ns)",
        share * 100.0,
        att.imbalance_ns,
        att.stall_ns,
        att.mailbox_ns
    );
}

pub fn run(args: &Args) {
    let quick = args.quick;
    let nodes = args.nodes.unwrap_or(if quick { 64 } else { 4096 });
    let shards = args.shards.unwrap_or(if quick { 2 } else { 8 });
    // Excess shards would sit empty yet still pay every window barrier.
    let shards = shards.min(nodes);

    // Figure-scale iteration counts: at 4096 nodes a handful of barrier
    // iterations already runs millions of events per shard, which is what
    // the profiler needs — statistics over windows, not over iterations.
    let cfg = RunCfg {
        warmup: 2,
        iters: if quick { 30 } else { 8 },
        engine: EngineSel::Parallel,
        shards,
        partition: args.partition.clone(),
        ..RunCfg::default()
    };
    let label = format!("gm NIC-DS, {nodes} nodes");
    println!("== engine-prof: profiling {label}, {shards} shards ==\n");
    let (prof, wall_s) = capture(nodes, shards, &cfg);
    print!("{}", engineprof::report(&prof, &label, wall_s));

    if let Some(path) = &args.chrome {
        std::fs::write(path, engineprof::chrome_trace(&prof)).expect("write chrome trace");
        println!("\n[saved {path}]");
    }

    if !quick {
        let manifest = Manifest::new(
            cfg.seed,
            format!("engine_prof: {label}, {shards} shards, {} iters", cfg.iters),
        );
        std::fs::create_dir_all("results").expect("create results/");
        let path = "results/engine_prof.json";
        std::fs::write(path, engineprof::to_json(&prof, &label, wall_s, &manifest))
            .expect("write engine_prof.json");
        println!("\n[saved {path}]");
    }

    if !args.check {
        return;
    }

    println!("\n== engine-prof --check ==\n");
    let accounted = prof.accounted_fraction();
    println!(
        "wall accounting: {:.1}% of worker wall time (gate: >= {:.0}%)",
        accounted * 100.0,
        ACCOUNTING_GATE * 100.0
    );
    if accounted < ACCOUNTING_GATE {
        eprintln!(
            "engine-prof --check: profile accounts for only {:.1}% of worker wall time",
            accounted * 100.0
        );
        print_attribution(&prof);
        std::process::exit(1);
    }
    let (dom, dom_share) = prof.attribution().dominant();
    println!(
        "dominant bottleneck: {dom} ({:.1}% of lost time)",
        dom_share * 100.0
    );

    if !quick {
        if let Err(msg) = bottleneck_delta_gate(&prof) {
            eprintln!("engine-prof --check: {msg}");
            print_attribution(&prof);
            std::process::exit(1);
        }
        if let Err(msg) = disabled_overhead_gate() {
            eprintln!("engine-prof --check: {msg}");
            print_attribution(&prof);
            std::process::exit(1);
        }
    }
    println!("\nengine-prof --check: all gates passed ✓");
}
