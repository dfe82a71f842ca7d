//! Engine-throughput regression harness.
//!
//! Measures raw scheduler throughput (events/second) and end-to-end figure
//! wall time on **all three** event-queue implementations — the hot-path
//! timing wheel (default), the indexed 4-ary heap, and the classic
//! `BinaryHeap` baseline — and verifies that they produce bit-identical
//! simulation results while doing so. Writes `results/engine_sweep.json`.
//!
//! `--quick [--baseline PATH]` runs only the timing-wheel micro workloads
//! and compares their throughput against a previously saved
//! `results/engine_sweep.json`, exiting non-zero on a >5% geomean
//! regression. This is the observability zero-overhead gate: the recorder
//! and trace ring stay disabled, so any slowdown here is hot-path damage.
//! Quick mode never overwrites the baseline. Quick mode also prints an
//! informational mutex-vs-SPSC mailbox throughput comparison (the same
//! contrast `cargo bench -p nicbar-sim --bench mailbox` measures under
//! criterion) — reported, not gated, because cross-thread throughput on a
//! loaded CI box is too noisy for a hard threshold.

use crate::cli::Args;
use nicbar_bench::json::{Manifest, Writer};
use nicbar_bench::micro::{
    fanout_run, flows_run, ring_hop_run, seed_fanout_run, seed_flows_run, seed_ring_hop_run,
};
use nicbar_core::{elan_nic_barrier, gm_nic_barrier, Algorithm, RunCfg};
use nicbar_elan::ElanParams;
use nicbar_gm::{CollFeatures, GmParams};
use nicbar_sim::{EngineSel, SchedulerKind};
use std::time::Instant;

const REPEATS: usize = 5;

fn sweep_cfg(kind: SchedulerKind) -> RunCfg {
    RunCfg {
        warmup: 50,
        iters: 1000,
        scheduler: kind,
        ..RunCfg::default()
    }
}

fn fig5_run(kind: SchedulerKind) -> (f64, f64) {
    let start = Instant::now();
    let stats = gm_nic_barrier(
        GmParams::lanai_9_1(),
        CollFeatures::paper(),
        16,
        Algorithm::Dissemination,
        sweep_cfg(kind),
    );
    (stats.mean_us, start.elapsed().as_secs_f64())
}

/// The fig5 point under an explicit execution engine: simulated mean and
/// wall seconds.
fn fig5_engine_run(engine: EngineSel, shards: usize) -> (f64, f64) {
    // 5000 iterations ≈ 100 ms of wall per run: long enough that the
    // ±1 ms scheduling jitter of a shared single-CPU CI host cannot fake
    // a 5% overhead, short enough to keep the gate interactive.
    let cfg = RunCfg {
        warmup: 50,
        iters: 5000,
        engine,
        shards,
        ..RunCfg::default()
    };
    let start = Instant::now();
    let stats = gm_nic_barrier(
        GmParams::lanai_9_1(),
        CollFeatures::paper(),
        16,
        Algorithm::Dissemination,
        cfg,
    );
    (stats.mean_us, start.elapsed().as_secs_f64())
}

/// Time the fig5 point on the sequential engine and on the parallel engine
/// at one shard, and return the `(seq_wall_s, par_wall_s)` pair with the
/// best ratio. Each repeat times the two engines back to back and the
/// caller gates on the *best pair ratio* — host-load drift (a shared CI
/// box that slows down mid-gate) hits both halves of a pair equally, where
/// independent min-of-N on each side can charge one engine for a slow
/// phase the other never saw. Both engines must report the same simulated
/// latency.
pub fn best_one_shard_pair() -> (f64, f64) {
    const GATE_REPEATS: usize = 7;
    let mut best: Option<(f64, f64)> = None;
    // Alternate which engine goes first each repeat, so same-pair ordering
    // cannot systematically favor one side either.
    for r in 0..GATE_REPEATS {
        let (seq, par) = if r % 2 == 0 {
            let s = fig5_engine_run(EngineSel::Sequential, 1);
            let p = fig5_engine_run(EngineSel::Parallel, 1);
            (s, p)
        } else {
            let p = fig5_engine_run(EngineSel::Parallel, 1);
            let s = fig5_engine_run(EngineSel::Sequential, 1);
            (s, p)
        };
        assert_eq!(
            seq.0, par.0,
            "parallel engine at 1 shard changed the simulated latency"
        );
        if best.is_none_or(|(bs, bp)| par.1 / seq.1 < bp / bs) {
            best = Some((seq.1, par.1));
        }
    }
    best.expect("at least one repeat")
}

/// The parallel engine at one shard must be a cheap wrapper around the
/// sequential core: ≤5% wall-clock overhead on the fig5 figure point, by
/// [`best_one_shard_pair`]. Returns that pair for the JSON report.
fn parallel_one_shard_gate() -> (f64, f64) {
    let (seq_s, par_s) = best_one_shard_pair();
    let overhead = par_s / seq_s - 1.0;
    println!(
        "parallel 1-shard overhead on fig5_n16: sequential {seq_s:.3} s, parallel {par_s:.3} s ({:+.1}%)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.05,
        "parallel engine at 1 shard is {:.1}% slower than sequential (gate: 5%)",
        overhead * 100.0
    );
    println!("parallel 1-shard overhead within 5% ✓");
    (seq_s, par_s)
}

fn fig7_run(kind: SchedulerKind) -> (f64, f64) {
    let start = Instant::now();
    let stats = elan_nic_barrier(
        ElanParams::elan3(),
        8,
        Algorithm::Dissemination,
        sweep_cfg(kind),
    );
    (stats.mean_us, start.elapsed().as_secs_f64())
}

/// Best (fastest) of `REPEATS` timed runs; the events count must agree
/// across runs (the workload is deterministic).
fn best_of(run: impl Fn() -> (u64, f64)) -> (u64, f64) {
    let mut best: Option<(u64, f64)> = None;
    for _ in 0..REPEATS {
        let (events, secs) = run();
        best = match best {
            Some((e, s)) => {
                assert_eq!(e, events, "non-deterministic event count");
                Some((e, s.min(secs)))
            }
            None => Some((events, secs)),
        };
    }
    best.expect("REPEATS >= 1")
}

/// Per-scheduler micro-benchmark row: (scheduler name, events processed,
/// best seconds).
type MicroRow = (&'static str, u64, f64);
/// Per-scheduler figure row: (kind, simulated mean µs, best wall seconds).
type FigRow = (SchedulerKind, f64, f64);

fn kind_name(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::TimingWheel => "timing_wheel",
        SchedulerKind::Indexed4 => "indexed4",
        SchedulerKind::ClassicBinaryHeap => "classic_binary_heap",
    }
}

/// Pull `"key": "value"` out of one JSON object's text.
fn json_str<'a>(chunk: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = chunk.find(&pat)? + pat.len();
    let rest = &chunk[start..];
    Some(&rest[..rest.find('"')?])
}

/// Pull `"key": number` out of one JSON object's text.
fn json_num(chunk: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = chunk.find(&pat)? + pat.len();
    let rest = &chunk[start..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Timing-wheel micro rows `(workload, events_per_sec)` from a saved
/// `engine_sweep.json`. The writer emits one flat object per row, so a
/// split on `{` isolates each row's fields.
fn baseline_rows(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read baseline {path}: {e} (run the full sweep first)"));
    let mut rows = Vec::new();
    for chunk in text.split('{') {
        if json_str(chunk, "scheduler") != Some("timing_wheel") {
            continue;
        }
        if let (Some(wl), Some(eps)) = (
            json_str(chunk, "workload"),
            json_num(chunk, "events_per_sec"),
        ) {
            rows.push((wl.to_string(), eps));
        }
    }
    rows
}

/// `--quick` gate: timing-wheel micro throughput vs the saved baseline.
/// Exits 1 on a >5% geomean regression; never writes the baseline.
/// Cross-thread mailbox path, mutex vs SPSC ring — the contrast that
/// motivated replacing `Mutex<Vec>` mailboxes in the parallel engine.
/// Each producer thread pushes `items` u64s to the consumer; the mutex
/// variant shares one `Mutex<Vec>`, the ring variant gives each producer
/// its own [`nicbar_sim::SpscRing`] (the engine's per-pair topology).
/// Returns (mutex_secs, ring_secs). Informational only: wall-clock on a
/// shared box is too noisy to gate, and on a 1-core host both variants
/// degenerate to context-switch benchmarks.
fn mailbox_transfer(producers: usize, items: u64) -> (f64, f64) {
    use std::sync::Mutex;

    let mutex_secs = {
        let shared: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let start = Instant::now();
        std::thread::scope(|s| {
            for p in 0..producers {
                let shared = &shared;
                s.spawn(move || {
                    for i in 0..items {
                        shared.lock().expect("mailbox mutex").push(p as u64 ^ i);
                    }
                });
            }
            let total = producers as u64 * items;
            let mut received = 0u64;
            let mut drained = Vec::new();
            while received < total {
                {
                    let mut guard = shared.lock().expect("mailbox mutex");
                    std::mem::swap(&mut *guard, &mut drained);
                }
                received += drained.len() as u64;
                drained.clear();
                if received < total {
                    std::thread::yield_now();
                }
            }
        });
        start.elapsed().as_secs_f64()
    };

    let ring_secs = {
        let rings: Vec<nicbar_sim::SpscRing<u64>> = (0..producers)
            .map(|_| nicbar_sim::SpscRing::new(1024))
            .collect();
        let start = Instant::now();
        std::thread::scope(|s| {
            for (p, ring) in rings.iter().enumerate() {
                s.spawn(move || {
                    for i in 0..items {
                        let mut v = p as u64 ^ i;
                        while let Err(back) = ring.push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let total = producers as u64 * items;
            let mut received = 0u64;
            while received < total {
                let mut progressed = false;
                for ring in &rings {
                    while ring.pop().is_some() {
                        received += 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    std::thread::yield_now();
                }
            }
        });
        start.elapsed().as_secs_f64()
    };

    (mutex_secs, ring_secs)
}

/// Print the mutex-vs-ring mailbox comparison at 1, 2, 4, 8 producers.
/// Not a gate — see [`mailbox_transfer`].
fn mailbox_report() {
    const ITEMS: u64 = 50_000;
    println!("== mailbox path: Mutex<Vec> vs SpscRing (informational, not gated) ==\n");
    println!(
        "{:<10} {:>14} {:>14} {:>8}",
        "producers", "mutex Kops/s", "ring Kops/s", "ratio"
    );
    for producers in [1usize, 2, 4, 8] {
        let (mutex_s, ring_s) = mailbox_transfer(producers, ITEMS);
        let total = (producers as u64 * ITEMS) as f64;
        println!(
            "{producers:<10} {:>14.0} {:>14.0} {:>7.2}x",
            total / mutex_s / 1e3,
            total / ring_s / 1e3,
            mutex_s / ring_s
        );
    }
    println!();
}

fn quick_gate(baseline_path: &str) -> ! {
    const TOLERANCE: f64 = 0.95;
    let baseline = baseline_rows(baseline_path);
    assert!(
        !baseline.is_empty(),
        "no timing_wheel micro rows in {baseline_path}"
    );
    println!("== engine-sweep --quick: timing wheel vs {baseline_path} ==\n");
    // Each micro run lasts ~10 ms, so quick mode can afford many repeats;
    // taking the minimum over 25 runs filters out transient machine load
    // (noise only ever slows a run down, never speeds it up).
    const QUICK_REPEATS: usize = 25;
    type MicroRun = fn(SchedulerKind) -> (u64, f64);
    let runs: [(&str, MicroRun); 3] = [
        ("ring_hop", ring_hop_run),
        ("flows_64", flows_run),
        ("fanout", fanout_run),
    ];
    let mut ratios = Vec::new();
    for (label, run) in runs {
        let Some(&(_, base_eps)) = baseline.iter().find(|(wl, _)| wl == label) else {
            println!("{label:<10} not in baseline, skipped");
            continue;
        };
        let mut events = 0;
        let mut secs = f64::INFINITY;
        for _ in 0..QUICK_REPEATS {
            let (e, s) = run(SchedulerKind::TimingWheel);
            events = e;
            secs = secs.min(s);
        }
        let eps = events as f64 / secs;
        let ratio = eps / base_eps;
        println!(
            "{label:<10} {:>10.1} Kevents/s   baseline {:>10.1}   ratio {ratio:>5.3}",
            eps / 1e3,
            base_eps / 1e3
        );
        ratios.push(ratio);
    }
    assert!(!ratios.is_empty(), "no workloads matched the baseline");
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    println!("\ngeomean ratio: {geomean:.3} (gate: >= {TOLERANCE})");
    if geomean < TOLERANCE {
        eprintln!(
            "engine-sweep --quick: throughput regressed {:.1}% vs baseline",
            (1.0 - geomean) * 100.0
        );
        std::process::exit(1);
    }
    println!("engine-sweep --quick: within tolerance ✓\n");
    mailbox_report();
    parallel_one_shard_gate();
    std::process::exit(0);
}

pub fn run(args: &Args) {
    if args.quick {
        quick_gate(
            args.baseline
                .as_deref()
                .unwrap_or("results/engine_sweep.json"),
        );
    }

    let kinds = [
        SchedulerKind::TimingWheel,
        SchedulerKind::Indexed4,
        SchedulerKind::ClassicBinaryHeap,
    ];

    println!("== engine-sweep: scheduler throughput ==\n");
    // (workload, per-scheduler (events, best seconds)); the seed replica
    // rides along as the third row of each workload.
    let mut micro: Vec<(&str, Vec<MicroRow>)> = Vec::new();
    for (label, run, seed_run) in [
        (
            "ring_hop",
            ring_hop_run as fn(SchedulerKind) -> (u64, f64),
            seed_ring_hop_run as fn() -> (u64, f64),
        ),
        (
            "flows_64",
            flows_run as fn(SchedulerKind) -> (u64, f64),
            seed_flows_run as fn() -> (u64, f64),
        ),
        (
            "fanout",
            fanout_run as fn(SchedulerKind) -> (u64, f64),
            seed_fanout_run as fn() -> (u64, f64),
        ),
    ] {
        let mut rows = Vec::new();
        for kind in kinds {
            let (events, secs) = best_of(|| run(kind));
            rows.push((kind_name(kind), events, secs));
        }
        rows.push({
            let (events, secs) = best_of(seed_run);
            ("seed_binary_heap", events, secs)
        });
        for &(name, events, secs) in &rows {
            println!(
                "{label:<10} {name:<20} {events:>8} events  {:>10.1} Kevents/s",
                events as f64 / secs / 1e3
            );
        }
        assert!(
            rows.iter().all(|&(_, e, _)| e == rows[0].1),
            "{label}: event counts diverged across schedulers"
        );
        micro.push((label, rows));
    }

    println!("\n== engine-sweep: end-to-end figure points ==\n");
    // (figure point, per-kind (mean_us, best wall seconds))
    let mut figures: Vec<(&str, Vec<FigRow>)> = Vec::new();
    for (label, run) in [
        ("fig5_n16", fig5_run as fn(SchedulerKind) -> (f64, f64)),
        ("fig7_n8", fig7_run as fn(SchedulerKind) -> (f64, f64)),
    ] {
        let mut rows = Vec::new();
        for kind in kinds {
            let mut mean_us = f64::NAN;
            let mut best = f64::INFINITY;
            for _ in 0..REPEATS {
                let (us, secs) = run(kind);
                if !mean_us.is_nan() {
                    assert_eq!(us, mean_us, "{label}: non-deterministic latency");
                }
                mean_us = us;
                best = best.min(secs);
            }
            println!(
                "{label:<10} {:<20} mean {mean_us:>8.3} µs   wall {best:>7.3} s",
                kind_name(kind)
            );
            rows.push((kind, mean_us, best));
        }
        // Differential check: every scheduler must report the identical
        // simulated latency — same events, same order, same arithmetic.
        for row in &rows[1..] {
            assert_eq!(
                rows[0].1, row.1,
                "{label}: schedulers disagree on simulated latency"
            );
        }
        println!("{label:<10} latencies identical across schedulers ✓");
        figures.push((label, rows));
    }

    println!("\n== speedups (timing wheel vs baselines) ==\n");
    // Rows are ordered as `kinds` (wheel first, classic last), with the
    // seed replica appended on the micro workloads.
    let mut vs_classic: Vec<(&str, f64)> = Vec::new();
    let mut vs_seed: Vec<(&str, f64)> = Vec::new();
    let classic_row = kinds.len() - 1;
    for (label, rows) in &micro {
        let classic = rows[classic_row].2 / rows[0].2;
        let seed = rows[classic_row + 1].2 / rows[0].2;
        println!("{label:<10} vs classic {classic:>6.2}x   vs seed {seed:>6.2}x");
        vs_classic.push((label, classic));
        vs_seed.push((label, seed));
    }
    for (label, rows) in &figures {
        let s = rows[classic_row].2 / rows[0].2;
        println!("{label:<10} vs classic {s:>6.2}x");
        vs_classic.push((label, s));
    }
    let geomean_seed =
        (vs_seed.iter().map(|&(_, s)| s.ln()).sum::<f64>() / vs_seed.len() as f64).exp();
    println!("\nmicro geomean vs seed: {geomean_seed:.2}x\n");

    let (seq_wall, par1_wall) = parallel_one_shard_gate();

    let mut w = Writer::new();
    w.open_object();
    Manifest::new(
        nicbar_core::RunCfg::default().seed,
        "engine_sweep: scheduler micro-benchmarks + figure-point replays",
    )
    .emit(&mut w);
    w.field("micro");
    w.open_array();
    for (label, rows) in &micro {
        for &(name, events, secs) in rows {
            w.open_object();
            w.field("workload");
            w.string(label);
            w.field("scheduler");
            w.string(name);
            w.field("events");
            w.uint(events);
            w.field("seconds");
            w.number(secs);
            w.field("events_per_sec");
            w.number(events as f64 / secs);
            w.close_object();
        }
    }
    w.close_array();
    w.field("figures");
    w.open_array();
    for (label, rows) in &figures {
        for &(kind, mean_us, secs) in rows {
            w.open_object();
            w.field("point");
            w.string(label);
            w.field("scheduler");
            w.string(kind_name(kind));
            w.field("mean_us");
            w.number(mean_us);
            w.field("wall_seconds");
            w.number(secs);
            w.close_object();
        }
    }
    w.close_array();
    w.field("speedup_wheel_vs_classic");
    w.open_object();
    for (label, s) in &vs_classic {
        w.field(label);
        w.number(*s);
    }
    w.close_object();
    w.field("speedup_wheel_vs_seed");
    w.open_object();
    for (label, s) in &vs_seed {
        w.field(label);
        w.number(*s);
    }
    w.field("geomean");
    w.number(geomean_seed);
    w.close_object();
    w.field("parallel_one_shard");
    w.open_object();
    w.field("point");
    w.string("fig5_n16");
    w.field("sequential_wall_s");
    w.number(seq_wall);
    w.field("parallel_wall_s");
    w.number(par1_wall);
    w.field("overhead");
    w.number(par1_wall / seq_wall - 1.0);
    w.close_object();
    w.close_object();

    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/engine_sweep.json";
    std::fs::write(path, w.finish()).expect("write engine_sweep.json");
    println!("\n[saved {path}]");
}
