//! The workloads, their untraced measurement loop and the correctness
//! oracle.
//!
//! Every workload is a closed loop: each simulated process re-enters the
//! barrier as soon as its previous one completes (the paper's §8 tight
//! loop), and the benchmark starts the next round only after the previous
//! round's results are harvested and checked.

use crate::golden;
use crate::scen::{catch, Cluster, Kind, Outputs, Scenario, Timing, CONTEND_GROUPS};
use nicbar_bench::critpath;
use nicbar_core::{
    Algorithm, GroupSpec, PaperCollective, RunCfg, BARRIER_GROUP, CONTEND_GROUP_BASE,
};
use nicbar_net::NodeId;
use nicbar_sim::SimTime;
use nicbar_verify::{explore, Config as VerifyConfig, Outcome, Substrate};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["paper8", "scale16k", "contend256", "verify4"];

/// The seed whose simulated outputs are pinned in [`golden`].
pub const GOLDEN_SEED: u64 = 42;

/// Workloads whose simulated outputs do not depend on the seed (paper8's
/// lossless tight loop, the model checker): pinned values hold for every
/// seed.
const SEED_FREE: &[&str] = &["paper8", "verify4"];

/// Minimum cluster constructions per run, so `setup_s` is always a median.
const MIN_SETUPS: usize = 5;

/// Timed constructions of the model checker's initial engines.
const VERIFY_SETUPS: usize = 2001;

fn cfg(seed: u64, warmup: u64, iters: u64, permute: bool) -> RunCfg {
    RunCfg {
        warmup,
        iters,
        seed,
        permute,
        ..RunCfg::default()
    }
}

/// The cluster scenarios one round of `workload` runs. `tiny` shrinks
/// sizes and epoch counts for the self-test; the structure is unchanged.
pub fn scenarios(workload: &str, seed: u64, tiny: bool) -> Vec<Scenario> {
    let sc = |kind, n, cfg| Scenario {
        kind,
        n,
        cfg,
        observe: false,
    };
    match workload {
        "paper8" => {
            // Identity placement, as in the paper's figures: with no skew and
            // no loss the run does not depend on the seed.
            let c = cfg(seed, 100, if tiny { 200 } else { 20_000 }, false);
            vec![
                sc(Kind::GmNic, 8, c.clone()),
                sc(Kind::GmHost, 8, c.clone()),
                sc(Kind::ElanNic, 8, c.clone()),
                sc(Kind::ElanGsync, 8, c),
            ]
        }
        "scale16k" => {
            let n = if tiny { 256 } else { 16_384 };
            let c = cfg(seed, 1, 1, true);
            vec![sc(Kind::GmNic, n, c.clone()), sc(Kind::ElanNic, n, c)]
        }
        "contend256" => {
            let n = if tiny { 16 } else { 256 };
            let c = RunCfg {
                skew_us: 1.0,
                ..cfg(seed, 2, if tiny { 4 } else { 10 }, false)
            };
            [Kind::GmContend, Kind::ElanContend]
                .map(|k| Scenario {
                    observe: true,
                    ..sc(k, n, c.clone())
                })
                .to_vec()
        }
        "verify4" => Vec::new(),
        other => panic!("unknown workload {other}"),
    }
}

/// The model-checker configuration of `verify4` (`tiny`: the two-node,
/// two-epoch proof).
pub fn verify_config(tiny: bool) -> VerifyConfig {
    VerifyConfig {
        nodes: if tiny { 2 } else { 4 },
        algo: Algorithm::Dissemination,
        substrate: Substrate::Gm,
        epochs: if tiny { 2 } else { 1 },
        window: if tiny { 0 } else { 2 },
        max_states: 2_000_000,
        faults: if tiny { None } else { Some(2) },
        fault: None,
    }
}

/// The critical-path analysis of one contend capture.
#[derive(Clone, Copy, Debug, Default)]
pub struct Critpath {
    /// Host seconds in `critpath::analyze`.
    pub analyze_s: f64,
    /// Host seconds in `critpath::interference` (+ summary).
    pub interference_s: f64,
    /// Barrier paths analysed on the contend groups.
    pub paths: u64,
    /// Share of critical-path wait time attributed to a named owner.
    pub attributed_share: f64,
}

/// One model-checker run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verify {
    /// Host seconds in `explore`.
    pub secs: f64,
    /// Distinct states.
    pub states: u64,
    /// Transitions executed.
    pub transitions: u64,
}

/// Everything one round measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Per-scenario host time, in scenario order.
    pub timing: Vec<Timing>,
    /// Per-scenario simulated outputs, in scenario order.
    pub outputs: Vec<Outputs>,
    /// Critical-path analysis of each contend scenario.
    pub critpath: Vec<Critpath>,
    /// The model-checker run (verify4).
    pub verify: Option<Verify>,
}

impl Round {
    /// Host seconds from first event to checked results.
    pub fn run_s(&self) -> f64 {
        self.timing.iter().map(Timing::run_s).sum::<f64>()
            + self
                .critpath
                .iter()
                .map(|c| c.analyze_s + c.interference_s)
                .sum::<f64>()
            + self.verify.map_or(0.0, |v| v.secs)
    }

    /// Simulated events (model-checker transitions on verify4) per host
    /// second spent executing them.
    pub fn events_per_s(&self) -> f64 {
        match self.verify {
            Some(v) => v.transitions as f64 / v.secs,
            None => {
                let events: u64 = self.outputs.iter().map(|o| o.events).sum();
                let secs: f64 = self.timing.iter().map(|t| t.engine_s).sum();
                events as f64 / secs
            }
        }
    }
}

/// Build the model checker's initial engines the way `explore` does: one
/// `PaperCollective` per node of a `nodes`-member barrier group.
pub fn verify_initial(cfg: &VerifyConfig) -> Vec<PaperCollective> {
    let members: Vec<NodeId> = (0..cfg.nodes).map(NodeId).collect();
    (0..cfg.nodes)
        .map(|rank| {
            PaperCollective::new(
                members[rank],
                vec![GroupSpec::barrier(
                    nicbar_verify::GROUP,
                    members.clone(),
                    rank,
                    cfg.algo,
                    SimTime::from_ns(nicbar_verify::TIMEOUT_NS),
                )],
            )
        })
        .collect()
}

/// Host seconds to construct the model checker's initial engines: the
/// median of many single constructions, each a few microseconds.
pub fn verify_setup_s(cfg: &VerifyConfig) -> f64 {
    // Keep every state until the end: freeing each one right away lets the
    // allocator hand memory back and forth with the kernel, which made the
    // timing depend on the heap layout of the process.
    let mut kept = Vec::with_capacity(VERIFY_SETUPS);
    let samples: Vec<f64> = (0..VERIFY_SETUPS)
        .map(|_| {
            let t = Instant::now();
            kept.push(std::hint::black_box(verify_initial(cfg)));
            t.elapsed().as_secs_f64()
        })
        .collect();
    drop(kept);
    crate::median(&samples)
}

/// Run the model checker once and check its verdict.
pub fn run_verify(cfg: &VerifyConfig) -> Result<Verify, String> {
    let t = Instant::now();
    let report = catch(|| explore(cfg))?;
    let secs = t.elapsed().as_secs_f64();
    if report.truncated {
        return Err(format!(
            "model checker truncated at {} states",
            report.explored
        ));
    }
    if !matches!(report.outcome, Outcome::Ok) {
        return Err(format!("model checker verdict: {}", report.outcome.name()));
    }
    Ok(Verify {
        secs,
        states: report.explored as u64,
        transitions: report.transitions as u64,
    })
}

/// Critical-path analysis of a finished cluster's netdump and ledger: the
/// contend groups of a contend run, the barrier group otherwise. Every
/// analysed path must attribute at least 95% of its wait time, and a
/// contend run must name a top interferer.
pub fn analyze(c: &Cluster, kind: Kind) -> Result<Critpath, String> {
    let (packets, ledger) = match c {
        Cluster::Gm(g) => (g.engine.netdump().records(), g.engine.ledger().records()),
        Cluster::Elan(e) => (e.engine.netdump().records(), e.engine.ledger().records()),
    };
    let contend = kind.contend();
    let groups = if contend {
        u64::from(CONTEND_GROUP_BASE)..u64::from(CONTEND_GROUP_BASE) + CONTEND_GROUPS as u64
    } else {
        u64::from(BARRIER_GROUP.0)..u64::from(BARRIER_GROUP.0) + 1
    };
    let t0 = Instant::now();
    let paths: Vec<_> = critpath::analyze(packets)
        .into_iter()
        .filter(|p| groups.contains(&p.group))
        .collect();
    let analyze_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let per_path = critpath::interference(&paths, ledger);
    let summary = critpath::interference_summary(&per_path);
    let interference_s = t1.elapsed().as_secs_f64();
    if paths.is_empty() {
        return Err(format!("{}: no analyzable barrier paths", kind.label()));
    }
    let attributed_share = summary.attributed_pct() / 100.0;
    if attributed_share < 0.95 {
        return Err(format!(
            "{}: only {:.1}% of critical-path wait attributed (< 95%)",
            kind.label(),
            attributed_share * 100.0
        ));
    }
    if contend && summary.top().is_none() {
        return Err(format!("{}: no top interferer named", kind.label()));
    }
    Ok(Critpath {
        analyze_s,
        interference_s,
        paths: paths.len() as u64,
        attributed_share,
    })
}

/// Run one round of `workload`: every scenario once (plus the contend
/// analysis or the model checker), each checked by [`check_outputs`].
pub fn round(workload: &str, scens: &[Scenario], vcfg: &VerifyConfig) -> Result<Round, String> {
    let mut r = Round::default();
    if workload == "verify4" {
        r.verify = Some(run_verify(vcfg)?);
        return Ok(r);
    }
    for s in scens {
        let (c, out, timing) = s.run(None)?;
        if s.kind.contend() {
            r.critpath.push(analyze(&c, s.kind)?);
        }
        drop(c);
        if out.stores.dropped() > 0 {
            return Err(format!(
                "{} dropped {} records",
                s.kind.label(),
                out.stores.dropped()
            ));
        }
        r.timing.push(timing);
        r.outputs.push(out);
    }
    Ok(r)
}

/// Check a round's simulated outputs: identical to the first round of the
/// run (the simulator is deterministic), and identical to the pinned values
/// when the seed is the golden seed.
pub fn check_outputs(
    workload: &str,
    seed: u64,
    tiny: bool,
    scens: &[Scenario],
    first: &Round,
    r: &Round,
) -> Result<(), String> {
    for (i, s) in scens.iter().enumerate() {
        if r.outputs[i] != first.outputs[i] {
            return Err(format!(
                "{}: outputs differ between rounds of one run",
                s.kind.label()
            ));
        }
    }
    if let (Some(a), Some(b)) = (first.verify, r.verify) {
        if (a.states, a.transitions) != (b.states, b.transitions) {
            return Err("model checker state counts differ between rounds".into());
        }
    }
    if seed != GOLDEN_SEED && !SEED_FREE.contains(&workload) {
        return Ok(());
    }
    golden::check(workload, tiny, &golden_rows(scens, r))
}

/// The values of a round that [`golden`] pins.
pub fn golden_rows(scens: &[Scenario], r: &Round) -> Vec<golden::Row> {
    scens
        .iter()
        .zip(&r.outputs)
        .map(|(s, o)| golden::Row {
            label: s.kind.label(),
            mean_us: o.mean_us,
            events: o.events,
            wire_per_barrier: o.wire_per_barrier,
        })
        .chain(r.verify.map(|v| golden::Row {
            label: "verify",
            mean_us: 0.0,
            events: v.states,
            wire_per_barrier: v.transitions as f64,
        }))
        .collect()
}

/// Everything an untraced run collected.
pub struct Run {
    /// The scenarios each round ran.
    pub scens: Vec<Scenario>,
    /// Rounds that passed every check.
    pub rounds: Vec<Round>,
    /// Per-scenario construction times, one list per scenario.
    pub setups: Vec<Vec<f64>>,
    /// Operations attempted / failed.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Why operations failed.
    pub errors: Vec<String>,
}

impl Run {
    /// Median construction time per scenario, summed over the scenarios of
    /// a round (the model checker's initial engines on verify4).
    pub fn setup_s(&self) -> f64 {
        self.setups.iter().map(|s| crate::median(s)).sum()
    }
}

/// Repeat rounds of `workload` for `seconds` (at least one round), check
/// each, then top up construction samples so `setup_s` is a median.
pub fn run_rounds(workload: &str, seed: u64, seconds: f64, tiny: bool) -> Run {
    let scens = scenarios(workload, seed, tiny);
    let vcfg = verify_config(tiny);
    let ops_per_round = (scens.len()
        + scens.iter().filter(|s| s.kind.contend()).count()
        + usize::from(workload == "verify4")) as u64;
    let mut run = Run {
        setups: vec![Vec::new(); scens.len().max(1)],
        scens,
        rounds: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    if workload == "verify4" {
        // Before any exploration, so every sample sees the same fresh heap.
        run.setups[0] = vec![verify_setup_s(&vcfg)];
    }
    let start = Instant::now();
    loop {
        let r = round(workload, &run.scens, &vcfg).and_then(|r| {
            let first = run.rounds.first().unwrap_or(&r);
            check_outputs(workload, seed, tiny, &run.scens, first, &r)?;
            Ok(r)
        });
        run.attempted += ops_per_round;
        match r {
            Ok(r) => {
                for (i, t) in r.timing.iter().enumerate() {
                    run.setups[i].push(t.setup_s);
                }
                run.rounds.push(r);
            }
            Err(e) => {
                run.failed += 1;
                run.errors.push(e);
                break;
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    // Top up construction samples so each is a median of several.
    for (s, samples) in run.scens.iter().zip(&mut run.setups) {
        while run.failed == 0 && samples.len() < MIN_SETUPS {
            let t = Instant::now();
            match catch(|| s.build()) {
                Ok(c) => {
                    samples.push(t.elapsed().as_secs_f64());
                    drop(c);
                }
                Err(e) => {
                    run.failed += 1;
                    run.errors.push(e);
                }
            }
        }
    }
    run
}

/// Paper values the simulator reproduces (informational, never gated):
/// 8-node barrier latency and improvement factor over the host-based or
/// Elanlib baseline, on Myrinet LANai-XP and on Quadrics Elan3.
const PAPER_GM_US: f64 = 14.20;
const PAPER_GM_FACTOR: f64 = 2.64;
const PAPER_ELAN_US: f64 = 5.60;
const PAPER_ELAN_FACTOR: f64 = 2.48;

fn accuracy_lines(o: &[Outputs]) -> Vec<String> {
    let line = |what: &str, sim: f64, paper: f64, unit: &str| {
        format!(
            "accuracy {what:<34} simulated {sim:>7.2}{unit} paper {paper:>6.2}{unit} error {:+6.1}%",
            (sim - paper) / paper * 100.0
        )
    };
    vec![
        line(
            "myrinet-xp nic-ds 8 nodes",
            o[0].mean_us,
            PAPER_GM_US,
            " us",
        ),
        line(
            "myrinet-xp nic/host factor",
            o[1].mean_us / o[0].mean_us,
            PAPER_GM_FACTOR,
            "x",
        ),
        line(
            "quadrics-elan3 nic-ds 8 nodes",
            o[2].mean_us,
            PAPER_ELAN_US,
            " us",
        ),
        line(
            "quadrics-elan3 nic/gsync factor",
            o[3].mean_us / o[2].mean_us,
            PAPER_ELAN_FACTOR,
            "x",
        ),
    ]
}

/// The untraced run: end-to-end metrics.
pub fn measure(workload: &str, seed: u64, seconds: f64, tiny: bool) -> crate::Outcome {
    use crate::{median, metric};
    let run = run_rounds(workload, seed, seconds, tiny);
    let mut out = crate::Outcome {
        attempted: run.attempted,
        failed: run.failed,
        ..Default::default()
    };
    for e in &run.errors {
        out.lines.push(format!("FAILED: {e}"));
    }
    if run.rounds.is_empty() {
        return out;
    }
    let col = |f: fn(&Round) -> f64| run.rounds.iter().map(f).collect::<Vec<f64>>();
    out.lines.push(format!(
        "rounds {} (each: {}); setup samples per scenario {}",
        run.rounds.len(),
        describe(workload, &run.scens, tiny),
        run.setups.iter().map(Vec::len).min().unwrap_or(0)
    ));
    for (s, o) in run.scens.iter().zip(&run.rounds[0].outputs) {
        let st = o.stores;
        out.lines.push(format!(
            "output {:<12} mean {:.4} us  events {}  wire/barrier {:.3}  records trace {} span {} \
             causal {} ledger {} (dropped {})",
            s.kind.label(),
            o.mean_us,
            o.events,
            o.wire_per_barrier,
            st.trace.0,
            st.span.0,
            st.causal.0,
            st.ledger.0,
            st.dropped()
        ));
    }
    out.lines.push(format!(
        "round run_s: {}",
        col(Round::run_s)
            .iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if workload == "paper8" {
        out.lines.extend(accuracy_lines(&run.rounds[0].outputs));
    }
    if let Some(v) = run.rounds[0].verify {
        let states_per_s = median(&col(|r| r.verify.map_or(0.0, |v| v.states as f64 / v.secs)));
        out.lines.push(format!(
            "verify: {} states, {} transitions, outcome ok; states_per_s {states_per_s:.0} 1/s",
            v.states, v.transitions
        ));
    }
    out.metrics = vec![
        metric("setup_s", run.setup_s(), "s"),
        metric("run_s", median(&col(Round::run_s)), "s"),
        metric("events_per_s", median(&col(Round::events_per_s)), "1/s"),
        metric("peak_rss_mb", crate::peak_rss_mb(), "MiB"),
    ];
    out
}

/// One line saying what a round of `workload` runs.
pub fn describe(workload: &str, scens: &[Scenario], tiny: bool) -> String {
    if workload == "verify4" {
        let c = verify_config(tiny);
        return format!(
            "explore gm {} nodes, {} epoch(s), window {}, fault budget {:?}",
            c.nodes, c.epochs, c.window, c.faults
        );
    }
    scens
        .iter()
        .map(|s| {
            format!(
                "{} n={} epochs={}+{}{}",
                s.kind.label(),
                s.n,
                s.cfg.warmup,
                s.cfg.iters,
                if s.cfg.permute { " permuted" } else { "" }
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// One checked round at the golden seed, for `--print-golden`.
pub fn golden_round(workload: &str, tiny: bool) -> Result<Vec<golden::Row>, String> {
    let scens = scenarios(workload, GOLDEN_SEED, tiny);
    let r = round(workload, &scens, &verify_config(tiny))?;
    Ok(golden_rows(&scens, &r))
}

/// The benchmark's self-test: every workload at tiny size through the
/// oracle (pinned tiny outputs, determinism, drops, verdicts), each
/// assembled scenario cross-checked against its driver function, and the
/// traced path. Returns the process exit code.
pub fn self_test() -> i32 {
    let mut failures = 0;
    let mut report = |what: &str, r: Result<(), String>| match r {
        Ok(()) => println!("self-test {what}: ok"),
        Err(e) => {
            println!("self-test {what}: FAILED: {e}");
            failures += 1;
        }
    };
    for w in WORKLOADS {
        let o = measure(w, GOLDEN_SEED, 0.001, true);
        report(
            &format!("{w} oracle"),
            if o.failed == 0 && o.attempted > 0 {
                Ok(())
            } else {
                Err(o.lines.join("; "))
            },
        );
        let o = crate::layers::measure(w, GOLDEN_SEED, true);
        report(
            &format!("{w} traced"),
            if o.failed == 0 {
                Ok(())
            } else {
                Err(o.lines.join("; "))
            },
        );
    }
    report("assembled scenarios match drivers", drivers_match());
    if failures == 0 {
        println!("self-test: all ok");
        0
    } else {
        println!("self-test: {failures} failed");
        1
    }
}

/// Each scenario this crate assembles itself must give the same simulated
/// results as the driver function it mirrors.
fn drivers_match() -> Result<(), String> {
    use nicbar_core::{
        elan_contend_flight, elan_gsync_barrier, elan_nic_barrier, gm_contend_flight,
        gm_host_barrier, gm_nic_barrier,
    };
    use nicbar_elan::ElanParams;
    use nicbar_gm::{CollFeatures, GmParams};
    let ds = Algorithm::Dissemination;
    // paper8 twice, the second time permuted, so the assembled placement
    // is checked too.
    let paper8 = scenarios("paper8", GOLDEN_SEED, true);
    let mut scens = paper8.clone();
    scens.extend(paper8.into_iter().map(|mut s| {
        s.cfg.permute = true;
        s
    }));
    scens.extend(scenarios("contend256", GOLDEN_SEED, true));
    for s in &scens {
        let (c, mine, _) = s.run(None)?;
        let (n, cfg) = (s.n, s.cfg.clone());
        let (mean_us, wire, counters, records) = catch(|| match s.kind {
            Kind::GmNic => {
                let b = gm_nic_barrier(GmParams::lanai_xp(), CollFeatures::paper(), n, ds, cfg);
                (b.mean_us, b.wire_per_barrier, b.counters, None)
            }
            Kind::GmHost => {
                let b = gm_host_barrier(GmParams::lanai_xp(), n, ds, cfg);
                (b.mean_us, b.wire_per_barrier, b.counters, None)
            }
            Kind::ElanNic => {
                let b = elan_nic_barrier(ElanParams::elan3(), n, ds, cfg);
                (b.mean_us, b.wire_per_barrier, b.counters, None)
            }
            Kind::ElanGsync => {
                let b = elan_gsync_barrier(ElanParams::elan3(), n, crate::scen::GSYNC_DEGREE, cfg);
                (b.mean_us, b.wire_per_barrier, b.counters, None)
            }
            Kind::GmContend | Kind::ElanContend => {
                let f = if s.kind == Kind::GmContend {
                    gm_contend_flight(
                        GmParams::lanai_xp(),
                        CollFeatures::paper(),
                        n,
                        crate::scen::CONTEND_GROUPS,
                        ds,
                        cfg,
                        crate::scen::CONTEND_TRAFFIC,
                    )
                } else {
                    elan_contend_flight(
                        ElanParams::elan3(),
                        n,
                        crate::scen::CONTEND_GROUPS,
                        ds,
                        cfg,
                        crate::scen::CONTEND_TRAFFIC,
                    )
                };
                let records = (f.packets.len() as u64, f.ledger.len() as u64);
                (
                    f.stats.mean_us,
                    f.stats.wire_per_barrier,
                    f.stats.counters,
                    Some(records),
                )
            }
        })?;
        drop(c);
        let same = mine.mean_us.to_bits() == mean_us.to_bits()
            && mine.wire_per_barrier.to_bits() == wire.to_bits()
            && mine.counters == counters
            && records.is_none_or(|r| r == (mine.stores.causal.0, mine.stores.ledger.0));
        if !same {
            return Err(format!(
                "{}: assembled run differs from its driver function",
                s.kind.label()
            ));
        }
    }
    Ok(())
}
