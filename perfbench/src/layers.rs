//! The traced run: per-layer metrics, each timed from outside by calling
//! the layer's public entry point.
//!
//! Every probe runs at the workload's own size `N` (8, 16 384, 256, 4 096
//! or 4 nodes), so a layer that a change should not touch can be seen not
//! to move on the workloads that bypass it. [`PAIRS`] says which
//! end-to-end metric each layer should move, and on which workload.

use crate::scen::{catch, Cluster, Kind, Outputs, Scenario, StepTrace, Timing};
use crate::work::{self, Round};
use crate::{median, metric, quantile, Metric, Outcome};
use nicbar_bench::engineprof;
use nicbar_core::{GroupSpec, PaperCollective, RunCfg, BARRIER_GROUP};
use nicbar_gm::{ActionBuf, CollAction, CollOperand, CollPacket, GmParams, NicCollective};
use nicbar_net::NodeId;
use nicbar_sim::{CauseId, EngineSel, SchedulerKind, SimTime};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Which end-to-end metric, on which workload, each layer should move
/// (prefix match, first hit wins).
const PAIRS: &[(&str, &str)] = &[
    (
        "sim.engine.step_ns",
        "events_per_s on every simulator workload",
    ),
    (
        "sim.engine.pending_hwm",
        "events_per_s on every simulator workload",
    ),
    (
        "sim.engine.events",
        "exact guard: moves only if the model changed",
    ),
    (
        "sim.engine.",
        "events_per_s on scale16k (growth ~flat on paper8)",
    ),
    (
        "sim.queue.",
        "events_per_s on scale16k; no change on paper8",
    ),
    (
        "core.protocol.on_",
        "events_per_s on scale16k (gm only); none on paper8 or elan",
    ),
    (
        "core.protocol.",
        "events_per_s on verify4 (clone, fingerprint, canonicalize)",
    ),
    ("verify.states_per_s", "events_per_s and run_s on verify4"),
    (
        "verify.",
        "exact guard: moves only if the model or checker changed",
    ),
    ("core.driver.build_s", "setup_s on scale16k"),
    ("core.driver.stats_s", "run_s on paper8"),
    ("net.", "exact guard: moves only if the model changed"),
    ("counter.", "exact guard: moves only if the model changed"),
    (
        "sim.parallel.",
        "none end to end (par4k dropped: unsteady); compare traced runs",
    ),
    (
        "sim.partition.",
        "none end to end (par4k dropped: unsteady); compare traced runs",
    ),
    (
        "sim.record.on_ns_per_event",
        "run_s on contend256; stores off elsewhere",
    ),
    (
        "sim.",
        "run_s on contend256; stores off elsewhere (dropped must be 0)",
    ),
    ("bench.critpath.", "run_s on contend256"),
    (
        "trace.overhead_s",
        "traced minus untraced run_s of this workload",
    ),
];

/// The end-to-end metric and workload `name` should move.
pub fn pairing(name: &str) -> &'static str {
    PAIRS
        .iter()
        .find(|(p, _)| name.starts_with(p))
        .map_or("-", |(_, s)| s)
}

/// Node count of `workload`'s probes.
fn size(workload: &str, tiny: bool) -> usize {
    match (workload, tiny) {
        ("paper8", _) => 8,
        ("scale16k", false) => 16_384,
        ("scale16k", true) => 256,
        ("contend256", false) => 256,
        ("contend256", true) => 16,
        _ => 4,
    }
}

/// Epochs for an engine probe at `n` nodes: about a million events, at
/// least two epochs (one warm-up, one measured).
fn probe_epochs(n: usize) -> u64 {
    (1_000_000 / (20 * n as u64)).clamp(2, 20_000)
}

fn nic(kind: Kind, n: usize, seed: u64, epochs: u64) -> Scenario {
    Scenario {
        kind,
        n,
        cfg: RunCfg {
            warmup: 1,
            iters: epochs - 1,
            seed,
            permute: true,
            ..RunCfg::default()
        },
        observe: false,
    }
}

fn ns_per_event(o: &Outputs, t: &Timing) -> f64 {
    t.engine_s * 1e9 / o.events as f64
}

/// Run `s` once untraced and return outputs and timing.
fn run_once(s: &Scenario) -> Result<(Outputs, Timing), String> {
    let (c, o, t) = s.run(None)?;
    drop(c);
    Ok((o, t))
}

/// Median construction time of `s` over `reps` builds.
fn build_s(s: &Scenario, reps: usize) -> Result<f64, String> {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let c = catch(|| s.build())?;
        v.push(t.elapsed().as_secs_f64());
        drop(c);
    }
    Ok(median(&v))
}

/// The traced run of `workload`: a fixed set of probes (one untraced and
/// one step-traced round plus the layer probes), whatever `--seconds` says.
pub fn measure(workload: &str, seed: u64, tiny: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut m: Vec<Metric> = Vec::new();
    let r = probes(workload, seed, tiny, &mut m, &mut out);
    if let Err(e) = r {
        out.failed += 1;
        out.lines.push(format!("FAILED: {e}"));
    }
    out.metrics = m;
    out
}

fn probes(
    workload: &str,
    seed: u64,
    tiny: bool,
    m: &mut Vec<Metric>,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = size(workload, tiny);
    let scens = work::scenarios(workload, seed, tiny);
    let vcfg = work::verify_config(tiny);

    // The workload itself: one untraced round, then the same round with
    // every event delivered through a timed `step()` (verify4 steps the gm
    // NIC-DS cluster of the same protocol at 4 nodes).
    out.attempted += 1;
    let untraced = work::round(workload, &scens, &vcfg)?;
    work::check_outputs(workload, seed, tiny, &scens, &untraced, &untraced)?;
    let stepped: Vec<Scenario> = match workload {
        "verify4" => vec![nic(Kind::GmNic, 4, seed, 2_000)],
        _ => scens.clone(),
    };
    let mut tr = StepTrace::default();
    let mut traced = Round::default();
    for s in &stepped {
        out.attempted += 1;
        let (c, o, t) = s.run(Some(&mut tr))?;
        if s.kind.contend() {
            traced.critpath.push(work::analyze(&c, s.kind)?);
        }
        drop(c);
        traced.outputs.push(o);
        traced.timing.push(t);
    }
    if workload == "verify4" {
        // `explore` has no hook to trace; the traced round is the same call.
        traced.verify = untraced.verify;
    } else if traced.outputs != untraced.outputs {
        return Err("step-driven round disagrees with run_until round".into());
    }
    let steps: Vec<f64> = tr.step_ns.iter().map(|&x| f64::from(x)).collect();
    m.push(metric(
        "sim.engine.step_ns.p50",
        quantile(&steps, 0.5),
        "ns",
    ));
    m.push(metric(
        "sim.engine.step_ns.p999",
        quantile(&steps, 0.999),
        "ns",
    ));
    m.push(metric(
        "sim.engine.pending_hwm",
        tr.pending_hwm as f64,
        "count",
    ));
    m.push(metric("sim.engine.events", steps.len() as f64, "count"));

    // Engine cost per event at N and at 1024 nodes (64 in the self-test),
    // both substrates, plain NIC-DS: the round's own runs where it has them.
    let n_ref = if tiny { 64 } else { 1024 };
    let mut at_n = Vec::new();
    let mut nic_n = Vec::new();
    for kind in [Kind::GmNic, Kind::ElanNic] {
        out.attempted += 1;
        let reuse = scens.iter().position(|s| s.kind == kind);
        let (s, (o, t)) = match reuse {
            Some(i) => (
                scens[i].clone(),
                (untraced.outputs[i].clone(), untraced.timing[i]),
            ),
            None => {
                let s = nic(kind, n, seed, probe_epochs(n));
                let r = run_once(&s)?;
                (s, r)
            }
        };
        nic_n.push(s);
        let (o1k, t1k) = run_once(&nic(kind, n_ref, seed, probe_epochs(n_ref)))?;
        let sub = if kind == Kind::GmNic { "gm" } else { "elan" };
        let (a, b) = (ns_per_event(&o, &t), ns_per_event(&o1k, &t1k));
        m.push(metric(format!("sim.engine.{sub}.ns_per_event"), a, "ns"));
        m.push(metric(format!("sim.engine.{sub}.ns_per_event_1k"), b, "ns"));
        m.push(metric(
            format!("sim.engine.{sub}.growth_over_1k"),
            a / b,
            "ratio",
        ));
        at_n.push((o, t));
    }

    // Scheduler: the gm NIC-DS run at N with each queue implementation.
    let gm_n = &nic_n[0];
    for (sched, name) in [
        (SchedulerKind::TimingWheel, "wheel"),
        (SchedulerKind::Indexed4, "indexed4"),
        (SchedulerKind::ClassicBinaryHeap, "classic"),
    ] {
        out.attempted += 1;
        let (o, t) = if sched == SchedulerKind::default() {
            at_n[0].clone()
        } else {
            let s = Scenario {
                cfg: RunCfg {
                    scheduler: sched,
                    ..gm_n.cfg.clone()
                },
                ..gm_n.clone()
            };
            run_once(&s)?
        };
        if o != at_n[0].0 {
            return Err(format!("scheduler {name} changed the simulated outputs"));
        }
        m.push(metric(
            format!("sim.queue.{name}.ns_per_event"),
            ns_per_event(&o, &t),
            "ns",
        ));
    }

    // Protocol handlers on standalone engines, as the model checker drives
    // them: one DS epoch (more at small N) through `NicCollective`.
    out.attempted += 1;
    let p = protocol_probe(n, seed, (200_000 / (14 * n as u64)).clamp(1, 20_000))?;
    m.push(metric("core.protocol.on_packet_ns", p.0, "ns"));
    m.push(metric("core.protocol.on_doorbell_ns", p.1, "ns"));
    out.attempted += 1;
    let (clone_ns, fp_ns, canon_ns) = verifier_path_probe()?;
    m.push(metric("core.protocol.clone_ns", clone_ns, "ns"));
    m.push(metric("core.protocol.fingerprint_ns", fp_ns, "ns"));
    m.push(metric("core.protocol.canonicalize_ns", canon_ns, "ns"));

    // Model checker: the workload's exploration on verify4, the two-node
    // two-epoch proof elsewhere.
    out.attempted += 1;
    let v = match untraced.verify {
        Some(v) => v,
        None => work::run_verify(&work::verify_config(true))?,
    };
    m.push(metric("verify.states", v.states as f64, "count"));
    m.push(metric("verify.transitions", v.transitions as f64, "count"));
    m.push(metric(
        "verify.states_per_s",
        v.states as f64 / v.secs,
        "1/s",
    ));

    // Driver: cluster construction and the stats harvest + safety scan.
    out.attempted += 1;
    let reps = if n >= 4096 { 3 } else { 9 };
    let gm_build = build_s(&nic(Kind::GmNic, n, seed, 2), reps)?;
    let elan_build = build_s(&nic(Kind::ElanNic, n, seed, 2), reps)?;
    m.push(metric("core.driver.build_s.gm", gm_build, "s"));
    m.push(metric("core.driver.build_s.elan", elan_build, "s"));
    m.push(metric(
        "core.driver.stats_s",
        at_n[0].1.harvest_s + at_n[1].1.harvest_s,
        "s",
    ));

    // Work counts: exact guards.
    let (gm, elan) = (&at_n[0].0, &at_n[1].0);
    m.push(metric(
        "net.wire_per_barrier.gm",
        gm.wire_per_barrier,
        "count",
    ));
    m.push(metric(
        "net.wire_per_barrier.elan",
        elan.wire_per_barrier,
        "count",
    ));
    for key in ["gm.coll_sent", "gm.coll_recv", "gm.host_coll"] {
        m.push(metric(
            format!("counter.{key}"),
            gm.counter(key) as f64,
            "count",
        ));
    }
    for key in ["elan.rdma_sent", "elan.rdma_recv", "elan.set_event"] {
        m.push(metric(
            format!("counter.{key}"),
            elan.counter(key) as f64,
            "count",
        ));
    }

    // Record stores: the contend round on contend256; elsewhere a gm
    // NIC-DS run at min(N, 256) nodes with every store armed. The cost of
    // having them on is the per-event difference to the same run with
    // them off.
    let rec_scens: Vec<Scenario> = if workload == "contend256" {
        scens.clone()
    } else {
        let n_rec = n.min(256);
        vec![Scenario {
            observe: true,
            ..nic(Kind::GmNic, n_rec, seed, if n_rec > 64 { 6 } else { 20 })
        }]
    };
    let (mut on_ns, mut off_ns, mut events) = (0.0, 0.0, 0u64);
    let mut stores = crate::scen::Stores::default();
    let mut cp = work::Critpath {
        attributed_share: 1.0,
        ..Default::default()
    };
    for s in &rec_scens {
        out.attempted += 1;
        let (c, on, t_on) = s.run(None)?;
        let a = work::analyze(&c, s.kind)?;
        drop(c);
        let (off, t_off) = run_once(&Scenario {
            observe: false,
            ..s.clone()
        })?;
        if off.mean_us.to_bits() != on.mean_us.to_bits() || off.events != on.events {
            return Err(format!(
                "{}: arming the record stores changed the run",
                s.kind.label()
            ));
        }
        on_ns += t_on.engine_s * 1e9;
        off_ns += t_off.engine_s * 1e9;
        events += on.events;
        stores.add(&on.stores);
        cp.analyze_s += a.analyze_s;
        cp.interference_s += a.interference_s;
        cp.paths += a.paths;
        cp.attributed_share = cp.attributed_share.min(a.attributed_share);
    }
    if stores.dropped() > 0 {
        return Err(format!(
            "record stores dropped {} records",
            stores.dropped()
        ));
    }
    for (name, (kept, lost)) in [
        ("trace", stores.trace),
        ("span", stores.span),
        ("causal", stores.causal),
        ("ledger", stores.ledger),
    ] {
        m.push(metric(format!("sim.{name}.records"), kept as f64, "count"));
        m.push(metric(format!("sim.{name}.dropped"), lost as f64, "count"));
    }
    m.push(metric(
        "sim.record.records_per_event",
        stores.records() as f64 / events as f64,
        "ratio",
    ));
    m.push(metric(
        "sim.record.on_ns_per_event",
        (on_ns - off_ns) / events as f64,
        "ns",
    ));
    m.push(metric("bench.critpath.analyze_s", cp.analyze_s, "s"));
    m.push(metric(
        "bench.critpath.interference_s",
        cp.interference_s,
        "s",
    ));
    m.push(metric("bench.critpath.paths", cp.paths as f64, "count"));
    m.push(metric(
        "bench.critpath.attributed_share",
        cp.attributed_share,
        "ratio",
    ));

    // Parallel engine: gm NIC-DS at min(N, 4096) nodes on 2 shards against
    // the sequential engine.
    out.attempted += 1;
    parallel_probe(n, seed, m)?;

    // What tracing the workload cost: traced minus untraced round.
    m.push(metric(
        "trace.overhead_s",
        traced.run_s() - untraced.run_s(),
        "s",
    ));
    out.lines.push(format!(
        "traced round run_s {:.6} s, untraced {:.6} s",
        traced.run_s(),
        untraced.run_s()
    ));
    Ok(())
}

/// Worker shards of the parallel-engine probe.
const PAR_SHARDS: usize = 2;

fn parallel_probe(n: usize, seed: u64, m: &mut Vec<Metric>) -> Result<(), String> {
    let n_par = n.min(4096);
    let base = nic(Kind::GmNic, n_par, seed, probe_epochs(n_par).min(200));
    let par = Scenario {
        cfg: RunCfg {
            engine: EngineSel::Parallel,
            shards: PAR_SHARDS,
            ..base.cfg
        },
        ..base
    };
    let seq = Scenario {
        cfg: RunCfg {
            engine: EngineSel::Sequential,
            shards: 1,
            ..par.cfg.clone()
        },
        ..par.clone()
    };
    let (seq_out, seq_t) = run_once(&seq)?;
    let mut c = catch(|| par.build())?;
    let Cluster::Gm(g) = &mut c else {
        return Err("parallel probe expects a gm cluster".into());
    };
    let deadline = par.cfg.deadline();
    let (prof, wall_s) = catch(|| engineprof::profile_run(&mut g.engine, deadline))?
        .ok_or("parallel probe ran on the sequential engine")?;
    let par_out = par.harvest(&c)?;
    drop(c);
    if par_out != seq_out {
        return Err("parallel engine disagrees with the sequential engine".into());
    }
    let wall: f64 = prof.data.iter().map(|d| d.wall_ns as f64).sum();
    let busy: f64 = prof.data.iter().map(|d| d.busy_ns as f64).sum();
    let att = prof.attribution();
    let share = |ns: u64| ns as f64 / wall;
    m.push(metric(
        "sim.parallel.speedup_vs_seq",
        seq_t.engine_s / wall_s,
        "ratio",
    ));
    m.push(metric("sim.parallel.busy_share", busy / wall, "ratio"));
    m.push(metric(
        "sim.parallel.lookahead_stall_share",
        share(att.stall_ns),
        "ratio",
    ));
    m.push(metric(
        "sim.parallel.imbalance_share",
        share(att.imbalance_ns),
        "ratio",
    ));
    m.push(metric(
        "sim.parallel.mailbox_share",
        share(att.mailbox_ns),
        "ratio",
    ));
    let windows = prof.data.iter().map(|d| d.window_count).max().unwrap_or(0);
    m.push(metric(
        "sim.parallel.windows_per_shard",
        windows as f64,
        "count",
    ));
    m.push(metric(
        "sim.parallel.window_eff_p50",
        engineprof::util_hist(&prof).p50() as f64 / 100.0,
        "ratio",
    ));
    m.push(metric(
        "sim.parallel.cross_shard_frac",
        prof.traffic_fraction(),
        "ratio",
    ));
    let reps = if par.n >= 4096 { 3 } else { 9 };
    m.push(metric(
        "sim.partition.build_s",
        build_s(&par, reps)? - build_s(&seq, reps)?,
        "s",
    ));
    Ok(())
}

/// Drive `n` standalone `PaperCollective`s (members permuted by `seed`)
/// through `epochs` DS epochs: every host rings, then packets are delivered
/// in FIFO order until the epoch completes everywhere. Returns mean host
/// nanoseconds per `on_packet` and per `on_doorbell` call.
fn protocol_probe(n: usize, seed: u64, epochs: u64) -> Result<(f64, f64), String> {
    let placement = RunCfg {
        seed,
        permute: true,
        ..RunCfg::default()
    };
    let members: std::sync::Arc<[NodeId]> = crate::scen::members(&placement, n).into();
    let timeout = GmParams::lanai_xp().coll_timeout;
    let mut by_node: Vec<Option<PaperCollective>> = (0..n).map(|_| None).collect();
    for (rank, &node) in members.iter().enumerate() {
        by_node[node.0] = Some(PaperCollective::new(
            node,
            vec![GroupSpec::barrier(
                BARRIER_GROUP,
                members.clone(),
                rank,
                nicbar_core::Algorithm::Dissemination,
                timeout,
            )],
        ));
    }
    let mut nodes: Vec<PaperCollective> = by_node
        .into_iter()
        .map(|c| c.ok_or("members are not a bijection"))
        .collect::<Result<_, _>>()?;
    let mut queue: VecDeque<(NodeId, CollPacket)> = VecDeque::new();
    let mut done = vec![0u64; n];
    let mut actions = ActionBuf::new();
    let (mut pkt_ns, mut pkts, mut bell_ns) = (0u128, 0u64, 0u128);
    let absorb =
        |node: usize, actions: &mut ActionBuf, queue: &mut VecDeque<_>, done: &mut [u64]| {
            for a in actions.drain() {
                match a {
                    CollAction::Send { dst, pkt, .. } => queue.push_back((dst, pkt)),
                    CollAction::HostDone { epoch, .. } => done[node] = epoch + 1,
                }
            }
        };
    for epoch in 0..epochs {
        for (node, engine) in nodes.iter_mut().enumerate() {
            let t = Instant::now();
            engine.on_doorbell(
                SimTime::ZERO,
                BARRIER_GROUP,
                epoch,
                &CollOperand::Scalar(0),
                CauseId::NONE,
                &mut actions,
            );
            bell_ns += t.elapsed().as_nanos();
            absorb(node, &mut actions, &mut queue, &mut done);
        }
        while let Some((dst, pkt)) = queue.pop_front() {
            let t = Instant::now();
            nodes[dst.0].on_packet(SimTime::ZERO, &pkt, CauseId::NONE, &mut actions);
            pkt_ns += t.elapsed().as_nanos();
            pkts += 1;
            absorb(dst.0, &mut actions, &mut queue, &mut done);
        }
        if done.iter().any(|&d| d != epoch + 1) {
            return Err(format!(
                "standalone protocol epoch {epoch} did not complete everywhere"
            ));
        }
    }
    Ok((
        pkt_ns as f64 / pkts as f64,
        bell_ns as f64 / (n as u64 * epochs) as f64,
    ))
}

/// The model checker's per-state work on a mid-epoch engine of a 4-node
/// group: mean host nanoseconds per clone, fingerprint and canonicalize.
fn verifier_path_probe() -> Result<(f64, f64, f64), String> {
    const REPS: u32 = 20_000;
    let cfg = work::verify_config(false);
    let mut nodes = work::verify_initial(&cfg);
    let mut actions = ActionBuf::new();
    let mut inflight = Vec::new();
    for e in &mut nodes {
        e.on_doorbell(
            SimTime::ZERO,
            nicbar_verify::GROUP,
            0,
            &CollOperand::Scalar(0),
            CauseId::NONE,
            &mut actions,
        );
        for a in actions.drain() {
            if let CollAction::Send { dst, pkt, .. } = a {
                inflight.push((dst, pkt));
            }
        }
    }
    // Deliver half the first round: node 0 is now mid-epoch.
    for (dst, pkt) in inflight.iter().take(inflight.len() / 2) {
        nodes[dst.0].on_packet(SimTime::ZERO, pkt, CauseId::NONE, &mut actions);
        actions.clear();
    }
    let e = &nodes[0];
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(black_box(e).clone());
    }
    let clone_ns = t.elapsed().as_nanos() as f64 / f64::from(REPS);
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(black_box(e).state_fingerprint());
    }
    let fp_ns = t.elapsed().as_nanos() as f64 / f64::from(REPS);
    let mut c = e.clone();
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(&mut c).canonicalize_times();
    }
    let canon_ns = t.elapsed().as_nanos() as f64 / f64::from(REPS);
    e.check_invariants()?;
    Ok((clone_ns, fp_ns, canon_ns))
}
