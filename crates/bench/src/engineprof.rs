//! Exporters for the parallel engine's self-profile ([`nicbar_sim::EngineProf`]).
//!
//! Three views share one capture:
//!
//! * [`report`] — the human `engine-prof` summary: imbalance factor,
//!   cross-shard traffic fraction, window-efficiency percentiles, the
//!   per-shard time table and the idle-time attribution that names the
//!   dominant bottleneck (imbalance / lookahead stall / mailbox contention).
//! * [`chrome_trace`] — a shard-lane timeline in Chrome trace-event JSON:
//!   one track per worker shard, one complete (`"X"`) slice per conservative
//!   window, and flow (`"s"`/`"f"`) arrows for every cross-shard mailbox
//!   crossing. Open in Perfetto or `chrome://tracing`.
//! * [`to_json`] — the manifest-stamped machine-readable profile written to
//!   `results/engine_prof.json`.
//!
//! [`baseline_one_shard_overhead`] reads the committed
//! `results/engine_sweep.json` baseline the `engine-prof --check` overhead
//! gate compares against.

use crate::json::{Manifest, Writer};
use nicbar_sim::{EngineProf, Histogram};

/// Nanoseconds → microseconds for Chrome timestamps.
fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Nanoseconds → milliseconds for the human tables.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

/// The window-utilization distribution merged across every shard (all
/// windows, including those past the per-window detail cap — the profiler's
/// histogram observed them all).
pub fn util_hist(prof: &EngineProf) -> Histogram {
    let mut merged = Histogram::new();
    for d in &prof.data {
        merged.merge(&d.window_util);
    }
    merged
}

/// Render the human `engine-prof` report for a profiled run of `label`
/// (e.g. `"gm NIC-DS, 4096 nodes"`) that took `wall_s` wall-clock seconds.
pub fn report(prof: &EngineProf, label: &str, wall_s: f64) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== engine-prof: {label}, {} shards, lookahead {} ns ==",
        prof.shards, prof.lookahead_ns
    );
    let windows = prof.data.iter().map(|d| d.window_count).max().unwrap_or(0);
    let _ = writeln!(
        out,
        "events: {}  windows: {} per shard  wall: {:.3} s",
        prof.total_events(),
        windows,
        wall_s
    );
    let _ = writeln!(
        out,
        "imbalance factor (max/mean shard busy): {:.3}",
        prof.imbalance_factor()
    );
    let _ = writeln!(
        out,
        "cross-shard traffic: {:.1}% of delivered events",
        prof.traffic_fraction() * 100.0
    );
    let util = util_hist(prof);
    if !util.is_empty() {
        let _ = writeln!(
            out,
            "window efficiency (advance/span): p50 {}% p95 {}% p99 {}%",
            util.p50(),
            util.p95(),
            util.p99()
        );
    }
    let _ = writeln!(
        out,
        "wall accounting: {:.1}% of worker wall time attributed",
        prof.accounted_fraction() * 100.0
    );

    let _ = writeln!(
        out,
        "\n{:>5} {:>6} {:>9} {:>9} {:>9} {:>10} {:>8} {:>8} {:>7}",
        "shard", "comps", "busy ms", "idle ms", "drain ms", "events", "recv", "sent", "q hwm"
    );
    for d in &prof.data {
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>9.2} {:>9.2} {:>9.2} {:>10} {:>8} {:>8} {:>7}",
            d.shard,
            d.components,
            ms(d.busy_ns),
            ms(d.idle_ns),
            ms(d.drain_ns),
            d.events,
            d.recv,
            d.sent,
            d.queue_hwm
        );
    }

    let att = prof.attribution();
    let lost = att.idle_ns + att.mailbox_ns;
    let share = |ns: u64| -> f64 {
        if lost == 0 {
            0.0
        } else {
            ns as f64 / lost as f64 * 100.0
        }
    };
    let _ = writeln!(out, "\nidle-time attribution:");
    let _ = writeln!(
        out,
        "{:>20} {:>9.2} ms  ({:>4.1}% of lost time)",
        "imbalance",
        ms(att.imbalance_ns),
        share(att.imbalance_ns)
    );
    let _ = writeln!(
        out,
        "{:>20} {:>9.2} ms  ({:>4.1}% of lost time)",
        "lookahead stall",
        ms(att.stall_ns),
        share(att.stall_ns)
    );
    let _ = writeln!(
        out,
        "{:>20} {:>9.2} ms  ({:>4.1}% of lost time)",
        "mailbox contention",
        ms(att.mailbox_ns),
        share(att.mailbox_ns)
    );
    let (name, frac) = att.dominant();
    let _ = writeln!(
        out,
        "dominant bottleneck: {name} ({:.1}% of lost time)",
        frac * 100.0
    );
    out
}

/// Render the shard-lane timeline as Chrome trace-event JSON: one track
/// (`tid`) per shard, one `"X"` slice per window's busy phase, and an
/// `"s"`/`"f"` flow pair for every cross-shard mailbox crossing (events a
/// shard deposited in window `w` arrive at the destination in window
/// `w + 1`'s drain).
pub fn chrome_trace(prof: &EngineProf) -> String {
    let mut w = Writer::new();
    w.open_object();
    w.field("traceEvents");
    w.open_array();

    w.open_object();
    w.field("name");
    w.string("process_name");
    w.field("ph");
    w.string("M");
    w.field("pid");
    w.uint(0);
    w.field("args");
    w.open_object();
    w.field("name");
    w.string(&format!(
        "parallel engine ({} shards, lookahead {} ns)",
        prof.shards, prof.lookahead_ns
    ));
    w.close_object();
    w.close_object();

    for d in &prof.data {
        w.open_object();
        w.field("name");
        w.string("thread_name");
        w.field("ph");
        w.string("M");
        w.field("pid");
        w.uint(0);
        w.field("tid");
        w.uint(d.shard as u64);
        w.field("args");
        w.open_object();
        w.field("name");
        w.string(&format!("shard {} ({} components)", d.shard, d.components));
        w.close_object();
        w.close_object();

        for (i, win) in d.windows.iter().enumerate() {
            w.open_object();
            w.field("name");
            w.string(&format!("window {i}"));
            w.field("cat");
            w.string("window");
            w.field("ph");
            w.string("X");
            w.field("pid");
            w.uint(0);
            w.field("tid");
            w.uint(d.shard as u64);
            w.field("ts");
            w.number(us(win.busy_start_ns));
            w.field("dur");
            w.number(us(win.busy_ns));
            w.field("args");
            w.open_object();
            w.field("events");
            w.uint(win.events);
            w.field("queue_depth");
            w.uint(win.queue_depth);
            w.field("util_pct");
            w.uint(win.util_pct());
            w.field("recv");
            w.uint(win.recv);
            w.field("sent");
            w.uint(win.sent);
            w.close_object();
            w.close_object();
        }
    }

    // Mailbox-crossing flows: deposit at the source's window end, arrival
    // at the destination's next window open.
    let k = prof.shards;
    for d in &prof.data {
        for (wi, win) in d.windows.iter().enumerate() {
            for dst in 0..k {
                let n = d.sent_to(wi, dst);
                if n == 0 {
                    continue;
                }
                let Some(arrive) = prof
                    .data
                    .get(dst)
                    .and_then(|dd| dd.windows.get(wi + 1))
                    .map(|dw| dw.t0_ns)
                else {
                    continue;
                };
                let id = ((wi * k + d.shard as usize) * k + dst) as u64;
                w.open_object();
                w.field("name");
                w.string("mailbox");
                w.field("cat");
                w.string("mailbox");
                w.field("ph");
                w.string("s");
                w.field("id");
                w.uint(id);
                w.field("pid");
                w.uint(0);
                w.field("tid");
                w.uint(d.shard as u64);
                w.field("ts");
                w.number(us(win.end_ns.max(win.busy_start_ns)));
                w.field("args");
                w.open_object();
                w.field("events");
                w.uint(n);
                w.close_object();
                w.close_object();

                w.open_object();
                w.field("name");
                w.string("mailbox");
                w.field("cat");
                w.string("mailbox");
                w.field("ph");
                w.string("f");
                w.field("bp");
                w.string("e");
                w.field("id");
                w.uint(id);
                w.field("pid");
                w.uint(0);
                w.field("tid");
                w.uint(dst as u64);
                w.field("ts");
                w.number(us(arrive));
                w.close_object();
            }
        }
    }

    w.close_array();
    w.field("displayTimeUnit");
    w.string("ns");
    w.field("otherData");
    w.open_object();
    for d in &prof.data {
        w.field(&format!("shard{}:dropped_windows", d.shard));
        w.uint(d.dropped_windows);
    }
    w.close_object();
    w.close_object();
    w.finish()
}

/// The `shards × shards` cross-shard traffic matrix (row = source shard,
/// column = destination shard): events deposited into each mailbox, summed
/// over the per-window detail records. Windows past the detail cap are not
/// counted — the matrix is a sampled shape, not an exact total — which is
/// fine for the cost model that consumes it.
pub fn traffic_matrix(prof: &EngineProf) -> Vec<u64> {
    let k = prof.shards;
    let mut m = vec![0u64; k * k];
    for d in &prof.data {
        let src = d.shard as usize;
        for wi in 0..d.windows.len() {
            for dst in 0..k {
                m[src * k + dst] += d.sent_to(wi, dst);
            }
        }
    }
    m
}

/// Render the manifest-stamped machine-readable profile
/// (`results/engine_prof.json`).
pub fn to_json(prof: &EngineProf, label: &str, wall_s: f64, manifest: &Manifest) -> String {
    let att = prof.attribution();
    let (dom, dom_share) = att.dominant();
    let util = util_hist(prof);
    let mut w = Writer::new();
    w.open_object();
    w.field("bench");
    w.string("engine_prof");
    w.field("label");
    w.string(label);
    manifest.emit(&mut w);
    w.field("shards");
    w.uint(prof.shards as u64);
    w.field("lookahead_ns");
    w.uint(prof.lookahead_ns);
    w.field("wall_s");
    w.number(wall_s);
    w.field("events");
    w.uint(prof.total_events());
    w.field("imbalance_factor");
    w.number(prof.imbalance_factor());
    w.field("traffic_fraction");
    w.number(prof.traffic_fraction());
    w.field("accounted_fraction");
    w.number(prof.accounted_fraction());
    if !util.is_empty() {
        w.field("window_util_pct");
        w.open_object();
        w.field("p50");
        w.uint(util.p50());
        w.field("p95");
        w.uint(util.p95());
        w.field("p99");
        w.uint(util.p99());
        w.close_object();
    }
    w.field("attribution");
    w.open_object();
    w.field("imbalance_ns");
    w.uint(att.imbalance_ns);
    w.field("stall_ns");
    w.uint(att.stall_ns);
    w.field("mailbox_ns");
    w.uint(att.mailbox_ns);
    w.field("idle_ns");
    w.uint(att.idle_ns);
    w.field("dominant");
    w.string(dom);
    w.field("dominant_share");
    w.number(dom_share);
    w.close_object();
    let traffic = traffic_matrix(prof);
    w.field("traffic_matrix");
    w.open_array();
    for row in traffic.chunks(prof.shards.max(1)) {
        let vals: Vec<f64> = row.iter().map(|&v| v as f64).collect();
        w.compact_array(&vals);
    }
    w.close_array();
    w.field("shards_detail");
    w.open_array();
    for d in &prof.data {
        w.open_object();
        w.field("shard");
        w.uint(d.shard as u64);
        w.field("components");
        w.uint(d.components as u64);
        w.field("wall_ns");
        w.uint(d.wall_ns);
        w.field("busy_ns");
        w.uint(d.busy_ns);
        w.field("idle_ns");
        w.uint(d.idle_ns);
        w.field("drain_ns");
        w.uint(d.drain_ns);
        w.field("events");
        w.uint(d.events);
        w.field("recv");
        w.uint(d.recv);
        w.field("sent");
        w.uint(d.sent);
        w.field("queue_hwm");
        w.uint(d.queue_hwm);
        w.field("windows");
        w.uint(d.window_count);
        w.field("dropped_windows");
        w.uint(d.dropped_windows);
        w.close_object();
    }
    w.close_array();
    w.close_object();
    w.finish()
}

/// Arm the profiler on `engine`, run it to `deadline`, and return the
/// captured profile plus the measured wall-clock seconds. Returns `None`
/// when the engine is sequential (the self-profiler only exists on the
/// parallel executor).
pub fn profile_run<M: Send + 'static>(
    engine: &mut nicbar_sim::ExecEngine<M>,
    deadline: nicbar_sim::SimTime,
) -> Option<(EngineProf, f64)> {
    engine.enable_prof();
    let t0 = std::time::Instant::now();
    engine.run_until(deadline);
    let wall_s = t0.elapsed().as_secs_f64();
    engine.prof_snapshot().map(|p| (p, wall_s))
}

/// The committed one-shard engine overhead from a saved
/// `results/engine_sweep.json` (`parallel_one_shard.overhead`), or `None`
/// if the baseline is missing or unreadable. The `engine-prof --check`
/// overhead gate asserts today's profiler-disabled overhead stays within
/// two percentage points of this.
pub fn baseline_one_shard_overhead(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let start = text.find("\"parallel_one_shard\"")?;
    let chunk = &text[start..];
    let pat = "\"overhead\": ";
    let v = chunk.find(pat)? + pat.len();
    let rest = &chunk[v..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The named attribution bucket's share of lost (non-busy) worker time:
/// `0.0` for unknown names or when nothing was lost. Shares use the same
/// denominator as [`nicbar_sim::ProfAttribution::dominant`], so a share
/// read back from a saved capture's `dominant_share` is directly
/// comparable.
pub fn bottleneck_share(prof: &EngineProf, name: &str) -> f64 {
    let att = prof.attribution();
    let lost = att.idle_ns + att.mailbox_ns;
    if lost == 0 {
        return 0.0;
    }
    let ns = match name {
        "imbalance" => att.imbalance_ns,
        "lookahead stall" => att.stall_ns,
        "mailbox contention" => att.mailbox_ns,
        _ => 0,
    };
    ns as f64 / lost as f64
}

/// The dominant bottleneck a committed `engine-prof` capture named, and
/// its share of lost time, or `None` when the file is missing or
/// malformed. `engine-prof --check` compares today's share of that same
/// bucket against this.
pub fn baseline_bottleneck(path: &str) -> Option<(String, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let pat = "\"dominant\": \"";
    let start = text.find(pat)? + pat.len();
    let rest = &text[start..];
    let name = rest[..rest.find('"')?].to_string();
    let pat = "\"dominant_share\": ";
    let v = rest.find(pat)? + pat.len();
    let rest = &rest[v..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    let share: f64 = rest[..end].trim().parse().ok()?;
    Some((name, share))
}

/// A prior run's per-shard load summary parsed back out of a
/// `results/engine_prof.json`-shaped capture — enough to drive
/// profile-guided repartitioning without a JSON dependency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadProfile {
    /// Component count per prior shard (`shards_detail[].components`).
    pub components: Vec<u64>,
    /// Busy nanoseconds per prior shard (`shards_detail[].busy_ns`).
    pub busy_ns: Vec<u64>,
    /// Row-major `k × k` cross-shard event counts; empty when the capture
    /// predates the traffic matrix.
    pub traffic: Vec<u64>,
}

/// Every unsigned integer that directly follows a `"key": ` occurrence in
/// `chunk`, in order.
fn uints_after(chunk: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\": ");
    let mut out = Vec::new();
    let mut rest = chunk;
    while let Some(i) = rest.find(&pat) {
        let v = &rest[i + pat.len()..];
        let end = v.find(|c: char| !c.is_ascii_digit()).unwrap_or(v.len());
        if let Ok(n) = v[..end].parse() {
            out.push(n);
        }
        rest = v;
    }
    out
}

/// Parse a [`LoadProfile`] back out of a saved `engine-prof` capture.
/// Returns `None` when the file is missing or does not carry a coherent
/// `shards_detail` table. A missing `traffic_matrix` (pre-cost-model
/// captures) degrades to an empty matrix, not a failure.
pub fn load_profile(path: &str) -> Option<LoadProfile> {
    let text = std::fs::read_to_string(path).ok()?;
    let detail_at = text.find("\"shards_detail\"")?;
    let detail = &text[detail_at..];
    let components = uints_after(detail, "components");
    let busy_ns = uints_after(detail, "busy_ns");
    if components.is_empty() || components.len() != busy_ns.len() {
        return None;
    }
    let k = components.len();
    let traffic: Vec<u64> = match text.find("\"traffic_matrix\"") {
        Some(t) if t < detail_at => text[t..detail_at]
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .filter_map(|s| s.parse().ok())
            .collect(),
        _ => Vec::new(),
    };
    let traffic = if traffic.len() == k * k {
        traffic
    } else {
        Vec::new()
    };
    Some(LoadProfile {
        components,
        busy_ns,
        traffic,
    })
}

/// Turn a saved capture into a profile-guided [`nicbar_sim::PartitionSel`].
///
/// Cost model: the prior run's contiguous layout puts `components / 2`
/// nodes on each shard (host + NIC per node), so each node inherits its
/// old shard's mean busy time as its weight. Cut costs come from the
/// traffic matrix: a node interior to old shard `s` costs `s`'s mean
/// per-node outgoing traffic to cut before, while an old shard boundary
/// costs exactly the traffic measured across that pair — so the
/// repartitioner keeps low-traffic cuts and slides high-traffic ones,
/// subject to the load bound staying primary. Returns `None` when the
/// capture is unreadable or empty.
pub fn partition_from_profile(path: &str) -> Option<nicbar_sim::PartitionSel> {
    let p = load_profile(path)?;
    let k = p.components.len();
    let nodes_per: Vec<usize> = p.components.iter().map(|&c| (c / 2) as usize).collect();
    let total: usize = nodes_per.iter().sum();
    if total == 0 {
        return None;
    }
    let have_traffic = p.traffic.len() == k * k;
    let mut weights: Vec<u64> = Vec::with_capacity(total);
    let mut boundary: Vec<u64> = vec![0; total];
    let mut start = 0usize;
    for (s, &n_s) in nodes_per.iter().enumerate() {
        if n_s == 0 {
            continue;
        }
        let w = (p.busy_ns[s] / n_s as u64).max(1);
        weights.extend(std::iter::repeat_n(w, n_s));
        if have_traffic {
            let row: u64 = p.traffic[s * k..(s + 1) * k].iter().sum();
            let interior = row / n_s as u64;
            for b in boundary.iter_mut().skip(start).take(n_s) {
                *b = interior;
            }
            if s > 0 {
                boundary[start] =
                    p.traffic[(s - 1) * k + s].saturating_add(p.traffic[s * k + (s - 1)]);
            }
        }
        start += n_s;
    }
    let boundary_cost: Vec<u64> = if have_traffic { boundary } else { Vec::new() };
    Some(nicbar_sim::PartitionSel::Weighted {
        weights: weights.into(),
        boundary_cost: boundary_cost.into(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code
mod tests {
    use super::*;
    use nicbar_core::{build_gm_nic_cluster, Algorithm, RunCfg};
    use nicbar_gm::{CollFeatures, GmParams};
    use nicbar_sim::{EngineSel, RunOutcome};

    fn profiled_run() -> EngineProf {
        let cfg = RunCfg {
            warmup: 2,
            iters: 20,
            engine: EngineSel::Parallel,
            shards: 3,
            ..RunCfg::default()
        };
        let mut cluster = build_gm_nic_cluster(
            GmParams::lanai_xp(),
            CollFeatures::paper(),
            12,
            Algorithm::Dissemination,
            &cfg,
            false,
        );
        cluster.engine.enable_prof();
        let outcome = cluster.engine.run_until(cfg.deadline());
        assert_eq!(outcome, RunOutcome::Idle);
        cluster.engine.prof_snapshot().unwrap()
    }

    #[test]
    fn report_names_a_bottleneck_and_tables_every_shard() {
        let prof = profiled_run();
        let text = report(&prof, "gm NIC-DS, 12 nodes", 0.5);
        assert!(text.contains("engine-prof: gm NIC-DS, 12 nodes, 3 shards"));
        assert!(text.contains("imbalance factor"));
        assert!(text.contains("cross-shard traffic"));
        assert!(text.contains("window efficiency"));
        assert!(text.contains("dominant bottleneck:"), "got:\n{text}");
        for shard in 0..3 {
            assert!(
                text.contains(&format!("\n{shard:>5} ")),
                "shard {shard} row"
            );
        }
    }

    #[test]
    fn chrome_trace_has_one_lane_per_shard_and_flow_pairs() {
        let prof = profiled_run();
        let json = chrome_trace(&prof);
        assert!(json.contains("\"traceEvents\""));
        for shard in 0..3 {
            assert!(json.contains(&format!("shard {shard} (")), "lane {shard}");
        }
        assert!(json.contains("\"ph\": \"X\""), "window slices");
        // The dissemination barrier always crosses shard boundaries at
        // 12 nodes / 3 shards, so flow arrows must exist, in pairs.
        let starts = json.matches("\"ph\": \"s\"").count();
        let finishes = json.matches("\"ph\": \"f\"").count();
        assert!(starts > 0, "no mailbox flow events");
        assert_eq!(starts, finishes, "unpaired flow events");
        assert!(json.contains("shard0:dropped_windows"));
    }

    #[test]
    fn json_profile_embeds_manifest_and_attribution() {
        let prof = profiled_run();
        let m = Manifest::new(42, "engine_prof test");
        let json = to_json(&prof, "gm NIC-DS, 12 nodes", 0.5, &m);
        assert!(json.contains("\"bench\": \"engine_prof\""));
        assert!(json.contains("\"manifest\""));
        assert!(json.contains("\"imbalance_factor\""));
        assert!(json.contains("\"dominant\""));
        assert!(json.contains("\"shards_detail\""));
        assert!(json.matches("\"shard\":").count() == 3);
        assert!(json.contains("\"traffic_matrix\""));
    }

    #[test]
    fn traffic_matrix_is_square_with_empty_diagonal() {
        let prof = profiled_run();
        let m = traffic_matrix(&prof);
        assert_eq!(m.len(), 9);
        for s in 0..3 {
            assert_eq!(m[s * 3 + s], 0, "no self-mailbox traffic");
        }
        // The dissemination barrier at 12 nodes / 3 shards must cross
        // shard boundaries somewhere.
        assert!(m.iter().sum::<u64>() > 0);
    }

    #[test]
    fn profile_round_trips_through_json_to_a_weighted_partition() {
        let prof = profiled_run();
        let m = Manifest::new(42, "engine_prof test");
        let json = to_json(&prof, "gm NIC-DS, 12 nodes", 0.5, &m);
        let dir = std::env::temp_dir().join("nicbar_engineprof_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine_prof.json");
        std::fs::write(&path, &json).unwrap();

        let p = load_profile(path.to_str().unwrap()).unwrap();
        assert_eq!(p.components.len(), 3);
        assert_eq!(p.busy_ns.len(), 3);
        assert_eq!(p.traffic, traffic_matrix(&prof));
        assert_eq!(
            p.components.iter().sum::<u64>(),
            24,
            "12 nodes × (host + NIC)"
        );

        let sel = partition_from_profile(path.to_str().unwrap()).unwrap();
        let nicbar_sim::PartitionSel::Weighted {
            weights,
            boundary_cost,
        } = &sel
        else {
            panic!("expected a weighted partition, got {sel:?}");
        };
        assert_eq!(weights.len(), 12, "one weight per prior node");
        assert_eq!(boundary_cost.len(), 12);
        assert!(weights.iter().all(|&w| w >= 1));
        // The selection must build a valid map for a differently-sized run.
        let map = sel.map(16, 8, 2, |c| c % 8);
        assert_eq!(map.shards(), 2);

        // A capture without the traffic matrix still loads (empty matrix,
        // no boundary costs).
        let stripped = {
            let t = json.find("\"traffic_matrix\"").unwrap();
            let d = json.find("\"shards_detail\"").unwrap();
            format!("{}{}", &json[..t], &json[d..])
        };
        let legacy = dir.join("engine_prof_legacy.json");
        std::fs::write(&legacy, stripped).unwrap();
        let p2 = load_profile(legacy.to_str().unwrap()).unwrap();
        assert!(p2.traffic.is_empty());
        let sel2 = partition_from_profile(legacy.to_str().unwrap()).unwrap();
        let nicbar_sim::PartitionSel::Weighted { boundary_cost, .. } = &sel2 else {
            panic!("expected weighted");
        };
        assert!(boundary_cost.is_empty());

        assert!(load_profile("/nonexistent/engine_prof.json").is_none());
        assert!(partition_from_profile("/nonexistent/engine_prof.json").is_none());
    }

    #[test]
    fn bottleneck_share_matches_dominant_and_baseline_parses() {
        let prof = profiled_run();
        let (dom, dom_share) = prof.attribution().dominant();
        assert!((bottleneck_share(&prof, dom) - dom_share).abs() < 1e-12);
        assert_eq!(bottleneck_share(&prof, "no such bucket"), 0.0);
        let att = prof.attribution();
        if att.idle_ns + att.mailbox_ns > 0 {
            let shares: f64 = ["imbalance", "lookahead stall", "mailbox contention"]
                .iter()
                .map(|n| bottleneck_share(&prof, n))
                .sum();
            // imbalance + stall == idle, so the buckets tile lost time.
            assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
        }

        let m = Manifest::new(7, "delta gate test");
        let json = to_json(&prof, "x", 0.1, &m);
        let dir = std::env::temp_dir().join("nicbar_engineprof_baseline");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine_prof_pr7.json");
        std::fs::write(&path, json).unwrap();
        let (name, share) = baseline_bottleneck(path.to_str().unwrap()).unwrap();
        assert_eq!(name, dom);
        assert!((share - dom_share).abs() < 1e-9);
        assert!(baseline_bottleneck("/nonexistent/prof.json").is_none());
    }

    #[test]
    fn baseline_reader_parses_the_sweep_schema() {
        let dir = std::env::temp_dir().join("nicbar_engineprof_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine_sweep.json");
        std::fs::write(
            &path,
            "{\n  \"parallel_one_shard\": {\n    \"point\": \"fig5_n16\",\n    \
             \"sequential_wall_s\": 0.1,\n    \"parallel_wall_s\": 0.11,\n    \
             \"overhead\": -0.0129\n  }\n}\n",
        )
        .unwrap();
        let v = baseline_one_shard_overhead(path.to_str().unwrap()).unwrap();
        assert!((v - (-0.0129)).abs() < 1e-12);
        assert!(baseline_one_shard_overhead("/nonexistent/engine_sweep.json").is_none());
    }

    #[test]
    fn committed_captures_parse_whatever_their_schema() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/");
        let pr7 = format!("{results}engine_prof_pr7.json");
        assert!(load_profile(&pr7).is_some());
        assert!(baseline_bottleneck(&pr7).is_some());
        let sweep = format!("{results}engine_sweep.json");
        assert!(baseline_one_shard_overhead(&sweep).is_some());
    }
}
