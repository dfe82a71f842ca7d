//! Perf-trajectory artifacts (`BENCH_*.json`, at the repository root).
//!
//! A trajectory is the distribution-aware companion of a figure: per node
//! count it records the median and p99 barrier latency (from the full
//! per-iteration sample vector, not just the mean), with the run manifest
//! embedded so the artifact states which seed, config, and git revision
//! produced it. The `BENCH_` prefix marks the files the CI gate tracks
//! across commits; they live at the repo root (not under `results/`) so
//! the perf trajectory is visible at the top level of every checkout.
//!
//! The artifact is *append-only*: each regeneration adds one run object to
//! a `"runs"` array instead of truncating the file, so the trajectory is a
//! history — every entry carries its own manifest (seed, config hash, git
//! revision) and the file answers "when did this curve move?" without
//! spelunking CI logs. The history is capped at [`MAX_RUNS`] entries
//! (oldest dropped first), and a legacy single-run file (top-level
//! `"series"`) restarts the history rather than corrupting it.

use crate::json::{Manifest, Writer};
use nicbar_core::BarrierStats;
use std::path::PathBuf;

/// Most runs retained in one `BENCH_*.json` history; the oldest entries
/// are dropped first. 64 runs × a few KiB keeps the tracked artifact far
/// below anything a repository would notice.
pub const MAX_RUNS: usize = 64;

/// One node count's latency summary.
#[derive(Clone, Debug)]
pub struct TrajectoryPoint {
    /// Group size.
    pub n: usize,
    /// Mean latency over the measured window, µs.
    pub mean_us: f64,
    /// Median (p50) latency, µs.
    pub median_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Measured iterations behind the quantiles.
    pub iters: usize,
}

/// Summarize one sweep point from its full stats. Quantiles use the
/// nearest-rank method over the sorted per-iteration samples.
pub fn point(n: usize, stats: &BarrierStats) -> TrajectoryPoint {
    let mut v = stats.per_iter_us.clone();
    v.sort_by(f64::total_cmp);
    let q = |f: f64| -> f64 {
        if v.is_empty() {
            return stats.mean_us;
        }
        let idx = ((v.len() as f64 - 1.0) * f).round() as usize;
        v[idx.min(v.len() - 1)]
    };
    TrajectoryPoint {
        n,
        mean_us: stats.mean_us,
        median_us: q(0.5),
        p99_us: q(0.99),
        iters: v.len(),
    }
}

/// Render one run body: the manifest plus the series, as a standalone JSON
/// object ready for [`append_run`].
pub fn run_json(series: &[(&str, Vec<TrajectoryPoint>)], manifest: &Manifest) -> String {
    let mut w = Writer::new();
    w.open_object();
    manifest.emit(&mut w);
    w.field("series");
    w.open_array();
    for (label, points) in series {
        w.open_object();
        w.field("label");
        w.string(label);
        w.field("points");
        w.open_array();
        for p in points {
            w.open_object();
            w.field("n");
            w.uint(p.n as u64);
            w.field("mean_us");
            w.number(p.mean_us);
            w.field("median_us");
            w.number(p.median_us);
            w.field("p99_us");
            w.number(p.p99_us);
            w.field("iters");
            w.uint(p.iters as u64);
            w.close_object();
        }
        w.close_array();
        w.close_object();
    }
    w.close_array();
    w.close_object();
    w.finish()
}

/// Split the `"runs"` array of an existing trajectory artifact back into
/// its run-object sources. Returns an empty vector when the text has no
/// `"runs"` array — including the legacy single-run schema (top-level
/// `"series"`), which deliberately restarts the history. The scanner is
/// string-aware (a `{` inside a manifest's config string is data, not
/// structure).
fn extract_runs(text: &str) -> Vec<String> {
    let Some(key) = text.find("\"runs\"") else {
        return Vec::new();
    };
    let Some(open) = text[key..].find('[') else {
        return Vec::new();
    };
    let mut runs = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = None;
    for (i, c) in text[key + open..].char_indices() {
        let at = key + open + i;
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(at);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        runs.push(text[s..=at].to_string());
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    runs
}

/// Append `run_body` (one JSON object, e.g. from [`run_json`]) to the
/// `BENCH_<bench>.json` history at the repository root and return the
/// path. Existing runs are preserved (capped at [`MAX_RUNS`], oldest
/// dropped); a missing or legacy-schema file starts a fresh history.
pub fn append_run(bench: &str, run_body: &str) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{bench}.json"));
    append_run_at(&path, bench, run_body)?;
    Ok(path)
}

/// [`append_run`] against an explicit file path (testable without touching
/// the process working directory).
pub fn append_run_at(path: &std::path::Path, bench: &str, run_body: &str) -> std::io::Result<()> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => extract_runs(&text),
        Err(_) => Vec::new(),
    };
    runs.push(run_body.to_string());
    if runs.len() > MAX_RUNS {
        let drop = runs.len() - MAX_RUNS;
        runs.drain(..drop);
    }
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"");
    out.push_str(bench);
    out.push_str("\",\n  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        for line in run.trim().lines() {
            out.push_str("    ");
            out.push_str(line);
            out.push('\n');
        }
        // The indenter re-normalizes each retained run, so re-appending is
        // idempotent in shape; only the trailing comma distinguishes runs.
        if i + 1 < runs.len() {
            out.truncate(out.trim_end().len());
            out.push_str(",\n");
        }
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Append this run to `BENCH_<bench>.json` at the repository root (the
/// working directory of a `cargo run` invocation) and return its path.
pub fn save(
    bench: &str,
    series: &[(&str, Vec<TrajectoryPoint>)],
    manifest: &Manifest,
) -> std::io::Result<PathBuf> {
    let path = append_run(bench, &run_json(series, manifest))?;
    println!("[saved {}]", path.display());
    Ok(path)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code
mod tests {
    use super::*;

    fn stats(samples: &[f64]) -> BarrierStats {
        BarrierStats {
            n: 4,
            mean_us: samples.iter().sum::<f64>() / samples.len() as f64,
            per_iter_us: samples.to_vec(),
            wire_per_barrier: 0.0,
            counters: Vec::new(),
        }
    }

    #[test]
    fn quantiles_use_nearest_rank_over_sorted_samples() {
        let s = stats(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        let p = point(4, &s);
        assert_eq!(p.median_us, 3.0);
        assert_eq!(p.p99_us, 5.0);
        assert_eq!(p.iters, 5);
    }

    #[test]
    fn artifact_embeds_the_manifest() {
        let m = Manifest::new(7, "test config");
        let pts = vec![point(2, &stats(&[1.0, 2.0]))];
        let json = run_json(&[("NIC-DS", pts)], &m);
        assert!(json.contains("\"manifest\""));
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains("\"config\": \"test config\""));
        assert!(json.contains("\"median_us\""));
        assert!(json.contains("\"p99_us\""));
    }

    #[test]
    fn extract_runs_round_trips_and_ignores_string_braces() {
        let m = Manifest::new(1, "braces { in } config \"quoted\"");
        let body = run_json(&[("X", vec![point(2, &stats(&[1.0]))])], &m);
        let file = format!("{{\n  \"bench\": \"t\",\n  \"runs\": [\n{body},\n{body}\n  ]\n}}\n");
        let runs = extract_runs(&file);
        assert_eq!(runs.len(), 2);
        for r in &runs {
            assert!(r.contains("\"manifest\""));
            assert!(r.trim().starts_with('{') && r.trim().ends_with('}'));
        }
    }

    #[test]
    fn legacy_single_run_schema_restarts_the_history() {
        assert!(extract_runs("{\n  \"bench\": \"x\",\n  \"series\": [{}]\n}").is_empty());
        assert!(extract_runs("").is_empty());
    }

    #[test]
    fn history_is_append_only_and_capped() {
        let dir = std::env::temp_dir().join(format!("nicbar_traj_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_t.json");
        let m = Manifest::new(9, "traj test");
        let body = run_json(&[("X", vec![point(2, &stats(&[1.0, 2.0]))])], &m);

        // Legacy file: one run replaces it.
        std::fs::write(&path, "{\n  \"bench\": \"t\",\n  \"series\": []\n}").unwrap();
        append_run_at(&path, "t", &body).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(extract_runs(&text).len(), 1);
        assert!(text.contains("\"runs\""));
        assert!(text.contains("\"manifest\""));

        // Appends grow the history monotonically...
        for i in 0..MAX_RUNS + 5 {
            let n = extract_runs(&std::fs::read_to_string(&path).unwrap()).len();
            append_run_at(&path, "t", &body).unwrap();
            let after = extract_runs(&std::fs::read_to_string(&path).unwrap()).len();
            assert!(after >= n, "append {i} shrank the history: {n} -> {after}");
            // ...up to the cap.
            assert!(after <= MAX_RUNS);
        }
        let final_runs = extract_runs(&std::fs::read_to_string(&path).unwrap());
        assert_eq!(final_runs.len(), MAX_RUNS);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_1_runs_survive_a_schema_2_append() {
        // A run as schema 1 wrote it: no `host_threads` in the manifest.
        let v1 = "{\n  \"manifest\": {\n    \"schema\": 1,\n    \"seed\": 42,\n    \
                  \"config\": \"v1\",\n    \"config_hash\": \"065d93211e6f9519\",\n    \
                  \"git_rev\": \"8c0718440612\"\n  },\n  \"series\": []\n}";
        let dir = std::env::temp_dir().join(format!("nicbar_traj_v2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_t.json");
        std::fs::remove_file(&path).ok();
        append_run_at(&path, "t", v1).unwrap();
        let m = Manifest::new(3, "schema 2 run");
        let body = run_json(&[("X", vec![point(2, &stats(&[1.0]))])], &m);
        append_run_at(&path, "t", &body).unwrap();

        let runs = extract_runs(&std::fs::read_to_string(&path).unwrap());
        assert_eq!(runs.len(), 2);
        let norm = |r: &str| r.split_whitespace().collect::<String>();
        assert_eq!(norm(&runs[0]), norm(v1), "the schema-1 run changed");
        assert!(runs[1].contains("\"schema\": 2"));
        assert_eq!(runs[1].matches("\"host_threads\"").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
