//! # nicbar-bench — the harness that regenerates the paper's evaluation
//!
//! The library half holds what the commands share: figure and series
//! records, the parallel point sweep, run manifests, `BENCH_*` trajectories,
//! the analysis modules (`critpath`, `engineprof`, `flight`, `netdump`),
//! and the scheduler micro-workloads (`micro`, `seed_engine`). The `nicbar-bench` executable (`src/main.rs`) puts every
//! evaluation command — the figures (`fig5` .. `fig8`, `fig-scale`), the
//! headline table (`table1`), the analyses (`why-slow`, `contend`,
//! `engine-prof`, ...) — behind one front end; `nicbar-bench help` lists
//! them. Each figure command prints the paper's series side by side with
//! the simulated ones and writes machine-readable JSON under `results/`.
//!
//! Criterion benches (`benches/figures.rs`, `benches/shm.rs`,
//! `benches/engine.rs`) exercise the same code paths under `cargo bench`.

#![warn(missing_docs)]

use std::io::Write;
use std::path::Path;

pub mod critpath;
pub mod engineprof;
pub mod flight;
pub mod json;
pub mod micro;
pub mod netdump;
pub mod seed_engine;
pub mod trajectory;

pub use json::{Manifest, MANIFEST_SCHEMA};

/// One labelled curve of `(n, latency_us)` points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Curve label (e.g. "NIC-DS").
    pub label: String,
    /// `(nodes, latency µs)` points.
    pub points: Vec<(usize, f64)>,
}

impl Series {
    /// Build from a label and points.
    pub fn new(label: impl Into<String>, points: Vec<(usize, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// Latency at a given `n`, if present.
    pub fn at(&self, n: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(pn, _)| pn == n)
            .map(|&(_, v)| v)
    }
}

/// A complete figure: title plus series, serialized to `results/`.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure identifier ("fig5", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Run manifest embedded in the artifact (seed, config hash, git rev).
    pub manifest: Option<Manifest>,
}

impl Figure {
    /// Assemble a figure.
    pub fn new(id: impl Into<String>, title: impl Into<String>, series: Vec<Series>) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            series,
            manifest: None,
        }
    }

    /// Attach a run manifest, embedded under `"manifest"` in the JSON.
    pub fn with_manifest(mut self, manifest: Manifest) -> Self {
        self.manifest = Some(manifest);
        self
    }

    /// Print as an aligned text table.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let ns: Vec<usize> = {
            let mut all: Vec<usize> = self
                .series
                .iter()
                .flat_map(|s| s.points.iter().map(|&(n, _)| n))
                .collect();
            all.sort_unstable();
            all.dedup();
            all
        };
        print!("{:>6}", "nodes");
        for s in &self.series {
            print!("{:>16}", s.label);
        }
        println!();
        for n in ns {
            print!("{n:>6}");
            for s in &self.series {
                match s.at(n) {
                    Some(v) => print!("{v:>16.2}"),
                    None => print!("{:>16}", "-"),
                }
            }
            println!();
        }
    }

    /// Render as JSON (the same shape `serde_json` used to emit for the
    /// derive: `points` as arrays of `[n, latency]` pairs).
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.open_object();
        w.field("id");
        w.string(&self.id);
        w.field("title");
        w.string(&self.title);
        if let Some(m) = &self.manifest {
            m.emit(&mut w);
        }
        w.field("series");
        w.open_array();
        for s in &self.series {
            w.open_object();
            w.field("label");
            w.string(&s.label);
            w.field("points");
            w.open_array();
            for &(n, v) in &s.points {
                w.compact_array(&[n as f64, v]);
            }
            w.close_array();
            w.close_object();
        }
        w.close_array();
        w.close_object();
        w.finish()
    }

    /// Write JSON to `results/<id>.json` (creating the directory).
    pub fn save(&self) -> std::io::Result<()> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        println!("[saved {}]", path.display());
        Ok(())
    }
}

/// Run `f` for every `n` in parallel. Each point is an independent
/// deterministic simulation, so the work is shared across at most
/// `available_parallelism` OS threads pulling indices from an atomic work
/// queue — a 40-point sweep no longer spawns 40 threads.
pub fn parallel_sweep<F>(ns: &[usize], f: F) -> Vec<(usize, f64)>
where
    F: Fn(usize) -> f64 + Sync,
{
    parallel_sweep_map(ns, f)
}

/// Generic [`parallel_sweep`]: collect any `Send` result per point, in
/// `n` order. Used where a sweep needs the full [`nicbar_core::BarrierStats`]
/// (per-iteration samples for median/p99), not just the mean.
pub fn parallel_sweep_map<T, F>(ns: &[usize], f: F) -> Vec<(usize, T)>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    if ns.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(ns.len());
    let next = AtomicUsize::new(0);
    let merged = std::sync::Mutex::new(Vec::with_capacity(ns.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&n) = ns.get(i) else { break };
                    local.push((n, f(n)));
                }
                merged.lock().expect("sweep worker panicked").extend(local);
            });
        }
    });
    let mut out = merged.into_inner().expect("sweep worker panicked");
    out.sort_by_key(|&(n, _)| n);
    out
}

/// The benchmark iteration counts used by the figure commands. The paper
/// uses 100 warm-up + 10 000 measured iterations on hardware; the simulated
/// fabric is deterministic, so 100 + 2 000 reaches the identical steady
/// state at a fraction of the wall time (changing this only narrows the
/// already-negligible variance).
pub fn figure_cfg() -> nicbar_core::RunCfg {
    nicbar_core::RunCfg {
        warmup: 100,
        iters: 2000,
        ..nicbar_core::RunCfg::default()
    }
}

/// Reduced iteration counts for Criterion benches (wall-time bounded).
pub fn criterion_cfg() -> nicbar_core::RunCfg {
    nicbar_core::RunCfg {
        warmup: 20,
        iters: 200,
        ..nicbar_core::RunCfg::default()
    }
}

/// CI-smoke iteration counts used by the figure commands under `--quick`.
pub fn quick_cfg() -> nicbar_core::RunCfg {
    nicbar_core::RunCfg {
        warmup: 10,
        iters: 100,
        ..nicbar_core::RunCfg::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_lookup() {
        let s = Series::new("x", vec![(2, 1.0), (4, 2.0)]);
        assert_eq!(s.at(4), Some(2.0));
        assert_eq!(s.at(8), None);
    }

    #[test]
    fn parallel_sweep_is_ordered_and_complete() {
        let pts = parallel_sweep(&[8, 2, 4], |n| n as f64 * 1.5);
        assert_eq!(pts, vec![(2, 3.0), (4, 6.0), (8, 12.0)]);
    }

    #[test]
    fn parallel_sweep_handles_more_points_than_cores() {
        let ns: Vec<usize> = (1..=97).collect();
        let pts = parallel_sweep(&ns, |n| n as f64);
        assert_eq!(pts.len(), 97);
        assert!(pts.iter().all(|&(n, v)| v == n as f64));
    }

    #[test]
    fn figure_print_does_not_panic() {
        let fig = Figure::new(
            "t",
            "test figure",
            vec![
                Series::new("a", vec![(2, 1.0)]),
                Series::new("b", vec![(2, 2.0), (4, 3.0)]),
            ],
        );
        fig.print();
    }

    #[test]
    fn figure_json_shape() {
        let fig = Figure::new("t", "ti\"tle", vec![Series::new("a", vec![(2, 1.5)])]);
        let j = fig.to_json();
        assert!(j.contains("\"id\": \"t\""));
        assert!(j.contains("\"ti\\\"tle\""));
        assert!(j.contains("[2, 1.5]"), "got: {j}");
    }
}
