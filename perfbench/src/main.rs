//! `perfbench`: the host cost of simulating the paper's barrier.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! perfbench --print-golden
//! ```
//!
//! An untraced run (`--trace 0`) repeats the workload's rounds for
//! `--seconds` and prints the end-to-end metrics (host time; simulated
//! results are checked, never reported as metrics). A traced run
//! (`--trace 1`) times calls into each layer from outside and prints the
//! per-layer metrics instead. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! nonzero when any correctness check failed.

mod golden;
mod layers;
mod scen;
mod work;

use std::time::Instant;

/// A named measurement with its unit.
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one invocation measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines printed before the JSON result.
    pub lines: Vec<String>,
}

const USAGE: &str = "usage: perfbench --workload <paper8|scale16k|contend256|verify4> \
--seed <n> --seconds <s> --trace <0|1> | --self-test | --print-golden";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    SelfTest,
    PrintGolden,
}

fn parse_args() -> Result<Mode, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--self-test" => return Ok(Mode::SelfTest),
            "--print-golden" => return Ok(Mode::PrintGolden),
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !work::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Mode::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (NaN when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The git revision of the checkout, read from `.git` without running git
/// (the benchmark may run in an export that is not a repository).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout)".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {r}"))
}

/// Host and configuration stamp for a result.
fn stamp(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (engine, shards) = match workload {
        "verify4" => ("model-checker", 1),
        _ => ("sequential", 1),
    };
    format!(
        "stamp: nproc={nproc} git_rev={} rustc=\"{}\" profile={} engine={engine} shards={shards} \
         seed={seed} workload={workload} trace={}",
        git_rev(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        u8::from(trace),
    )
}

fn json_result(o: &Outcome) -> String {
    let correct = o.failed == 0;
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(Mode::Run(a)) => a,
        Ok(Mode::SelfTest) => std::process::exit(work::self_test()),
        Ok(Mode::PrintGolden) => {
            for w in work::WORKLOADS {
                for tiny in [false, true] {
                    match work::golden_round(w, tiny) {
                        Ok(rows) => print!("{}", golden::render(w, tiny, &rows)),
                        Err(e) => {
                            eprintln!("perfbench: {w}: {e}");
                            std::process::exit(1);
                        }
                    }
                }
            }
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    println!(
        "== perfbench {} (seed {}, {} s, trace {}) ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", stamp(&args.workload, args.seed, args.trace));
    let mut out = if args.trace {
        layers::measure(&args.workload, args.seed, false)
    } else {
        work::measure(&args.workload, args.seed, args.seconds, false)
    };
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.lines
                .push(format!("FAILED: metric {} is not finite", m.name));
            out.failed += 1;
        }
    }
    out.metrics.retain(|m| m.value.is_finite());
    for l in &out.lines {
        println!("{l}");
    }
    for m in &out.metrics {
        let pairs = if args.trace {
            format!("  -> {}", layers::pairing(&m.name))
        } else {
            String::new()
        };
        println!(
            "metric {:<38} {:>18.6} {:<5}{pairs}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "attempted {} failed {} (wall {:.1} s)",
        out.attempted,
        out.failed,
        t0.elapsed().as_secs_f64()
    );
    println!("{}", json_result(&out));
    if out.failed > 0 {
        std::process::exit(1);
    }
}
