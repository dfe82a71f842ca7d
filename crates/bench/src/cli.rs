//! The `nicbar-bench` front end: one command table and one strict flag
//! parser for every evaluation command.
//!
//! This is the only place in the crate that reads the process arguments.
//! Each command lists the flags it takes. The parser exits with status 2,
//! printing the command's usage on stderr, on an unknown command, an
//! unknown flag, a flag the command does not take, or a missing or
//! malformed value — so a mistyped flag never silently runs the default
//! sweep and overwrites a tracked artifact.

use crate::cmd;
use nicbar_bench::{engineprof, figure_cfg, quick_cfg};
use nicbar_core::RunCfg;
use nicbar_sim::{EngineSel, PartitionSel};

/// A flag the front end knows. [`FLAGS`] spells each one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    Quick,
    Check,
    Engine,
    Shards,
    Partition,
    Nodes,
    Substrate,
    Drop,
    Seed,
    Iters,
    GmOnly,
    ElanOnly,
    Chrome,
    Jsonl,
    Replay,
    Baseline,
}

/// Every flag as typed, with its value placeholder (`None` for a switch).
#[rustfmt::skip]
const FLAGS: [(Flag, &str, Option<&str>); 16] = [
    (Flag::Quick,     "--quick",     None),
    (Flag::Check,     "--check",     None),
    (Flag::Engine,    "--engine",    Some("auto|sequential|parallel")),
    (Flag::Shards,    "--shards",    Some("K")),
    (Flag::Partition, "--partition", Some("contiguous|profile=PATH")),
    (Flag::Nodes,     "--nodes",     Some("N")),
    (Flag::Substrate, "--substrate", Some("gm|elan")),
    (Flag::Drop,      "--drop",      Some("P")),
    (Flag::Seed,      "--seed",      Some("S")),
    (Flag::Iters,     "--iters",     Some("N")),
    (Flag::GmOnly,    "--gm-only",   None),
    (Flag::ElanOnly,  "--elan-only", None),
    (Flag::Chrome,    "--chrome",    Some("PATH")),
    (Flag::Jsonl,     "--jsonl",     Some("PATH")),
    (Flag::Replay,    "--replay",    Some("PATH")),
    (Flag::Baseline,  "--baseline",  Some("PATH")),
];

impl Flag {
    fn spec(self) -> (&'static str, Option<&'static str>) {
        let &(_, name, value) = FLAGS
            .iter()
            .find(|f| f.0 == self)
            .expect("every flag is in FLAGS");
        (name, value)
    }

    fn name(self) -> &'static str {
        self.spec().0
    }
}

/// A command's parsed flags. Flags the command does not take stay at
/// their defaults; each command applies its own defaults to the `Option`s.
#[derive(Clone, Debug, Default)]
pub struct Args {
    pub quick: bool,
    pub check: bool,
    pub engine: EngineSel,
    pub shards: Option<usize>,
    pub partition: PartitionSel,
    pub nodes: Option<usize>,
    pub substrate: Option<&'static str>,
    pub drop: f64,
    pub seed: Option<u64>,
    pub iters: Option<u64>,
    pub gm_only: bool,
    pub elan_only: bool,
    pub chrome: Option<String>,
    pub jsonl: Option<String>,
    pub replay: Option<String>,
    pub baseline: Option<String>,
}

impl Args {
    /// The figure commands' run config: [`quick_cfg`] under `--quick`,
    /// [`figure_cfg`] otherwise, with `--engine`, `--shards` and
    /// `--partition` applied.
    pub fn run_cfg(&self) -> RunCfg {
        let mut cfg = if self.quick {
            quick_cfg()
        } else {
            figure_cfg()
        };
        cfg.engine = self.engine;
        cfg.shards = self.shards.unwrap_or(cfg.shards);
        cfg.partition = self.partition.clone();
        cfg
    }

    /// Store one flag (and its value), validating the value.
    fn set(&mut self, flag: Flag, v: &str) -> Result<(), String> {
        let bad = |what: &str| format!("{} expects {what}, got {v:?}", flag.name());
        match flag {
            Flag::Quick => self.quick = true,
            Flag::Check => self.check = true,
            Flag::GmOnly => self.gm_only = true,
            Flag::ElanOnly => self.elan_only = true,
            Flag::Engine => {
                self.engine = match v {
                    "auto" => EngineSel::Auto,
                    "sequential" => EngineSel::Sequential,
                    "parallel" => EngineSel::Parallel,
                    _ => return Err(bad("auto|sequential|parallel")),
                }
            }
            Flag::Shards => {
                let k = v.parse().ok().filter(|&k: &usize| k >= 1);
                self.shards = Some(k.ok_or_else(|| bad("an integer >= 1"))?);
            }
            Flag::Partition => {
                self.partition = parse_partition(v)
                    .ok_or_else(|| bad("contiguous or profile=PATH of a readable capture"))?;
            }
            Flag::Nodes => {
                let n = v.parse().ok().filter(|&n: &usize| n >= 2);
                self.nodes = Some(n.ok_or_else(|| bad("an integer >= 2"))?);
            }
            Flag::Substrate => {
                self.substrate = Some(match v {
                    "gm" => "gm",
                    "elan" => "elan",
                    _ => return Err(bad("gm|elan")),
                });
            }
            Flag::Drop => {
                let p = v.parse().ok().filter(|p| (0.0..=1.0).contains(p));
                self.drop = p.ok_or_else(|| bad("a probability in [0, 1]"))?;
            }
            Flag::Seed => self.seed = Some(v.parse().map_err(|_| bad("an unsigned integer"))?),
            Flag::Iters => {
                let n = v.parse().ok().filter(|&n: &u64| n >= 1);
                self.iters = Some(n.ok_or_else(|| bad("an integer >= 1"))?);
            }
            Flag::Chrome => self.chrome = Some(v.to_string()),
            Flag::Jsonl => self.jsonl = Some(v.to_string()),
            Flag::Replay => self.replay = Some(v.to_string()),
            Flag::Baseline => self.baseline = Some(v.to_string()),
        }
        Ok(())
    }
}

/// A `--partition` value: `contiguous` (the default even split) or
/// `profile=<path>` (profile-guided, from a prior engine-prof capture).
/// `None` when malformed or when the capture is unreadable.
fn parse_partition(value: &str) -> Option<PartitionSel> {
    match value {
        "contiguous" => Some(PartitionSel::Contiguous),
        other => engineprof::partition_from_profile(other.strip_prefix("profile=")?),
    }
}

/// The engine a run config resolves to, as manifest config text.
pub fn engine_label(cfg: &RunCfg) -> String {
    let (parallel, shards) = cfg.engine.resolve(cfg.shards);
    let engine = if parallel { "parallel" } else { "sequential" };
    format!("engine={engine}, shards={shards}")
}

/// One entry of the command table.
pub struct Command {
    name: &'static str,
    flags: &'static [Flag],
    run: fn(&Args),
    about: &'static str,
}

impl Command {
    fn usage(&self) -> String {
        let mut out = format!("usage: nicbar-bench {}", self.name);
        for &flag in self.flags {
            match flag.spec() {
                (name, Some(value)) => out.push_str(&format!(" [{name} {value}]")),
                (name, None) => out.push_str(&format!(" [{name}]")),
            }
        }
        format!("{out}\n{}\n", self.about)
    }
}

const FIGURE: &[Flag] = &[Flag::Quick, Flag::Engine, Flag::Shards, Flag::Partition];

/// Every command, in the order `help` lists them.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "fig5", flags: FIGURE, run: cmd::fig5::run,
              about: "Fig. 5: NIC vs host barrier, Myrinet LANai-9.1, 2-16 nodes" },
    Command { name: "fig6", flags: FIGURE, run: cmd::fig6::run,
              about: "Fig. 6: NIC vs host barrier, Myrinet LANai-XP, 2-8 nodes" },
    Command { name: "fig7", flags: FIGURE, run: cmd::fig7::run,
              about: "Fig. 7: NIC barrier vs gsync vs hgsync, Quadrics Elan3, 2-8 nodes" },
    Command { name: "fig8", flags: FIGURE, run: cmd::fig8::run,
              about: "Fig. 8: scalability to 1024 nodes, simulation vs model" },
    Command { name: "fig-scale", flags: FIGURE, run: cmd::fig_scale::run,
              about: "NIC barrier to 65,536 nodes: ns/event, peak RSS, engine speedup" },
    Command { name: "table1", flags: &[], run: cmd::table1::run,
              about: "the paper's headline numbers, paper vs simulation" },
    Command { name: "ablation", flags: &[], run: cmd::ablation::run,
              about: "which collective-protocol feature buys how much" },
    Command { name: "algo-compare", flags: FIGURE, run: cmd::algo_compare::run,
              about: "DS vs PE vs gather-broadcast on both substrates (section 5.2)" },
    Command { name: "variance", flags: &[], run: cmd::variance::run,
              about: "spread across node permutations and per-iteration jitter" },
    Command { name: "topology-sensitivity", flags: &[], run: cmd::topology_sensitivity::run,
              about: "1024-node barrier latency vs crossbar radix" },
    Command { name: "interference", flags: &[], run: cmd::interference::run,
              about: "8-node barrier latency under background bulk traffic" },
    Command { name: "contend", run: cmd::contend::run,
              flags: &[Flag::Quick, Flag::Check, Flag::Shards, Flag::Partition],
              about: "overlapping groups plus bulk traffic: who held the resource" },
    Command { name: "flight", run: cmd::flight::run,
              flags: &[Flag::Nodes, Flag::Chrome, Flag::GmOnly, Flag::ElanOnly, Flag::Engine,
                       Flag::Shards],
              about: "flight-recorded per-phase breakdown of the NIC barrier" },
    Command { name: "why-slow", run: cmd::why_slow::run,
              flags: &[Flag::Nodes, Flag::Substrate, Flag::Drop, Flag::Seed, Flag::Iters,
                       Flag::Jsonl, Flag::Engine, Flag::Shards, Flag::Check, Flag::Replay],
              about: "critical path of every barrier, edge by edge" },
    Command { name: "engine-prof", run: cmd::engine_prof::run,
              flags: &[Flag::Quick, Flag::Check, Flag::Nodes, Flag::Shards, Flag::Partition,
                       Flag::Chrome],
              about: "the parallel engine profiling itself" },
    Command { name: "engine-sweep", flags: &[Flag::Quick, Flag::Baseline],
              run: cmd::engine_sweep::run,
              about: "scheduler throughput and the zero-overhead gate" },
];

fn overview() -> String {
    let mut out = String::from(
        "usage: nicbar-bench <command> [flags]   (<command> --help: its flags)\n\ncommands:\n",
    );
    for c in COMMANDS {
        out.push_str(&format!("  {:<22} {}\n", c.name, c.about));
    }
    out
}

/// Parse a command's arguments against its flag list.
fn parse(cmd: &Command, argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut seen: Vec<Flag> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let &(flag, _, placeholder) = FLAGS
            .iter()
            .find(|f| f.1 == arg)
            .ok_or_else(|| format!("unknown flag {arg:?}"))?;
        if !cmd.flags.contains(&flag) {
            return Err(format!("{} does not take {arg}", cmd.name));
        }
        if seen.contains(&flag) {
            return Err(format!("{arg} given twice"));
        }
        seen.push(flag);
        let value = match placeholder {
            Some(_) => it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} needs a value"))?,
            None => "",
        };
        args.set(flag, value)?;
    }
    if args.gm_only && args.elan_only {
        return Err("--gm-only and --elan-only exclude each other".into());
    }
    if args.baseline.is_some() && !args.quick {
        return Err("--baseline needs --quick".into());
    }
    Ok(args)
}

/// Print `msg` and `usage` to stderr and exit 2.
fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("nicbar-bench: {msg}");
    eprint!("{usage}");
    std::process::exit(2);
}

/// Dispatch the process arguments to a command.
pub fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        usage_error("no command given", &overview());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") && rest.is_empty() {
        print!("{}", overview());
        return;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        usage_error(&format!("unknown command {name:?}"), &overview());
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", cmd.usage());
        return;
    }
    match parse(cmd, rest) {
        Ok(args) => (cmd.run)(&args),
        Err(msg) => usage_error(&format!("{}: {msg}", cmd.name), &cmd.usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_cmd(name: &str, argv: &[&str]) -> Result<Args, String> {
        let cmd = COMMANDS.iter().find(|c| c.name == name).expect("command");
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        parse(cmd, &argv)
    }

    #[test]
    fn figure_flags_thread_into_the_run_config() {
        let args = parse_cmd(
            "fig5",
            &["--quick", "--engine", "parallel", "--shards", "3"],
        )
        .expect("valid flags");
        let cfg = args.run_cfg();
        assert_eq!(cfg.iters, quick_cfg().iters);
        assert_eq!((cfg.engine, cfg.shards), (EngineSel::Parallel, 3));
        assert_eq!(engine_label(&cfg), "engine=parallel, shards=3");
        assert_eq!(engine_label(&figure_cfg()), "engine=sequential, shards=1");
    }
}
