//! The `nicbar-bench` front end is strict: every malformed invocation exits
//! 2 with a usage message before any simulation runs, so a mistyped flag
//! can never silently run the default sweep and overwrite a tracked
//! artifact. Each invocation runs in a fresh directory, so the tests also
//! see exactly which files a command leaves behind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every command the front end offers, in `help` order.
const COMMANDS: [&str; 16] = [
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig-scale",
    "table1",
    "ablation",
    "algo-compare",
    "variance",
    "topology-sensitivity",
    "interference",
    "contend",
    "flight",
    "why-slow",
    "engine-prof",
    "engine-sweep",
];

/// A fresh, empty working directory named after the test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn run_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nicbar-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run nicbar-bench")
}

fn assert_usage_error(dir: &Path, args: &[&str]) {
    let out = run_in(dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(
        stderr.contains("usage: nicbar-bench"),
        "{args:?} must print usage on stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn mistyped_flag_exits_before_any_simulation() {
    let dir = fresh_dir("mistyped");
    assert_usage_error(&dir, &["fig5", "--qiuck"]);
    assert!(
        !dir.join("results").exists(),
        "fig5 --qiuck created results/"
    );
    assert!(
        !dir.join("BENCH_fig5.json").exists(),
        "fig5 --qiuck wrote a trajectory"
    );
}

#[test]
fn malformed_invocations_are_usage_errors() {
    let dir = fresh_dir("malformed");
    for args in [
        &["no-such-command"][..],
        &["why-slow", "--nodes"],
        &["fig5", "--engine", "fast"],
        &["fig5", "--shards", "0"],
        &["engine-prof", "--shards", "0"],
        &["fig6", "--check"],
        &["flight", "--gm-only", "--elan-only"],
        &["flight", "--nodes", "1"],
        &["why-slow", "--nodes", "1"],
        &["fig5", "quick"],
        &["fig5", "--quick", "--quick"],
        &["fig5", "--shards", "--quick"],
        &["fig5", "--partition", "bogus"],
        &["why-slow", "--drop", "1.5"],
        &["why-slow", "--iters", "0"],
        &["why-slow", "--substrate", "ib"],
        &["why-slow", "--substrate", "elan", "--drop", "0.02"],
        &["engine-sweep", "--baseline", "b.json"],
        &["contend", "--engine", "parallel"],
        &["timeline"],
        &["breakdown"],
        &["fig5", "--prof"],
        &["fig7", "--flight"],
    ] {
        assert_usage_error(&dir, args);
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
    assert!(
        left.is_empty(),
        "a rejected invocation wrote files: {left:?}"
    );
}

#[test]
fn help_lists_every_command_once_and_each_command_has_help() {
    let dir = fresh_dir("help");
    let out = run_in(&dir, &["help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("  "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, COMMANDS, "help output:\n{text}");

    for cmd in COMMANDS {
        let out = run_in(&dir, &[cmd, "--help"]);
        let usage = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{cmd} --help");
        assert!(
            usage.starts_with(&format!("usage: nicbar-bench {cmd}")),
            "{cmd} --help: {usage}"
        );
    }
}
