//! `nicbar-bench why-slow --replay` validates its input: a netdump whose
//! record ids are not strictly increasing would silently break the
//! analyzer's id binary search, so the replay must refuse it, naming the
//! offending line.

use nicbar_bench::netdump;
use nicbar_core::{gm_nic_barrier_flight, Algorithm, RunCfg};
use nicbar_gm::{CollFeatures, GmParams};
use std::path::PathBuf;
use std::process::{Command, Output};

fn replay(name: &str, text: &str) -> Output {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write replay input");
    let out = Command::new(env!("CARGO_BIN_EXE_nicbar-bench"))
        .args(["why-slow", "--replay"])
        .arg(&path)
        .output()
        .expect("run nicbar-bench why-slow");
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn replay_rejects_a_shuffled_dump_with_the_line_number() {
    let cap = gm_nic_barrier_flight(
        GmParams::lanai_xp(),
        CollFeatures::paper(),
        4,
        Algorithm::Dissemination,
        RunCfg {
            warmup: 1,
            iters: 2,
            ..RunCfg::default()
        },
    );
    let text = netdump::jsonl_with_header(&cap.packets, cap.packets_dropped);
    let ok = replay("why_slow_replay_ordered.jsonl", &text);
    assert_eq!(ok.status.code(), Some(0), "the exported dump replays");

    // Swap records 2 and 3 (file lines 3 and 4, after the header).
    let mut lines: Vec<&str> = text.lines().collect();
    lines.swap(2, 3);
    let bad = replay("why_slow_replay_shuffled.jsonl", &lines.join("\n"));
    assert_eq!(bad.status.code(), Some(1), "a shuffled dump is refused");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("why_slow_replay_shuffled.jsonl:4: record id 2 after id 3"),
        "error names the first out-of-order line: {stderr}"
    );
    assert!(bad.stdout.is_empty(), "no report from a refused dump");
}
