#!/usr/bin/env bash
# Full local gate: release build, workspace tests, clippy with warnings
# denied, rustdoc with warnings denied, formatting, static analysis,
# protocol model checking, and the observability zero-overhead gate. Run
# from anywhere inside the repo.
#
# Every gate runs under the `gate` wrapper, which times it and prints a
# per-gate wall-time summary at the end — so when the gate gets slow, the
# summary names the culprit instead of leaving it to guesswork. A failing
# gate does not stop the script: every later gate still runs, the summary
# marks the failure FAILED, and the script exits non-zero at the end. A
# gate the host cannot run goes through `skip_gate` instead, so the summary
# lists it as SKIPPED with its reason rather than leaving it out. Every
# invocation appends one run to the BENCH_check.json trajectory: git rev,
# host threads, total wall seconds, and each gate's name, seconds and
# status (ok, FAILED or SKIPPED).
#
# Bench commands all run through the one front end, `cargo run --release
# -q -p nicbar-bench -- <command> [flags]`. CI runs why-slow (smoke and
# counterexample replay), engine-sweep --quick, engine-prof, fig-scale
# --quick, fig5/fig7 --quick and contend --quick. The other commands
# (fig6, fig8, table1, ablation, algo-compare, variance,
# topology-sensitivity, interference, flight) are only built, and their
# flag parsing is tested by crates/bench/tests/cli.rs under the `test`
# gate.
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK_T0=$(date +%s%N)
GATE_NAMES=()
GATE_SECS=()
GATE_NOTES=()
GATE_STATUS=()
FAILED_GATES=()
gate() {
    local name="$1"
    shift
    local t0 t1 status
    t0=$(date +%s%N)
    # A subshell outside any `if`/`||` context keeps `set -e` live inside
    # the gate, so a multi-step gate still stops at its first failing step;
    # `set +e` around it lets the script go on to the next gate.
    set +e
    (set -e; "$@")
    status=$?
    set -e
    t1=$(date +%s%N)
    GATE_NAMES+=("$name")
    GATE_SECS+=("$(printf '%d.%03ds' $(((t1 - t0) / 1000000000)) $(((t1 - t0) / 1000000 % 1000)))")
    if [ "$status" -eq 0 ]; then
        GATE_NOTES+=("")
        GATE_STATUS+=("ok")
    else
        GATE_NOTES+=("  FAILED (exit $status)")
        GATE_STATUS+=("FAILED")
        FAILED_GATES+=("$name")
        echo "check.sh: gate $name FAILED (exit $status); continuing" >&2
    fi
}
skip_gate() {
    GATE_NAMES+=("$1")
    GATE_SECS+=("-")
    GATE_NOTES+=("  SKIPPED ($2)")
    GATE_STATUS+=("SKIPPED")
    echo "check.sh: skipping $1: $2"
}

# Formatting and docs cover our crates and the root `nicbar` package (src/,
# tests/, examples/) only: vendor/* members are upstream code we keep
# byte-identical, and rustfmt's `ignore` option is nightly-only.
OWN_PKGS=(-p nicbar)
for manifest in crates/*/Cargo.toml; do
    OWN_PKGS+=(-p "$(grep -m1 '^name' "$manifest" | sed 's/.*"\(.*\)"/\1/')")
done
gate "fmt" cargo fmt "${OWN_PKGS[@]}" --check

gate "build" cargo build --release --workspace
gate "build-examples" cargo build --examples --workspace
gate "test" cargo test -q --workspace
gate "clippy" cargo clippy --workspace --all-targets -- -D warnings

# Docs: rustdoc with warnings denied, so a broken or private intra-doc
# link fails here instead of rotting unseen.
doc_gate() {
    RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps "${OWN_PKGS[@]}"
}
gate "doc" doc_gate

# Static analysis: nicbar-lint enforces the determinism and protocol
# invariants (rule catalogue in DESIGN.md). The fixture self-test runs
# first so a broken rule cannot silently pass the workspace; the workspace
# scan then fails on any finding not covered by an audited lint.toml entry
# (and fails on stale entries covering nothing).
gate "lint-fixtures" cargo run --release -q -p nicbar-lint -- --fixtures
gate "lint-scan" cargo run --release -q -p nicbar-lint

# Benchmark harness: perfbench/ is a package of its own outside the
# workspace, so the workspace build above cannot see a simulator API change
# that breaks it. Its self-test builds it and runs every benchmark workload
# at tiny size against its golden outputs.
gate "perfbench-selftest" cargo run --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml -- --self-test

# Protocol model checking: nicbar-verify drives the real PaperCollective
# through the exhaustive interleaving space of the adversarial network
# (loss, duplication, reorder, unbounded delay) for DS and PE barriers on
# both substrates and proves safety invariants, deadlock-freedom and NACK
# liveness on every configuration of the gate matrix.
gate "verify-matrix" cargo run --release -q -p nicbar-verify -- --check

# Counterexample pipeline: an injected protocol bug must yield a minimal
# counterexample whose netdump trace replays through why-slow.
verify_counterexample_gate() {
    local tmp
    tmp=$(mktemp -d)
    if ! cargo run --release -q -p nicbar-verify -- \
        --nodes 2 --substrate gm --inject skip-payload-record \
        --expect-violation --trace-out "$tmp/cex.jsonl" > /dev/null 2>&1; then
        echo "check.sh: injected bug was NOT caught by nicbar-verify" >&2
        rm -rf "$tmp"
        return 1
    fi
    if ! cargo run --release -q -p nicbar-bench -- why-slow \
        --replay "$tmp/cex.jsonl" > /dev/null; then
        echo "check.sh: counterexample trace failed to replay through why-slow" >&2
        rm -rf "$tmp"
        return 1
    fi
    rm -rf "$tmp"
}
gate "verify-counterexample" verify_counterexample_gate

# Zero-overhead gate: with the flight recorder and trace ring disabled,
# engine throughput must stay within 5% of the saved baseline. Skipped if
# the baseline has never been generated (run the full engine-sweep once).
# The quick gate also asserts the parallel engine at one shard stays
# within 5% of the sequential engine on the fig5 figure point.
if [ -f results/engine_sweep.json ]; then
    gate "engine-sweep-quick" cargo run --release -q -p nicbar-bench -- engine-sweep --quick
else
    skip_gate "engine-sweep-quick" "no results/engine_sweep.json baseline"
fi

# Engine self-profiler smoke: a profiled 2-shard 64-node run must account
# for >= 95% of worker wall time and name a dominant bottleneck
# (engine-prof --check exits nonzero otherwise). On hosts with >= 8
# hardware threads the full gate also profiles 8 shards x 4096 nodes and
# asserts the profiler-DISABLED path stays within 2 percentage points of
# the committed one-shard overhead baseline in results/engine_sweep.json.
engine_prof_quick_gate() {
    cargo run --release -q -p nicbar-bench -- engine-prof --quick --check > /dev/null
}
gate "engine-prof-quick" engine_prof_quick_gate
host_threads=$(nproc 2>/dev/null || echo 1)
if [ "$host_threads" -lt 8 ]; then
    skip_gate "engine-prof-full" "$host_threads hardware threads, needs 8"
elif [ ! -f results/engine_sweep.json ]; then
    skip_gate "engine-prof-full" "no results/engine_sweep.json baseline"
else
    engine_prof_full_gate() {
        cargo run --release -q -p nicbar-bench -- engine-prof --check > /dev/null
    }
    gate "engine-prof-full" engine_prof_full_gate
fi

# Parallel-engine parity smoke: the rank-sharded engine must reproduce the
# sequential run byte-for-byte — counters, spans, causal packet records and
# barrier latencies — at 2..8 shards on both substrates, with loss, and the
# one-shard Auto case must take the sequential fast path
# (tests/parallel_parity.rs; release so the windowed loop matches the
# shipped hot path).
gate "parallel-parity" cargo test --release -q --test parallel_parity

# Causal-observability smoke: why-slow on an 8-node lossy GM sim must
# produce a non-empty critical path for every barrier, attribute >= 95%
# of each span's wall time to its edges, and drop zero netdump records
# (--check exits nonzero otherwise).
why_slow_gate() {
    cargo run --release -q -p nicbar-bench -- why-slow \
        --nodes 8 --drop 0.02 --seed 7 --check > /dev/null
}
gate "why-slow-smoke" why_slow_gate

# Allocation gate: a steady-state NIC barrier must not touch the heap.
# The counting-allocator test runs in its own binary (process-wide
# allocator, single test), release mode so the measurement matches the
# shipped hot path.
gate "alloc-steady" cargo test --release -q --test alloc_steady

# Scalability smoke: the quick sweep (sub-sampled grid up to the 65,536-node
# gm NIC-DS point) must complete, both dissemination curves must fit the
# ceil(log2 N) staircase, gm NIC-DS cost per event at 65,536 nodes must
# stay within 5x of its cost at 1024 nodes (the host-independent scale
# gate), and the engine-comparison series must reproduce the sequential
# latency bit-for-bit under sharding — fig-scale exits nonzero otherwise.
# Every run also appends the speedup series to BENCH_par.json; the before
# count feeds the trajectory gate below.
#
# On hosts with >= 8 hardware threads the same run also asserts the 8-shard
# parallel engine beats sequential by >= 4.5x on the 4096-node gm point
# (raised from 3x when adaptive lookahead + SPSC mailboxes landed). That
# speedup gate gets its own summary line: SKIPPED when fig-scale reports
# it skipped the assertion, otherwise marked as asserted by the smoke run.
count_runs() { grep -c '"manifest"' "$1" 2>/dev/null || true; }
runs_before_par=$(count_runs BENCH_par.json); runs_before_par=${runs_before_par:-0}
fig_scale_log=$(mktemp)
fig_scale_gate() {
    cargo run --release -q -p nicbar-bench -- fig-scale --quick > "$fig_scale_log"
}
gate "fig-scale-smoke" fig_scale_gate
if grep -q "speedup gate skipped" "$fig_scale_log"; then
    skip_gate "fig-scale-speedup" "<8 hardware threads"
else
    GATE_NAMES+=("fig-scale-speedup")
    GATE_SECS+=("-")
    GATE_NOTES+=("  (asserted inside fig-scale-smoke)")
    GATE_STATUS+=("ok")
fi
rm -f "$fig_scale_log"

# Profile-guided partition parity smoke: the same quick sweep driven by
# the committed PR-7 profiler capture must pass fig-scale's internal
# sequential-vs-parallel identity assertions with the profile-derived
# shard map — the partitioner may only change wall-clock, never results.
fig_scale_profile_gate() {
    cargo run --release -q -p nicbar-bench -- fig-scale --quick \
        --partition profile=results/engine_prof_pr7.json > /dev/null
}
gate "fig-scale-profile-partition" fig_scale_profile_gate

# Tracked perf-trajectory artifacts: quick fig5/fig7 sweeps append a run
# to BENCH_fig5.json and BENCH_fig7.json at the repo root (median + p99
# per node count, one manifest-stamped entry per run). BENCH_scale.json
# gained its run from the fig-scale smoke above. The trajectory is
# append-only: the number of manifest-stamped runs in each artifact must
# never decrease across a regeneration (the writer caps the history at
# MAX_RUNS, so "not fewer than before, and at least one" is the invariant).
# BENCH_par.json (written by both fig-scale runs above) is held to the
# same monotonicity bar against its pre-smoke count. (grep -c prints 0
# *and* exits 1 on zero matches; missing file prints nothing — both
# normalized to a plain number by count_runs above.)
bench_trajectory_gate() {
    local runs_before_fig5 runs_before_fig7 runs_after_fig5 runs_after_fig7
    runs_before_fig5=$(count_runs BENCH_fig5.json); runs_before_fig5=${runs_before_fig5:-0}
    runs_before_fig7=$(count_runs BENCH_fig7.json); runs_before_fig7=${runs_before_fig7:-0}
    cargo run --release -q -p nicbar-bench -- fig5 --quick > /dev/null
    cargo run --release -q -p nicbar-bench -- fig7 --quick > /dev/null
    for f in BENCH_fig5.json BENCH_fig7.json BENCH_scale.json BENCH_par.json; do
        [ -s "$f" ] || { echo "check.sh: missing $f" >&2; return 1; }
        grep -q '"manifest"' "$f" || { echo "check.sh: $f lacks a manifest" >&2; return 1; }
        grep -q '"runs"' "$f" || { echo "check.sh: $f is not an append-only trajectory" >&2; return 1; }
    done
    runs_after_fig5=$(count_runs BENCH_fig5.json); runs_after_fig5=${runs_after_fig5:-0}
    runs_after_fig7=$(count_runs BENCH_fig7.json); runs_after_fig7=${runs_after_fig7:-0}
    if [ "$runs_after_fig5" -lt "$runs_before_fig5" ] || [ "$runs_after_fig7" -lt "$runs_before_fig7" ]; then
        echo "check.sh: trajectory shrank (fig5 $runs_before_fig5 -> $runs_after_fig5, fig7 $runs_before_fig7 -> $runs_after_fig7)" >&2
        return 1
    fi
    local runs_after_par
    runs_after_par=$(count_runs BENCH_par.json); runs_after_par=${runs_after_par:-0}
    if [ "$runs_after_par" -lt "$runs_before_par" ] || [ "$runs_after_par" -lt 1 ]; then
        echo "check.sh: BENCH_par.json trajectory shrank ($runs_before_par -> $runs_after_par)" >&2
        return 1
    fi
    echo "check.sh: BENCH artifacts OK (fig5 runs: $runs_after_fig5, fig7 runs: $runs_after_fig7, par runs: $runs_after_par)"
}
gate "bench-trajectory" bench_trajectory_gate

# Contention-observability smoke: the contend scenario (overlapping barrier
# groups + bulk traffic, run on both substrates) must attribute >= 95% of
# critical-path wait time to named resource holders via the occupancy
# ledger, report a top interferer, drop zero ledger records, and reproduce
# byte-identically on the sharded parallel engine (--check exits nonzero
# otherwise). Every run appends to BENCH_contend.json; like the other
# trajectories it is append-only — the manifest-stamped run count must
# never decrease, and must be at least one after the smoke.
contend_gate() {
    local runs_before runs_after
    runs_before=$(count_runs BENCH_contend.json); runs_before=${runs_before:-0}
    cargo run --release -q -p nicbar-bench -- contend --quick --check > /dev/null
    runs_after=$(count_runs BENCH_contend.json); runs_after=${runs_after:-0}
    if [ "$runs_after" -lt "$runs_before" ] || [ "$runs_after" -lt 1 ]; then
        echo "check.sh: BENCH_contend.json trajectory shrank ($runs_before -> $runs_after)" >&2
        return 1
    fi
    echo "check.sh: contend trajectory OK (runs: $runs_after)"
}
gate "contend-smoke" contend_gate

# Append this run to BENCH_check.json, one run per line so the file stays
# diffable and the append needs no JSON parser. Gates without a time of
# their own (SKIPPED, or asserted inside another gate) record null seconds.
# The history keeps the newest 64 runs, like the other BENCH_* files.
record_check_run() {
    local file=BENCH_check.json rev total_ns gates="" i secs run
    rev=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
    total_ns=$(($(date +%s%N) - CHECK_T0))
    for i in "${!GATE_NAMES[@]}"; do
        secs=${GATE_SECS[$i]%s}
        [ "$secs" = "-" ] && secs=null
        gates+="${gates:+, }{\"name\": \"${GATE_NAMES[$i]}\", \"seconds\": $secs, \"status\": \"${GATE_STATUS[$i]}\"}"
    done
    run=$(printf '{"manifest": {"schema": 2, "git_rev": "%s", "host_threads": %s}, "total_s": %d.%03d, "gates": [%s]}' \
        "$rev" "$host_threads" $((total_ns / 1000000000)) $((total_ns / 1000000 % 1000)) "$gates")
    local runs=()
    if [ -f "$file" ]; then
        mapfile -t runs < <(grep '^    {"manifest"' "$file" | sed -e 's/^ *//' -e 's/,$//')
    fi
    runs+=("$run")
    if [ "${#runs[@]}" -gt 64 ]; then
        runs=("${runs[@]: -64}")
    fi
    {
        printf '{\n  "bench": "check",\n  "runs": [\n'
        for i in "${!runs[@]}"; do
            printf '    %s%s\n' "${runs[$i]}" "$([ "$i" -lt $((${#runs[@]} - 1)) ] && echo ,)"
        done
        printf '  ]\n}\n'
    } > "$file"
}
record_check_run

echo ""
echo "check.sh: per-gate wall time"
for i in "${!GATE_NAMES[@]}"; do
    printf '  %10s  %s%s\n' "${GATE_SECS[$i]}" "${GATE_NAMES[$i]}" "${GATE_NOTES[$i]}"
done
if [ "${#FAILED_GATES[@]}" -gt 0 ]; then
    echo "check.sh: ${#FAILED_GATES[@]} gate(s) FAILED: ${FAILED_GATES[*]}" >&2
    exit 1
fi
echo "check.sh: all green"
