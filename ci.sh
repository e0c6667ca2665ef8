#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> parallel harness equivalence (ASAP_JOBS=1 vs ASAP_JOBS=4)"
ASAP_JOBS=1 cargo test -q --test parallel_equivalence
ASAP_JOBS=4 cargo test -q --test parallel_equivalence

echo "==> telemetry run report (exporter round-trip validation)"
ASAP_OPS=30 ASAP_THREADS=2 ASAP_REPORT_OUT=target/ci_run_report.html \
  cargo run --release --example run_report
test -s target/ci_run_report.html

echo "==> microbenchmarks build (run manually: cargo bench --bench micro)"
cargo bench -p asap-bench --bench micro --no-run

echo "==> run-cache smoke (disk tier: second pass all hits, stdout identical)"
RC_DIR=$(mktemp -d)
ASAP_BENCHES=HM ASAP_OPS=10 ASAP_JOBS=1 \
  ASAP_RUNCACHE=disk ASAP_RUNCACHE_DIR="$RC_DIR" \
  cargo bench -p asap-bench --bench fig7_speedup >target/runcache_pass1.out 2>/dev/null
ASAP_BENCHES=HM ASAP_OPS=10 ASAP_JOBS=1 \
  ASAP_RUNCACHE=disk ASAP_RUNCACHE_DIR="$RC_DIR" \
  cargo bench -p asap-bench --bench fig7_speedup >target/runcache_pass2.out 2>target/runcache_pass2.err
cmp target/runcache_pass1.out target/runcache_pass2.out \
  || { echo "RUNCACHE FAILURE: cached stdout differs from fresh run" >&2; exit 1; }
grep -q ", 0 misses" target/runcache_pass2.err \
  || { echo "RUNCACHE FAILURE: second pass was not served entirely from cache" >&2; \
       grep "runcache:" target/runcache_pass2.err >&2 || true; exit 1; }
rm -rf "$RC_DIR"
echo "    cached rerun byte-identical, all cells hit"

echo "==> progress smoke (ASAP_PROGRESS on at jobs=4, stdout untouched)"
ASAP_BENCHES=HM ASAP_OPS=10 ASAP_JOBS=4 ASAP_PROGRESS=1 \
  cargo bench -p asap-bench --bench fig7_speedup >target/progress_j4.out 2>/dev/null
cmp target/progress_j4.out target/runcache_pass1.out \
  || { echo "PROGRESS FAILURE: stdout changed with ASAP_PROGRESS on (jobs=4)" >&2; exit 1; }
echo "    bench stdout byte-identical"

echo "==> figure goldens (all eight figure benches at ASAP_OPS=10 vs tests/golden/)"
# Any difference means a simulated bit moved. Regenerating a golden means
# copying this stage's output over it in a reviewed commit.
for fig in fig1_sw_overhead fig7_speedup fig8_region_cycles fig9_traffic \
           fig10_pm_latency sec74_lhwpq ablation_dpo_distance ablation_thread_scaling; do
  ASAP_OPS=10 ASAP_RUNCACHE=off ASAP_TELEMETRY_OUT= \
    cargo bench -q -p asap-bench --bench "$fig" >"target/golden_$fig.out"
  cmp "target/golden_$fig.out" "tests/golden/$fig.txt" \
    || { echo "GOLDEN FAILURE: $fig stdout differs from tests/golden/$fig.txt" >&2; exit 1; }
done
echo "    all eight figure benches byte-identical to their goldens"
# Telemetry observes the simulated machine without changing it: fig7 with
# the sampler on prints the same bytes, and the export lands.
# (Absolute path: cargo runs bench binaries from the package directory.)
TEL_DIR="$PWD/target/ci_telemetry"
rm -rf "$TEL_DIR"
ASAP_OPS=10 ASAP_RUNCACHE=off ASAP_TELEMETRY=1 ASAP_TELEMETRY_OUT="$TEL_DIR" \
  cargo bench -q -p asap-bench --bench fig7_speedup >target/golden_fig7_telemetry.out
cmp target/golden_fig7_telemetry.out tests/golden/fig7_speedup.txt \
  || { echo "GOLDEN FAILURE: fig7 stdout differs with ASAP_TELEMETRY=1" >&2; exit 1; }
test -s "$TEL_DIR/fig7_speedup.json" \
  || { echo "TELEMETRY FAILURE: fig7 export missing from $TEL_DIR" >&2; exit 1; }
echo "    fig7 with telemetry on byte-identical; export written"

echo "==> crash-point sweep smoke (walked forks vs legacy re-runs, 32 points)"
# The example asserts every fork byte-identical to a full crash_after
# re-run, every recovery verified, and (at >= 32 points) the sweep at
# least 5x faster than the legacy path.
ASAP_OPS=100 ASAP_THREADS=2 ASAP_CRASH_SWEEP=32 \
  cargo run --release -q --example crash_sweep >target/crash_sweep.out 2>target/crash_sweep.err
grep -q "all 32 forks identical to legacy re-runs" target/crash_sweep.out \
  || { echo "SWEEP FAILURE: fork equivalence line missing" >&2; \
       cat target/crash_sweep.err >&2; exit 1; }
sed -n 's/^crash_sweep: /    /p' target/crash_sweep.err

echo "==> parallel sweep smoke (1000 lifecycle points, ASAP_SWEEP_JOBS=2 vs serial)"
# Walked sweep over a 1000-point lifecycle plan, run twice: serial
# and with two fork workers. Stdout must be byte-identical (determinism
# at any ASAP_SWEEP_JOBS), every point must recover, and on multi-CPU
# hosts the parallel pass must reach at least 1.25x the serial points/s
# (warn-only on 1-CPU hosts, where there is nothing to win). The floor
# catches a pool that runs serially; on a 2-CPU host back-to-back pairs
# read anywhere from ~1.5x to ~2.2x, so a 2x floor failed on noise.
ASAP_OPS=200 ASAP_THREADS=2 ASAP_CRASH_SWEEP=1000 ASAP_RUNCACHE=off \
  cargo run --release -q --example crash_sweep >target/sweep_serial.out 2>target/sweep_serial.err
ASAP_OPS=200 ASAP_THREADS=2 ASAP_CRASH_SWEEP=1000 ASAP_RUNCACHE=off \
  ASAP_SWEEP_JOBS=2 \
  cargo run --release -q --example crash_sweep >target/sweep_par.out 2>target/sweep_par.err
cmp target/sweep_serial.out target/sweep_par.out \
  || { echo "SWEEP FAILURE: parallel stdout differs from serial" >&2; exit 1; }
grep -q "all 1000 crash points recovered" target/sweep_serial.out \
  || { echo "SWEEP FAILURE: not every lifecycle point recovered" >&2; \
       cat target/sweep_serial.err >&2; exit 1; }
SERIAL_SECS=$(sed -n 's/^crash_sweep: 1000 points in \([0-9.]*\)s.*/\1/p' target/sweep_serial.err)
PAR_SECS=$(sed -n 's/^crash_sweep: 1000 points in \([0-9.]*\)s.*/\1/p' target/sweep_par.err)
[ -n "$SERIAL_SECS" ] && [ -n "$PAR_SECS" ] \
  || { echo "SWEEP FAILURE: throughput lines missing from stderr" >&2; exit 1; }
SWEEP_SPEEDUP=$(awk "BEGIN{printf \"%.2f\", $SERIAL_SECS / ($PAR_SECS + 1e-9)}")
echo "    1000 points: serial ${SERIAL_SECS}s, 2 workers ${PAR_SECS}s (${SWEEP_SPEEDUP}x); stdout byte-identical"
FAST_ENOUGH=$(awk "BEGIN{print ($SERIAL_SECS >= 1.25 * $PAR_SECS) ? 1 : 0}")
if [ "$FAST_ENOUGH" != 1 ]; then
  if [ "$(nproc)" -ge 2 ]; then
    echo "SWEEP FAILURE: 2 workers only ${SWEEP_SPEEDUP}x over serial (need >= 1.25x)" >&2; exit 1
  fi
  echo "    (speedup gate skipped: single-CPU host)"
fi

echo "==> benchmark package (fmt, clippy, tests: every workload at tiny scale, untraced and traced)"
# benchmark/ is a package of its own outside the workspace, so no stage
# above builds it. Its tests require 0 re-drive mismatches.
cargo --offline fmt --manifest-path benchmark/Cargo.toml --check
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo test --release -q --offline --manifest-path benchmark/Cargo.toml

echo "==> full-scale benchmark goldens (all four workloads at both golden seeds)"
# Every cell and every planned fork of the four benchmark workloads at
# full scale, each digest checked against benchmark/golden/: Fig. 7's 90
# cells at 200 ops per thread (the memory event queue's deepest traffic)
# and Fig. 10's 72 slow-PM cells at 600, where tests/golden/ runs its
# grids at 10 ops; and 4,608 + 1,152 crash forks per seed, each crashed,
# recovered and verified, where the tier-1 sweep tests run a few hundred
# at 20 ops. A run passes only if it exits 0 and reports "correct":true.
for seed in 0xA5A5_0001 0x5EED0002; do
  for w in fig7_cold slow_pm crash_matrix sweep_table2; do
    out="target/bench_golden_${w}_${seed}.out"
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
      --workload "$w" --seed "$seed" --seconds 1 >"$out" \
      || { echo "BENCHMARK GOLDEN FAILURE: $w at seed $seed exited non-zero" >&2; \
           tail -5 "$out" >&2; exit 1; }
    grep -q '"correct":true' "$out" \
      || { echo "BENCHMARK GOLDEN FAILURE: $w at seed $seed is not correct" >&2; \
           tail -5 "$out" >&2; exit 1; }
  done
done
echo "    every cell and fork at both seeds matched its golden"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
