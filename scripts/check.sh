#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> LDA bit pins and tree-draw equivalence (release)"
# The dense sweep's conditionals and block totals vectorize only in
# optimized code, so the pinned output bits, the tree-draw-equals-walk
# tests, the guard-band margin and the release-only degenerate-row
# fallback run again under --release.
cargo test -q --release -p forumcast-topics --lib -- \
  output_bits_are_pinned tree_draw gibbs_draw guard_band degenerate_row

echo "==> two-worker timing trainer equivalence and repeat (release)"
# The lockstep point-process trainer hands first-layer outputs and
# gradients between its two threads every step. A race there shows
# as a model that differs from the serial one or from its own repeat,
# and may show only at release speed, so the equivalence, repeat and
# abort tests run again under --release.
cargo test -q --release -p forumcast-core --lib -- \
  two_worker_schedule two_timing_workers lockstep a_panic_on_one_worker

echo "==> hermetic harness (obs/resilience/data/par lib tests x10, default parallelism)"
# Fault plans and telemetry collectors belong to the thread that armed
# them, so these binaries must pass under cargo's parallel harness
# every time, with no test-serializing locks. Any red run fails.
hermetic_log="$(mktemp -t forumcast-hermetic-XXXXXX.log)"
for run in $(seq 1 10); do
  if ! cargo test -q -p forumcast-obs -p forumcast-resilience -p forumcast-data \
    -p forumcast-par --lib > "$hermetic_log" 2>&1; then
    cat "$hermetic_log" >&2
    echo "hermetic harness: run $run of 10 failed" >&2
    exit 1
  fi
done
rm -f "$hermetic_log"
echo "hermetic harness: 10 of 10 runs green"

echo "==> fault-injection smoke (FORUMCAST_FAULTS=fold-panic:1)"
FORUMCAST_FAULTS=fold-panic:1 cargo test -q -p forumcast-resilience

echo "==> trace smoke (evaluate --trace + JSON/span validation, 1 and 2 threads)"
# At 2 threads the CV fold workers push into the armed collector
# concurrently. The point-process trainer's step count is a pure
# function of the config, so quick evaluate reads 10,280 at both.
trace_file="$(mktemp -t forumcast-trace-XXXXXX.json)"
metrics_file="$(mktemp -t forumcast-metrics-XXXXXX.txt)"
trap 'rm -f "$trace_file" "$metrics_file"' EXIT
for threads in 1 2; do
  cargo run -q -p forumcast-cli --bin forumcast -- \
    evaluate --scale quick --threads "$threads" --trace "$trace_file" --metrics \
    | tee "$metrics_file"
  cargo run -q -p forumcast-obs --example validate_trace -- "$trace_file" \
    evaluate eval.run_cv eval.fold lda.train features.build
  grep -Eq '^ml\.timing\.steps +10280$' "$metrics_file" \
    || { echo "quick evaluate at $threads thread(s) did not count 10280 ml.timing.steps"; exit 1; }
done

echo "==> trace smoke (train/stats via FORUMCAST_TRACE)"
cargo build -q -p forumcast-cli
fc=target/debug/forumcast
work_dir="$(mktemp -d -t forumcast-check-XXXXXX)"
trap 'rm -f "$trace_file" "$metrics_file"; rm -rf "$work_dir"' EXIT
"$fc" generate --scale small --seed 1 --out "$work_dir/data.json" > /dev/null
FORUMCAST_TRACE="$work_dir/stats.trace.json" "$fc" stats --data "$work_dir/data.json" > /dev/null

echo "==> calibration gate (stats --gate vs the paper's §III ranges)"
# The synthetic generator is calibrated against §III; the gate fails
# the build when a generator change walks the shape statistics
# (unanswered fraction, answers/question, posts/user, delay
# quantiles) out of the paper's ranges.
"$fc" stats --data "$work_dir/data.json" --gate | grep -A7 '^calibration'
cargo run -q -p forumcast-obs --example validate_trace -- "$work_dir/stats.trace.json" \
  stats stats.load stats.preprocess stats.graph
FORUMCAST_TRACE="$work_dir/train.trace.json" "$fc" train \
  --data "$work_dir/data.json" --fast --out "$work_dir/model.json" > /dev/null
cargo run -q -p forumcast-obs --example validate_trace -- "$work_dir/train.trace.json" \
  train lda.train ml.answer.train ml.vote.train ml.timing.train

echo "==> kill-storm smoke (repeated SIGKILLs at seeded points, bitwise heal)"
# For each thread count: run clean and time it, then restart the
# checkpointed run and SIGKILL it three times, and finally let one
# attempt run to completion. The healed report must be byte-identical
# to the uninterrupted one. The fold is the unit of resume. The first
# attempt is killed as soon as its first save shows up in the
# checkpoint's fingerprint (polled every 20 ms), so it always dies
# after a save and with folds pending, however contention stretches
# its wall time. The next two kills land at 25% and 10% of the clean
# run's wall time. With set-up S and n fold rounds of F each (quick:
# 3 folds, so n = 3 at 1 thread and 2 at 2), the 25% kill lands before
# its attempt can finish any fold (0.25·(S + nF) < S + F for n <= 4),
# so the 10% attempt also has a fold left and cannot exit before its
# kill. A kill counts only when the attempt died of it (exit status
# 137); on a miss the stage prints the clean run's time and every
# attempt's exit status.
ckpt_activity() {
  # Content fingerprint of every checkpoint artifact (the fold-level
  # file and its `.tmp`); changes on every save. `|| true` keeps the
  # unmatched glob from tripping pipefail before the first write.
  { cat "$1"* 2>/dev/null || true; } | cksum
}
wall_ms() { echo $(( $(date +%s%N) / 1000000 )); }
for t in 1 2; do
  ckpt="$work_dir/storm$t.ckpt"
  start_ms=$(wall_ms)
  "$fc" evaluate --scale quick --threads "$t" > "$work_dir/storm$t.clean.txt"
  clean_ms=$(( $(wall_ms) - start_ms ))
  kills=0
  saved=0
  statuses=""
  for at in first-save 25 10; do
    before="$(ckpt_activity "$ckpt")"
    "$fc" evaluate --scale quick --threads "$t" \
      --resume "$ckpt" > /dev/null 2>&1 &
    victim=$!
    if [ "$at" = first-save ]; then
      while kill -0 "$victim" 2>/dev/null \
        && [ "$(ckpt_activity "$ckpt")" = "$before" ]; do
        sleep 0.02
      done
    else
      sleep "$(awk -v ms="$clean_ms" -v p="$at" 'BEGIN { printf "%.3f", ms * p / 100000 }')"
    fi
    kill -9 "$victim" 2>/dev/null || true
    status=0
    wait "$victim" 2>/dev/null || status=$?
    statuses="$statuses $status"
    if [ "$status" -eq 137 ]; then
      kills=$((kills + 1))
    fi
    if [ "$(ckpt_activity "$ckpt")" != "$before" ]; then
      saved=$((saved + 1))
    fi
  done
  if [ "$kills" -lt 3 ]; then
    echo "kill-storm smoke: only $kills of 3 SIGKILLs landed (threads=$t," \
      "clean run ${clean_ms} ms, attempt exit statuses:$statuses)" >&2
    exit 1
  fi
  if [ "$saved" -lt 1 ]; then
    echo "kill-storm smoke: no attempt saved a fold before its kill (threads=$t," \
      "clean run ${clean_ms} ms, attempt exit statuses:$statuses)" >&2
    exit 1
  fi
  "$fc" evaluate --scale quick --threads "$t" \
    --resume "$ckpt" > "$work_dir/storm$t.healed.txt" 2> /dev/null
  # The healed report must be byte-identical to the uninterrupted one
  # (modulo the checkpointing banner the clean run doesn't print).
  diff <(grep -v '^checkpointing' "$work_dir/storm$t.clean.txt") \
       <(grep -v '^checkpointing' "$work_dir/storm$t.healed.txt")
  echo "kill-storm[threads=$t]: $kills SIGKILLs ($saved after a fold save), healed run bitwise-identical"
done

echo "==> disabled-probe golden smoke (quick evaluate output is byte-stable)"
# With no --trace/--metrics/--bench-json the collector never arms, and
# the report must be byte-identical to the committed golden: telemetry
# must cost nothing AND change nothing when nobody is collecting.
diff tests/golden/eval_quick_t1.txt "$work_dir/storm1.clean.txt" \
  || { echo "disabled-probe smoke: quick evaluate output drifted from tests/golden/eval_quick_t1.txt" >&2; exit 1; }
echo "disabled-probe: quick evaluate output matches the golden byte-for-byte"

echo "==> corruption smoke (a flipped checkpoint byte quarantines the file, resume heals bitwise)"
# The storm leaves a completed fold-level checkpoint behind. Flip one
# bit of its middle byte: the CRC (or the JSON parser) rejects the
# file, the resumed run moves it aside to `<ckpt>.corrupt`, recomputes
# every fold, exits 0 and prints the uninterrupted report.
ckpt="$work_dir/storm1.ckpt"
[ -f "$ckpt" ] || { echo "corruption smoke: storm left no checkpoint" >&2; exit 1; }
mid=$(( $(stat -c %s "$ckpt") / 2 ))
byte=$(dd if="$ckpt" bs=1 skip="$mid" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 8)))" \
  | dd of="$ckpt" bs=1 seek="$mid" conv=notrunc 2>/dev/null
"$fc" evaluate --scale quick --threads 1 --resume "$ckpt" \
  > "$work_dir/flipped.txt" 2> "$work_dir/flipped.err" \
  || { echo "corruption smoke: the resumed run failed" >&2; cat "$work_dir/flipped.err" >&2; exit 1; }
[ -f "$ckpt.corrupt" ] \
  || { echo "corruption smoke: the damaged checkpoint was not quarantined" >&2; \
       cat "$work_dir/flipped.err" >&2; exit 1; }
diff <(grep -v '^checkpointing' "$work_dir/storm1.clean.txt") \
     <(grep -v '^checkpointing' "$work_dir/flipped.txt") \
  || { echo "corruption smoke: the resumed report differs from the uninterrupted one" >&2; exit 1; }
echo "corruption: byte $mid flipped, file quarantined, resumed report bitwise-identical"

echo "==> perf gate (bench compare against committed BENCH_quick.json)"
# Machine-readable regression gate: the quick run emits a versioned
# bench report which `forumcast bench compare` diffs against the
# committed baseline, failing on >=1.5x wall/span-total or >=2x span
# p99 regressions (spans under 20 ms in the baseline are noise-exempt).
cargo build -q --release -p forumcast-cli
fcr=target/release/forumcast
"$fcr" evaluate --scale quick --threads 1 \
  --bench-json "$work_dir/BENCH_quick.json" > /dev/null
"$fcr" bench compare BENCH_quick.json "$work_dir/BENCH_quick.json" \
  --tolerance 1.5 --p99-tolerance 2.0 --min-ms 20

echo "==> perf gate at K = 64 (bench compare against committed BENCH_quick_k64.json)"
# The same gate with 64 topics, where the Gibbs sweep's tree-summed
# draw per token is what lda.train spends its time on.
"$fcr" evaluate --scale quick --threads 1 --topics 64 \
  --bench-json "$work_dir/BENCH_quick_k64.json" > /dev/null
"$fcr" bench compare BENCH_quick_k64.json "$work_dir/BENCH_quick_k64.json" \
  --tolerance 1.5 --p99-tolerance 2.0 --min-ms 20

echo "==> benchmark output digests (cv-fast, build-k64, build-paper, route-medium)"
# One untimed op of each workload of the frozen benchmark
# (BENCHMARK.json) must report `"correct":true` and print the pinned
# digest of its outputs: a perf change that moves a single output bit
# of the CV fold, the K = 64 build, the paper-scale build or the
# trained router's rankings fails here. The two build workloads run in
# two separate processes each, since output that varies from one
# process to the next (std's per-process `HashMap` seed, the thread
# schedule) cannot show in a single run. Each run's `peak_heap_mb` must
# also stay at or below its workload's ceiling (MB): the value measured
# when the ceilings were set (cv-fast 3.85, build-k64 9.58, build-paper
# 23.96, route-medium 5.85) plus a 0.4 MB margin, as the phase of
# concurrent topic fits moves by ~0.3 MB between runs.
cargo build -q --release -p forumcast-bench --bin benchmark
for pin in cv-fast:72ba41e2bae1bc79:4.25:1 build-k64:4d4b8f4907d72e17:9.98:2 \
  build-paper:e131d8a57dafe01f:24.36:2 route-medium:e964c352c4308ce5:6.25:1; do
  IFS=: read -r workload want ceiling runs <<< "$pin"
  for run in $(seq "$runs"); do
    out="$work_dir/bench-$workload-$run.out"
    target/release/benchmark --workload "$workload" --seconds 0 --trace 0 > "$out" 2>&1 \
      || { cat "$out" >&2; echo "benchmark digests: $workload run $run failed" >&2; exit 1; }
    got="$(sed -n 's/^output_digest: //p' "$out")"
    if [ "$got" != "$want" ] || ! tail -n 1 "$out" | grep -q '"correct":true'; then
      tail -n 3 "$out" >&2
      echo "benchmark digests: $workload run $run printed digest '$got', want $want, and must be correct" >&2
      exit 1
    fi
    heap="$(tail -n 1 "$out" | sed -n 's/.*"peak_heap_mb":{"value":\([0-9.e+-]*\).*/\1/p')"
    if [ -z "$heap" ] || ! awk -v h="$heap" -v c="$ceiling" 'BEGIN { exit !(h <= c) }'; then
      echo "benchmark digests: $workload run $run peak heap '$heap' MB, ceiling $ceiling MB" >&2
      exit 1
    fi
    echo "benchmark digests: $workload run $run $got correct, peak heap $heap MB (ceiling $ceiling)"
  done
done

echo "==> sharded generation smoke (generate is bitwise thread-count-invariant)"
# `generate --threads N` shards the synthesizer over N workers; the
# forum it writes must be the same bytes at any worker count.
"$fcr" generate --scale medium --seed 9 --threads 2 --out "$work_dir/med-t2.json" > /dev/null
"$fcr" generate --scale medium --seed 9 --threads 7 --out "$work_dir/med-t7.json" > /dev/null
cmp "$work_dir/med-t2.json" "$work_dir/med-t7.json" \
  || { echo "sharded generation smoke: generate differs at 2 vs 7 threads" >&2; exit 1; }
echo "sharded generation: medium forum bitwise-identical at 2 and 7 threads"

echo "==> model round-trip smoke (train without --fast at 1 and 2 workers, then predict and route)"
# `predict` and `route` refit the feature extractor with the settings
# the model file records. The unit tests train `--fast` models only, so
# this stage drives the default (paper-config) model through both
# commands; any non-zero exit fails the build. `train` uses
# FORUMCAST_THREADS training workers (two run the point-process μ and
# ω networks side by side), and the model files must match byte for
# byte.
"$fcr" generate --scale small --seed 7 --out "$work_dir/roundtrip.json" > /dev/null
FORUMCAST_THREADS=1 "$fcr" train --data "$work_dir/roundtrip.json" \
  --out "$work_dir/roundtrip.t1.model.json" > /dev/null
FORUMCAST_THREADS=2 "$fcr" train --data "$work_dir/roundtrip.json" \
  --out "$work_dir/roundtrip.model.json" > /dev/null
cmp "$work_dir/roundtrip.t1.model.json" "$work_dir/roundtrip.model.json" \
  || { echo "model round-trip smoke: 1-vs-2-worker model files differ" >&2; exit 1; }
"$fcr" predict --data "$work_dir/roundtrip.json" --model "$work_dir/roundtrip.model.json" \
  --question 2 --user 5
"$fcr" route --data "$work_dir/roundtrip.json" --model "$work_dir/roundtrip.model.json" \
  --question 2

echo "==> experiment goldens (fig2-fig7 and ablations at quick scale)"
# Every paper figure and the ablations are pinned byte for byte at
# quick scale, so no regenerated result can drift from the code
# unnoticed. All are deterministic at any thread count.
for exp in fig2 fig3 fig4 fig5 fig6 fig7 ablations; do
  "$fcr" "$exp" --scale quick | diff "tests/golden/${exp}_quick.txt" - \
    || { echo "experiment goldens: $exp quick drifted" >&2; exit 1; }
done
echo "experiment goldens: fig2-fig7 and ablations match"

echo "==> routing goldens (recsys, abtest, question_routing, trained model bytes)"
# The routing and training paths outside the CV harness are pinned
# byte for byte: the `recsys` demo, the simulated A/B test, the
# question_routing example, and the model files `train` writes with
# and without --fast. All are deterministic at any thread count.
cargo build -q --release --example question_routing
"$fcr" recsys --scale quick | diff tests/golden/recsys_quick.txt - \
  || { echo "routing goldens: recsys quick drifted" >&2; exit 1; }
"$fcr" abtest --scale quick | diff tests/golden/abtest_quick.txt - \
  || { echo "routing goldens: abtest quick drifted" >&2; exit 1; }
target/release/examples/question_routing | diff tests/golden/question_routing.txt - \
  || { echo "routing goldens: question_routing example drifted" >&2; exit 1; }
golden_dir="$work_dir/golden-models"
mkdir -p "$golden_dir"
"$fcr" train --data "$work_dir/roundtrip.json" --fast \
  --out "$golden_dir/train-fast.model.json" > /dev/null
cp "$work_dir/roundtrip.model.json" "$golden_dir/train.model.json"
(cd "$golden_dir" && cksum train-fast.model.json train.model.json) \
  | cmp tests/golden/train_small_seed7.cksum - \
  || { echo "routing goldens: trained model bytes drifted" >&2; exit 1; }
echo "routing goldens: recsys, abtest, question_routing and model bytes match"

echo "All checks passed."
