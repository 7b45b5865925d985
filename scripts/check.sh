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

echo "==> LDA bit pins and prefix-draw equivalence (release)"
# The dense sweep's conditionals and prefix-total counts vectorize
# only in optimized code, so the pinned output bits and the
# prefix-draw-equals-walk tests run again under --release.
cargo test -q --release -p forumcast-topics --lib -- output_bits_are_pinned prefix_draw

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

echo "==> trace smoke (evaluate --trace + JSON/span validation)"
trace_file="$(mktemp -t forumcast-trace-XXXXXX.json)"
trap 'rm -f "$trace_file"' EXIT
cargo run -q -p forumcast-cli --bin forumcast -- \
  evaluate --scale quick --threads 1 --trace "$trace_file" --metrics
cargo run -q -p forumcast-obs --example validate_trace -- "$trace_file" \
  evaluate eval.run_cv eval.fold lda.train features.build

echo "==> trace smoke (train/stats via FORUMCAST_TRACE)"
cargo build -q -p forumcast-cli
fc=target/debug/forumcast
work_dir="$(mktemp -d -t forumcast-check-XXXXXX)"
trap 'rm -f "$trace_file"; rm -rf "$work_dir"' EXIT
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
# to the uninterrupted one. The fold is the unit of resume, so each
# kill lands at a seeded fraction of the clean run's wall time, and
# the fractions shrink because every resumed attempt has fewer folds
# left. With set-up S and n fold rounds of F each (quick: 3 folds, so
# n = 3 at 1 thread and 2 at 2), the 70% kill follows a save when
# (0.7n - 1)·F > 0.3·S and always leaves a fold pending; the 25% kill
# lands before its attempt can finish any fold (0.25·(S + nF) < S + F
# for n <= 4), so the 10% attempt also has a fold left and cannot exit
# before its kill. A kill counts only when the attempt died of it
# (exit status 137); on a miss the stage prints the clean run's time
# and every attempt's exit status.
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
  for percent in 70 25 10; do
    before="$(ckpt_activity "$ckpt")"
    "$fc" evaluate --scale quick --threads "$t" \
      --resume "$ckpt" > /dev/null 2>&1 &
    victim=$!
    sleep "$(awk -v ms="$clean_ms" -v p="$percent" 'BEGIN { printf "%.3f", ms * p / 100000 }')"
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

echo "==> front doors agree (table1 binary vs forumcast evaluate, quick, 1 thread)"
# Both front doors run Table I through the same run session and the
# same table1::run, so the bench binary must print the Table I block
# that `forumcast evaluate` prints (lines 2-6 of the golden) byte for
# byte.
cargo build -q --release -p forumcast-bench --bin table1
target/release/table1 quick --threads 1 > "$work_dir/table1.quick.txt"
diff <(sed -n 2,6p tests/golden/eval_quick_t1.txt) \
     <(grep -A4 '^Table I — ' "$work_dir/table1.quick.txt") \
  || { echo "front doors agree: table1 quick prints a different Table I than evaluate" >&2; exit 1; }
echo "front doors agree: table1 quick matches evaluate's Table I byte-for-byte"

echo "==> usage errors agree (forumcast evaluate --scale nope vs table1 nope)"
# Both front doors parse with one option grammar, so an unknown scale
# word is a usage error (exit status 2) at each, refused before
# anything runs.
for cmd in "$fc evaluate --scale nope" "target/release/table1 nope"; do
  status=0
  $cmd > "$work_dir/usage.txt" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "usage errors agree: \`$cmd\` exited $status, not 2" >&2
    cat "$work_dir/usage.txt" >&2
    exit 1
  fi
done
echo "usage errors agree: both front doors exit 2 on an unknown scale"

echo "==> corruption smoke (ckpt verify flags a flipped byte, repair heals)"
# The storm leaves a completed fold-level binary checkpoint behind;
# flip the last byte (the final frame's CRC) and the verifier must
# reject it naming the offending frame, after which repair truncates
# to the valid prefix and verify passes again.
good="$work_dir/storm1.ckpt"
bad="$work_dir/flipped.ckpt"
[ -f "$good" ] || { echo "corruption smoke: storm left no checkpoint" >&2; exit 1; }
cp "$good" "$bad"
size=$(stat -c %s "$bad")
last=$(dd if="$bad" bs=1 skip=$((size - 1)) count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $((last ^ 8)))" \
  | dd of="$bad" bs=1 seek=$((size - 1)) conv=notrunc 2>/dev/null
if "$fc" ckpt verify --file "$bad" > "$work_dir/verify.txt" 2>&1; then
  echo "corruption smoke: verify accepted a corrupted checkpoint" >&2
  exit 1
fi
grep -Eq 'frame [0-9]+' "$work_dir/verify.txt" \
  || { echo "corruption smoke: verify did not name the damaged frame" >&2; \
       cat "$work_dir/verify.txt" >&2; exit 1; }
"$fc" ckpt repair --file "$bad" > /dev/null
"$fc" ckpt verify --file "$bad" > /dev/null
echo "corruption: $(head -1 "$work_dir/verify.txt"), repaired and re-verified"

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
# The same gate with 64 topics, where the dense Gibbs sweep's K-term
# walk per token is what lda.train spends its time on.
"$fcr" evaluate --scale quick --threads 1 --topics 64 \
  --bench-json "$work_dir/BENCH_quick_k64.json" > /dev/null
"$fcr" bench compare BENCH_quick_k64.json "$work_dir/BENCH_quick_k64.json" \
  --tolerance 1.5 --p99-tolerance 2.0 --min-ms 20

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

echo "==> routing goldens (recsys, abtest, question_routing, trained model bytes)"
# The routing and training paths outside the CV harness are pinned
# byte for byte: the `recsys` demo, the simulated A/B test, the
# question_routing example, and the model files `train` writes with
# and without --fast. All are deterministic at any thread count.
cargo build -q --release -p forumcast-bench --bin recsys
cargo build -q --release --example question_routing
target/release/recsys quick | diff tests/golden/recsys_quick.txt - \
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
