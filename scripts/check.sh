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
# For each thread count: run clean, then restart the checkpointed run
# and SIGKILL it three times — each kill lands a seeded delay after the
# first observed checkpoint write of that attempt, so the storm samples
# different epochs — and finally let one attempt run to completion. The
# healed report must be byte-identical to the uninterrupted one.
ckpt_activity() {
  # Content fingerprint of every checkpoint artifact (fold-level file,
  # sub-fold snapshots, tmp files); changes on every snapshot write.
  # `|| true` keeps the unmatched glob from tripping pipefail before
  # the first write.
  { cat "$1"* 2>/dev/null || true; } | cksum
}
for t in 1 2; do
  ckpt="$work_dir/storm$t.ckpt"
  "$fc" evaluate --scale quick --threads "$t" > "$work_dir/storm$t.clean.txt"
  kills=0
  for delay in 0.05 0.15 0.30; do
    before="$(ckpt_activity "$ckpt")"
    "$fc" evaluate --scale quick --threads "$t" \
      --resume "$ckpt" --snapshot-every 2 > /dev/null 2>&1 &
    victim=$!
    for _ in $(seq 1 1200); do
      [ "$(ckpt_activity "$ckpt")" != "$before" ] && break
      kill -0 "$victim" 2>/dev/null || break
      sleep 0.05
    done
    sleep "$delay"
    if kill -9 "$victim" 2>/dev/null; then
      kills=$((kills + 1))
    fi
    wait "$victim" 2>/dev/null || true
  done
  if [ "$kills" -lt 3 ]; then
    echo "kill-storm smoke: only $kills of 3 SIGKILLs landed (threads=$t)" >&2
    exit 1
  fi
  if ! compgen -G "$ckpt*" > /dev/null; then
    echo "kill-storm smoke: no checkpoint artifacts on disk after the storm (threads=$t)" >&2
    exit 1
  fi
  "$fc" evaluate --scale quick --threads "$t" \
    --resume "$ckpt" --snapshot-every 2 > "$work_dir/storm$t.healed.txt" 2> /dev/null
  # The healed report must be byte-identical to the uninterrupted one
  # (modulo the checkpointing banner the clean run doesn't print).
  diff <(grep -v '^checkpointing' "$work_dir/storm$t.clean.txt") \
       <(grep -v '^checkpointing' "$work_dir/storm$t.healed.txt")
  echo "kill-storm[threads=$t]: $kills SIGKILLs, healed run bitwise-identical"
done

echo "==> disabled-probe golden smoke (quick evaluate output is byte-stable)"
# With no --trace/--metrics/--bench-json the collector never arms, and
# the report must be byte-identical to the committed golden: telemetry
# must cost nothing AND change nothing when nobody is collecting.
diff tests/golden/eval_quick_t1.txt "$work_dir/storm1.clean.txt" \
  || { echo "disabled-probe smoke: quick evaluate output drifted from tests/golden/eval_quick_t1.txt" >&2; exit 1; }
echo "disabled-probe: quick evaluate output matches the golden byte-for-byte"

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

echo "==> checkpoint size report (ckpt.subfold.bytes, binary store)"
# Informational, like the perf smoke: a checkpointed run's sub-fold
# snapshot volume and write time.
"$fc" evaluate --scale quick --threads 1 \
  --resume "$work_dir/size.ckpt" --snapshot-every 2 --metrics \
  > "$work_dir/size.txt"
# write_ms lives in the histogram table: name count p50 p90 p99 max sum.
awk '
  $1 == "ckpt.subfold.saves"    { saves = $2 }
  $1 == "ckpt.subfold.bytes"    { bytes = $2 }
  $1 == "ckpt.subfold.write_ms" { wms = $7; wp50 = $3; wp99 = $5 }
  END {
    if (saves > 0)
      printf "ckpt: %d sub-fold saves, %d bytes (%d/save), %d ms writing (p50 %d, p99 %d)\n",
             saves, bytes, bytes / saves, wms, wp50, wp99
    else
      printf "ckpt: no sub-fold saves recorded\n"
  }' "$work_dir/size.txt"

echo "==> perf smoke (quick features.build, dense vs sparse Gibbs, release)"
# Regressions surface in the log, not as a hard gate: the smoke prints
# wall time and Gibbs tokens/sec for both samplers from the --metrics
# summary (lda.gibbs.tokens counter / lda.train span wall time).
# --topics 64 puts the run in the regime the sparse sampler targets
# (realistic skewed per-word topic counts; the quick preset's K = 4 is
# too small for bucket decomposition to pay for itself).
cargo build -q --release -p forumcast-cli
fcr=target/release/forumcast
for sampler in dense sparse; do
  "$fcr" evaluate --scale quick --threads 1 --topics 64 \
    --lda-sampler "$sampler" --metrics > "$work_dir/perf.$sampler.txt"
  awk -v sampler="$sampler" '
    function ms(str) {
      if (str ~ /us$/) return substr(str, 1, length(str) - 2) / 1000.0
      if (str ~ /ms$/) return substr(str, 1, length(str) - 2) + 0
      if (str ~ /s$/)  return substr(str, 1, length(str) - 1) * 1000.0
      return str + 0
    }
    $1 == "lda.train"        { train_ms = ms($3) }
    $1 == "features.build"   { build_ms = ms($3) }
    $1 == "lda.gibbs.tokens" { tokens = $2 }
    END {
      if (train_ms > 0 && tokens > 0)
        printf "perf[%s]: features.build %.1f ms, lda.train %.1f ms, %.0f Gibbs tokens/sec\n",
               sampler, build_ms, train_ms, tokens / (train_ms / 1000.0)
      else
        printf "perf[%s]: metrics summary missing lda.train/tokens\n", sampler
    }' "$work_dir/perf.$sampler.txt"
done

echo "==> perf gate (bench compare against committed BENCH_quick.json)"
# Machine-readable regression gate: the quick run emits a versioned
# bench report which `forumcast bench compare` diffs against the
# committed baseline, failing on >=1.5x wall/span-total or >=2x span
# p99 regressions (spans under 20 ms in the baseline are noise-exempt).
# The gated run goes through `--data-dir` so the baseline also covers
# sharded generation (synth.generate/shard/merge) and the columnar
# spill + streamed-fold read path on top of the usual eval spans.
"$fcr" evaluate --scale quick --threads 1 --data-dir "$work_dir/bench-spill" \
  --bench-json "$work_dir/BENCH_quick.json" > /dev/null
"$fcr" bench compare BENCH_quick.json "$work_dir/BENCH_quick.json" \
  --tolerance 1.5 --p99-tolerance 2.0 --min-ms 20

echo "==> streamed-fold smoke (--data-dir: bitwise metrics, bounded RSS)"
# The columnar data plane's end-to-end contract: sharded generation is
# bitwise thread-count-invariant, and evaluating from the on-disk
# spill reproduces the fully-resident report byte-for-byte while peak
# RSS stays bounded. At --threads 2 two folds run concurrently, each
# streaming its rows from the spill, so RSS is bounded by one fold per
# worker rather than the full feature matrix.
"$fcr" generate --scale medium --seed 9 --threads 2 --out "$work_dir/med-t2.json" > /dev/null
"$fcr" generate --scale medium --seed 9 --threads 7 --out "$work_dir/med-t7.json" > /dev/null
cmp "$work_dir/med-t2.json" "$work_dir/med-t7.json" \
  || { echo "streamed smoke: sharded generate differs at 2 vs 7 threads" >&2; exit 1; }
"$fcr" evaluate --scale quick --threads 2 --data-dir "$work_dir/smoke-spill" \
  > "$work_dir/streamed.txt"
# Strip the spill banner, the RSS line, and the "N worker threads"
# header (the golden ran at --threads 1; running the smoke at 2 also
# proves the streamed path's thread invariance) before comparing.
diff <(grep -v '^spilling\|^peak RSS\|^running' "$work_dir/streamed.txt") \
     <(grep -v '^running' tests/golden/eval_quick_t1.txt) \
  || { echo "streamed smoke: --data-dir metrics drifted from the resident golden" >&2; exit 1; }
rss_mb="$(grep '^peak RSS:' "$work_dir/streamed.txt" | awk '{print int($3)}')"
rss_bound_mb=512
if [ -z "$rss_mb" ]; then
  echo "streamed smoke: no peak RSS line in the --data-dir report" >&2
  exit 1
fi
if [ "$rss_mb" -ge "$rss_bound_mb" ]; then
  echo "streamed smoke: peak RSS ${rss_mb} MB exceeds the ${rss_bound_mb} MB bound" >&2
  exit 1
fi
# The spilled path shares the resident path's CV driver, so it also
# checkpoints and resumes: a checkpointed run with sub-fold snapshots
# must print the same report.
"$fcr" evaluate --scale quick --threads 2 --data-dir "$work_dir/resume-spill" \
  --resume "$work_dir/streamed.ckpt" --snapshot-every 2 > "$work_dir/streamed.resume.txt"
diff <(grep -v '^spilling\|^peak RSS\|^running\|^checkpointing' "$work_dir/streamed.resume.txt") \
     <(grep -v '^running' tests/golden/eval_quick_t1.txt) \
  || { echo "streamed smoke: --data-dir --resume metrics drifted from the resident golden" >&2; exit 1; }
echo "streamed-fold: generate invariant at 2/7 threads, metrics bitwise-identical (plain and --resume), peak RSS ${rss_mb} MB < ${rss_bound_mb} MB"

echo "==> ingest kill-storm smoke (SIGKILL mid-append, wal repair + replay heal)"
# The WAL twin of the checkpoint storm: SIGKILL the event-log producer
# three times mid-append (each kill a seeded delay after the first
# observed segment write of that attempt), heal with `wal repair`, let
# one attempt complete, and require the healed log to replay — at 1
# and 2 threads — to the same state hash as an uninterrupted ingest.
wal_activity() {
  { cat "$1"/* 2>/dev/null || true; } | cksum
}
state_hash() {
  grep '^state hash:' "$1" | awk '{print $3}'
}
"$fcr" ingest --wal "$work_dir/ingest.clean.wal" --scale medium --seed 3 \
  --fsync always --segment-bytes 16384 \
  --bench-json "$work_dir/ingest.clean.bench.json" > "$work_dir/ingest.clean.txt"
clean_hash="$(state_hash "$work_dir/ingest.clean.txt")"
for t in 1 2; do
  wal="$work_dir/ingest.storm$t.wal"
  kills=0
  for delay in 0.05 0.15 0.30; do
    before="$(wal_activity "$wal")"
    "$fcr" ingest --wal "$wal" --scale medium --seed 3 \
      --fsync always --segment-bytes 16384 --threads "$t" > /dev/null 2>&1 &
    victim=$!
    for _ in $(seq 1 1200); do
      [ "$(wal_activity "$wal")" != "$before" ] && break
      kill -0 "$victim" 2>/dev/null || break
      sleep 0.02
    done
    sleep "$delay"
    if kill -9 "$victim" 2>/dev/null; then
      kills=$((kills + 1))
    fi
    wait "$victim" 2>/dev/null || true
  done
  if [ "$kills" -lt 3 ]; then
    echo "ingest kill-storm smoke: only $kills of 3 SIGKILLs landed (threads=$t)" >&2
    exit 1
  fi
  "$fcr" wal repair --dir "$wal" > "$work_dir/ingest.repair$t.txt"
  "$fcr" ingest --wal "$wal" --scale medium --seed 3 \
    --fsync always --segment-bytes 16384 --threads "$t" \
    --bench-json "$work_dir/ingest.storm$t.bench.json" > "$work_dir/ingest.storm$t.txt"
  grep -q 'resumed from event id' "$work_dir/ingest.storm$t.txt" \
    || { echo "ingest kill-storm smoke: healed run did not resume (threads=$t)" >&2; \
         cat "$work_dir/ingest.storm$t.txt" >&2; exit 1; }
  for rt in 1 2; do
    "$fcr" wal replay --dir "$wal" --threads "$rt" > "$work_dir/ingest.replay$t.$rt.txt"
    replay_hash="$(state_hash "$work_dir/ingest.replay$t.$rt.txt")"
    if [ "$replay_hash" != "$clean_hash" ]; then
      echo "ingest kill-storm smoke: healed replay hash $replay_hash != clean \
$clean_hash (storm threads=$t, replay threads=$rt)" >&2
      exit 1
    fi
  done
  echo "ingest kill-storm[threads=$t]: $kills SIGKILLs," \
    "$(sed 's/^repaired [^:]*: //' "$work_dir/ingest.repair$t.txt" | head -1)," \
    "healed replay hash == clean at 1/2 threads"
done
# The bench reports must carry the ingest spans and be consumable by
# the compare gate (generous tolerances: the healed run appends only
# the tail, so its timings are not comparable — this checks plumbing,
# not perf).
grep -q '"ingest.deliver"' "$work_dir/ingest.clean.bench.json" \
  || { echo "ingest smoke: bench report is missing the ingest spans" >&2; exit 1; }
"$fcr" bench compare "$work_dir/ingest.clean.bench.json" \
  "$work_dir/ingest.storm1.bench.json" \
  --tolerance 1000 --p99-tolerance 1000 --min-ms 0 > /dev/null
echo "ingest: bench reports carry ingest spans, compare consumes them"

echo "==> training determinism smoke (serial vs --threads 2, bitwise params)"
# Trains the same quick-scale MLP serially and with 2 workers: prints
# samples/sec for both and hard-fails unless the learned parameters
# are bit-for-bit identical (the fixed-order chunk reduction contract).
cargo build -q --release -p forumcast-ml --example train_throughput
for t in 1 2; do
  target/release/examples/train_throughput --threads "$t" \
    --samples 2048 --epochs 8 > "$work_dir/train.$t.txt"
  echo "train[threads=$t]: $(grep samples_per_sec "$work_dir/train.$t.txt")"
done
diff <(grep params_fnv "$work_dir/train.1.txt") \
     <(grep params_fnv "$work_dir/train.2.txt") \
  || { echo "training determinism smoke: 1-vs-2-thread parameters differ" >&2; exit 1; }

echo "All checks passed."
