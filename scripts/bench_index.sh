#!/usr/bin/env bash
# Index dominance gate: the log-time structures against every flat list
# at ranges where O(log n) beats O(n), emitting one JSON array of
# schema-stable reports to BENCH_index.json.
#
# Usage: scripts/bench_index.sh [outfile]       (default BENCH_index.json)
#
# Like bench_smoke.sh this is a gate, not a benchmark — numbers from CI
# machines are noise (see EXPERIMENTS.md for the real protocol). But
# the skip-list claim is asymptotic and machine-independent enough to
# assert even here: at range 2*10^4 a list traversal averages ~5000
# node hops while a skip-list descent does ~30, so the gates:
#
#   1. dominance at range 20000: the best sharded skip cell (plain or
#      arena-backed) strictly exceeds EVERY list — vbl, lazy, harris
#      AND the 16-way sharded VBL, whose per-shard lists still walk
#      ~625 nodes a hop;
#   2. dominance persists at range 200000, sharded skip vs sharded VBL
#      head to head (the gap should widen with the range);
#   3. disabled-probe overhead on vbskip: the default build with probes
#      compiled in but not attached keeps pace with the obsoff build —
#      <= 2% on a quiet machine (DESIGN.md section 15), 15% here for
#      CI-noise headroom.
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH_index.json}"

go build -o /tmp/listset-synchrobench ./cmd/synchrobench

# Row layout (impl @ range) — the gates below index into this order,
# so append new rows at the END and keep it in sync:
#   0 vbl                      range 20000   (flat list baselines...)
#   1 lazy                     range 20000
#   2 harris                   range 20000
#   3 vbl,    16 shards        range 20000   (the strongest list cell)
#   4 vbskip                   range 20000   (...log-time structures)
#   5 vbskip, arena            range 20000
#   6 vbskip, 16 shards        range 20000
#   7 vbskip, 16 shards, arena range 20000
#   8 vbl,    16 shards        range 200000  (scale-up head-to-head)
#   9 vbskip, 16 shards        range 200000
rows=(
  "-impl vbl"
  "-impl lazy"
  "-impl harris"
  "-impl vbl -shards 16"
  "-impl vbskip"
  "-impl vbskip -arena"
  "-impl vbskip -shards 16"
  "-impl vbskip -shards 16 -arena"
  "-impl vbl -shards 16 -range 200000"
  "-impl vbskip -shards 16 -range 200000"
)

# Common flags first so a row's own flags override them (the flag
# package takes the last occurrence).
{
  printf '[\n'
  for i in "${!rows[@]}"; do
    [ "$i" -gt 0 ] && printf ',\n'
    # shellcheck disable=SC2086  # rows are flag lists, word-split on purpose
    /tmp/listset-synchrobench -threads 4 -range 20000 -update-ratio 20 \
      -duration 700ms -warmup 200ms -runs 3 -json ${rows[$i]}
  done
  printf ']\n'
} >"$out"

# Schema sanity: every report carries the schema tag and events; the
# arena rows must record arena stats.
for key in '"schema": "listset/bench/v1"' '"events"'; do
  n=$(grep -c "$key" "$out") || true
  if [ "$n" -lt "${#rows[@]}" ]; then
    echo "bench_index: expected $key in every report of $out (found $n)" >&2
    exit 1
  fi
done

# Dominance gates over the median throughputs (one "median" per
# report, in file order; the median shrugs off the odd descheduled run
# on shared CI machines).
awk -F': ' '/"median"/ { gsub(/,/, "", $2); m[n++] = $2 + 0 }
END {
  if (n != '"${#rows[@]}"') {
    printf "bench_index: expected %d median entries, found %d\n", '"${#rows[@]}"', n > "/dev/stderr"
    exit 1
  }
  best = (m[6] > m[7]) ? m[6] : m[7]
  split("vbl lazy harris sharded-vbl", lists, " ")
  for (i = 0; i < 4; i++) {
    if (best <= m[i]) {
      printf "bench_index: sharded skip (%.0f ops/s) does not dominate %s (%.0f ops/s) at range 20000\n", best, lists[i+1], m[i] > "/dev/stderr"
      exit 1
    }
  }
  if (m[9] <= m[8]) {
    printf "bench_index: sharded skip (%.0f ops/s) does not dominate sharded vbl (%.0f ops/s) at range 200000\n", m[9], m[8] > "/dev/stderr"
    exit 1
  }
  printf "bench_index: dominance gate ok — sharded skip at %.1fx the best list (range 20000), %.1fx sharded vbl (range 200000)\n", best / m[3], m[9] / m[8]
}' "$out"

# Disabled-probe overhead gate on the skip list: probes compiled in but
# never attached must be the nil-check per site, nothing more. Same
# interleaved best-of-3 protocol as bench_smoke.sh.
go build -tags obsoff -o /tmp/listset-synchrobench-obsoff ./cmd/synchrobench
ocell="-impl vbskip -range 20000 -threads 4 -update-ratio 20 -duration 400ms -warmup 100ms -runs 1 -quiet"
best_on=0
best_off=0
for _ in 1 2 3; do
  # -quiet prints "impl threads workload mean"; the mean is last.
  # shellcheck disable=SC2086
  off=$(/tmp/listset-synchrobench-obsoff $ocell | awk '{ print $NF }')
  # shellcheck disable=SC2086
  on=$(/tmp/listset-synchrobench $ocell | awk '{ print $NF }')
  best_off=$(awk -v a="$best_off" -v b="$off" 'BEGIN { print (b > a) ? b : a }')
  best_on=$(awk -v a="$best_on" -v b="$on" 'BEGIN { print (b > a) ? b : a }')
done
awk -v on="$best_on" -v off="$best_off" 'BEGIN {
  if (off <= 0 || on <= 0) {
    printf "bench_index: probe-overhead gate got non-positive throughput (on=%.0f off=%.0f)\n", on, off > "/dev/stderr"
    exit 1
  }
  if (on < 0.85 * off) {
    printf "bench_index: disabled probes on vbskip (%.0f ops/s) below 0.85x obsoff (%.0f ops/s)\n", on, off > "/dev/stderr"
    exit 1
  }
  printf "bench_index: probe-overhead gate ok — disabled probes at %.2fx obsoff\n", on / off
}'

echo "bench_index: wrote $out (${#rows[@]} reports)"
