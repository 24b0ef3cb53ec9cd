#!/usr/bin/env sh
# Streaming-checker smoke test: Check.Stream verdict-identity and memory
# gates (DESIGN.md §14).
#
#   1. HARD GATE: over the @ci check grid, `clear_sim check` with --stream
#      prints byte-identical reports to the post hoc oracles and exits 0.
#   2. HARD GATE: an injected conflict-detection bug (--fault-blind-line on
#      a line every attempt contends) makes BOTH paths exit non-zero with
#      byte-identical failure reports — streaming loses no detection power.
#   3. HARD GATE: a ~14 M-event open-loop point (500 000 requests at load
#      120) runs streamed-checked within 1.4x of unchecked CPU time (CPU,
#      not wall — under `dune build @ci` other rules time-slice the same
#      host), with every non-checker field of the JSON bit-identical to
#      the unchecked sweep (observation-only contract at open-system
#      scale).
#   4. HARD GATE: that point's peak live checker state (check_live_lines)
#      stays bounded (<= 4096 lines) while >= 10^7 events stream through
#      and entries retire behind the frontier (check_retired > 0) — the
#      O(live lines) memory claim, measured, not asserted.
#   5. SOFT GATE: streamed overhead or peak live lines drifting >10%
#      against the BENCH_streamcheck.json already in the working directory
#      (the committed one when run by hand; under @ci only what an earlier
#      @ci run left in _build/default) emits a CI-style ::warning, never a
#      failure.
#
# Writes BENCH_streamcheck.json.
#
# Usage: sh bench/streamcheck_smoke.sh   (from the repository root or bench/)
#
# Run by hand, it builds bin/clear_sim.exe and writes BENCH_streamcheck.json
# at the repository root. Under `dune build @ci` it runs inside
# _build/default with INSIDE_DUNE set: it uses the bin/clear_sim.exe the
# rule depends on, starts no nested build, and writes BENCH_streamcheck.json
# there, not into the source tree.

set -eu

cd "$(dirname "$0")/.."

if [ -n "${INSIDE_DUNE:-}" ]; then
  BIN=bin/clear_sim.exe
else
  dune build bin/clear_sim.exe 2>&1
  BIN=_build/default/bin/clear_sim.exe
fi

HOST_CORES=$( (nproc || getconf _NPROCESSORS_ONLN || echo 1) 2>/dev/null | head -n 1)

OUT_A=$(mktemp) OUT_B=$(mktemp) OUT_PLAIN=$(mktemp) OUT_STREAM=$(mktemp)
STRIP_A=$(mktemp) STRIP_B=$(mktemp) TIMES_F=$(mktemp)
trap 'rm -f "$OUT_A" "$OUT_B" "$OUT_PLAIN" "$OUT_STREAM" "$STRIP_A" "$STRIP_B" "$TIMES_F"' EXIT

# ---------------------------------------------------------------- gate 1
# Post hoc and streaming verdicts byte-identical over the check grid.
GRID_POINTS=0
for point in "mwobject W" "labyrinth C" "stack B"; do
  w=${point% *} c=${point#* }
  "$BIN" check -w "$w" -c "$c" --cores 4 --ops 30 >"$OUT_A"
  "$BIN" check -w "$w" -c "$c" --cores 4 --ops 30 --stream >"$OUT_B"
  if ! cmp -s "$OUT_A" "$OUT_B"; then
    echo "[streamcheck_smoke] FAIL: --stream changed the $w/$c verdict report" >&2
    diff "$OUT_A" "$OUT_B" >&2 || true
    exit 1
  fi
  GRID_POINTS=$((GRID_POINTS + 1))
done
echo "[streamcheck_smoke] verdicts identical on $GRID_POINTS grid points"

# ---------------------------------------------------------------- gate 2
# The injected fault must fail BOTH paths with the same report. Line 8 is
# inside every mwobject attempt's footprint at this geometry, so blinding
# the conflict probe there loses updates the oracles must see.
FAULT_ARGS="check -w mwobject -c B --cores 8 --ops 80 --fault-blind-line 8"
set +e
# shellcheck disable=SC2086
"$BIN" $FAULT_ARGS >"$OUT_A" 2>&1; RC_POSTHOC=$?
# shellcheck disable=SC2086
"$BIN" $FAULT_ARGS --stream >"$OUT_B" 2>&1; RC_STREAM=$?
set -e
if [ "$RC_POSTHOC" -eq 0 ] || [ "$RC_STREAM" -eq 0 ]; then
  echo "[streamcheck_smoke] FAIL: injected fault not caught (posthoc rc=$RC_POSTHOC, stream rc=$RC_STREAM)" >&2
  exit 1
fi
if ! cmp -s "$OUT_A" "$OUT_B"; then
  echo "[streamcheck_smoke] FAIL: fault reports differ between paths" >&2
  diff "$OUT_A" "$OUT_B" >&2 || true
  exit 1
fi
echo "[streamcheck_smoke] injected fault caught identically by both paths"

# ---------------------------------------------------------------- gate 3
# Open-loop scale: unchecked vs streamed-checked, stats bit-identical and
# overhead bounded.
OPEN_ARGS="openloop --json --loads 120 --requests 500000 --jobs 1"

# The overhead ratio is measured in child CPU time, not wall time: under
# `dune build @ci` this rule shares the host with the other smoke rules,
# and on a single-core CI box their time-slicing would dominate a
# wall-clock ratio. `times` accumulates the shell's child CPU; snapshots
# go through a file because a command substitution would fork the builtin
# into a subshell with its own (empty) accounting — so `times` itself must
# run in the main shell and only the file parse may be substituted.
parse_times() { # child user+sys of the snapshot in $TIMES_F, in ms
  awk 'NR == 2 {
    for (i = 1; i <= 2; i++) {
      split($i, a, "m"); sub(/s/, "", a[2])
      ms += (a[1] * 60 + a[2]) * 1000
    }
    printf "%d\n", ms
  }' "$TIMES_F"
}

# Measured in alternating plain/stream PAIRS, keeping the pair with the
# lowest ratio: concurrent @ci rules pollute the cache between time
# slices and inflate even CPU accounting, but both members of one pair
# see near-identical ambient load, so the pairwise ratio stays honest
# where a one-shot (or per-side best-of-N) measurement does not.
echo "[streamcheck_smoke] open-loop point, plain vs --check --stream (best of 3 pairs)..."
MS_PLAIN="" MS_STREAM=""
times >"$TIMES_F"; PREV=$(parse_times)
for _ in 1 2 3; do
  # shellcheck disable=SC2086
  "$BIN" $OPEN_ARGS >"$OUT_PLAIN" 2>/dev/null
  times >"$TIMES_F"; CUR=$(parse_times)
  P=$((CUR - PREV)); PREV=$CUR
  # shellcheck disable=SC2086
  "$BIN" $OPEN_ARGS --check --stream >"$OUT_STREAM" 2>/dev/null
  times >"$TIMES_F"; CUR=$(parse_times)
  S=$((CUR - PREV)); PREV=$CUR
  [ "$P" -gt 0 ] || P=1
  if [ -z "$MS_PLAIN" ] || [ $((S * 1000 / P)) -lt $((MS_STREAM * 1000 / MS_PLAIN)) ]; then
    MS_PLAIN=$P MS_STREAM=$S
  fi
done

if grep -q '"oracle_ok": false' "$OUT_STREAM"; then
  echo "[streamcheck_smoke] FAIL: streamed open-loop point reports oracle_ok false" >&2
  exit 1
fi

# Everything outside the checker-reporting fields must be bit-identical.
CHECK_FIELDS='"checked"\|"stream"\|"oracle_ok"\|"check_live_lines"\|"check_retired"'
grep -v "$CHECK_FIELDS" "$OUT_PLAIN" >"$STRIP_A"
grep -v "$CHECK_FIELDS" "$OUT_STREAM" >"$STRIP_B"
if ! cmp -s "$STRIP_A" "$STRIP_B"; then
  echo "[streamcheck_smoke] FAIL: streaming perturbed the open-loop stats" >&2
  diff "$STRIP_A" "$STRIP_B" >&2 || true
  exit 1
fi
echo "[streamcheck_smoke] open-loop stats bit-identical with the streaming checker"

OVERHEAD=$(awk "BEGIN { printf \"%.2f\", $MS_STREAM / ($MS_PLAIN == 0 ? 1 : $MS_PLAIN) }")
if awk "BEGIN { exit !($OVERHEAD > 1.4) }"; then
  echo "[streamcheck_smoke] FAIL: streamed overhead ${OVERHEAD}x exceeds the 1.4x budget" >&2
  exit 1
fi

# ---------------------------------------------------------------- gate 4
# >= 10^7 events through a checker holding only a bounded live set.
EVENTS=$(awk '/"events":/ { v = $2 + 0; if (v > max) max = v } END { print max + 0 }' "$OUT_STREAM")
LIVE=$(awk '/"check_live_lines":/ { v = $2 + 0; if (v > max) max = v } END { print max + 0 }' "$OUT_STREAM")
RETIRED=$(awk '/"check_retired":/ { v = $2 + 0; if (v > max) max = v } END { print max + 0 }' "$OUT_STREAM")
if [ "$EVENTS" -lt 10000000 ]; then
  echo "[streamcheck_smoke] FAIL: point saw only $EVENTS events (< 10^7)" >&2
  exit 1
fi
if [ "$LIVE" -lt 1 ] || [ "$LIVE" -gt 4096 ]; then
  echo "[streamcheck_smoke] FAIL: peak live lines $LIVE outside (0, 4096]" >&2
  exit 1
fi
if [ "$RETIRED" -lt 1 ]; then
  echo "[streamcheck_smoke] FAIL: nothing retired behind the frontier" >&2
  exit 1
fi
echo "[streamcheck_smoke] $EVENTS events checked with peak $LIVE live lines ($RETIRED entries retired)"

# ---------------------------------------------------------------- gate 5
# Soft drift warnings against the previous BENCH_streamcheck.json.
if [ -f BENCH_streamcheck.json ]; then
  OLD_OVERHEAD=$(awk '/"stream_overhead_factor":/ { gsub(/[",]/, "", $2); print $2 + 0 }' BENCH_streamcheck.json)
  OLD_LIVE=$(awk '/"peak_live_lines":/ { gsub(/[",]/, "", $2); print $2 + 0 }' BENCH_streamcheck.json)
  awk -v o="$OLD_OVERHEAD" -v n="$OVERHEAD" 'BEGIN {
    if (o > 0) { pct = 100.0 * (n - o) / o
      if (pct > 10 || pct < -10)
        printf "::warning ::streamcheck overhead drifted %+.1f%% (%.2fx -> %.2fx)\n", pct, o, n } }'
  awk -v o="$OLD_LIVE" -v n="$LIVE" 'BEGIN {
    if (o > 0) { pct = 100.0 * (n - o) / o
      if (pct > 10 || pct < -10)
        printf "::warning ::streamcheck peak live lines drifted %+.1f%% (%d -> %d)\n", pct, o, n } }'
fi

cat >BENCH_streamcheck.json <<EOF
{
  "suite": "streaming checker (check grid x 2 paths, fault injection, openloop 500000 requests at load 120)",
  "host_cores": $HOST_CORES,
  "grid_points_identical": $GRID_POINTS,
  "fault_caught_both_paths": true,
  "open_stats_identical": true,
  "open_plain_cpu_ms": $MS_PLAIN,
  "open_stream_cpu_ms": $MS_STREAM,
  "stream_overhead_factor": $OVERHEAD,
  "events": $EVENTS,
  "peak_live_lines": $LIVE,
  "retired_entries": $RETIRED,
  "oracles": ["serializability", "sequential replay", "lock safety", "static gate"]
}
EOF

echo "[streamcheck_smoke] plain: ${MS_PLAIN} CPU ms   streamed: ${MS_STREAM} CPU ms   overhead: ${OVERHEAD}x"
echo "[streamcheck_smoke] wrote BENCH_streamcheck.json"
