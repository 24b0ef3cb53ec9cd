#!/usr/bin/env sh
# Open-system smoke test: latency-vs-offered-load curve gates.
#
# Runs the default open-loop sweep (clear_sim openloop: arrayswap over
# 2^17 keys at Zipf theta 6, Poisson arrivals, 3000 requests per point,
# presets B and C at retries 1, offered loads 30/60/120 requests/kcycle)
# and enforces:
#
#   1. HARD GATE: the sweep is byte-identical at --jobs 1 and --jobs N
#      (same seed, any job count — the determinism contract).
#   2. HARD GATE: the oracle-checked lowest-load point of every preset is
#      clean (the CLI exits non-zero otherwise), and no curve point
#      reports an oracle failure.
#   3. HARD GATE: the curve has >= 3 load points for each of >= 2 presets,
#      every point reporting exact p50/p99/p999 sojourn percentiles.
#   4. HARD GATE: at the highest offered load the fallback-heavy baseline's
#      p99 sojourn exceeds CLEAR's — the tail separation the overload
#      figure exists to show.
#   5. SOFT GATE: any per-point p99 shifting more than 10% against the
#      BENCH_openloop.json already in the working directory (the committed
#      one when run by hand; under @ci only what an earlier @ci run left in
#      _build/default) gets a CI-annotation-style warning;
#      the script never fails on drift (tails legitimately move when the
#      engine changes — the warning makes the move visible in the PR).
#
# On a single-core host the --jobs N run is clamped to one domain, so the
# byte-identity check degenerates to a repeat-run check; the JSON says so
# (parallel_meaningful false) instead of implying a parallel result. The
# jobs>1 library path is exercised by test/test_openloop.ml regardless.
#
# Usage: sh bench/openloop_smoke.sh   (from the repository root or bench/)
#
# Run by hand, it builds bin/clear_sim.exe and writes BENCH_openloop.json at
# the repository root. Under `dune build @ci` it runs inside _build/default
# with INSIDE_DUNE set: it uses the bin/clear_sim.exe the rule depends on,
# starts no nested build, and writes BENCH_openloop.json there, not into the
# source tree.

set -eu

cd "$(dirname "$0")/.."

if [ -n "${INSIDE_DUNE:-}" ]; then
  BIN=bin/clear_sim.exe
else
  dune build bin/clear_sim.exe 2>&1
  BIN=_build/default/bin/clear_sim.exe
fi

HOST_CORES=$( (nproc || getconf _NPROCESSORS_ONLN || echo 1) 2>/dev/null | head -n 1)
PAR_JOBS=$HOST_CORES
[ "$PAR_JOBS" -gt 4 ] && PAR_JOBS=4
[ "$PAR_JOBS" -lt 1 ] && PAR_JOBS=1

now_ms() {
  t=$(date +%s%N 2>/dev/null)
  case "$t" in
    *N) echo "$(date +%s)000" ;;
    *) echo "$((t / 1000000))" ;;
  esac
}

OUT1=$(mktemp) OUTN=$(mktemp)
trap 'rm -f "$OUT1" "$OUTN"' EXIT

echo "[openloop_smoke] sweep, --jobs 1, oracle-checked at the lowest load..."
START=$(now_ms)
"$BIN" openloop --json --check --jobs 1 >"$OUT1" 2>/dev/null
MS=$(($(now_ms) - START))
echo "[openloop_smoke] sweep, --jobs $PAR_JOBS..."
"$BIN" openloop --json --check --jobs "$PAR_JOBS" >"$OUTN" 2>/dev/null

# Gate 1: bit identity across job counts.
if ! cmp -s "$OUT1" "$OUTN"; then
  echo "[openloop_smoke] FAIL: --jobs 1 and --jobs $PAR_JOBS sweeps differ" >&2
  diff "$OUT1" "$OUTN" >&2 || true
  exit 1
fi
echo "[openloop_smoke] sweeps identical across job counts"

# Gate 2: the CLI already exited non-zero on a checked-oracle failure;
# belt-and-braces, no point may carry a false verdict.
if grep -q '"oracle_ok": false' "$OUT1"; then
  echo "[openloop_smoke] FAIL: a curve point reports oracle_ok false" >&2
  exit 1
fi

# Flatten the curve: one "preset rate p50 p99 p999" line per point.
CURVE=$(awk '
  /"preset":/ { p = $2; gsub(/[",]/, "", p) }
  /"rate":/   { r = $2 + 0 }
  /"sojourn":/ { in_s = 1 }
  in_s && /"p50":/  { p50 = $2 + 0 }
  in_s && /"p99":/  { p99 = $2 + 0 }
  in_s && /"p999":/ { p999 = $2 + 0; in_s = 0; print p, r, p50, p99, p999 }
' "$OUT1")

# Gate 3: >= 3 load points for each of >= 2 presets, percentiles present.
printf '%s\n' "$CURVE" | awk '
  { seen[$1]++ }
  END {
    presets = 0
    for (p in seen) {
      presets++
      if (seen[p] < 3) { printf "only %d load point(s) for preset %s\n", seen[p], p; exit 1 }
    }
    if (presets < 2) { printf "only %d preset(s) in the curve\n", presets; exit 1 }
  }
' || { echo "[openloop_smoke] FAIL: curve shape gate" >&2; exit 1; }

# Gate 4: baseline p99 > CLEAR p99 at the highest offered load.
printf '%s\n' "$CURVE" | awk '
  $2 > peak { peak = $2 }
  { rate[NR] = $2; preset[NR] = $1; p99[NR] = $4; n = NR }
  END {
    for (i = 1; i <= n; i++)
      if (rate[i] == peak) tail[preset[i]] = p99[i]
    if (!("B" in tail) || !("C" in tail)) { print "peak row missing B or C"; exit 1 }
    if (tail["B"] <= tail["C"]) {
      printf "baseline p99 %d is not above CLEAR p99 %d at load %g\n", tail["B"], tail["C"], peak
      exit 1
    }
    printf "[openloop_smoke] tail gate: at load %g, B p99 %d > C p99 %d\n", peak, tail["B"], tail["C"]
  }
' || { echo "[openloop_smoke] FAIL: overload tail-separation gate" >&2; exit 1; }

# Gate 5 (soft): per-point p99 drift against the previous BENCH_openloop.json.
if [ -f BENCH_openloop.json ]; then
  # The stored curve keeps one-line entries; pick the fields out of each.
  OLD_CURVE=$(awk '
    /"preset":/ && /"p99":/ {
      match($0, /"preset": "[^"]*"/); p = substr($0, RSTART + 11, RLENGTH - 12)
      match($0, /"rate": [0-9.]+/);   r = substr($0, RSTART + 8, RLENGTH - 8) + 0
      match($0, /"p99": [0-9]+/);     v = substr($0, RSTART + 7, RLENGTH - 7) + 0
      print p, r, v
    }
  ' BENCH_openloop.json)
  printf '%s\n' "$CURVE" | awk -v old_curve="$OLD_CURVE" '
    BEGIN {
      n = split(old_curve, lines, "\n")
      for (i = 1; i <= n; i++) { split(lines[i], f, " "); old[f[1] "@" f[2]] = f[3] }
    }
    {
      key = $1 "@" $2; new = $4 + 0
      if (key in old && old[key] + 0 > 0) {
        o = old[key] + 0
        pct = 100.0 * (new - o) / o
        if (pct > 10 || pct < -10)
          printf "::warning ::openloop %s p99 at load %s drifted %+.1f%% (%d -> %d)\n", $1, $2, pct, o, new
      }
    }'
fi

if [ "$HOST_CORES" -ge 2 ]; then MEANINGFUL=true; else MEANINGFUL=false; fi

CURVE_JSON=$(printf '%s\n' "$CURVE" | awk '
  { printf "%s    { \"preset\": \"%s\", \"rate\": %s, \"p50\": %s, \"p99\": %s, \"p999\": %s }",
           sep, $1, $2, $3, $4, $5
    sep = ",\n" }
  END { print "" }')

TAIL_JSON=$(printf '%s\n' "$CURVE" | awk '
  $2 > peak { peak = $2 }
  { rate[NR] = $2; preset[NR] = $1; p99[NR] = $4; n = NR }
  END {
    for (i = 1; i <= n; i++) if (rate[i] == peak) tail[preset[i]] = p99[i]
    printf "{ \"load\": %s, \"baseline_p99\": %d, \"clear_p99\": %d }", peak, tail["B"], tail["C"]
  }')

cat >BENCH_openloop.json <<EOF
{
  "suite": "openloop sweep (arrayswap, 2^17 keys, zipf theta 6.0, poisson, 3000 requests/point, presets B/C at retries 1, loads 30/60/120 req/kcycle)",
  "host_cores": $HOST_CORES,
  "parallel_jobs": $PAR_JOBS,
  "parallel_meaningful": $MEANINGFUL,
  "outputs_identical": true,
  "oracle_clean": true,
  "wall_ms": $MS,
  "curve": [
$CURVE_JSON  ],
  "tail_gate_at_peak": $TAIL_JSON
}
EOF

echo "[openloop_smoke] sweep wall time: ${MS} ms (host has ${HOST_CORES} core(s))"
echo "[openloop_smoke] wrote BENCH_openloop.json"
