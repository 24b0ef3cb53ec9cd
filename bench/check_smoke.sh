#!/usr/bin/env sh
# Oracle-overhead smoke test.
#
# Runs the tiny fixed suite (bench/main.exe --smoke fig8) once plain and once
# with the execution oracle enabled (--check: witness capture + commit-order
# serializability + sequential replay + lock safety on every simulation),
# verifies the two tables are byte-identical (the oracle must not perturb the
# simulation), and records both wall-clock times in BENCH_check.json so the
# validation overhead is tracked across PRs.
#
# The disk cache is bypassed in both runs (--no-cache; --check bypasses it
# anyway) so both actually compute.
#
# Usage: sh bench/check_smoke.sh   (from the repository root or bench/)
#
# Run by hand, it builds bench/main.exe and writes BENCH_check.json at the
# repository root. Under `dune build @ci` it runs inside _build/default with
# INSIDE_DUNE set: it uses the bench/main.exe the rule depends on, starts no
# nested build, and writes BENCH_check.json there, not into the source tree.

set -eu

cd "$(dirname "$0")/.."

if [ -n "${INSIDE_DUNE:-}" ]; then
  BIN=bench/main.exe
else
  dune build bench/main.exe 2>&1
  BIN=_build/default/bench/main.exe
fi

HOST_CORES=$( (nproc || getconf _NPROCESSORS_ONLN || echo 1) 2>/dev/null | head -n 1)

# Same clamp as perf_smoke.sh: domains beyond the host's cores only add
# scheduling overhead to both sides of the comparison.
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

run_timed() { # $1 = extra flag or empty, $2 = output file; prints elapsed ms
  start=$(now_ms)
  # shellcheck disable=SC2086
  "$BIN" --smoke --no-cache --jobs "$PAR_JOBS" $1 fig8 >"$2" 2>/dev/null
  end=$(now_ms)
  echo "$((end - start))"
}

OUT_PLAIN=$(mktemp) OUT_CHECK=$(mktemp)
trap 'rm -f "$OUT_PLAIN" "$OUT_CHECK"' EXIT

echo "[check_smoke] plain run..."
MS_PLAIN=$(run_timed "" "$OUT_PLAIN")
echo "[check_smoke] checked run (--check)..."
MS_CHECK=$(run_timed "--check" "$OUT_CHECK")

if ! cmp -s "$OUT_PLAIN" "$OUT_CHECK"; then
  echo "[check_smoke] FAIL: --check changed the measured results" >&2
  diff "$OUT_PLAIN" "$OUT_CHECK" >&2 || true
  exit 1
fi
echo "[check_smoke] outputs identical with and without the oracle"

OVERHEAD=$(awk "BEGIN { printf \"%.2f\", $MS_CHECK / ($MS_PLAIN == 0 ? 1 : $MS_PLAIN) }")

cat >BENCH_check.json <<EOF
{
  "suite": "smoke-fig8 (4 configs x 19 benchmarks, 4 cores, 40 ops, 2 seeds, retries [2,5])",
  "host_cores": $HOST_CORES,
  "parallel_jobs": $PAR_JOBS,
  "plain_wall_ms": $MS_PLAIN,
  "checked_wall_ms": $MS_CHECK,
  "check_overhead_factor": $OVERHEAD,
  "outputs_identical": true,
  "oracles": ["serializability", "sequential replay", "lock safety"]
}
EOF

echo "[check_smoke] plain: ${MS_PLAIN} ms   checked: ${MS_CHECK} ms   overhead: ${OVERHEAD}x (host has ${HOST_CORES} core(s))"
echo "[check_smoke] wrote BENCH_check.json"
