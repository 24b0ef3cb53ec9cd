#!/usr/bin/env sh
# Schedule-scenario smoke test.
#
# Runs the scheduler scenario sweep (clear_sim sched: every registered
# scenario x the four presets x three seeds, with the four-oracle execution
# check on every simulation) and saves the machine-readable results as
# BENCH_sched.json so the contention axis is tracked across PRs.
#
# Two hard gates:
#   - every (scenario, config, seed) simulation must pass all oracles
#     (clear_sim sched --check exits non-zero on the first violation);
#   - at least 2 of the non-symmetric scenarios must shift the retry mix
#     materially (|one-retry| or |fallback| share moved >= 0.05) versus the
#     symmetric baseline — otherwise the scheduling axis has stopped doing
#     anything and the sweep is vacuous.
#
# Usage: sh bench/sched_smoke.sh   (from the repository root or bench/)
#
# Run by hand, it builds bin/clear_sim.exe and writes BENCH_sched.json at
# the repository root. Under `dune build @ci` it runs inside _build/default
# with INSIDE_DUNE set: it uses the bin/clear_sim.exe the rule depends on,
# starts no nested build, and writes BENCH_sched.json there, not into the
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

# Same clamp as the other smoke scripts: domains beyond the host's cores
# only add scheduling overhead.
PAR_JOBS=$HOST_CORES
[ "$PAR_JOBS" -gt 4 ] && PAR_JOBS=4
[ "$PAR_JOBS" -lt 1 ] && PAR_JOBS=1

echo "[sched_smoke] scenario sweep with the execution oracle (--check, --jobs $PAR_JOBS)..."
"$BIN" sched --json --check --jobs "$PAR_JOBS" >BENCH_sched.json

# The sweep must be jobs-invariant: a sequential run has to produce the
# same JSON byte for byte.
if [ "$PAR_JOBS" -gt 1 ]; then
  SEQ=$(mktemp)
  trap 'rm -f "$SEQ"' EXIT
  "$BIN" sched --json --check --jobs 1 >"$SEQ"
  if ! cmp -s BENCH_sched.json "$SEQ"; then
    echo "[sched_smoke] FAIL: --jobs 1 and --jobs $PAR_JOBS sweeps differ" >&2
    diff BENCH_sched.json "$SEQ" >&2 || true
    exit 1
  fi
  echo "[sched_smoke] sweep identical across job counts"
fi

SHIFTED=$(sed -n 's/.*"materially_different": \([0-9][0-9]*\),.*/\1/p' BENCH_sched.json | head -n 1)
if [ -z "$SHIFTED" ]; then
  echo "[sched_smoke] FAIL: could not read materially_different from BENCH_sched.json" >&2
  exit 1
fi
if [ "$SHIFTED" -lt 2 ]; then
  echo "[sched_smoke] FAIL: only $SHIFTED scenario(s) shift the retry mix materially (need >= 2)" >&2
  exit 1
fi

echo "[sched_smoke] all scenarios oracle-clean; $SHIFTED scenarios shift the retry mix materially"
echo "[sched_smoke] wrote BENCH_sched.json"
