#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload suite|openloop|checked \
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics" (see README.md here).
Exits non-zero without a result when the simulator sources are missing
or do not build.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "none"


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found; run from a full checkout",
                  file=sys.stderr)
            return 1
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 1
    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(dune + ["build", "--root", ROOT, "./perfbench/bench.exe"],
                           cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    args = sys.argv[1:] + ["--nproc", str(nproc or 1), "--git-rev", git_revision()]
    sys.stdout.flush()
    return subprocess.run([EXE] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
