"""Compare two git revisions on one perfbench workload in alternating pairs.

Usage: python tools/pairs.py BASE CHANGE --workload W --pairs N --seed S
                             [--seconds 40]

BASE and CHANGE are git revisions of this repository; for an
uncommitted tree, ``git stash create`` prints one.  Pair i (from 0)
runs both revisions with seed S + i, the base first when i is even and
the change first when it is odd.  Each run extracts a fresh
``git archive`` of its revision to one fixed directory, the same for
every run of both sides, runs
``perfbench/run.py --workload W --seed S+i --seconds T --trace 0`` there
with ``PYTHONDONTWRITEBYTECODE=1``, and deletes the checkout.  One path
for both sides matters: the directory a run starts from moves its
figures, so two fixed directories would compare the directories too.

A run that exits non-zero, reports ``correct`` false, prints no JSON
result or has failed jobs stops the tool (exit 1).  Otherwise it prints
every pair, each metric as base -> change, then, per end-to-end metric, the base median with its
quartiles, the change median and its difference from the base median,
and the number of pairs in which the change is lower.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKOUT = Path(tempfile.gettempdir()) / "prsfam-pairs"
sys.path.insert(0, str(ROOT / "perfbench"))

from run import quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, **kwargs)


def run_once(commit: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of ``commit`` from a fresh checkout at
    ``CHECKOUT``; its JSON result."""
    CHECKOUT.mkdir()
    try:
        archive = git("archive", commit, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(CHECKOUT)], input=archive,
                       check=True)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=CHECKOUT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True)
    finally:
        shutil.rmtree(CHECKOUT)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if (proc.returncode != 0 or not isinstance(result, dict)
            or not result.get("correct") or result.get("failed")):
        sys.exit(f"pairs: run of {commit[:12]} with seed {seed} failed "
                 f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description="compare two revisions on a perfbench workload")
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if CHECKOUT.exists():
        ap.error(f"{CHECKOUT} exists: another run is going, or one was "
                 "stopped; remove it first")
    commits = [git("rev-parse", "--verify", f"{rev}^{{commit}}",
                   capture_output=True, text=True).stdout.strip()
               for rev in (args.base, args.change)]
    print(f"workload {args.workload}  base {commits[0][:12]}  change "
          f"{commits[1][:12]}  seconds {args.seconds:g}", flush=True)

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        got = {}
        for side in order:
            got[side] = run_once(commits[side], args.workload, seed,
                                 args.seconds)
        pairs.append((got[0], got[1]))
        shown = "  ".join(f"{name} {got[0][name]:.4g} -> {got[1][name]:.4g}"
                          for name in got[0])
        print(f"pair {i + 1:2d}  seed {seed}  "
              f"{'base' if order[0] == 0 else 'change'} first  {shown}",
              flush=True)

    for name in pairs[0][0]:
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        q1, med, q3 = quartiles(base)
        cmed = statistics.median(change)
        lower = sum(c[name] < b[name] for b, c in pairs)
        print(f"{name:12s} base {med:.4g} [{q1:.4g}-{q3:.4g}]  change "
              f"{cmed:.4g} ({(cmed - med) / med:+.2%})  change lower in "
              f"{lower}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
