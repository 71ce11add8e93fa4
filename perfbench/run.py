"""Benchmark of the ``prsfam`` CLI on fixed gen -> measure -> verify job lists.

Run from the repository root:

    python3 perfbench/run.py --workload verify-binary --seed 1 --seconds 40 --trace 0

One client runs one job at a time (a closed loop), each job in a fresh
interpreter, so the package's caches start cold as they do for a user.
The run repeats passes over the workload's job list for about
``--seconds``; before each pass it times ``prsfam --version`` a few
times (set-up).  After each pass, outside the timed region, every job's
outputs go through the correctness gate (gate.py).

An untraced job runs under launch.py, which times a fixed kernel in the
job's own process before and after the job.  Each job's wall time, less
that calibration, is scaled by ``REF_KERNEL_S`` over a kernel time (see
``scale``): the time the job would take at the reference box's median
speed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (scaled),
``wall_s`` (scaled, one pass) and ``peak_rss_mb`` (largest max-RSS of a
job process in a pass), each a median over its samples.  It also prints
``raw_wall_s``, the unscaled pass time, and ``fail_frac``.
``--trace 1`` alternates traced passes, whose jobs run under tracer.py,
with untraced ones and reports the per-layer metrics; the spans are
written to ``.perfbench-work/`` when the run ends.  The metrics printed
in the last line, a JSON object, are the ones BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path(".perfbench-work")
TRACER = Path(__file__).resolve().parent / "tracer.py"
LAUNCHER = TRACER.parent / "launch.py"

# Median time of launch.kernel on the reference box (2-core Xeon VM,
# Python 3.11).  Timings are scaled to this speed; changing the kernel or
# this constant redefines wall_s and setup_s.
REF_KERNEL_S = 0.0045

SETUP_RUNS_PER_PASS = 3
JOB_TIMEOUT_S = 150
MEASURES = ("f_complexity", "cross_correlation", "cross_correlation_circ",
            "gamma", "gamma_circ", "big_gamma")
CORRELATION_MEASURES = MEASURES[1:]  # the ones tracer.py probes
LAYERS = ("cli", "construct", "poly", "ff", "measures", "bounds", "trace")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import prsfam from this checkout's src/, never from elsewhere."""
    if not (SRC / "prsfam" / "cli.py").is_file():
        fail(f"no prsfam sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import prsfam
    if Path(prsfam.__file__).resolve().parent != (SRC / "prsfam").resolve():
        fail(f"prsfam was imported from {prsfam.__file__}, not from {SRC}")
    return prsfam


def run_process(cmd: list[str], stdout: Path, stderr: Path):
    """Run one job to completion; returns (exit code, wall s, max-RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=env)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def calibrated(wall: float, calibration: list[float]) -> tuple[float, float]:
    """A job's wall time without its calibrations (launch.py), and its
    kernel time."""
    before, after, spent = calibration
    return wall - spent, (before + after) / 2


def measure_setup(version: str, runs: int) -> tuple[list[float], list[str]]:
    """Scaled wall time from a fresh interpreter to a ready CLI."""
    d = fresh_dir(WORK / "setup")
    walls, problems = [], []
    for i in range(runs):
        code, wall, _ = run_process(
            [sys.executable, str(LAUNCHER), f"{d}/{i}.cal.json", "--version"],
            d / f"{i}.out", d / f"{i}.err")
        if code != 0 or (d / f"{i}.out").read_text().strip() != version:
            problems.append(f"--version run {i}: exit {code}")
        try:
            raw, kernel = calibrated(wall, load_json(f"{d}/{i}.cal.json"))
            walls.append(raw * REF_KERNEL_S / kernel)
        except (OSError, ValueError) as exc:
            problems.append(f"--version run {i}: no calibration: {exc!r}")
            walls.append(wall)
    shutil.rmtree(d)
    return walls, problems


def run_pass(jobs, seed: int, index: int, traced: bool, gate, reference):
    """Time one pass over the job list, then check it (untimed)."""
    d = fresh_dir(WORK / f"pass-{index}")
    runs = []
    for n, job in enumerate(jobs):
        argv = job.expand(str(d), seed)
        base = d / f"{n:02d}"
        if traced:
            cmd = [sys.executable, str(TRACER), f"{base}.spans.json", job.id,
                   *argv]
        else:
            cmd = [sys.executable, str(LAUNCHER), f"{base}.cal.json", *argv]
        code, wall, rss = run_process(cmd, base.with_suffix(".out"),
                                      base.with_suffix(".err"))
        runs.append((job, argv, code, wall, rss, base))

    failures, docs, raw, kernels = {}, [], [], []
    for job, argv, code, wall, _, base in runs:
        stderr = base.with_suffix(".err").read_text(errors="replace")
        problems = gate.check_job(job, argv, code, stderr, reference)
        try:
            if traced:
                doc = load_json(f"{base}.spans.json")
                docs.append(dict(doc, pass_index=index))
                job_raw, kernel = calibrated(wall, doc["calibration"])
            else:
                job_raw, kernel = calibrated(wall, load_json(f"{base}.cal.json"))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"no spans or calibration: {exc!r}")
            job_raw, kernel = wall, REF_KERNEL_S
        raw.append(job_raw)
        kernels.append(kernel)
        if problems:
            failures[job.id] = problems
    shutil.rmtree(d)
    return {
        "traced": traced,
        "peak_rss_mb": max(r[4] for r in runs),
        "job_walls": raw,
        "job_kernel": kernels,
        "failures": failures,
        "docs": docs,
    }


def layer_metrics(docs: list[dict], job_walls: list[float]) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    Self time is a span's duration minus the durations of the spans and
    leaf groups directly inside it; a leaf's self time is its duration.
    """
    self_s, incl, calls, counts = Counter(), Counter(), Counter(), Counter()
    for doc in docs:
        inner = Counter()
        for _, name, start, end, parent in doc["spans"]:
            inner[parent] += end - start
        for parent, name, n, total, _, _ in doc["leaves"]:
            inner[parent] += total
            self_s[name] += total
            incl[name] += total
            calls[name] += n
        for sid, name, start, end, _ in doc["spans"]:
            self_s[name] += end - start - inner[sid]
            incl[name] += end - start
            calls[name] += 1
        counts.update(doc["counts"])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                    if k.startswith(layer + ".")), "s")
    m["cli.emit_report.s"] = (self_s["cli.emit_report"], "s")
    for cmd in ("gen", "measure", "verify", "dual", "weil"):
        m[f"cli.{cmd}.s"] = (incl[f"cli.{cmd}"], "s")
    for fn in ("family_f1", "family_f2", "family_k_symbol", "dual"):
        m[f"construct.{fn}.s"] = (self_s[f"construct.{fn}"], "s")
    m["construct.io.s"] = (self_s["construct.read_family"]
                           + self_s["construct.write_family"], "s")
    m["construct.io.bytes"] = (counts["construct.io.bytes"], "bytes")
    m["construct.rows_built"] = (counts["construct.rows_built"], "count")
    for fn in ("is_irreducible", "enumerate_trace_zero_irreducibles",
               "conjugacy_representatives", "minimal_polynomial"):
        m[f"poly.{fn}.s"] = (self_s[f"poly.{fn}"], "s")
    m["poly.is_irreducible.calls"] = (calls["poly.is_irreducible"], "count")
    m["poly.irreducible_yield"] = (ratio(counts["poly.is_irreducible.true"],
                                         calls["poly.is_irreducible"]),
                                   "ratio")
    m["poly.orbit_yield"] = (ratio(counts["poly.orbit_reps"],
                                   counts["poly.orbit_scanned"]), "ratio")
    m["poly.minimal_polynomial.calls"] = (calls["poly.minimal_polynomial"],
                                          "count")
    for fn in ("legendre", "char_k"):
        m[f"ff.{fn}.s"] = (self_s[f"ff.{fn}"], "s")
        m[f"ff.{fn}.calls"] = (calls[f"ff.{fn}"], "count")
    for fn in MEASURES:
        name = f"measures.{fn}"
        m[f"{name}.s"] = (self_s[name], "s")
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.refused"] = (counts[f"{name}.refused"], "count")
        if fn in CORRELATION_MEASURES:
            m[f"{name}.est_steps"] = (counts[f"{name}.est_steps"], "count")
    m["measures.steps_per_s"] = (ratio(
        sum(counts[f"measures.{fn}.est_steps"] for fn in CORRELATION_MEASURES),
        sum(self_s[f"measures.{fn}"] for fn in CORRELATION_MEASURES)), "1/s")
    for fn in ("verify_family", "weil_check"):
        m[f"bounds.{fn}.s"] = (self_s[f"bounds.{fn}"], "s")
    m["bounds.reports"] = (counts["bounds.reports"], "count")
    m["trace.startup_s"] = (sum(job_walls) - sum(self_s.values()), "s")
    return m


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(values: list[float], unit: str, value: float | None = None):
    """(value, q1, q3, n, unit); the value defaults to the median."""
    q1, med, q3 = quartiles(values)
    return (med if value is None else value, q1, q3, len(values), unit)


def scale(jobs, passes: list[dict]) -> None:
    """Scale each job's time to the reference speed ("job_scaled").

    A single-threaded job stays on one CPU, so its own calibration gives
    its speed.  A job with --jobs above 1 runs threads on both CPUs,
    whose speeds drift apart, so it is scaled by the median kernel time
    of the whole run instead.
    """
    run_kernel = statistics.median(k for p in passes for k in p["job_kernel"])
    for p in passes:
        p["job_scaled"] = [
            wall * REF_KERNEL_S / (run_kernel if job.threads > 1 else kernel)
            for job, wall, kernel in zip(jobs, p["job_walls"],
                                         p["job_kernel"])]


def pass_wall(passes: list[dict], key: str = "job_walls") -> float:
    """Wall time of one pass, as the sum over the job list of each job's
    median wall over the passes: a slow spell of the machine that hits
    one job in one pass does not move it."""
    return sum(statistics.median(walls)
               for walls in zip(*(p[key] for p in passes)))


def summarize_trace(traced: list[dict], untraced: list[dict]):
    """Medians of per-layer times over traced passes; counts, which must
    repeat exactly from pass to pass, are taken as they are."""
    per_pass = [layer_metrics(p["docs"], p["job_walls"]) for p in traced]
    problems = []
    out = {}
    for name, (_, unit) in per_pass[0].items():
        values = [pm[name][0] for pm in per_pass]
        if unit in ("s", "1/s"):
            out[name] = summary(values, unit)
            continue
        if len(set(values)) != 1:
            problems.append(f"{name} differs between passes: {values}")
        out[name] = summary(values, unit, value=values[0])
    overhead = (pass_wall(traced, "job_scaled")
                - pass_wall(untraced, "job_scaled"))
    out["trace.overhead_s"] = summary([overhead], "s")
    return out, problems


def write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prsfam = import_package()
    import gate  # imports prsfam, so only after import_package
    try:
        listed = load_json(ROOT / "BENCHMARK.json")[
            "per_layer" if args.trace else "end_to_end"]
        reference = load_json(gate.REFERENCE)
    except (OSError, ValueError, KeyError) as exc:
        fail(f"cannot load the benchmark definition: {exc!r}")
    jobs = WORKLOADS[args.workload]

    # A traced run alternates traced and untraced passes, at least two of
    # the first and one of the second.  Another pass starts only if it is
    # expected to end within --seconds.
    min_passes = 3 if args.trace else 1
    setup, problems, passes = [], [], []
    start = time.perf_counter()
    while True:
        walls, bad = measure_setup(prsfam.__version__, SETUP_RUNS_PER_PASS)
        setup += walls
        problems += bad
        traced = args.trace == 1 and len(passes) % 2 == 0
        passes.append(run_pass(jobs, args.seed, len(passes), traced, gate,
                               reference))
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes
                and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
            break

    scale(jobs, passes)
    attempted = len(jobs) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    for p in passes:
        for job_id, why in p["failures"].items():
            problems.append(f"{job_id}: {'; '.join(why)}")
    untraced = [p for p in passes if not p["traced"]]
    stats = {
        "setup_s": summary(setup, "s"),
        "wall_s": summary([sum(p["job_scaled"]) for p in untraced], "s",
                          pass_wall(untraced, "job_scaled")),
        "raw_wall_s": summary([sum(p["job_walls"]) for p in untraced], "s",
                              pass_wall(untraced)),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in untraced], "MB"),
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layer_stats, count_problems = summarize_trace(traced, untraced)
        problems += count_problems
        stats.update(layer_stats)
        write_json(WORK / f"spans-{args.workload}.json",
                   [doc for p in traced for doc in p["docs"]])

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  jobs/pass {len(jobs)}  trace {args.trace}")
    for name, (value, q1, q3, n, unit) in stats.items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    print(f"  {'fail_frac':44s} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted} jobs)")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)

    metrics = {}
    for entry in listed:
        name = entry["name"]
        if name not in stats or stats[name][4] != entry["unit"]:
            fail(f"metric {name} [{entry['unit']}] is not measured")
        metrics[name] = {"value": stats[name][0], "unit": entry["unit"]}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    write_json(WORK / f"result-{args.workload}-trace{args.trace}.json",
               dict(result, stats=stats, passes=[
                   {k: p[k] for k in ("traced", "peak_rss_mb", "job_walls",
                                      "job_kernel", "job_scaled", "failures")}
                   for p in passes]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
