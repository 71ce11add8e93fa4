"""Check that two source trees give byte-identical CLI results on the
benchmark's job lists, on every measure and mode, and on the
invocations that need no input file.

Usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC [--jobs N]
                                     [--seed S [--seed S ...]]

PARENT_SRC and CHANGE_SRC are directories that contain a ``prsfam``
package (the ``src`` directory of two checkouts).  Every job of the
three workloads in ``perfbench/workloads.py`` runs as
``python -m prsfam.cli ...`` against each tree, in order, each tree in
its own scratch directory, with ``{seed}`` set to the first ``--seed``
(1 when none is given).  For each further ``--seed``, only the jobs that
read the seed, the sampled measure jobs, run again, under
``seed<S>/<workload>/``, on copies of the family files of the first
run.
``MEASURE_JOBS`` run the same way, under ``measures/``: every measure,
exact and sampled where it has a sampled mode, on one binary and one
k = 3 family, so each search kernel is compared, sampled ``biggamma``
on k = 2 among them, which no job list runs.  Every correlation measure
and mode also runs under ``--budget 0`` on both families, so every
estimate and refusal is compared, and ``fc`` on the binary family under
a budget that stops it after level 1, so its ``verified-lower-bound``
record is compared too.  f2(5,4), whose 30 rows hold 16 distinct
ones, runs ``fc`` and every exact measure at orders 2 and 3, each also
under ``--budget 0``, so the searches and estimates are compared on a
family with repeated rows, and at order 3 on tied-lag blocks of three
rows among the 16; and sampled ``phi``, ``gamma`` and ``biggamma`` at
orders 2 and 3, whose draws then include inadmissible ones, with
``biggamma``'s relabelings drawn between them.  Exact ``biggamma`` at order 1 runs on
ksym(31,3,5) (k = 5, N = 30) and ksym(29,2,7) (k = 7, N = 28), each
also under ``--budget 0``, and sampled ``biggamma`` on ksym(29,2,7):
larger k and longer rows than any job list gives the k >= 3 walk and
its skip.  ``verify`` also runs on ksym(5,3,2) and on
the dual of f2(13,2), whose reports read none of their own
correlations, and at ``--max-order`` 0 and 4 on f1(13,5) and
ksym(13,2,3): at 0 it takes only the measures its reports require, and
at 4 f1's envelope orders pass its 3 dual orders.  ``BUILD_JOBS`` run
under ``builds/``: builds that no job list reaches, f2(13,3) without
the trace-zero restriction, ksym(3,7,2), whose trace-zero coordinates
are not all solved from the lower ones, ksym(23,2,11), whose
two-digit symbols go through a ``dual`` and a ``measure``,
ksym(11,5,2), whose field has a 5 x 5 Frobenius matrix, and
ksym(31,3,5) under ``--budget 1000``, refused by the orbit enumeration
before any field is built.  ``WEIL_JOBS`` run under ``weil/``: the
complete sum of x + 1 at p = 3 (one lane), of x^2 + 1 and x^2 - 1 at
p = 5 (degree 2, a negative coefficient given as ``--poly=-1,0,1``),
of x^6 + x^2 + 3 at p = 101 and at p = 9,999,991, the largest prime
whose sum reads the squares table, of (x + 1)(x^2 + 1) at p = 7, which
has a linear factor, and the refusal of (x + 1)^2 at p = 5, which is
not square-free.  ``--jobs N``
replaces the ``--jobs`` value of every job that passes one.  The invocations in
``NO_INPUT`` (``--version``, the help texts and one usage error) run
the same way, under ``no-input/``.  Then every
output file, and each job's exit code, stdout and stderr, is compared
byte for byte.  Paths in the jobs are relative to the scratch
directory, so messages that name a file agree.

Prints one line per difference and a summary; exits 0 when everything
is identical and 1 otherwise.  Neither tree is written to.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(REPO / "perfbench"))

from workloads import (WORKLOADS, Job, dual, gen, measure,  # noqa: E402
                       verify)

JOB_TIMEOUT_S = 600
COMMANDS = ("gen", "dual", "measure", "verify", "weil")

# Argument parsing and its output paths, which the job lists never reach.
NO_INPUT = {
    "version": ["--version"],
    "help": ["--help"],
    **{f"{command}-help": [command, "--help"] for command in COMMANDS},
    "measure-usage-error": ["measure"],
}


def _with_budget(job: Job, budget: int) -> Job:
    """``job`` under ``--budget``, writing its own output file."""
    job_id = f"{job.id}-budget{budget}"
    return Job(job_id, job.argv[:-2] + ("--budget", str(budget), "--out",
                                         f"{{dir}}/{job_id}.json"))


def _verify_at(tag: str, max_order: int) -> Job:
    """``verify`` of ``tag`` at ``--max-order``."""
    job_id = f"verify-{tag}-order{max_order}"
    return Job(job_id, ("verify", "--in", f"{{dir}}/{tag}.fam", "--max-order",
                        str(max_order), "--out", f"{{dir}}/{job_id}.json"))


def _fc(tag: str) -> Job:
    """``measure --measure fc`` of ``tag``."""
    return Job(f"measure-{tag}-fc", ("measure", "--in", f"{{dir}}/{tag}.fam",
                                     "--measure", "fc", "--out",
                                     f"{{dir}}/measure-{tag}-fc.json"))


def _measure_jobs() -> list[Job]:
    jobs = [gen("f2_13_2", "f2", 13, 2),
            gen("ksym_13_2_3", "ksym", 13, 2, k=3)]
    for tag, ell, names in (
            ("f2_13_2", 3, ("phi", "phi0", "gamma", "gamma0", "biggamma")),
            ("ksym_13_2_3", 2, ("gamma", "gamma0", "biggamma"))):
        fc = _fc(tag)
        jobs.append(fc)
        if tag == "f2_13_2":
            # fc certifies level 1 in 96 steps; level 2 needs 1,056 more
            jobs.append(_with_budget(fc, 100))
        for name in ("phi", "phi0", "gamma", "gamma0", "biggamma"):
            runs = [measure(tag, name, ell, 1)]
            if not name.endswith("0"):  # the zero-shift measures are exact
                runs.append(measure(tag, name, ell, 1, samples=2000))
            if name in names:
                jobs += runs
            # phi on k = 3 compares which refusal comes first
            jobs += [_with_budget(job, 0) for job in runs]
    # f2(5,4) repeats 14 of its 30 rows
    jobs.append(gen("f2_5_4", "f2", 5, 4))
    for job in [_fc("f2_5_4")] + [measure("f2_5_4", name, ell, 1)
                                  for ell in (2, 3) for name in
                                  ("phi", "phi0", "gamma", "gamma0",
                                   "biggamma")]:
        jobs += [job, _with_budget(job, 0)]
    # its sampled draws meet repeated rows: inadmissible draws, and
    # biggamma's relabelings drawn between them
    jobs += [measure("f2_5_4", name, ell, 1, samples=2000)
             for ell in (2, 3) for name in ("phi", "gamma", "biggamma")]
    # exact biggamma on larger k and longer rows than any job list runs
    for tag, p, d, k in (("ksym_31_3_5", 31, 3, 5), ("ksym_29_2_7", 29, 2, 7)):
        job = measure(tag, "biggamma", 1, 1)
        jobs += [gen(tag, "ksym", p, d, k=k), job, _with_budget(job, 0)]
    jobs.append(measure("ksym_29_2_7", "biggamma", 1, 1, samples=2000))
    jobs += [gen("ksym_5_3_2", "ksym", 5, 3, k=2), verify("ksym_5_3_2", 1),
             dual("f2_13_2"), verify("dual_f2_13_2", 1),
             gen("f1_13_5", "f1", 13, 5)]
    jobs += [_verify_at(tag, max_order) for tag in ("f1_13_5", "ksym_13_2_3")
             for max_order in (0, 4)]
    return jobs


MEASURE_JOBS = _measure_jobs()

BUILD_JOBS = [
    Job("gen-f2all_13_3", ("gen", "--construction", "f2", "--p", "13",
                           "--d", "3", "--no-trace-zero",
                           "--out", "{dir}/f2all_13_3.fam")),
    gen("ksym_3_7_2", "ksym", 3, 7, k=2),
    gen("ksym_23_2_11", "ksym", 23, 2, k=11),
    dual("ksym_23_2_11"),
    measure("ksym_23_2_11", "gamma", 1, 1),
    gen("ksym_11_5_2", "ksym", 11, 5, k=2),
    _with_budget(gen("ksym_31_3_5", "ksym", 31, 3, k=5), 1000),
]


def _weil(job_id: str, poly: str, p: int) -> Job:
    """``weil`` of ``poly`` (``--poly=`` form, so a leading minus
    reads) at ``p``."""
    return Job(job_id, ("weil", f"--poly={poly}", "--p", str(p),
                        "--out", f"{{dir}}/{job_id}.json"))


WEIL_JOBS = [
    _weil("weil-x+1-p3", "1,1", 3),
    _weil("weil-x2+1-p5", "1,0,1", 5),
    _weil("weil-x2-1-p5", "-1,0,1", 5),
    _weil("weil-x6+x2+3-p101", "3,0,1,0,0,0,1", 101),
    _weil("weil-x6+x2+3-p9999991", "3,0,1,0,0,0,1", 9999991),
    # (x + 1)(x^2 + 1), with a root in F_7
    _weil("weil-linear-factor-p7", "1,1,1,1", 7),
    # (x + 1)^2 is refused
    _weil("weil-square-p5", "1,2,1", 5),
]


def job_argv(job, work_dir: str, seed: int, jobs: int | None) -> list[str]:
    argv = job.expand(work_dir, seed)
    if jobs is not None and "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = str(jobs)
    return argv


def run_tree(src: Path, root: Path, seeds: list[int],
             jobs: int | None) -> None:
    """Run the job lists against ``src`` with ``root`` as the working
    directory; each job leaves ``<workload>/<job>.{exit,out,err}``
    beside the files it writes, each ``NO_INPUT`` invocation
    ``no-input/<name>.{exit,out,err}``, and each job that reads a
    further seed S ``seed<S>/<workload>/<job>.{exit,out,err}``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")

    def run(argv: list[str], base: Path) -> None:
        proc = subprocess.run([sys.executable, "-m", "prsfam.cli", *argv],
                              cwd=root, env=env, capture_output=True,
                              timeout=JOB_TIMEOUT_S)
        base.with_suffix(".exit").write_text(f"{proc.returncode}\n")
        base.with_suffix(".out").write_bytes(proc.stdout)
        base.with_suffix(".err").write_bytes(proc.stderr)

    job_lists = {**WORKLOADS, "measures": MEASURE_JOBS, "builds": BUILD_JOBS,
                 "weil": WEIL_JOBS}
    for name, job_list in job_lists.items():
        (root / name).mkdir(parents=True)
        for job in job_list:
            run(job_argv(job, name, seeds[0], jobs), root / name / job.id)
    (root / "no-input").mkdir()
    for name, argv in NO_INPUT.items():
        run(argv, root / "no-input" / name)
    for seed in seeds[1:]:
        for name, job_list in job_lists.items():
            reading = [job for job in job_list if "{seed}" in job.argv]
            if not reading:
                continue
            work_dir = f"seed{seed}/{name}"
            (root / work_dir).mkdir(parents=True)
            for fam in (root / name).glob("*.fam"):
                shutil.copy(fam, root / work_dir)
            for job in reading:
                run(job_argv(job, work_dir, seed, jobs),
                    root / work_dir / job.id)


def files(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description="compare the CLI outputs of two prsfam source trees")
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--jobs", type=int, default=None,
                    help="replace the --jobs value of every job")
    ap.add_argument("--seed", type=int, action="append",
                    help="a seed of the sampled measure jobs (repeatable; "
                         "default 1)")
    args = ap.parse_args(argv)
    seeds = args.seed or [1]
    for src in (args.parent_src, args.change_src):
        if not (src / "prsfam" / "cli.py").is_file():
            ap.error(f"no prsfam package under {src}")

    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        roots = [Path(tmp) / "parent", Path(tmp) / "change"]
        for src, root in zip((args.parent_src, args.change_src), roots):
            run_tree(src.resolve(), root, seeds, args.jobs)
        parent, change = files(roots[0]), files(roots[1])

    differ = 0
    for rel in sorted(parent.keys() | change.keys()):
        if rel not in change:
            print(f"only in parent: {rel}")
        elif rel not in parent:
            print(f"only in change: {rel}")
        elif parent[rel] != change[rel]:
            print(f"differs: {rel}")
        else:
            continue
        differ += 1
    total = len(parent.keys() | change.keys())
    jobs = args.jobs if args.jobs is not None else "as listed"
    print(f"{total} files compared ({', '.join(WORKLOADS)}, measures, "
          f"builds, weil, no-input; jobs {jobs}, seed{'s' * (len(seeds) > 1)} "
          f"{', '.join(map(str, seeds))}): "
          + ("all identical" if not differ else f"{differ} differ"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
