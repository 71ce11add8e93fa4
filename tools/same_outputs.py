"""Check that two source trees give byte-identical CLI results on the
benchmark's job lists and on the invocations that need no input file.

Usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC [--jobs N] [--seed S]

PARENT_SRC and CHANGE_SRC are directories that contain a ``prsfam``
package (the ``src`` directory of two checkouts).  Every job of the
three workloads in ``perfbench/workloads.py`` runs as
``python -m prsfam.cli ...`` against each tree, in order, each tree in
its own scratch directory, with ``{seed}`` set to ``--seed``.
``--jobs N`` replaces the ``--jobs`` value of every job that passes
one.  The invocations in ``NO_INPUT`` (``--version``, the help texts
and one usage error) run the same way, under ``no-input/``.  Then every
output file, and each job's exit code, stdout and stderr, is compared
byte for byte.  Paths in the jobs are relative to the scratch
directory, so messages that name a file agree.

Prints one line per difference and a summary; exits 0 when everything
is identical and 1 otherwise.  Neither tree is written to.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(REPO / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

JOB_TIMEOUT_S = 600
COMMANDS = ("gen", "dual", "measure", "verify", "weil")

# Argument parsing and its output paths, which the job lists never reach.
NO_INPUT = {
    "version": ["--version"],
    "help": ["--help"],
    **{f"{command}-help": [command, "--help"] for command in COMMANDS},
    "measure-usage-error": ["measure"],
}


def job_argv(job, work_dir: str, seed: int, jobs: int | None) -> list[str]:
    argv = job.expand(work_dir, seed)
    if jobs is not None and "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = str(jobs)
    return argv


def run_tree(src: Path, root: Path, seed: int, jobs: int | None) -> None:
    """Run the job lists against ``src`` with ``root`` as the working
    directory; each job leaves ``<workload>/<job>.{exit,out,err}``
    beside the files it writes, and each ``NO_INPUT`` invocation
    ``no-input/<name>.{exit,out,err}``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")

    def run(argv: list[str], base: Path) -> None:
        proc = subprocess.run([sys.executable, "-m", "prsfam.cli", *argv],
                              cwd=root, env=env, capture_output=True,
                              timeout=JOB_TIMEOUT_S)
        base.with_suffix(".exit").write_text(f"{proc.returncode}\n")
        base.with_suffix(".out").write_bytes(proc.stdout)
        base.with_suffix(".err").write_bytes(proc.stderr)

    for name, job_list in WORKLOADS.items():
        (root / name).mkdir(parents=True)
        for job in job_list:
            run(job_argv(job, name, seed, jobs), root / name / job.id)
    (root / "no-input").mkdir()
    for name, argv in NO_INPUT.items():
        run(argv, root / "no-input" / name)


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
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the sampled measure jobs")
    args = ap.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "prsfam" / "cli.py").is_file():
            ap.error(f"no prsfam package under {src}")

    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        roots = [Path(tmp) / "parent", Path(tmp) / "change"]
        for src, root in zip((args.parent_src, args.change_src), roots):
            run_tree(src.resolve(), root, args.seed, args.jobs)
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
    print(f"{total} files compared ({', '.join(WORKLOADS)}, no-input; jobs "
          f"{args.jobs if args.jobs is not None else 'as listed'}, "
          f"seed {args.seed}): "
          + ("all identical" if not differ else f"{differ} differ"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
