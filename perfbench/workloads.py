"""The benchmark's workloads: ordered lists of ``prsfam`` CLI jobs.

Each job is the argument list of one CLI invocation.  ``{dir}`` stands
for the pass's scratch directory, where family files and reports are
written, and ``{seed}`` for the workload seed, which only the sampled
measure jobs receive.  README.md in this directory says why each
workload was chosen and which layer it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    expect_exit: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def threads(self) -> int:
        return int(self.option("--jobs") or 1)

    @property
    def sampled(self) -> bool:
        return "sampled" in self.argv

    def option(self, name: str) -> str | None:
        """Value of a ``--name value`` option, placeholders unexpanded."""
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return None

    def expand(self, work_dir: str, seed: int) -> list[str]:
        return [a.replace("{dir}", work_dir).replace("{seed}", str(seed))
                for a in self.argv]


def _fam(tag: str) -> str:
    return f"{{dir}}/{tag}.fam"


def gen(tag: str, construction: str, p: int, d: int,
        k: int | None = None) -> Job:
    argv = ["gen", "--construction", construction, "--p", str(p),
            "--d", str(d)]
    if k is not None:
        argv += ["--k", str(k)]
    return Job(f"gen-{tag}", tuple(argv + ["--out", _fam(tag)]))


def verify(tag: str, jobs: int, expect_exit: int = 0) -> Job:
    return Job(f"verify-{tag}",
               ("verify", "--in", _fam(tag), "--jobs", str(jobs),
                "--out", f"{{dir}}/verify-{tag}.json"), expect_exit)


def measure(tag: str, name: str, ell: int, jobs: int,
            samples: int | None = None) -> Job:
    job_id = f"measure-{tag}-{name}-l{ell}"
    argv = ["measure", "--in", _fam(tag), "--measure", name,
            "--ell", str(ell), "--jobs", str(jobs)]
    if samples is not None:
        job_id += "-sampled"
        argv += ["--mode", "sampled", "--samples", str(samples),
                 "--seed", "{seed}"]
    return Job(job_id, tuple(argv + ["--out", f"{{dir}}/{job_id}.json"]))


def dual(tag: str) -> Job:
    return Job(f"dual-{tag}", ("dual", "--in", _fam(tag),
                                "--out", _fam(f"dual_{tag}")))


def weil(poly: str, p: int) -> Job:
    return Job(f"weil-p{p}", ("weil", "--poly", poly, "--p", str(p),
                              "--out", f"{{dir}}/weil-p{p}.json"))


WORKLOADS: dict[str, list[Job]] = {
    "verify-binary": [
        gen("f2_13_2", "f2", 13, 2), verify("f2_13_2", 1),
        gen("f2_17_2", "f2", 17, 2), verify("f2_17_2", 1),
        gen("f1_13_5", "f1", 13, 5), verify("f1_13_5", 1),
        # rows_distinct fails at this size: the exit-4 path is timed too
        gen("f2_3_4", "f2", 3, 4), verify("f2_3_4", 1, expect_exit=4),
        gen("f2_31_2", "f2", 31, 2),
        measure("f2_31_2", "phi", 2, 1),
        measure("f2_31_2", "biggamma", 2, 1),
        measure("f2_31_2", "phi", 3, 1, samples=20000),
    ],
    "kary-jobs2": [
        gen("ksym_13_2_3", "ksym", 13, 2, k=3), verify("ksym_13_2_3", 2),
        gen("ksym_31_2_5", "ksym", 31, 2, k=5), verify("ksym_31_2_5", 2),
        measure("ksym_13_2_3", "biggamma", 2, 2),
        measure("ksym_31_2_5", "biggamma", 1, 2),
        measure("ksym_31_2_5", "gamma0", 3, 2),
        measure("ksym_31_2_5", "gamma", 3, 2, samples=10000),
    ],
    "build-heavy": [
        gen("ksym_31_3_5", "ksym", 31, 3, k=5),
        gen("f2_61_3", "f2", 61, 3),
        gen("f1_31_7", "f1", 31, 7),
        dual("f2_61_3"),
        weil("3,0,1,0,0,0,1", 100003),
        measure("ksym_31_3_5", "gamma0", 1, 1),
        gen("f2_5_3", "f2", 5, 3), verify("f2_5_3", 1),
    ],
}
