"""Record reference.json: the outputs the correctness gate expects.

Run from the repository root, only when the expected outputs change on
purpose (say so in CHANGES.md):

    python3 perfbench/record_reference.py

Every job of every workload runs once through the CLI, and the
seed-independent part of its outputs (gate.summarize) is stored.  A
sampled measure job also gets ``exact``, the exact value of the same
measure, which its sampled value may not exceed.  The program computes
it itself where its budget allows (phi order 3 on f2(31,2), about 80 s).
Order-3 gamma on ksym(31,2,5) is refused by the budget (an estimated
6.3e10 steps), so it comes from ``gamma_oracle`` below, which
needs NumPy and is checked first against the program's exact gamma on
families small enough for it.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product

import run
from workloads import WORKLOADS


def gamma_oracle(fam, ell: int) -> Fraction:
    """Exact order-ell gamma of a family with N < k^ell, vectorized.

    For such a family every admissible (I, D) reaches k^ell - 1 at M = 1
    (scaled by k^ell), while a pattern count below M / k^ell deviates by
    at most M <= N.  So the maximum is the largest k^ell * C_W(M) - M,
    and for fixed W that grows only at windows ending on an occurrence
    of W.  Per (I, D) this is max over m of k^ell * occ(m) - (m + 1),
    with occ(m) the number of positions j <= m whose pattern equals the
    pattern at m.
    """
    import numpy as np

    n, f, k = fam.length, fam.size, fam.k
    kl = k**ell
    if n >= kl:
        raise ValueError("the oracle needs N < k^ell")
    ids = {}
    content = [ids.setdefault(row, len(ids)) for row in fam.rows]
    rows = np.array(fam.rows, dtype=np.int64)
    shifts = np.array(list(combinations_with_replacement(range(n), ell)))
    m = np.arange(n)
    valid = m[None, :] < (n - shifts[:, -1])[:, None]
    pos = np.minimum(shifts[:, :, None] + m[None, None, :], n - 1)
    upto = np.tril(np.ones((n, n), dtype=bool))
    best = -1
    for rows_idx in product(range(f), repeat=ell):
        ok = np.ones(len(shifts), dtype=bool)
        for a in range(ell):
            for b in range(a + 1, ell):
                if content[rows_idx[a]] == content[rows_idx[b]]:
                    ok &= shifts[:, a] != shifts[:, b]
        code = sum(rows[rows_idx[j]][pos[:, j, :]] * k**(ell - 1 - j)
                   for j in range(ell))
        code = np.where(valid, code, -1 - m)
        occ = ((code[:, :, None] == code[:, None, :]) & upto).sum(axis=2)
        dev = np.where(valid & ok[:, None], kl * occ - (m + 1), -1)
        best = max(best, int(dev.max()))
    return Fraction(best, kl)


def check_oracle() -> None:
    from prsfam import family_k_symbol, gamma
    for p, d, k, ell in ((13, 2, 3, 3), (11, 2, 5, 2), (11, 2, 5, 3)):
        fam = family_k_symbol(p, d, k)
        want = gamma(fam, ell).value
        got = gamma_oracle(fam, ell)
        if got != want:
            raise SystemExit(f"oracle gives {got} on ksym({p},{d},{k}) "
                             f"ell={ell}, the program {want}")
        print(f"oracle agrees on ksym({p},{d},{k}) ell={ell}: {got}")


def exact_value(job, argv: list[str], work) -> str:
    """Exact value of the measure a sampled job estimates."""
    from prsfam import read_family
    i = argv.index("--mode")
    exact_argv = argv[:i] + argv[i + 6:]  # drop mode, samples and seed
    out = exact_argv[exact_argv.index("--out") + 1]
    code, _, _ = run.run_process(
        [sys.executable, "-m", "prsfam.cli", *exact_argv],
        work / "exact.out", work / "exact.err")
    if code == 0:
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)[0]["value"]
    if code == 3 and job.option("--measure") == "gamma":
        fam = read_family(argv[argv.index("--in") + 1])
        return str(gamma_oracle(fam, int(job.option("--ell"))))
    raise SystemExit(f"{job.id}: exact run exited {code}")


def main() -> int:
    run.import_package()
    import gate
    check_oracle()
    reference = {}
    for name, jobs in WORKLOADS.items():
        work = run.fresh_dir(run.WORK / "record")
        for n, job in enumerate(jobs):
            argv = job.expand(str(work), 0)
            code, wall, _ = run.run_process(
                [sys.executable, "-m", "prsfam.cli", *argv],
                work / f"{n}.out", work / f"{n}.err")
            if code != job.expect_exit:
                raise SystemExit(f"{job.id} exited {code}")
            entry = {"summary": gate.summarize(job, argv)}
            if job.sampled:
                entry["exact"] = exact_value(job, argv, work)
            reference[job.id] = entry
            print(f"{name}: {job.id} exit {code} {wall:.2f}s {entry}")
    shutil.rmtree(work)
    with open(gate.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
