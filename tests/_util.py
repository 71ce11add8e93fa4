"""Shared test helpers."""

import random
from collections import Counter

from prsfam import measures
from prsfam.family import Family


def random_family(rng: random.Random, max_f: int = 6, max_n: int = 12,
                  k: int = 2, min_f: int = 1, min_n: int = 2) -> Family:
    """A seeded random family; rows may repeat, exercising the
    equal-row admissibility rule."""
    f = rng.randint(min_f, max_f)
    n = rng.randint(min_n, max_n)
    rows = tuple(tuple(rng.randrange(k) for _ in range(n)) for _ in range(f))
    return Family(p=3, d=1, k=k, rows=rows)


def replace(record, **changes):
    """A copy of a record (``prsfam.errors.Record``) with ``changes``
    to its fields, as ``dataclasses.replace`` makes of a dataclass."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def pm(family: Family):
    """Rows as +/-1 integers."""
    return [[1 - 2 * s for s in row] for row in family.rows]


def family_with_copies(rng: random.Random, k: int, distinct: int,
                       n: int) -> Family:
    """A seeded random family of ``distinct`` drawn rows of length n and
    as many copies of them, each inserted at a random position, so that
    about half the rows repeat another (drawn rows may also agree)."""
    rows = [tuple(rng.randrange(k) for _ in range(n))
            for _ in range(distinct)]
    for _ in range(distinct):
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))
    return Family(p=3, d=1, k=k, rows=tuple(rows))


def copied_cases(seed: int) -> list:
    """(family, order) cases whose rows are about half copies: k in 2..4,
    ell in 1..3, the longer orders on fewer and shorter rows."""
    rng = random.Random(seed)
    return [(family_with_copies(rng, k, rng.randint(1, 4 - ell // 2),
                                rng.randint(1, 6 - ell)), ell)
            for k in (2, 3, 4) for ell in (1, 2, 3) for _ in range(6)]


def count_gamma_caps(monkeypatch) -> dict:
    """Counts, updated as gamma runs: "checked", the gamma kernel calls
    whose floor is above L, where the per-tuple cap is tested, and
    "counted", the ``Counter`` of codes built; the calls between are
    those the distinct-code test decided."""
    seen = {"checked": 0, "counted": 0}
    make = measures._gamma_kernel

    def gamma_kernel(k, ell):
        kernel = make(k, ell)

        def checked(seqs, size, floor, reading):
            seen["checked"] += floor is not None and floor > size
            return kernel(seqs, size, floor, reading)
        return checked

    class Counted(Counter):
        def __init__(self, *args):
            seen["counted"] += 1
            super().__init__(*args)

    monkeypatch.setattr(measures, "_gamma_kernel", gamma_kernel)
    monkeypatch.setattr(measures, "Counter", Counted)
    return seen
