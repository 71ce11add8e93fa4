"""Shared test helpers."""

import random

from prsfam.construct import Family


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
