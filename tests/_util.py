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
