"""Differential tests: each record class (a ``prsfam.errors.Record``)
against its ``@dataclass(frozen=True)`` twin in ``oracle.py``, on
random field values: construction by position and keyword, defaults,
equality, hashing, repr, refused assignment and deletion, pickling and
copying."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

import oracle
import prsfam
from _util import replace
from prsfam.bounds import BoundReport
from prsfam.construct import Family
from prsfam.measures import CorrelationSpec, MeasureResult, PatternWitness

CLASSES = (Family, CorrelationSpec, PatternWitness, MeasureResult,
           BoundReport)


def _ints(rng, size=3, top=9):
    return tuple(rng.randrange(top) for _ in range(rng.randint(1, size)))


def _number(rng):
    return rng.choice([rng.randrange(-5, 99), Fraction(rng.randrange(99), 7),
                       rng.random() * 50])


def _fields(cls, rng, side):
    """Random values of every field of ``cls``, in field order; a nested
    witness is built from ``side``, the package or the oracle.  Any
    ``Family`` field drawn fits any other: rows are binary, k >= 2."""
    name = cls.__name__
    if name == "Family":
        k = rng.randint(2, 4)
        n = rng.randint(1, 5)
        rows = tuple(tuple(rng.randrange(2) for _ in range(n))
                     for _ in range(rng.randint(1, 4)))
        return [rng.choice([3, 5, 7]), rng.randint(1, 6), k, rows,
                rng.choice(["external", "f1", "f2", "ksym", "dual(f2)"]),
                {"trace_zero": rng.random() < 0.5}]
    if name == "CorrelationSpec":
        return [rng.randint(1, 3), rng.randint(1, 9), _ints(rng), _ints(rng),
                rng.choice([None, _ints(rng)]),
                rng.choice([None, (_ints(rng), _ints(rng))])]
    if name == "PatternWitness":
        return [_ints(rng), _ints(rng)]
    if name == "MeasureResult":
        witness = rng.choice([
            None,
            side.PatternWitness(_ints(rng), _ints(rng)),
            side.CorrelationSpec(1, 2, _ints(rng), _ints(rng))])
        return [rng.choice(["phi", "gamma", "f_complexity"]),
                rng.randint(0, 3), _number(rng),
                rng.choice(["exact", "sampled-lower-bound"]), witness,
                rng.choice(["f2", "dual(ksym)"]), rng.random()]
    return [rng.choice(["family_size", "fc_capacity"]),
            rng.choice(["exact", "envelope"]), {"p": rng.randrange(99)},
            _number(rng), _number(rng), rng.random() < 0.5,
            rng.choice([None, rng.random()]), rng.choice(["", "k^C <= F"])]


def _twin(cls):
    return getattr(oracle, cls.__name__)


def _same(record, twin):
    """Equal fields (by repr, as a nested witness is of either side),
    repr and hash."""
    assert [repr(getattr(record, n)) for n in record.__slots__] == \
        [repr(getattr(twin, n)) for n in record.__slots__]
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_matches_its_dataclass_twin(cls):
    twin_cls = _twin(cls)
    names = cls.__slots__
    assert cls.__match_args__ == twin_cls.__match_args__ == names
    for seed in range(60):
        twin = twin_cls(*_fields(cls, random.Random(seed), oracle))
        ours = _fields(cls, random.Random(seed), prsfam)
        by_position = cls(*ours)
        by_keyword = cls(**dict(zip(names, ours)))
        _same(by_position, twin)
        _same(by_keyword, twin)
        assert by_position == by_keyword
        # change one field: equal exactly when the twins are
        j = seed % len(names)
        name = names[j]
        changed = replace(by_keyword, **{
            name: _fields(cls, random.Random(-seed), prsfam)[j]})
        twin_changed = dataclasses.replace(twin, **{
            name: _fields(cls, random.Random(-seed), oracle)[j]})
        _same(changed, twin_changed)
        assert (changed == by_keyword) == (twin_changed == twin)
        assert (changed != by_keyword) == (twin_changed != twin)
        # another class, the twin included, is never equal
        assert by_keyword.__eq__(twin) is NotImplemented
        assert by_keyword != twin and by_keyword != tuple(ours)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_defaults_match_the_twin(cls):
    twin_cls = _twin(cls)
    required = [n for n, f in twin_cls.__dataclass_fields__.items()
                if f.default is f.default_factory is dataclasses.MISSING]
    values = dict(zip(cls.__slots__, _fields(cls, random.Random(7), prsfam)))
    kwargs = {n: values[n] for n in required}
    a, b = cls(**kwargs), cls(**kwargs)
    twin = twin_cls(**kwargs)
    for name in cls.__slots__:
        assert getattr(a, name) == getattr(twin, name)
    if cls is Family:
        assert a.params == {} and a.params is not b.params
    # missing, unknown, repeated and surplus arguments are refused
    with pytest.raises(TypeError):
        cls(*list(kwargs.values())[:-1])
    with pytest.raises(TypeError):
        cls(**kwargs, bogus=1)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), **{required[0]: kwargs[required[0]]})
    with pytest.raises(TypeError):
        cls(*values.values(), None)


def test_repr_shows_an_int_past_the_digit_limit():
    # str refuses an int of more than 4,300 digits; repr shows it as the
    # power of two that it reaches, and the other fields as before
    record = MeasureResult("phi", 10**5000, -(10**5000), "exact", None)
    assert repr(record) == (
        "MeasureResult(name='phi', order=2^16609 or more, "
        "value=-2^16609 or less, mode='exact', witness=None, "
        "subject='external', err_bound=0.0)")


def test_repr_shows_a_witness_int_past_the_digit_limit():
    # an int inside a tuple field goes through _shown as well; every
    # other tuple, one of one item included, reads as its repr
    spec = CorrelationSpec(1, 1, (10**5000,), (1,))
    assert repr(spec) == ("CorrelationSpec(ell=1, window=1, "
                          "shifts=(2^16609 or more,), rows=(1,), "
                          "pattern=None, root_maps=None)")
    maps = ((0, 1, 2), (2, 0, 1))
    spec = CorrelationSpec(2, 3, (0, 1), (1, 4), root_maps=maps)
    assert repr(spec) == ("CorrelationSpec(ell=2, window=3, shifts=(0, 1), "
                          f"rows=(1, 4), pattern=None, root_maps={maps!r})")
    assert repr(MeasureResult("phi", 1, 1, "exact", spec)).count(
        repr(spec)) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_refuses_assignment_and_deletion(cls):
    record = cls(*_fields(cls, random.Random(3), prsfam))
    before = repr(record)
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_pickles_and_copies(cls):
    for seed in range(20):
        record = cls(*_fields(cls, random.Random(seed), prsfam))
        for clone in (pickle.loads(pickle.dumps(record)),
                      copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is cls and clone == record
            assert repr(clone) == repr(record)
            for name in cls.__slots__:  # params too, though not compared
                assert getattr(clone, name) == getattr(record, name)
        if "params" in cls.__slots__:
            assert copy.deepcopy(record).params is not record.params
