import importlib.util

import pytest

import prsfam


def test_public_names_resolve_lazily_to_their_owners():
    # a fresh copy of the package module, so no earlier test has bound
    # any of its names yet
    spec = importlib.util.find_spec("prsfam")
    package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    public = set(package.__all__) - {"__version__"}
    assert public == set(prsfam.__all__) - {"__version__"}
    assert not public & vars(package).keys()
    assert public <= set(dir(package))
    for name in sorted(public):
        value = getattr(package, name)
        owner = value.__module__
        assert owner.startswith("prsfam."), name
        assert getattr(importlib.import_module(owner), name) is value
    namespace = {}
    exec("from prsfam import *", namespace)
    assert set(prsfam.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
