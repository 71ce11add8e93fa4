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


def test_budget_error_is_raised_only_by_its_owner():
    # every refusal goes through errors.check_budget: no other module
    # builds a BudgetError
    import ast
    from pathlib import Path

    sites = []
    for path in sorted(Path(prsfam.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "BudgetError"):
                sites.append(path.name)
    assert sites == ["errors.py"]
