import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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
    # the data model and its file format have their own module, apart
    # from the builders
    assert {n for n in public if package._OWNER[n] == "family"} == {
        "Family", "dual", "read_family", "write_family"}
    # the integer arithmetic, Gauss's counts among it, is ff's, apart
    # from the polynomials
    assert {n for n in public if package._OWNER[n] == "ff"} == {
        "is_prime", "legendre", "primitive_root", "char_k", "mobius",
        "count_trace_zero_irreducibles"}
    for name in sorted(public):
        value = getattr(package, name)
        owner = value.__module__
        assert owner == f"prsfam.{package._OWNER[name]}", name
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

    sites = []
    for path in sorted(Path(prsfam.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "BudgetError"):
                sites.append(path.name)
    assert sites == ["errors.py"]


def _modules_loaded_by(module: str) -> list[str]:
    """The package modules a fresh interpreter holds after importing
    ``module`` alone."""
    code = (f"import sys, {module}; print(*sorted("
            "m for m in sys.modules if m.startswith('prsfam')))")
    env = dict(os.environ, PYTHONPATH=str(Path(prsfam.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_roots_imports_no_other_package_module():
    # measures imports roots lazily, for k >= 3 big_gamma; roots takes
    # nothing back, so importing it alone loads no measures
    assert _modules_loaded_by("prsfam.roots") == ["prsfam", "prsfam.roots"]


def test_ff_imports_no_other_package_module():
    # poly builds on ff, never the other way round, so verify, whose size
    # identities read ff's counts, compiles no polynomial code; the
    # ``ff.is_irreducible`` name, which perfbench's tracer wraps, loads
    # poly on access only
    assert _modules_loaded_by("prsfam.ff") == ["prsfam", "prsfam.errors",
                                               "prsfam.ff"]
    assert "prsfam.poly" not in _modules_loaded_by("prsfam.bounds")
    import prsfam.ff
    import prsfam.poly

    assert prsfam.ff.is_irreducible is prsfam.poly.is_irreducible
    with pytest.raises(AttributeError, match="no_such_name"):
        prsfam.ff.no_such_name


def test_family_imports_no_other_package_module():
    # dual and measure read a family file through this module alone, so
    # it must not pull in the builders or the field arithmetic
    assert _modules_loaded_by("prsfam.family") == [
        "prsfam", "prsfam.errors", "prsfam.family"]
