"""Every name a module of the package lists in ``__all__`` exists, the
package's count of options is pinned, only ``mp_law`` names ``ETA0``,
reads the layout of ``support_edges`` and builds Gauss nodes, only
``matrix_models`` names the Cholesky route and an ensemble's route state, and
importing the package and its CLI loads no SciPy and no process pool (nor,
with a first ``support_edges`` call, ``numpy.ma``)."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import anisomp

MODULES = sorted(f"anisomp.{m.name}" for m in pkgutil.iter_modules(anisomp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _option_count() -> int:
    """Defaulted parameters plus defaulted dataclass fields in the package."""
    count = 0
    for path in Path(anisomp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_option_count():
    # a change that adds or removes an option updates this number in its diff
    assert _option_count() == 63


def _modules_naming(name: str) -> set[str]:
    """The package's files that name ``name`` as a variable, attribute or import."""
    files = set()
    for path in sorted(Path(anisomp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and node.name == name)
            )
            if named:
                files.add(path.name)
    return files


def test_only_mp_law_names_eta0():
    # where the eta -> 0 limit is taken is a decision of the solver module alone
    assert _modules_naming("ETA0") == {"mp_law.py"}


def test_only_mp_law_names_support_edges():
    # the edge layout (descending, bulk k = [edges[2k+1], edges[2k]]) is read
    # by mp_law.support_bulks; the package root only re-exports the name
    assert _modules_naming("support_edges") == {"mp_law.py", "__init__.py"}


@pytest.mark.parametrize("name", ["_factor_above", "_lower_solve", "_factor_at", "_eigenvectors"])
def test_only_matrix_models_names_the_cholesky_route(name):
    # a resolvent at a real point above the spectrum has one path: the
    # Cholesky factor a SampleEnsemble keeps for that point; which route an
    # ensemble is on is its own state, read by no other module
    assert _modules_naming(name) == {"matrix_models.py"}


def test_only_mp_law_builds_gauss_nodes():
    # every integral against the law takes the one rule, mp_law._arcsine_rule
    assert _modules_naming("_gl") == {"mp_law.py"}


def test_import_loads_no_scipy():
    # the package's special functions come from math and statistics, and the
    # process pool is imported only by a run with several workers; a first
    # support_edges call does not load numpy.ma (np.unique would)
    src = str(Path(anisomp.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, anisomp, anisomp.cli; "
        "anisomp.support_edges(anisomp.PopulationSpectrum((1.0, 3.0), 0.5)); "
        "print(sorted(m for m in sys.modules "
        "if m.startswith('scipy') or m in ('concurrent.futures.process', 'numpy.ma')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_only_cli_main_catches_package_errors():
    # cli.main is the one place that turns a failure into an exit code: no
    # other function of cli.py names a package error (or a base class of
    # them all) in an except clause
    from anisomp import cli, errors

    caught = {"Exception", "BaseException"} | {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.AnisompError)
    }
    catchers = set()
    for fn in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler):
                names = {"BaseException"} if node.type is None else {
                    n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node.type) if isinstance(n, (ast.Name, ast.Attribute))
                }
                if names & caught:
                    catchers.add(fn.name)
    assert catchers == {"main"}
