"""Every name a module of the package lists in ``__all__`` exists, and the
package's count of options is pinned."""

import ast
import importlib
import pkgutil
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
    assert _option_count() == 71
