"""Package surface: the public names resolve and the README tour runs."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import dpconsensus

README = Path(__file__).resolve().parents[1] / "README.md"


def _modules():
    for info in pkgutil.iter_modules(dpconsensus.__path__):
        yield info.name, importlib.import_module(f"dpconsensus.{info.name}")


def test_every_exported_name_resolves():
    for name, module in _modules():
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"dpconsensus.{name}.__all__ lists missing {attr!r}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(dpconsensus.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"dpconsensus.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, (
                    f"dpconsensus imports {alias.name!r}, which dpconsensus.{node.module} "
                    "does not export"
                )


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_uses_a_private_name_of_another():
    """No ``from .x import _y`` and no ``x._y`` for a sibling module ``x``:
    what a module needs of another is in that module's public interface."""
    found = []
    for path in sorted(Path(dpconsensus.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import x
                    siblings |= {alias.asname or alias.name for alias in node.names}
                else:
                    found += [f"{path.name}: from .{node.module} import {alias.name}"
                              for alias in node.names if _is_private(alias.name)]
        found += [
            f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in siblings and _is_private(node.attr)
        ]
    assert found == []


def test_readme_library_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_tour"})
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("AuditReport(n_samples=2000,") and "passed=True" in last
