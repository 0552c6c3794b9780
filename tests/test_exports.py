"""Every exported name resolves: each module's ``__all__`` and every name
the package ``__init__`` re-exports (catches stale exports after a
deletion)."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nkcca

# every submodule that declares a public list (the CLI module does not)
MODULES = [module for module in
           (importlib.import_module(f"nkcca.{info.name}")
            for info in pkgutil.iter_modules(nkcca.__path__))
           if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_resolves(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_are_public_names():
    tree = ast.parse(Path(nkcca.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"nkcca.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"


def test_qr_append_block_is_not_exported():
    # it is a step of chol_append_block: alone it advances a state's m but
    # leaves R, M, the scales and the indices of the new columns unwritten
    from nkcca import nystrom

    assert "qr_append_block" not in nystrom.__all__
    assert not hasattr(nkcca, "qr_append_block")


def test_chol_solve_is_a_module_attribute_only():
    # no solver path calls it; bench/tracing.py still wraps the attribute
    from nkcca import nystrom

    assert "chol_solve" not in nystrom.__all__
    assert not hasattr(nkcca, "chol_solve")
    assert callable(nystrom.chol_solve)
