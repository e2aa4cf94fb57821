"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import ocm

MODULES = [importlib.import_module(f"ocm.{m.name}") for m in pkgutil.iter_modules(ocm.__path__)]


def test_every_name_in_a_modules_all_exists():
    assert {m.__name__ for m in MODULES} >= {"ocm.approx", "ocm.baire", "ocm.cli", "ocm.domain",
                                             "ocm.expr", "ocm.filters", "ocm.order"}
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_package_exports_only_what_its_modules_export():
    tree = ast.parse(Path(ocm.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ocm.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"ocm exports {node.module}.{alias.name}"
            assert getattr(ocm, alias.asname or alias.name) is getattr(module, alias.name)
