"""Public-surface tests: each module's __all__ names only what the module
defines, and the package re-exports only names its modules list as public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import cad_defense

MODULES = sorted(m.name for m in pkgutil.iter_modules(cad_defense.__path__))


def test_every_name_in_all_resolves():
    missing = []
    for name in MODULES:
        module = importlib.import_module(f"cad_defense.{name}")
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_only_public_names():
    tree = ast.parse(Path(cad_defense.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    stray = []
    for node in imports:
        public = importlib.import_module(f"cad_defense.{node.module}").__all__
        stray += [f"{node.module}.{alias.name}" for alias in node.names
                  if alias.name not in public]
    assert stray == []


def test_feedback_does_not_import_the_bandit():
    # the stop rule reads the largest probability, not a distribution
    tree = ast.parse(Path(cad_defense.feedback.__file__).read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    assert not imported & {"bandit", "cad_defense.bandit"}


def test_no_module_imports_a_private_bandit_name():
    # the loop and the library reach the bandit through the same public
    # functions; a private kernel beside them would be a second path
    stray = []
    for name in MODULES:
        path = Path(importlib.import_module(f"cad_defense.{name}").__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("bandit", "cad_defense.bandit")):
                stray += [f"{name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert stray == []


def test_every_name_imported_from_a_sibling_is_read():
    # a binding that nothing in its module reads carries no behaviour; the
    # package __init__, whose imports are its re-exports, is exempt
    unread = []
    for name in MODULES:
        path = Path(importlib.import_module(f"cad_defense.{name}").__file__)
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{name}: {alias.asname or alias.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   for alias in node.names if (alias.asname or alias.name) not in read]
    assert unread == []
