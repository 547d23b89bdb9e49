"""Module boundaries: no densecode module reaches into another one's
underscore names, by import or by attribute."""

import ast
from pathlib import Path

import densecode

SRC = Path(densecode.__file__).parent


def _private_uses(path: Path) -> list[str]:
    """'module._name' for each underscore name that the module at ``path``
    takes from another densecode module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # local name -> densecode module it is bound to
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "densecode"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    uses.append(f"{node.module or '.'}.{alias.name}")
                elif not node.module:
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            uses.append(f"{modules[node.value.id]}.{node.attr}")
    return uses


def test_no_module_uses_another_modules_private_names():
    found = {path.name: _private_uses(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_checker_sees_both_ways_in(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from . import protocol\n"
        "from .bellbasis import _message_bits, s0\n"
        "protocol._blocks(1, 1)\n"
        "protocol.session\n"
    )
    assert _private_uses(source) == ["bellbasis._message_bits", "protocol._blocks"]


def test_only_limits_tests_for_integers():
    """limits.check is the one test of an integer argument, so no other
    module imports numbers (for numbers.Integral)."""
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "numbers" in names:
                importers.add(path.name)
    assert importers == {"limits.py"}
