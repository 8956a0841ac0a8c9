"""The package imports nothing outside the standard library at runtime."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqproof"


def test_every_absolute_import_in_the_package_is_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    imported = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    assert {module for _, module in imported} >= {"hashlib", "random"}
    outside = [(name, module) for name, module in imported if module.split(".")[0] not in sys.stdlib_module_names]
    assert sorted(outside) == []
