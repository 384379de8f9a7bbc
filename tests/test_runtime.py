"""The runtime imports nothing outside the standard library and numpy."""

import ast
import sys
from pathlib import Path

import versemetry

SOURCES = sorted(Path(versemetry.__file__).parent.glob("*.py"))


def test_sources_import_only_stdlib_and_numpy():
    allowed = sys.stdlib_module_names | {"numpy"}
    assert len(SOURCES) >= 7
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []
