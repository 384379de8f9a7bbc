"""The runtime imports nothing outside the standard library and numpy, and
exports only names it defines."""

import ast
import importlib
import os
import subprocess
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


def test_cli_import_loads_no_pool_modules():
    # the bootstrap's threads come from threading, which numpy loads anyway;
    # concurrent.futures or multiprocessing would lengthen every start-up
    code = ("import sys, versemetry.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": str(Path(versemetry.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_every_exported_name_exists_and_is_listed_once():
    # a definition deleted without its __all__ entry fails here, not in a
    # user's star import
    checked = 0
    for path in SOURCES:
        if "__all__" not in path.read_text("utf-8"):
            continue
        module = importlib.import_module(
            "versemetry" if path.stem == "__init__"
            else f"versemetry.{path.stem}")
        names = module.__all__
        assert len(names) == len(set(names)), path.name
        assert [name for name in names if not hasattr(module, name)] == [], \
            path.name
        # a submodule exports only what it defines; the package gathers
        if path.stem != "__init__":
            imported = {alias.asname or alias.name.partition(".")[0]
                        for node in ast.parse(path.read_text("utf-8")).body
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        for alias in node.names}
            assert sorted(imported.intersection(names)) == [], path.name
        checked += 1
    assert checked >= 8
