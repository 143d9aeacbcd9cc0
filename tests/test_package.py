import ast
import importlib
import json
import pkgutil
import types
from pathlib import Path

import pytest

import degen_kuramoto

ROOT = Path(__file__).resolve().parents[1]


def test_the_package_api_is_the_union_of_the_module_all_lists():
    modules = [importlib.import_module(f"degen_kuramoto.{info.name}")
               for info in pkgutil.iter_modules(degen_kuramoto.__path__)
               if not info.name.startswith("_")]
    assert len(modules) == 8
    listed = set()
    for module in modules:
        for name in module.__all__:
            assert getattr(degen_kuramoto, name) is getattr(module, name), name
            listed.add(name)
    public = {name for name, value in vars(degen_kuramoto).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == listed


def test_every_python_file_parses_under_the_python_3_10_grammar():
    paths = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_every_bench_trajectory_result_is_correct_with_no_failures(path):
    objects = []  # a perfbench result line is each object with a "correct" key
    json.loads(path.read_text(), object_hook=lambda obj: objects.append(obj) or obj)
    found = [r for r in objects if "correct" in r]
    bad = [r for r in found if r["correct"] is not True or r.get("failed") != 0]
    assert found and not bad, f"{len(found)} results, {len(bad)} not correct or with failures"
