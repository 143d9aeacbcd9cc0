import argparse
import ast
import importlib
import json
import pkgutil
import re
import shlex
import types
from pathlib import Path

import pytest

import degen_kuramoto
import helpers
from degen_kuramoto.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


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
    tops = ("src", "tests", "perfbench", "tools")
    paths = sorted(p for top in tops for p in (ROOT / top).rglob("*.py"))
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


def test_the_readme_names_no_private_identifier_and_cites_only_existing_helpers():
    # the README states behaviour; private code is described by its own docstrings
    assert len(README.splitlines()) <= 300
    fenced = re.findall(r"```(.*?)```", README, re.S)
    spans = fenced + re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", README, flags=re.S))
    private = [name for span in spans for name in re.findall(r"[A-Za-z_][\w.]*", span)
               if any(p.startswith("_") and not p.startswith("__") for p in name.split("."))]
    assert not private
    cited = sorted(set(re.findall(r"tests/helpers\.(?!py\b)(\w+)", README)))
    assert cited and [name for name in cited if not hasattr(helpers, name)] == []


def test_the_readme_command_line_examples_parse():
    block = re.search(r"^## Command line$.*?^```$(.*?)^```$", README, re.S | re.M).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv[:1] == ["degen-kuramoto"]]
    parser = build_parser()
    shown = set()
    for argv in commands:
        try:
            shown.add(parser.parse_args(argv[1:]).command)
        except SystemExit:
            pytest.fail(f"the README example does not parse: {shlex.join(argv)}")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert shown == set(sub.choices)
