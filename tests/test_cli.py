import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degen_kuramoto
from degen_kuramoto import cli_dispatch
from degen_kuramoto.cli import build_parser

C4_EDGES = "0 1\n1 2\n2 3\n3 0\n"
K3_EDGES = "0 1\n1 2\n2 0\n"


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text(C4_EDGES)
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text(K3_EDGES)
    return str(path)


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "degen-kuramoto" in out
    for command in ("detect", "enumerate", "circuit", "construct-nonidentical",
                    "simulate", "probe", "rarity", "sweep", "render"):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and "usage" in out


def test_usage_errors_exit_two(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
    code, _, _ = run(capsys, "detect")  # missing --input
    assert code == 2


def test_unreadable_input_exits_one(capsys):
    code, _, err = run(capsys, "enumerate", "--input", "/nonexistent/file")
    assert code == 1 and "error:" in err


def test_enumerate_c4(capsys, c4_file):
    code, out, _ = run(capsys, "enumerate", "--input", c4_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["cde_count"] == 2
    assert doc["report"]["labelings"] == [
        {"base": 0.0, "labels": [0, 1, 2, 3]},
        {"base": 0.0, "labels": [0, 3, 2, 1]},
    ]


def test_enumerate_q6_prints_the_pinned_bytes(capsys, tmp_path):
    # the digest of the 9,800-labeling document as the per-combo listing printed it
    q6 = [(v, v ^ (1 << i)) for v in range(64) for i in range(6) if v < v ^ (1 << i)]
    path = tmp_path / "q6.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in q6))
    code, out, _ = run(capsys, "enumerate", "--input", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "86cb9912720b603a769e3638cc7d49aaf5091b661f9fe256c3f62af2f2022213"
    )


def test_enumerate_reports_no_cde_when_a_later_component_is_an_odd_cycle(capsys, tmp_path):
    q6 = [(v, v ^ (1 << i)) for v in range(64) for i in range(6) if v < v ^ (1 << i)]
    c5 = [(64 + k, 64 + (k + 1) % 5) for k in range(5)]
    path = tmp_path / "q6_c5.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in q6 + c5))
    code, out, err = run(capsys, "enumerate", "--input", str(path), "--budget", "1000")
    assert code == 0 and err == ""
    assert '"cde_count":0' in out


def test_detect_k3_false_with_diagnostic(capsys, k3_file):
    code, out, _ = run(capsys, "detect", "--input", k3_file,
                       "--phases", "0,1.5708,3.1416", "--tol", "1e-3")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["ok"] is False
    assert "edge" in verdict and verdict["edge"] == [0, 2]


def test_detect_c4_true(capsys, c4_file):
    code, out, _ = run(capsys, "detect", "--input", c4_file, "--labels", "0,1,2,3")
    assert code == 0 and json.loads(out)["ok"] is True


def test_detect_readme_star_example(capsys, tmp_path):
    path = tmp_path / "star.edges"
    path.write_text("0 1\n0 2\n0 3\n")
    code, out, err = run(capsys, "detect", "--input", str(path), "--labels", "0,1,1,1",
                         "--coupling", "1", "--frequencies=-3,1,1,1")
    assert code == 0 and err == ""
    assert json.loads(out)["ok"] is True


def test_detect_nonidentical(capsys, tmp_path):
    path = tmp_path / "star.edges"
    path.write_text("c a\nc b\nc d\n")
    code, out, _ = run(capsys, "detect", "--input", str(path),
                       "--phases", "1.5707963267948966,1.5707963267948966,0,1.5707963267948966",
                       "--coupling", "1.0", "--frequencies", "1,1,-3,1")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["ok"] is True
    assert verdict["frequency_ratios"] == [1.0, 1.0, -3.0, 1.0]


def test_circuit_both_directions(capsys, c4_file):
    code, out, _ = run(capsys, "circuit", "--input", c4_file, "--labels", "0,1,2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["circuit"] == [0, 1, 2, 3, 0] and doc["mod4"]["ok"] is True

    code, out, _ = run(capsys, "circuit", "--input", c4_file, "--circuit", "0,1,2,3,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == [0, 1, 2, 3]

    code, _, err = run(capsys, "circuit", "--input", c4_file)
    assert code == 1 and "error:" in err


def test_construct_nonidentical(capsys, c4_file, k3_file):
    code, out, _ = run(capsys, "construct-nonidentical", "--input", c4_file,
                       "--coupling", "2.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["frequencies"] == [-4.0, 4.0, -4.0, 4.0]
    assert doc["coupling"] == 2.0

    code, out, _ = run(capsys, "construct-nonidentical", "--input", k3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["bipartite"] is False
    assert len(doc["report"]["odd_cycle"]) == 3


def test_simulate_csv_shape(capsys, c4_file, tmp_path):
    out_file = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "simulate", "--input", c4_file,
                     "--phases", "0.4,0.1,0.2,0.3", "--dt", "0.001",
                     "--steps", "50", "--output", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "t,theta_0,theta_1,theta_2,theta_3,E"
    assert len(lines) == 52  # header + steps + 1
    energies = [float(row.split(",")[-1]) for row in lines[1:]]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


def test_simulate_seeded_random_start(capsys, c4_file):
    code, out1, _ = run(capsys, "simulate", "--input", c4_file, "--seed", "5",
                        "--steps", "20")
    code2, out2, _ = run(capsys, "simulate", "--input", c4_file, "--seed", "5",
                         "--steps", "20")
    assert code == code2 == 0 and out1 == out2
    code, _, err = run(capsys, "simulate", "--input", c4_file, "--steps", "5")
    assert code == 1 and "phases" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--phases", "0,abc", "could not convert string to float: 'abc'"),
    ("--labels", "0,1,x,3", "invalid literal for int() with base 10: 'x'"),
])
def test_simulate_seed_does_not_hide_a_malformed_phase_source(capsys, c4_file, flag, value,
                                                              message):
    code, out, err = run(capsys, "simulate", "--input", c4_file, flag, value, "--seed", "1",
                         "--steps", "5")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_simulate_seed_yields_to_document_phases(capsys, c4_file, tmp_path):
    from degen_kuramoto import cycle_graph, emit_json

    path = tmp_path / "c4.json"
    path.write_text(emit_json(cycle_graph(4), phases=[0.1, 1.6, 3.2, 4.7]))
    seeded = run(capsys, "simulate", "--input", str(path), "--seed", "1", "--steps", "5")
    given = run(capsys, "simulate", "--input", c4_file, "--phases", "0.1,1.6,3.2,4.7",
                "--steps", "5")
    drawn = run(capsys, "simulate", "--input", c4_file, "--seed", "1", "--steps", "5")
    assert seeded == given and seeded[0] == 0 and seeded[1] != drawn[1]


def test_detect_verdict_matches_the_api_for_each_system_source(capsys, tmp_path):
    from degen_kuramoto import (OscillatorSystem, QuarterLabeling, canonical_json, cycle_graph,
                                emit_json, is_cde, is_cde_nonidentical)

    c4 = cycle_graph(4)
    theta = QuarterLabeling((0, 1, 2, 3)).phases()
    f, h = [1.0, -1.0, 1.0, -1.0], [0.5, -0.5, 0.5, -0.5]
    cases = [  # document attachments, flags, (coupling, frequencies) or None if identical
        ({}, [], None),
        ({}, ["--coupling", "2"], (2.0, None)),
        ({}, ["--frequencies=1,-1,1,-1"], (1.0, f)),
        ({"coupling": 2.0}, [], (2.0, None)),
        ({"frequencies": f}, [], (1.0, f)),
        ({"coupling": 2.0, "frequencies": f}, ["--coupling", "3"], (3.0, f)),
        ({"coupling": 2.0, "frequencies": f}, ["--frequencies=0.5,-0.5,0.5,-0.5"], (2.0, h)),
    ]
    outs = set()
    for i, (attached, flags, system) in enumerate(cases):
        path = tmp_path / f"c4_{i}.json"
        path.write_text(emit_json(c4, labels=[0, 1, 2, 3], **attached))
        code, out, err = run(capsys, "detect", "--input", str(path), *flags)
        if system is None:
            verdict = is_cde(c4, theta)
        else:
            verdict = is_cde_nonidentical(OscillatorSystem(c4, *system), theta)
        fields = {k: v for k, v in dataclasses.asdict(verdict).items()
                  if v is not None and v != ()}
        assert (code, out, err) == (0, canonical_json(fields), ""), (attached, flags)
        outs.add(out)
    assert len(outs) == 5


@pytest.mark.parametrize("argv", [
    ["circuit", "--circuit", "0,1,2,3,0", "--base", "nan"],
    ["circuit", "--circuit", "0,1,2,3,0", "--base", "inf"],
    ["circuit", "--labels", "0,1,2,3", "--base", "nan"],
    ["detect", "--labels", "0,1,2,3", "--base", "nan"],
    ["probe", "--labels", "0,1,2,3", "--base=-inf"],
    ["render", "--labels", "0,1,2,3", "--base", "nan"],
])
def test_a_non_finite_base_exits_one(capsys, c4_file, argv):
    code, out, err = run(capsys, argv[0], "--input", c4_file, *argv[1:])
    assert (code, out, err) == (1, "", "error: base must be finite\n")


def test_probe_escapes_from_cde(capsys, c4_file):
    code, out, _ = run(capsys, "probe", "--input", c4_file, "--labels", "0,1,2,3",
                       "--x0", "0.05", "--max-steps", "100000")
    assert code == 0
    report = json.loads(out)
    assert report["escaped"] is True and report["exit_time"] > 0


# numpy's overflow warnings become errors here: stderr carries only the error line
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_probe_non_finite_state_exits_one(capsys, c4_file):
    code, out, err = run(capsys, "probe", "--input", c4_file, "--labels", "0,1,2,3",
                         "--x0", "0.2", "--epsilon", "1.0", "--dt", "1.7e308",
                         "--max-steps", "5")
    assert code == 1 and out == ""
    assert err == "error: non-finite state at step 1\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_non_finite_state_exits_one(capsys, c4_file):
    code, out, err = run(capsys, "simulate", "--input", c4_file, "--phases", "0,1,0,1",
                         "--dt", "1.7e308")
    assert code == 1 and out == ""
    assert err == "error: non-finite state at step 1\n"


def test_probe_on_a_graph_with_no_vertices_exits_one(capsys, tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("")
    code, out, err = run(capsys, "probe", "--input", str(path), "--phases", ",",
                         "--direction", ",")
    assert code == 1 and out == ""
    assert err == "error: graph has no vertices\n"


def test_probe_requires_direction_for_bare_phases(capsys, c4_file):
    code, _, err = run(capsys, "probe", "--input", c4_file, "--phases", "0,0,0,0")
    assert code == 1 and "direction" in err


def test_rarity_deterministic(capsys):
    code, out1, _ = run(capsys, "rarity", "--n", "8", "--p", "0.5",
                        "--samples", "40", "--seed", "7")
    assert code == 0
    code, out2, _ = run(capsys, "rarity", "--n", "8", "--p", "0.5",
                        "--samples", "40", "--seed", "7")
    assert out1 == out2
    report = json.loads(out1)
    assert sum(report["counts"].values()) == 40


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "cycle", "--params", "3:9")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("family,parameter")
    assert len(lines) == 7
    admits = {int(row.split(",")[1]) for row in lines[1:] if row.split(",")[4] == "true"}
    assert admits == {4, 8}


def test_sweep_over_long_cycles(capsys):
    # each side of C_2000 has 1,000 vertices, past the default recursion limit
    code, out, err = run(capsys, "sweep", "--family", "cycle", "--params", "1996:2005:4")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [(r[1], r[6]) for r in rows] == [("1996", "2"), ("2000", "2"), ("2004", "2")]


def test_render_svg_output(capsys, c4_file, tmp_path):
    out_file = tmp_path / "c4.svg"
    code, _, _ = run(capsys, "render", "--input", c4_file, "--labels", "0,1,2,3",
                     "--output", str(out_file))
    assert code == 0
    svg = out_file.read_text()
    assert svg.startswith("<svg") and svg.count("<circle") == 4


def test_render_phases_take_precedence_over_labels(capsys, c4_file):
    code, phases_only, _ = run(capsys, "render", "--input", c4_file, "--phases", "0,0,0,0")
    assert code == 0
    code, both, _ = run(capsys, "render", "--input", c4_file, "--phases", "0,0,0,0",
                        "--labels", "0,1,2,3")
    assert code == 0 and both == phases_only


@pytest.mark.parametrize("argv", [
    ("detect", "--labels", "0,1,2,3", "--tol", "-1"),
    ("detect", "--labels", "0,1,2,3", "--coupling", "1", "--tol", "-1"),
    ("render", "--labels", "0,1,2,3", "--tol", "-1"),
    ("enumerate", "--budget", "-1"),
    ("detect", "--labels", "0,1,2,3", "--tol", "nan"),
    ("render", "--labels", "0,1,2,3", "--tol", "nan"),
])
def test_negative_tolerance_or_budget_exits_one(capsys, c4_file, argv):
    code, out, err = run(capsys, *argv[:1], "--input", c4_file, *argv[1:])
    assert code == 1 and out == ""
    assert "error:" in err and "nonnegative" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("rarity", "--n", "6", "--p", "0.5", "--samples", "3"),
    ("sweep", "--family", "cycle", "--params", "4"),
])
def test_negative_budget_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert code == 1 and out == ""
    assert "error: budget must be nonnegative" in err and "Traceback" not in err


def test_json_document_inputs_work(capsys, tmp_path):
    from degen_kuramoto import cycle_graph, emit_json

    path = tmp_path / "c4.json"
    path.write_text(emit_json(cycle_graph(4), labels=[0, 1, 2, 3]))
    code, out, _ = run(capsys, "detect", "--input", str(path))
    assert code == 0 and json.loads(out)["ok"] is True


# Every subcommand's flags as (default, required, type, choices); shared
# parent parsers must reproduce this surface exactly.
CLI_SURFACE = {
    "detect": {
        "--input": (None, True, None, None),
        "--output": (None, False, None, None),
        "--phases": (None, False, None, None),
        "--labels": (None, False, None, None),
        "--base": (0.0, False, float, None),
        "--coupling": (None, False, float, None),
        "--frequencies": (None, False, None, None),
        "--tol": (1e-09, False, float, None),
    },
    "enumerate": {
        "--input": (None, True, None, None),
        "--output": (None, False, None, None),
        "--budget": (1000000, False, int, None),
    },
    "circuit": {
        "--input": (None, True, None, None),
        "--output": (None, False, None, None),
        "--labels": (None, False, None, None),
        "--base": (0.0, False, float, None),
        "--circuit": (None, False, None, None),
    },
    "construct-nonidentical": {
        "--input": (None, True, None, None),
        "--output": (None, False, None, None),
        "--coupling": (1.0, False, float, None),
    },
    "simulate": {
        "--input": (None, True, None, None),
        "--output": (None, False, None, None),
        "--phases": (None, False, None, None),
        "--labels": (None, False, None, None),
        "--base": (0.0, False, float, None),
        "--seed": (None, False, int, None),
        "--coupling": (None, False, float, None),
        "--frequencies": (None, False, None, None),
        "--dt": (0.001, False, float, None),
        "--steps": (1000, False, int, None),
    },
    "probe": {
        "--input": (None, True, None, None),
        "--output": (None, False, None, None),
        "--phases": (None, False, None, None),
        "--labels": (None, False, None, None),
        "--base": (0.0, False, float, None),
        "--coupling": (None, False, float, None),
        "--frequencies": (None, False, None, None),
        "--direction": (None, False, None, None),
        "--x0": (0.001, False, float, None),
        "--epsilon": (0.5, False, float, None),
        "--dt": (0.001, False, float, None),
        "--max-steps": (1000000, False, int, None),
    },
    "rarity": {
        "--output": (None, False, None, None),
        "--n": (None, True, int, None),
        "--p": (None, True, float, None),
        "--samples": (None, True, int, None),
        "--seed": (0, False, int, None),
        "--budget": (1000000, False, int, None),
    },
    "sweep": {
        "--output": (None, False, None, None),
        "--family": (None, True, None, ("cycle", "hypercube", "glue-chain")),
        "--params": (None, True, None, None),
        "--glue-seed": ("c4", False, None, ("c4", "c8", "k24")),
        "--budget": (1000000, False, int, None),
    },
    "render": {
        "--input": (None, True, None, None),
        "--output": (None, False, None, None),
        "--phases": (None, False, None, None),
        "--labels": (None, False, None, None),
        "--base": (0.0, False, float, None),
        "--layout": ("circular", False, None, ("circular", "hypercube")),
        "--tol": (1e-09, False, float, None),
    },
}


def test_cli_surface_matches_table():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(CLI_SURFACE)
    for name, subparser in sub.choices.items():
        surface = {}
        for action in subparser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert len(action.option_strings) == 1, (name, action.option_strings)
            surface[action.option_strings[0]] = (
                action.default, action.required, action.type, action.choices)
        assert surface == CLI_SURFACE[name], name


@pytest.mark.parametrize("flag", ["--dt=0", "--dt=-1e-3", "--max-steps=0"])
def test_probe_rejects_nonpositive_dt_and_step_budget(capsys, c4_file, flag):
    code, out, err = run(capsys, "probe", "--input", c4_file, "--labels", "0,1,2,3",
                         "--x0", "0.05", flag)
    assert code == 1 and out == "" and "error:" in err


MALFORMED_DOCUMENTS = {
    "edges not a list": '"edges": 5',
    "edges null": '"edges": null',
    "edge index null": '"edges": [[0, null]], "labels": [0, 1, 2, 3]',
    "edge index fractional": '"edges": [[0, 1.7]], "labels": [0, 1, 2, 3]',
    "edge index string": '"edges": [[0, "1"]], "labels": [0, 1, 2, 3]',
    "edge index bool": '"edges": [[true, 2]], "labels": [0, 1, 2, 3]',
    "label fractional": '"edges": [[0, 1]], "labels": [0, 1.9, 2, 3]',
    "label null": '"edges": [[0, 1]], "labels": [0, null, 2, 3]',
    "base null": '"edges": [[0, 1]], "labels": [0, 1, 2, 3], "base": null',
    "base string": '"edges": [[0, 1]], "labels": [0, 1, 2, 3], "base": "x"',
    "phase null": '"edges": [[0, 1]], "phases": [0, null, 0, 0]',
    "phase list": '"edges": [[0, 1]], "phases": [0, [1], 0, 0]',
    "phase NaN": '"edges": [[0, 1]], "phases": [0, NaN, 0, 0]',
    "frequency null": '"edges": [[0, 1]], "labels": [0, 1, 2, 3], "frequencies": [0, null, 0, 0]',
    "coupling null": '"edges": [[0, 1]], "labels": [0, 1, 2, 3], "coupling": null',
    "coupling string": '"edges": [[0, 1]], "labels": [0, 1, 2, 3], "coupling": "2"',
    "coupling infinite": '"edges": [[0, 1]], "labels": [0, 1, 2, 3], "coupling": Infinity',
    "coupling overflows": '"edges": [[0, 1]], "labels": [0, 1, 2, 3], "coupling": 1' + "0" * 400,
}


@pytest.mark.parametrize("body", MALFORMED_DOCUMENTS.values(), ids=MALFORMED_DOCUMENTS.keys())
def test_malformed_json_document_exits_one(capsys, tmp_path, body):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "degen-kuramoto/1", "vertices": ["a", "b", "c", "d"], '
                    + body + "}")
    code, out, err = run(capsys, "detect", "--input", str(path))
    assert code == 1 and out == ""
    assert "error:" in err and "Traceback" not in err


# Per subcommand, a run that succeeds and one that fails with exit 1;
# "C4" stands for the C4 edge-list path.
OUTPUT_CASES = {
    "detect": (("--input", "C4", "--labels", "0,1,2,3"),
               ("--input", "C4", "--labels", "0,1,2,3", "--tol", "-1")),
    "enumerate": (("--input", "C4"), ("--input", "C4", "--budget", "0")),
    "circuit": (("--input", "C4", "--labels", "0,1,2,3"),
                ("--input", "C4", "--labels", "0,0,0,0")),
    "construct-nonidentical": (("--input", "C4"), ("--input", "C4", "--coupling", "0")),
    "simulate": (("--input", "C4", "--phases", "0.4,0.1,0.2,0.3", "--steps", "20"),
                 ("--input", "C4", "--phases", "0.4,0.1,0.2,0.3", "--dt", "0")),
    "probe": (("--input", "C4", "--labels", "0,1,2,3", "--x0", "0.05", "--max-steps", "100000"),
              ("--input", "C4", "--labels", "0,1,2,3", "--x0", "0.3")),
    "rarity": (("--n", "8", "--p", "0.5", "--samples", "20", "--seed", "7"),
               ("--n", "8", "--p", "1.5", "--samples", "20")),
    "sweep": (("--family", "cycle", "--params", "3:9"), ("--family", "cycle", "--params", "x")),
    "render": (("--input", "C4", "--labels", "0,1,2,3"),
               ("--input", "C4", "--labels", "0,1,2,3", "--tol", "nan")),
}


@pytest.mark.parametrize("command", sorted(CLI_SURFACE))
def test_output_file_holds_the_stdout_bytes(capsys, c4_file, tmp_path, command):
    ok, bad = ([c4_file if a == "C4" else a for a in argv] for argv in OUTPUT_CASES[command])
    code, expected, _ = run(capsys, command, *ok)
    assert code == 0 and expected
    out_file = tmp_path / "out"
    code, out, _ = run(capsys, command, *ok, "--output", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_text() == expected
    out_file.unlink()
    code, out, err = run(capsys, command, *bad, "--output", str(out_file))
    assert code == 1 and out == "" and "error:" in err
    assert not out_file.exists()


def test_overflowing_inputs_exit_one_with_their_own_error(capsys, c4_file):
    code, out, err = run(capsys, "simulate", "--input", c4_file, "--labels", "0,1,2,3",
                         "--dt", "1.7e308", "--steps", "3")
    assert (code, out, err) == (1, "", "error: dt * steps must be finite\n")
    code, out, err = run(capsys, "construct-nonidentical", "--input", c4_file,
                         "--coupling", "1e308")
    assert (code, out, err) == (1, "", "error: coupling 1e+308 makes the frequencies non-finite\n")


def test_python_dash_m_runs_the_console_script(c4_file):
    src = str(Path(degen_kuramoto.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["enumerate", "--input", c4_file]
    module = subprocess.run([sys.executable, "-m", "degen_kuramoto", *argv],
                            capture_output=True, text=True, env=env)
    # the degen-kuramoto script is `degen_kuramoto.cli:main` (pyproject.toml)
    script = subprocess.run([sys.executable, "-c", "from degen_kuramoto.cli import main; main()",
                             *argv], capture_output=True, text=True, env=env)
    assert (module.returncode, module.stderr) == (0, "")
    assert module.stdout == script.stdout and '"cde_count":2' in module.stdout


def test_edge_list_ids_do_not_depend_on_the_hash_seed(tmp_path):
    # '01' and '1' are the same integer; they must tie-break the same way in every process
    path = tmp_path / "tie.edges"
    path.write_text("01 2\n2 1\n1 3\n3 01\n")
    src = str(Path(degen_kuramoto.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "degen_kuramoto", "enumerate", "--input",
                               str(path)], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["vertices"] == ["01", "1", "2", "3"]
