import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import degen_kuramoto
from degen_kuramoto import cli_dispatch
from degen_kuramoto.cli import build_parser
from helpers import reference_emit_json, reference_enumerate_cdes

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


def _child_env(**extra) -> dict:
    """os.environ plus extra, with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(degen_kuramoto.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


# The graphs of PINNED_OUTPUTS, as edge lists.
EDGE_LISTS = {
    "C4": C4_EDGES,
    "C6": "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n",
    "Q4": "".join(f"{v} {v | 1 << i}\n" for v in range(16) for i in range(4) if not v >> i & 1),
    "K24+C4": "0 2\n0 3\n0 4\n0 5\n1 2\n1 3\n1 4\n1 5\n6 7\n7 8\n8 9\n9 6\n",
    "C5+C4": "0 1\n1 2\n2 3\n3 4\n4 0\n5 6\n6 7\n7 8\n8 5\n",
}


@pytest.fixture
def edge_files(tmp_path):
    """The path of each EDGE_LISTS file, by graph name."""
    for name, text in EDGE_LISTS.items():
        (tmp_path / f"{name}.edges").write_text(text)
    return {name: str(tmp_path / f"{name}.edges") for name in EDGE_LISTS}


# CLI runs whose output is pinned: the argv (an EDGE_LISTS name stands for its file),
# the exit code, stdout as its exact text or as (byte count, sha256), and stderr.
PINNED_OUTPUTS = [
    ("enumerate --input C4", 0, '{"edges":[[0,1],[0,3],[1,2],[2,3]],"format":"degen-kuramoto/1",'
     '"report":{"cde_count":2,"labelings":[{"base":0,"labels":[0,1,2,3]},{"base":0,"labels":'
     '[0,3,2,1]}]},"vertices":["0","1","2","3"]}\n', ""),
    # 18 labelings; the bytes perfbench/expected.json holds
    ("enumerate --input Q4", 0,
     (1351, "7cd1ac2ddab66ef3b345a68a69ae28f1c627f064ad42132522e87361751d8d3a"), ""),
    # no CDE (6 edges): the document with an empty labelings list
    ("enumerate --input C6", 0,
     (153, "59597eda9681cfa60b1a44ca371d393989f4cb901cbd87643d616f75ccf5463b"), ""),
    # n = 10, four halves, 12 CDEs: each row straddles a key byte
    ("enumerate --input K24+C4", 0,
     (709, "cb4160979c76e033228602a1f40d89ce1f1936f133f5bfa9ae6bcb6964519c00"), ""),
    # the same-side edge in C5 leaves no CDE
    ("enumerate --input C5+C4", 0,
     (183, "c6cdfac6c7819875ce555bf4cbe7d2d5a8add7d87f96d151c067e2b589f610b2"), ""),
    # detect reports the first failing vertex, at its first bad edge if it has one
    ("detect --input C4 --labels 0,1,1,2", 0, '{"edge":[0,3],"ok":false,"reason":"edge (0, 3): '
     'phase gap 3.14159 is not +-pi/2 within 1e-09","vertex":0}\n', ""),
    ("detect --input C4 --labels 0,1,0,1", 0,
     '{"ok":false,"reason":"vertex 0: 2 neighbors at +pi/2 vs 0 at -pi/2","vertex":0}\n', ""),
    # with frequencies: the ratios omega/K and the first vertex off its sine balance
    ("detect --input C4 --labels 0,1,0,1 --coupling 2 --frequencies=-4,4,-4,4", 0,
     '{"frequency_ratios":[-2,2,-2,2],"ok":true,"ratios_integral":[true,true,true,true]}\n', ""),
    ("detect --input C4 --labels 0,1,0,1 --coupling 2 --frequencies=-4,4,-4,3", 0,
     '{"frequency_ratios":[-2,2,-2,1.5],"ok":false,"ratios_integral":[true,true,true,false],'
     '"reason":"vertex 3: sine sum -2 != -omega/K = -1.5","vertex":3}\n', ""),
    ("detect --input C4 --phases 0,,1,2,3", 1, "",
     "error: could not convert string to float: ''\n"),
    ("detect --input C4 --labels 0,1,2,3 --coupling inf", 1, "",
     "error: coupling must be finite\n"),
    ("detect --input C4 --labels 0,1,2,3 --coupling 1e-300 --frequencies 1e300,0,0,0", 1, "",
     "error: omega/K overflows at vertex 0\n"),
    ("circuit --input C4 --labels 0,1,2,3", 0,
     '{"circuit":[0,1,2,3,0],"length":4,"mod4":{"ok":true}}\n', ""),
    ("circuit --input C4 --circuit 0,1,2,3,0", 0,
     '{"base":0,"labels":[0,1,2,3],"mod4":{"ok":true}}\n', ""),
    ("circuit --input C6 --circuit 0,1,2,3,4,5,0", 1, "",
     "error: vertex 0 revisited after 6 steps (positions 0 and 6; gap not a multiple of 4)\n"),
    # perfbench's cli argument lists
    ("probe --input C4 --labels 0,1,2,3 --x0 0.2 --epsilon 1.0", 0, '{"converged":false,'
     '"escaped":true,"exit_time":2.7250000000000001,"max_distance":1.0010396988272361,'
     '"steps":2725}\n', ""),
    # a finite direction and x0 whose start state overflows: refused before any step
    ("probe --input C4 --labels 0,1,2,3 --direction 1.7e308,-1.7e308,0,0 --x0 2 --epsilon 10", 1,
     "", "error: start state theta + x0 * direction is not finite\n"),
    ("simulate --input C4 --phases 0.4,0.1,0.2,0.3 --steps 200", 0,
     (23417, "577bf5fd91e8fcf5843c0780527af17dffa385fd9c5f41ae53211e23768137ad"), ""),
    ("sweep --family cycle --params 5:5 --budget -1", 1, "",
     "error: budget must be nonnegative\n"),
    # a range longer than a list can hold is an error line, not a traceback
    ("sweep --family cycle --params 0:1000000000000000000000000", 1, "",
     "error: Python int too large to convert to C ssize_t\n"),
    # C3..C12: decided by the triangle, non-bipartite and enumeration branches
    ("sweep --family cycle --params 3:13", 0,
     (429, "98f645983c5c10588c74258cc1bf9e8394278c78de253cae91edf06792c68282"), ""),
    # one search per row decides and counts: the exact budget thresholds of the
    # glue-chain rows of perfbench's glue_chain_c8 and of Q1..Q6
    ("sweep --family glue-chain --params 0:9 --glue-seed c8 --budget 7685", 0,
     (459, "dc80d905c4a9ebbb6cf25d57272aaf6664e1b7878422b498b2b8151a8a2db678"), ""),
    ("sweep --family glue-chain --params 0:9 --glue-seed c8 --budget 7684", 1, "",
     "error: enumeration exceeded the search budget of 7684 nodes\n"),
    ("sweep --family hypercube --params 1:7 --budget 11931", 0,
     (318, "865cd1c8590f6476ea636e6df96bf7d6749f0ebbca6974f8816c7b9a0c49dfb1"), ""),
    ("sweep --family hypercube --params 1:7 --budget 11930", 1, "",
     "error: enumeration exceeded the search budget of 11930 nodes\n"),
]


@pytest.mark.parametrize("argv,code,out,err", PINNED_OUTPUTS, ids=[r[0] for r in PINNED_OUTPUTS])
def test_pinned_cli_outputs(capsys, edge_files, argv, code, out, err):
    got_code, got_out, got_err = run(capsys, *(edge_files.get(a, a) for a in argv.split()))
    if isinstance(out, tuple):
        got_out = (len(got_out.encode()), hashlib.sha256(got_out.encode()).hexdigest())
    assert (got_code, got_out, got_err) == (code, out, err)


def simd_dispatch():
    """The module path of numpy's C core and the SIMD dispatch groups it reports on."""
    for core in ("numpy._core", "numpy.core"):  # numpy 2, numpy 1.x
        try:
            umath = importlib.import_module(f"{core}._multiarray_umath")
        except ImportError:
            continue
        return core, [g for g in umath.__cpu_dispatch__ if umath.__cpu_features__.get(g)]
    return None, []


# A CLI run that first checks that every group it names is switched off.
SIMD_OFF_CHILD = """\
import sys
from {core} import _multiarray_umath as umath
on = [g for g in {groups!r} if umath.__cpu_features__.get(g)]
if on:
    sys.exit(f"dispatch groups still on: {{on}}")
from degen_kuramoto.cli import main
main()
"""
SIMD_ROWS = [row for row in PINNED_OUTPUTS if row[0].split()[0] in ("probe", "simulate")]


@pytest.mark.parametrize("argv,code,out,err", SIMD_ROWS, ids=[r[0] for r in SIMD_ROWS])
def test_pinned_probe_and_simulate_bytes_hold_with_simd_dispatch_off(edge_files, argv, code,
                                                                     out, err):
    core, groups = simd_dispatch()
    if not groups:
        pytest.skip("numpy reports no SIMD dispatch group switched on")
    script = SIMD_OFF_CHILD.format(core=core, groups=groups)
    argv = [edge_files.get(a, a) for a in argv.split()]
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=_child_env(NPY_DISABLE_CPU_FEATURES=",".join(groups)))
    got_out = done.stdout
    if isinstance(out, tuple):
        got_out = (len(got_out.encode()), hashlib.sha256(got_out.encode()).hexdigest())
    assert (done.returncode, got_out, done.stderr) == (code, out, err)


def test_pinned_enumerate_documents_re_emit_and_their_labelings_round_trip(capsys, edge_files):
    # each enumerate document re-emits byte for byte; on the Euler graphs (C4, Q4)
    # every labeling -> circuit -> labeling round trip gives its labels back
    dk, trips = degen_kuramoto, 0
    for name in [argv.split()[-1] for argv, *_ in PINNED_OUTPUTS if argv.startswith("enumerate")]:
        text = run(capsys, "enumerate", "--input", edge_files[name])[1]
        doc = dk.parse_json(text)
        assert dk.emit_json(doc.graph, names=doc.names, report=doc.report) == text, name
        for labeling in doc.report["labelings"] if dk.is_eulerian(doc.graph) else ():
            labels = ",".join(map(str, labeling["labels"]))
            out = run(capsys, "circuit", "--input", edge_files[name], "--labels", labels)[1]
            circuit = ",".join(map(str, json.loads(out)["circuit"]))
            out = run(capsys, "circuit", "--input", edge_files[name], "--circuit", circuit)[1]
            assert json.loads(out)["labels"] == labeling["labels"], (name, labels)
            trips += 1
    assert trips == 2 + 18


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


def test_enumerate_documents_match_the_reference_writer(capsys, tmp_path):
    # the labelings are written from their label rows; each document must be
    # the one the listing gives as dicts, and a budget error stays one line
    dk = degen_kuramoto
    c4 = dk.cycle_graph(4)
    two_c4 = dk.Graph(9, [(u + d, v + d) for d in (1, 5) for u, v in c4.edges])
    graphs = [dk.Graph(0), dk.Graph(3), c4, two_c4, dk.cycle_graph(5), dk.cycle_graph(6),
              dk.Graph(3, [(0, 1), (1, 2)]), dk.complete_bipartite_graph(2, 4),
              dk.hypercube_graph(4), dk.glue_four_cycle(dk.cycle_graph(8), 0)]
    rng = np.random.default_rng(26)
    outcomes = set()
    for i, g in enumerate(graphs):
        names = [f"v{k}" for k in rng.permutation(g.vertex_count)]
        path = tmp_path / f"g{i}.json"
        path.write_text(dk.emit_json(g, names=names))
        for budget in (1_000_000, 0, 3, 40):
            code, out, err = run(capsys, "enumerate", "--input", str(path), "--budget", str(budget))
            try:
                labelings = reference_enumerate_cdes(g, budget=budget)
            except dk.BudgetExceededError as exc:
                assert (code, out, err) == (1, "", f"error: {exc}\n")
                outcomes.add("budget exceeded")
                continue
            report = {"cde_count": len(labelings),
                      "labelings": [{"labels": list(q.labels), "base": q.base} for q in labelings]}
            assert (code, err) == (0, "")
            assert out == reference_emit_json(g, names=names, report=report)
            outcomes.add(min(len(labelings), 2))
    assert outcomes == {0, 1, 2, "budget exceeded"}


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


def test_detect_overflowing_ratio_exits_one(capsys, c4_file):
    code, out, err = run(capsys, "detect", "--input", c4_file, "--labels", "0,1,2,3",
                         "--coupling", "1e-300", "--frequencies", "1e300,0,0,0")
    assert (code, out, err) == (1, "", "error: omega/K overflows at vertex 0\n")


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


def test_circuit_base_that_rounds_up_to_two_pi_prints_zero(capsys, c4_file):
    for base in ("0", "-1e-17"):
        code, out, err = run(capsys, "circuit", "--input", c4_file, "--circuit", "0,1,2,3,0",
                             f"--base={base}")
        assert (code, out, err) == (
            0, '{"base":0,"labels":[0,1,2,3],"mod4":{"ok":true}}\n', "")


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


def test_simulate_on_a_graph_with_no_vertices_has_a_two_field_header(capsys, tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("")
    code, out, err = run(capsys, "simulate", "--input", str(path), "--steps", "2",
                         "--phases", ",")
    assert (code, out, err) == (0, "t,E\n0,0\n0.001,0\n0.002,0\n", "")


def test_simulate_csv_matches_the_row_loop(capsys, tmp_path):
    from degen_kuramoto import Graph, OscillatorSystem, integrate
    from helpers import random_graph, reference_simulate_csv

    rng = np.random.default_rng(31)
    path = tmp_path / "doc.json"
    for i in range(150):
        g = random_graph(int(rng.integers(0, 9)), 0.5, rng) if i % 25 else Graph(0)
        n = g.vertex_count
        doc = {"format": "degen-kuramoto/1", "vertices": [f"v{k}" for k in range(n)],
               "edges": [list(e) for e in g.edges],
               "phases": rng.uniform(-10.0, 10.0, n).tolist()}
        if i % 2:  # negative frequencies carry lifts below 0
            doc["frequencies"] = rng.normal(0.0, 2.0, n).tolist()
            doc["coupling"] = float(rng.uniform(0.1, 3.0))
        path.write_text(json.dumps(doc))
        dt, steps = float(rng.uniform(1e-3, 0.2)), int(rng.integers(1, 30))
        code, out, err = run(capsys, "simulate", "--input", str(path), "--dt", repr(dt),
                             "--steps", str(steps))
        assert (code, err) == (0, "")
        sys_ = OscillatorSystem(g, doc.get("coupling", 1.0), doc.get("frequencies"))
        assert out == reference_simulate_csv(integrate(sys_, doc["phases"], dt, steps), n), doc


def _circuit_stdout_digest(capsys, tmp_path, g, q) -> str:
    path = tmp_path / "g.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
    code, out, _ = run(capsys, "circuit", "--input", str(path),
                       "--labels", ",".join(map(str, q.labels)))
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


def test_circuit_labels_prints_the_pinned_spliced_circuits(capsys, tmp_path):
    # both circuits need closed sub-walks spliced in; digests of the splice loop's output
    from degen_kuramoto import cycle_graph, enumerate_cdes, glue_four_cycle, hypercube_graph
    from helpers import reference_phases_to_circuit

    q6 = hypercube_graph(6)
    chain = glue_four_cycle(glue_four_cycle(glue_four_cycle(cycle_graph(8), 3), 1), 5)
    cases = [(q6, enumerate_cdes(q6)[4321],
              "353301eff4bbf48050b2235c7004642ce0ba651cb397fe3f9d255a69c4018120"),
             (chain, enumerate_cdes(chain)[-2],
              "39f6c2f845a6652e9e0a54b288b7bd2544c931b1596411ee150c17ecf7aa66fd")]
    for g, q, digest in cases:
        assert reference_phases_to_circuit(g, q)[1] > 0
        assert _circuit_stdout_digest(capsys, tmp_path, g, q) == digest


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


@pytest.mark.parametrize("direction", ["nan,0,0,0", "inf,-1,0,0"])
def test_probe_non_finite_direction_exits_one(capsys, c4_file, direction):
    code, out, err = run(capsys, "probe", "--input", c4_file, "--labels", "0,1,2,3",
                         f"--direction={direction}")
    assert (code, out, err) == (1, "", "error: direction must be finite\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--epsilon", "nan", "epsilon must be positive"),
    ("--epsilon", "-0.5", "epsilon must be positive"),
    ("--x0", "nan", "x0 must be finite"),
    ("--x0", "inf", "x0 must be finite"),
])
def test_probe_bad_epsilon_or_x0_exits_one(capsys, c4_file, flag, value, message):
    code, out, err = run(capsys, "probe", "--input", c4_file, "--labels", "0,1,2,3",
                         f"{flag}={value}")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_probe_on_a_graph_with_no_vertices_exits_one(capsys, tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("")
    code, out, err = run(capsys, "probe", "--input", str(path), "--phases", ",",
                         "--direction", ",")
    assert code == 1 and out == ""
    assert err == "error: graph has no vertices\n"


# One case per comma-list flag: the argv before the flag, the flag and a valid value.
LIST_FLAGS = [
    (("detect", "--input", "C4"), "--phases",
     "0,1.5707963267948966,3.141592653589793,4.71238898038469"),
    (("detect", "--input", "C4", "--labels", "0,1,2,3"), "--frequencies", "0,0,0,0"),
    (("probe", "--input", "C4", "--labels", "0,1,2,3", "--max-steps", "50"), "--direction",
     "1,-1,0,0"),
    (("detect", "--input", "C4"), "--labels", "0,1,2,3"),
    (("circuit", "--input", "C4"), "--circuit", "0,1,2,3,0"),
    (("sweep", "--family", "cycle"), "--params", "3,4,6"),
]


@pytest.mark.parametrize("argv, flag, value", LIST_FLAGS, ids=[c[1] for c in LIST_FLAGS])
def test_list_flags_allow_blank_entries_only_at_the_ends(capsys, c4_file, argv, flag, value):
    argv = [c4_file if a == "C4" else a for a in argv]
    code, expected, err = run(capsys, *argv, f"{flag}={value}")
    assert code == 0 and expected and err == ""
    for padded in ("," + value, value + ",", ", ," + value + " ,"):
        assert run(capsys, *argv, f"{flag}={padded}") == (0, expected, ""), padded
    head, tail = value.split(",", 1)
    for blank in (",", ", ,"):
        code, out, err = run(capsys, *argv, f"{flag}={head},{blank}{tail}")
        assert code == 1 and out == "", blank
        assert err.startswith("error: ") and err.count("\n") == 1, (blank, err)


@pytest.mark.parametrize("command", ["detect", "probe", "simulate"])
def test_an_infinite_coupling_exits_one(capsys, c4_file, command):
    code, out, err = run(capsys, command, "--input", c4_file, "--labels", "0,1,2,3",
                         "--coupling", "inf")
    assert (code, out, err) == (1, "", "error: coupling must be finite\n")


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


def test_rarity_with_witnesses_prints_the_pinned_bytes(capsys):
    # 3 witnesses; admits 3, triangle 2, odd_degree 95
    code, out, err = run(capsys, "rarity", "--n", "5", "--p", "0.5", "--samples", "100",
                         "--seed", "0")
    assert (code, err) == (0, "")
    assert [w["sample"] for w in json.loads(out)["witnesses"]] == [26, 59, 67]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9f4e043100b195e6cb2a41a13ac539fa3e62e8fcc123b5a6710b4e28166d309d"
    )


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


def test_sweep_rejects_a_range_of_four_parts(capsys):
    code, out, err = run(capsys, "sweep", "--family", "cycle", "--params", "1:2:3:4")
    assert (code, out, err) == (1, "", "error: bad range '1:2:3:4'; use start:stop[:step]\n")


def test_sweep_rejects_a_negative_budget_over_an_empty_range(capsys):
    for params in ("5:5", "5"):
        code, out, err = run(capsys, "sweep", "--family", "cycle", "--params", params,
                             "--budget", "-1")
        assert (code, out, err) == (1, "", "error: budget must be nonnegative\n")


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


def test_a_utf8_byte_order_mark_does_not_change_the_document(capsys, tmp_path):
    # a leading BOM is neither part of the first vertex id nor a reason to read JSON as an edge list
    from degen_kuramoto import cycle_graph, emit_json

    for name, text in (("c4.edges", C4_EDGES), ("c4.json", emit_json(cycle_graph(4)))):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        expected = run(capsys, "enumerate", "--input", str(plain))
        assert expected[0] == 0 and '"cde_count":2' in expected[1]
        assert run(capsys, "enumerate", "--input", str(marked)) == expected, name
    # invalid UTF-8 is still an error line naming the codec
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"0 1\n\xff 2\n")
    assert run(capsys, "enumerate", "--input", str(bad)) == (
        1, "", "error: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n")


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


# Sizes past what the machine or the int32 pair index allows, and a cheap
# argument error that must come before the big allocation.
SIZE_ERRORS = [
    (("simulate", "--input", "C4", "--phases", "0,1,0,1", "--steps", "99999999999"),
     "error: Unable to allocate 2.91 TiB"),
    (("simulate", "--input", "C4", "--phases", "0,1,0,1", "--steps", "200000000"),
     "error: Unable to allocate 5.96 GiB"),
    (("rarity", "--n", "4", "--p", "0.5", "--samples", "1000000000"),
     "error: Unable to allocate 7.45 GiB"),
    (("rarity", "--n", "4", "--p", "0.5", "--samples", "1000000000", "--budget", "-1"),
     "error: budget must be nonnegative\n"),
    (("rarity", "--n", "100000", "--p", "0.5", "--samples", "1"),
     "error: n must be at most 65536, got 100000\n"),
    (("sweep", "--family", "cycle", "--params", "100000000000"), "error: MemoryError\n"),
]


@pytest.mark.parametrize("argv, error", SIZE_ERRORS)
def test_an_oversized_request_exits_one_with_one_error_line(c4_file, tmp_path, argv, error):
    # a child process under a 1 GiB address-space limit, so that no size is granted
    pytest.importorskip("resource")
    script = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from degen_kuramoto.cli import main; main()")
    out_file = tmp_path / "out"
    argv = [c4_file if a == "C4" else a for a in argv] + ["--output", str(out_file)]
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=_child_env())
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith(error) and done.stderr.count("\n") == 1
    assert not out_file.exists()


def test_python_dash_m_runs_the_console_script(c4_file):
    env = _child_env()
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
    outs = []
    for seed in ("0", "1"):
        done = subprocess.run([sys.executable, "-m", "degen_kuramoto", "enumerate", "--input",
                               str(path)], capture_output=True, text=True,
                              env=_child_env(PYTHONHASHSEED=seed))
        assert (done.returncode, done.stderr) == (0, "")
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["vertices"] == ["01", "1", "2", "3"]


# Flag values for the fuzz below: well-formed ones per kind, and odd ones
# that any flag may get. Size flags draw only from small pools, so every
# case runs in milliseconds.
FUZZ_ODD = ["nan", "inf", "-inf", "1e400", "0x10", "٣", "0,,1", "1:2:0", "", "-1", "abc", ",",
            "-0", "1e-320", " 1", "0,1,2,3,"]
FUZZ_GOOD = {
    "list": ["0,1.5707963267948966,3.141592653589793,4.71238898038469", "0,1,0,1",
             "0.1,0.2,0.3", "1,-1,0,0", "0,0,0,0,0,0,0,0"],
    "--labels": ["0,1,2,3", "0,3,2,1", "0,1,2,3,0,1,2,3", "0,0,0,0", "0,1,2"],
    "--circuit": ["0,1,2,3,0", "0,3,2,1,0", "0,1,0", "0,1,2,0"],
    float: ["0", "0.5", "1", "1e-3", "0.05", "2"],
    int: ["0", "1", "7", "1000"],
}
FUZZ_SIZES = {
    "--steps": ["0", "1", "5", "20", "٣"],
    "--max-steps": ["0", "1", "50", "200"],
    "--samples": ["0", "1", "20", "50"],
    "--n": ["0", "1", "4", "8", "12", "٣"],
    "--params": ["1:4", "2,4", "0,,1", "1:2:0", "2", "0:5:2", "٣", "x"],
}


def _fuzz_documents():
    from degen_kuramoto import construct_nonidentical_cde, cycle_graph, emit_json, hypercube_graph

    c4 = cycle_graph(4)
    bipartite = construct_nonidentical_cde(c4, 1.5)
    return [
        C4_EDGES, K3_EDGES, "a b\nb c\nc d\nd a\n", "0 1\n1 2\n", "# empty\n",
        "".join(f"{u} {v}\n" for u, v in hypercube_graph(3).edges),
        emit_json(c4, labels=[0, 1, 2, 3], base=0.25),
        emit_json(c4, phases=bipartite.phases, frequencies=bipartite.frequencies,
                  coupling=bipartite.coupling),
        emit_json(cycle_graph(3), names="xyz", report={"bipartite": False}),
    ]


def _fuzz_case(rng, documents, path):
    """One argv for a random subcommand, with its input written to path."""
    command = str(rng.choice(sorted(CLI_SURFACE)))
    argv = [command]
    for flag, (_, required, kind, choices) in CLI_SURFACE[command].items():
        if flag == "--output" or not (required or flag in FUZZ_SIZES or rng.random() < 0.4):
            continue
        if flag == "--input":
            data = bytearray(documents[int(rng.integers(len(documents)))].encode())
            for _ in range(int(rng.integers(4)) if rng.random() < 0.5 else 0):
                at = int(rng.integers(len(data) + 1))
                byte = (int(rng.choice(list(b'0123 \n,[]{}":.-e#'))) if rng.random() < 0.7
                        else int(rng.integers(256)))
                if rng.random() < 0.5 or not data:
                    data.insert(at, byte)
                elif rng.random() < 0.5:
                    data[min(at, len(data) - 1)] = byte
                else:
                    del data[min(at, len(data) - 1)]
            path.write_bytes(bytes(data))
            value = str(path)
        elif flag in FUZZ_SIZES:
            value = str(rng.choice(FUZZ_SIZES[flag]))
        elif rng.random() < 0.15:
            value = str(rng.choice(FUZZ_ODD))
        elif choices:
            value = str(rng.choice(choices))
        else:
            pool = FUZZ_GOOD.get(flag) or FUZZ_GOOD.get(kind) or FUZZ_GOOD["list"]
            value = str(rng.choice(pool))
        argv += [flag, value]
    return argv


def test_fuzzed_commands_exit_cleanly(capsys, tmp_path):
    # Seeded fuzz over all nine subcommands: mutated edge lists and JSON
    # documents, odd flag values. Every case exits 0, 1 or 2 without an
    # exception; exit 1 prints exactly one error line and exit 0 none.
    rng = np.random.default_rng(2026)
    documents = _fuzz_documents()
    seen = set()
    for _ in range(2_000):
        argv = _fuzz_case(rng, documents, tmp_path / "input")
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert out == "", argv
        elif code == 0:
            assert err == "", (argv, err)
        seen.add((argv[0], code))
    # every subcommand reaches each of the three exit codes
    assert {(command, code) for command in CLI_SURFACE for code in (0, 1, 2)} <= seen
