from pathlib import Path

import numpy as np
import pytest

from degen_kuramoto import (
    FORMAT,
    Graph,
    QuarterLabeling,
    canonical_json,
    cycle_graph,
    emit_json,
    enumerate_cdes,
    hypercube_graph,
    parse_edge_list,
    parse_json,
    read_document,
    render_svg,
)

GOLDENS = Path(__file__).parent / "goldens"


def test_parse_edge_list_examples():
    assert parse_edge_list("0 1\n1 2\n2 3\n3 0") == cycle_graph(4)
    g = parse_edge_list("a b\nb a")
    assert g.vertex_count == 2 and g.edge_count == 1
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("0 0")
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("0 1\n2 3 4")


def test_parse_edge_list_comments_and_numeric_sort():
    g = parse_edge_list("# a square\n0 1  # first\n\n1 2\n2 3\n3 0\n")
    assert g == cycle_graph(4)
    # numeric tokens sort numerically, so 10 comes after 2
    g = parse_edge_list("2 10\n10 0")
    assert g.vertex_count == 3
    assert g.edges == ((0, 2), (1, 2))  # names 0, 2, 10 -> ids 0, 1, 2


def test_emit_parse_roundtrip_identity():
    g = cycle_graph(4)
    text = emit_json(g, phases=[0.1, 0.2, 0.3, 0.4], coupling=2.0,
                     frequencies=[0.0, -1.5, 0.25, 1.25])
    doc = parse_json(text)
    assert doc.graph == g
    assert doc.phases == (0.1, 0.2, 0.3, 0.4)
    assert doc.coupling == 2.0
    assert emit_json(doc.graph, names=doc.names, phases=doc.phases,
                     frequencies=doc.frequencies, coupling=doc.coupling) == text


def test_emit_json_labels_and_report():
    g = cycle_graph(4)
    text = emit_json(g, labels=[0, 1, 2, 3], base=0.0,
                     report={"cde_count": 2, "note": "canonical"})
    doc = parse_json(text)
    assert doc.labels == (0, 1, 2, 3) and doc.base == 0.0
    assert doc.report == {"cde_count": 2, "note": "canonical"}
    assert '"format":"degen-kuramoto/1"' in text
    # keys are sorted in the canonical emission
    assert text.index('"base"') < text.index('"edges"') < text.index('"labels"')


def test_emit_json_validates_extras():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        emit_json(g, phases=[0.0, 0.1])
    with pytest.raises(ValueError):
        emit_json(g, labels=[0, 1, 2, 9])
    with pytest.raises(ValueError):
        emit_json(g, base=1.0)
    with pytest.raises(ValueError):
        emit_json(g, names=["a", "a", "b", "c"])


def test_parse_json_validates():
    with pytest.raises(ValueError, match="format"):
        parse_json('{"format": "other/9", "vertices": [], "edges": []}')
    with pytest.raises(ValueError, match="undeclared"):
        parse_json('{"format": "degen-kuramoto/1", "vertices": ["a"], "edges": [[0, 1]]}')
    with pytest.raises(ValueError, match="invalid JSON"):
        parse_json("{nope")
    # integral floats are still integers
    doc = parse_json('{"format": "degen-kuramoto/1", "vertices": ["a", "b"], '
                     '"edges": [[0, 1.0]], "labels": [0.0, 1]}')
    assert doc.graph.edges == ((0, 1),) and doc.labels == (0, 1)


def test_canonical_json_float_formatting_roundtrips():
    import json

    values = [0.1, 1.0 / 3.0, 2.0**-40, 6.283185307179586, 1e16, -0.0]
    text = canonical_json(values)
    assert json.loads(text) == values
    # negative zero folds to "0" so reparse-and-emit is byte stable
    assert canonical_json([-0.0]) == "[0]\n"


def test_emit_identity_with_negative_zero_frequency():
    # an isolated vertex gets frequency -0.0 from the bipartite construction
    from degen_kuramoto import construct_nonidentical_cde

    g = Graph(3, [(0, 1)])
    res = construct_nonidentical_cde(g, coupling=1.5)
    text = emit_json(g, phases=res.phases, frequencies=res.frequencies,
                     coupling=res.coupling)
    doc = parse_json(text)
    assert emit_json(doc.graph, names=doc.names, phases=doc.phases,
                     frequencies=doc.frequencies, coupling=doc.coupling) == text


def test_read_document_sniffs_format():
    doc = read_document("0 1\n1 2\n2 3\n3 0")
    assert doc.graph == cycle_graph(4) and doc.names == ("0", "1", "2", "3")
    doc = read_document(emit_json(cycle_graph(4), labels=[0, 1, 2, 3]))
    assert doc.labels == (0, 1, 2, 3)


def test_render_svg_deterministic_and_golden():
    c4 = cycle_graph(4)
    svg = render_svg(c4, QuarterLabeling((0, 1, 2, 3)))
    assert svg == render_svg(c4, QuarterLabeling((0, 1, 2, 3)))
    assert svg == (GOLDENS / "c4_cde.svg").read_text()
    assert svg.count("<circle") == 4
    for color in ("#0000ff", "#00ff00", "#ff0000", "#ffff00"):
        assert svg.count(f'fill="{color}"') == 1

    q4 = hypercube_graph(4)
    q = enumerate_cdes(q4)[0]
    svg = render_svg(q4, q, layout="hypercube")
    assert svg == (GOLDENS / "q4_cde.svg").read_text()
    assert svg.count("<circle") == 16
    for color in ("#0000ff", "#00ff00", "#ff0000", "#ffff00"):
        assert svg.count(f'fill="{color}"') == 4


def test_render_svg_quarter_phases_use_palette():
    c4 = cycle_graph(4)
    svg = render_svg(c4, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert "legend" not in svg and "<text" not in svg
    for color in ("#0000ff", "#00ff00", "#ff0000", "#ffff00"):
        assert f'fill="{color}"' in svg
    constant = render_svg(c4, [1.0 - 1.0] * 4)
    assert constant.count('fill="#0000ff"') == 4


def test_render_svg_offlattice_hue_legend():
    g = Graph(2, [(0, 1)])
    svg = render_svg(g, [0.3, 2.0])
    assert "<text" in svg  # legend present
    assert svg.count("<rect") > 10
    assert svg == render_svg(g, [0.3, 2.0])


def test_render_svg_explicit_layout_and_errors():
    g = Graph(2, [(0, 1)])
    svg = render_svg(g, [0.0, 0.0], layout=[(0.0, 0.0), (1.0, 1.0)])
    assert svg.count("<circle") == 2
    with pytest.raises(ValueError):
        render_svg(g, [0.0, 0.0], layout=[(0.0, 0.0)])
    with pytest.raises(ValueError):
        render_svg(g, [0.0])
    with pytest.raises(ValueError):
        render_svg(cycle_graph(3), [0.0, 0.0, 0.0], layout="hypercube")


def test_render_svg_rejects_negative_tolerance():
    for tol in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            render_svg(cycle_graph(4), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], tol=tol)


def test_format_constant():
    assert FORMAT == "degen-kuramoto/1"
