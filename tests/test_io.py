import hashlib
import json
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
    hypercube_layout,
    parse_edge_list,
    parse_json,
    read_document,
    render_svg,
)

from helpers import reference_canonical_json, reference_emit_json, reference_enumerate_cdes

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
    # '²' is a digit to str.isdigit but no decimal int() reads, so all sort as strings
    assert read_document("0 ²\n² 10\n").names == ("0", "10", "²")
    # a decimal digit of another script is a number to int(): '٣' is 3
    assert read_document("٣ 10\n2 ٣").names == ("2", "٣", "10")


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
    head = '{"format": "degen-kuramoto/1", '
    for text, message in [
        ("[]", "document must be a JSON object"),
        (head + '"vertices": [1]}', "vertices must be a list of names"),
        (head + '"vertices": ["a", "a"]}', "vertex names must be distinct"),
        (head + '"vertices": ["a", "b"], "edges": [[0]]}', "bad edge entry [0]"),
        (head + '"vertices": ["a", "b"], "coupling": 0}', "coupling must be positive"),
    ]:
        with pytest.raises(ValueError) as info:
            parse_json(text)
        assert str(info.value) == message
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
    # a huge finite layout overflowed its center to inf and wrote x1="-inf"
    huge = render_svg(g, [0.0, 0.0], layout=[(1e308, 0.0), (1.7e308, 1.0)])
    assert '<line x1="40.00" y1="210.00" x2="380.00" y2="210.00"/>' in huge
    assert "inf" not in huge and "nan" not in huge
    # a non-finite coordinate wrote x2="nan" into the image
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^layout positions must be finite$"):
            render_svg(g, [0.0, 0.0], layout=[(0.0, 0.0), (bad, 1.0)])
        with pytest.raises(ValueError, match="^layout positions must be finite$"):
            render_svg(g, [0.0, 0.0], layout=[(0.0, bad), (1.0, 1.0)])
    with pytest.raises(ValueError):
        render_svg(g, [0.0])
    with pytest.raises(ValueError, match=r"^labeling has 3 entries for 4 vertices$"):
        render_svg(cycle_graph(4), QuarterLabeling((0, 1, 2)))
    with pytest.raises(ValueError):
        render_svg(cycle_graph(3), [0.0, 0.0, 0.0], layout="hypercube")


def test_hypercube_layout_presets():
    assert hypercube_layout(2) == [(-0.5, -0.25), (0.5, 0.25)]
    pts = hypercube_layout(8)  # an odd dimension: the top bit is the diagonal nudge
    assert pts[0] == (-2.5, -1.75) and pts[-1] == (2.5, 1.75)
    assert len(set(pts)) == 8


def test_render_svg_rejects_negative_tolerance():
    for tol in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            render_svg(cycle_graph(4), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], tol=tol)


def test_format_constant():
    assert FORMAT == "degen-kuramoto/1"


def _random_value(rng, depth=0):
    """A nested JSON-like value: ints up to 2**70, bools, None, floats with
    -0.0, tiny and subnormal magnitudes, escaped and non-ASCII strings,
    lists, tuples and dicts, and int lists of up to 70 items, some with one
    bool, float, None or 2**70 among them."""
    kind = int(rng.integers(0, 10 if depth < 3 else 6))
    if kind == 9:
        ints = rng.integers(-(2**40), 2**40, size=int(rng.integers(0, 71))).tolist()
        if ints and rng.random() < 0.5:
            odd = (True, False, 1.0, -0.0, None, 2**70, -(2**70))[int(rng.integers(7))]
            ints[int(rng.integers(len(ints)))] = odd
        return ints if rng.random() < 0.7 else tuple(ints)
    if kind == 0:
        return int(rng.integers(-(2**62), 2**62)) * int(rng.choice([1, 2**8]))
    if kind == 1:
        return bool(rng.integers(2)) if rng.random() < 0.8 else None
    if kind == 2:
        return float(rng.choice([0.0, -0.0, 1e-300, -1e300, 2.0**-1074, 0.1]))
    if kind == 3:
        return float(rng.normal() * 10.0 ** rng.integers(-20, 20))
    if kind == 4:
        return int(rng.integers(-3, 4))
    if kind == 5:
        chars = list('ab"\\\n\t/é☃\U0001f600 \x00\x1f')
        return "".join(rng.choice(chars, size=int(rng.integers(0, 6))))
    items = [_random_value(rng, depth + 1) for _ in range(int(rng.integers(0, 4)))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {str(_random_value(rng, 3)) if rng.random() < 0.5 else str(i): x
            for i, x in enumerate(items)}


def test_canonical_json_matches_the_one_branch_per_type_writer():
    rng = np.random.default_rng(16)
    for _ in range(20_000):
        value = _random_value(rng)
        assert canonical_json(value) == reference_canonical_json(value)
    for bad in ({1: 0}, [{"a": {2: 0}}]):
        with pytest.raises(TypeError, match="document keys must be strings"):
            canonical_json(bad)
    for bad in (object(), [1, {1, 2}], {"a": np.int64(1)}):
        with pytest.raises(TypeError):
            canonical_json(bad)
        with pytest.raises(TypeError):
            reference_canonical_json(bad)
    with pytest.raises(ValueError, match="non-finite float"):
        canonical_json([1.0, float("nan")])


def test_the_q6_enumerate_document_matches_the_reference_writer():
    q6 = hypercube_graph(6)
    labelings = reference_enumerate_cdes(q6)
    report = {"cde_count": len(labelings),
              "labelings": [{"labels": list(q.labels), "base": q.base} for q in labelings]}
    text = emit_json(q6, report=report)
    assert text == reference_emit_json(q6, report=report)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "86cb9912720b603a769e3638cc7d49aaf5091b661f9fe256c3f62af2f2022213")


def _random_emit_arguments(rng):
    """Valid emit_json arguments, each field as a list, tuple, ndarray or
    plain value, with and without names and base."""
    n = int(rng.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, [pair for pair in pairs if rng.random() < 0.5])

    def shape(values, dtype):
        form = int(rng.integers(3))
        return (list(values), tuple(values), np.array(values, dtype=dtype))[form]

    kwargs = {}
    if rng.random() < 0.5:
        kwargs["names"] = shape([f"v{k}" if rng.random() < 0.5 else k for k in range(n)], object)
    if rng.random() < 0.5:
        kwargs["phases"] = shape(rng.normal(size=n) * 10.0 ** rng.integers(-5, 5), float)
    if rng.random() < 0.5:
        labels = rng.integers(0, 4, size=n)
        kwargs["labels"] = shape(labels.astype(float) if rng.random() < 0.3 else labels, None)
        if rng.random() < 0.5:
            kwargs["base"] = (0.25, 3, np.float64(-0.0), 1e-300)[int(rng.integers(4))]
    if rng.random() < 0.5:
        kwargs["frequencies"] = shape(rng.integers(-3, 4, size=n) if rng.random() < 0.3
                                      else rng.normal(size=n), None)
    if rng.random() < 0.5:
        kwargs["coupling"] = (2, 0.5, np.float64(1e-9), 1e300)[int(rng.integers(4))]
    if rng.random() < 0.5:
        kwargs["report"] = {"r": _random_value(rng), "n": n}
    return g, kwargs


def test_emit_json_matches_the_hand_checked_emitter_on_valid_input():
    rng = np.random.default_rng(61)
    for _ in range(3_000):
        g, kwargs = _random_emit_arguments(rng)
        text = emit_json(g, **kwargs)
        assert text == reference_emit_json(g, **kwargs)
        doc = parse_json(text)
        fields = {key: getattr(doc, key) for key in kwargs if key != "names"}
        assert emit_json(doc.graph, names=doc.names, **fields) == text


# Field values that emit_json truncated, coerced or wrote unreadable;
# parse_json refused each of them with the same error.
NEWLY_REJECTED = {
    "fractional label": ({"labels": [0, 1.9, 2, 3]}, "label must be an integer, got 1.9"),
    "list report": ({"report": [1, 2]}, "report must be an object"),
    "string phases": ({"phases": ["0.5", "0", "0", "0"]},
                      "phases must be a finite number, got '0.5'"),
    "bool coupling": ({"labels": [0, 1, 2, 3], "coupling": True},
                      "coupling must be a finite number, got True"),
    "bool labels": ({"labels": [False, True, False, True]},
                    "label must be an integer, got False"),
    "string coupling": ({"labels": [0, 1, 2, 3], "coupling": "2"},
                        "coupling must be a finite number, got '2'"),
    "bool among label ints": ({"labels": [0, True, 2, 3]}, "label must be an integer, got True"),
    "string among phase ints": ({"phases": [0, "0.5", 0, 0]},
                                "phases must be a finite number, got '0.5'"),
}


@pytest.mark.parametrize("fields, message", NEWLY_REJECTED.values(), ids=NEWLY_REJECTED.keys())
def test_emit_json_rejects_what_parse_json_rejects(fields, message):
    g = cycle_graph(4)
    with pytest.raises(ValueError) as emitted:
        emit_json(g, **fields)
    assert str(emitted.value) == message
    document = json.loads(emit_json(g))
    document.update(fields)
    with pytest.raises(ValueError) as parsed:
        parse_json(json.dumps(document))
    assert str(parsed.value) == message


def test_base_without_labels_is_refused_by_parse_json_and_emit_json():
    g = cycle_graph(4)
    document = json.loads(emit_json(g))
    for base in (0.5, "junk", None):
        with pytest.raises(ValueError) as parsed:
            parse_json(json.dumps({**document, "base": base}))
        assert str(parsed.value) == "base requires labels"
    for base in (0.5, "junk"):
        with pytest.raises(ValueError) as emitted:
            emit_json(g, base=base)
        assert str(emitted.value) == "base requires labels"
    # the fields are checked in parse_json's order, phases before base
    with pytest.raises(ValueError) as emitted:
        emit_json(g, phases=[0.0, 1.0], base=0.5)
    assert str(emitted.value) == "phases must list one value per vertex"


def test_emit_json_rejects_iterators_and_ragged_fields():
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="phases must list one value per vertex"):
        emit_json(g, phases=iter([0.0, 0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="frequencies must list one value per vertex"):
        emit_json(g, frequencies=[0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        emit_json(g, phases=[0.0, [0.1], 0.2, 0.3])
    with pytest.raises(ValueError, match="base requires labels"):
        emit_json(g, base=0.5)
