"""The one-pass float formatter against the scalar ``format_float``, and
``dumps_json`` against a writer that recurses once per float."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kelab.serialize import dumps_json, format_float, format_floats, write_csv

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
           1.7976931348623157e308, math.nan, 0.1, 1.0 / 3.0]

finite_or_nan = st.one_of(
    st.floats(allow_infinity=False, allow_nan=True),
    st.sampled_from(SPECIAL),
)
float_entries = st.one_of(finite_or_nan, finite_or_nan.map(np.float64))


def _recursive_dumps(obj) -> str:
    """The writer ``dumps_json`` replaces for float sequences: one
    ``format_float`` call per float, reached through the recursion."""

    def dump(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            items = [pad + "  " + json.dumps(str(k)) + ": " + dump(v, indent + 1)
                     for k, v in obj.items()]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(obj, (list, tuple, np.ndarray)):
            if len(obj) == 0:
                return "[]"
            items = [pad + "  " + dump(v, indent + 1) for v in obj]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if isinstance(obj, bool) or obj is None or isinstance(obj, str):
            return json.dumps(obj)
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        return format_float(obj)

    return dump(obj, 0) + "\n"


@PROPERTY
@given(st.lists(float_entries, max_size=40))
def test_format_floats_is_format_float_per_value(xs):
    assert format_floats(xs) == [format_float(x) for x in xs]
    assert format_floats(np.array(xs, dtype=float)) == [format_float(x) for x in xs]


def test_format_floats_special_values():
    values = SPECIAL + [np.float64(v) for v in SPECIAL]
    assert format_floats(values) == [format_float(x) for x in values]
    assert format_floats([math.nan, -math.nan, -0.0]) == ["null", "null", "-0"]
    assert format_floats([]) == []


@PROPERTY
@given(st.lists(float_entries, max_size=20), st.data())
def test_format_floats_rejects_infinity_anywhere(xs, data):
    i = data.draw(st.integers(0, len(xs)))
    bad = data.draw(st.sampled_from([math.inf, -math.inf, np.float64(-np.inf)]))
    with pytest.raises(ValueError, match="refusing to serialize infinity"):
        format_floats(xs[:i] + [bad] + xs[i:])
    with pytest.raises(ValueError, match="refusing to serialize infinity"):
        dumps_json({"values": xs[:i] + [bad] + xs[i:]})


json_values = st.recursive(
    st.one_of(float_entries, st.integers(-10**20, 10**20), st.booleans(), st.none(),
              st.text(max_size=5), st.integers(-5, 5).map(np.int64)),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=40,
)


@PROPERTY
@given(json_values)
def test_dumps_json_matches_recursive_writer(obj):
    assert dumps_json(obj) == _recursive_dumps(obj)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [[], [1.5]], {"a": []},
    [1, 2.5, 3], [2.5, 1], [10**20, 1e20], [True, 1.0], [None, 1.0], [1.0, "x"],
    [[1.0, 2.0], [3, 4.0]], np.array([1.0, -0.0, np.nan]), np.arange(4),
    np.ones((2, 3)), {"values": [0.1, 0.2], "grid": {"n": 3, "s_min": -1.0}},
])
def test_dumps_json_edge_cases(obj):
    assert dumps_json(obj) == _recursive_dumps(obj)


def test_write_csv_bytes(tmp_path):
    rows = [[1.0, np.float64(-0.0), math.nan], np.array([5e-324, 1e308, 0.1])]
    write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
    expected = "a,b,c\n" + "".join(
        ",".join(format_float(x) for x in row) + "\n" for row in rows
    )
    assert (tmp_path / "t.csv").read_text() == expected
