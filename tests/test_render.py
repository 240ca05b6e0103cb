"""The report writer: ``render_report`` against ``json.dumps`` of the converted report.

``support.reference_render`` is the conversion the writer replaced (numpy values by
``.item()``/``.tolist()``, QuadRat by str, non-finite floats by their strict-JSON
strings) followed by ``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from goldenslant.cli import list_bundled, resolve_config
from goldenslant.config import load_config
from goldenslant.quadrat import from_integers
from goldenslant.suites import render_report, run_scenario
from support import reference_render

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                  1e300, 0.1, math.nan, math.inf, -math.inf]
BIG = 2**200 + 1

_floats = st.floats(width=64) | st.sampled_from(SPECIAL_FLOATS)
_quadrats = st.builds(from_integers, st.integers(-BIG, BIG), st.integers(-BIG, BIG),
                      st.integers(1, BIG))
_leaves = st.one_of(
    st.text(), _floats, st.integers(-BIG, BIG), st.booleans(), st.none(),
    _floats.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(-2**31, 2**31 - 1).map(np.int32),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)),
    _quadrats,
)
_values = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), _values, max_size=6))
@example({})
@example({"é中\U0001f600": "\x00\x1f\"\\ ", "": [[], {}, ()]})
@example({"x": [-0.0, 5e-324, 1e308, math.nan, -math.inf], "y": (BIG, -BIG, True, None)})
@example({"a": np.array([[1.5, math.nan], [math.inf, -0.0]]), "b": np.float64(math.nan),
          "c": from_integers(-1, 0, 10), "d": from_integers(0, -3, 7)})
def test_writer_is_json_dumps(report):
    assert render_report(report) == reference_render(report)


def test_non_string_keys_are_written_as_json_writes_them():
    for report in ({1: "a", -2: "b"}, {1.5: 0, -0.0: 1}, {True: 1}, {None: 0},
                   {"k": {2**70: [1], 3: []}}):
        assert render_report(report) == reference_render(report)


@pytest.mark.parametrize("report", [{"x": np.bool_(True)}, {"x": {1, 2}}, {"x": 1j},
                                    {"x": [object()]}, {(1, 2): 0}, {1: 0, "a": 1}])
def test_what_json_rejects_raises_type_error(report):
    with pytest.raises(TypeError):
        reference_render(report)
    with pytest.raises(TypeError):
        render_report(report)


def _scenario_configs():
    configs = [resolve_config(name) for name in list_bundled()]
    return configs + sorted((Path(__file__).parent / "configs").glob("*.cfg"))


@pytest.mark.parametrize("backend", ["auto", "float"])
def test_every_bundled_and_regression_report_is_json_dumps(backend):
    for path in _scenario_configs():
        report = run_scenario(load_config(path), backend=backend)
        assert render_report(report) == reference_render(report), path


def test_writer_never_enters_the_pure_python_encoder(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was entered")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refused)
    with pytest.raises(AssertionError):  # the guard is live for json.dumps with an indent
        json.dumps({"a": 1}, indent=2)
    for path in _scenario_configs():
        text = render_report(run_scenario(load_config(path)))
        assert json.loads(text)["meta"]["tool"] == "goldenslant"
    assert render_report({1: [2.5, math.nan]}) == '{\n  "1": [\n    2.5,\n    "NaN"\n  ]\n}\n'
