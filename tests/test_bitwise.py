"""Fast paths that must equal their reference bit for bit: norms, strict JSON, trace CSV.

numpy is not pinned, so these tests, not a version number, hold the norm helper
to ``np.linalg.norm``; the trace CSV writer is held to ``write_csv``, and the
trace JSON to ``json.dumps`` of the same rows.  They import no scipy, so the
numpy-only CI job runs them too.
"""

import csv
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from regap.core import (TERMINATION_REASONS, TRACE_COLUMNS, IterationTrace, Point, RayCone,
                        TraceRecord, ZeroCone, _norm, write_csv, write_json)
from regap.projectors import AffineSet

# -0.0, subnormals, the edges of the normal range and magnitudes whose squares
# (or sums of squares) overflow to inf, mixed with arbitrary finite floats.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-160,
          1e154, -1e154, 1e300, -1e300, 1.7976931348623157e308]
_ENTRY = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))


def _vectors(max_size: int, count: int = 1):
    """``count`` float64 vectors of one length in 1..``max_size``."""
    return st.integers(1, max_size).flatmap(
        lambda n: st.tuples(*[arrays(np.float64, n, elements=_ENTRY)] * count))


def _same(got, want) -> bool:
    """Equal as float64 bits up to the NaN payload: the sign of zero counts."""
    want = float(want)
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


# ---------------------------------------------------------------------------
# Norms


@given(_vectors(4096))
def test_norm_helper_point_norm_and_zero_cone_equal_numpy(vs):
    (v,) = vs
    with np.errstate(over="ignore"):  # a sum of squares may overflow to inf
        want = np.linalg.norm(v)
        for got in (_norm(v), Point(v).norm(), ZeroCone(v.size).distance(v)):
            assert type(got) is float
            assert _same(got, want), (got, want)


@given(_vectors(4096), st.booleans())
def test_ray_direction_equals_numpy(vs, strided):
    # a strided view takes the copy np.linalg.norm's ravel would make
    (v,) = vs
    if strided:
        v = np.repeat(v, 2)[::2]
    with np.errstate(over="ignore"):  # a sum of squares may overflow to inf
        nrm = np.linalg.norm(v)
        if nrm == 0.0:  # all entries zero, or squares that underflow to zero
            with pytest.raises(ValueError):
                RayCone(v)
            return
        got, want = RayCone(v).direction, v / nrm
    assert got.tobytes() == want.tobytes()


@given(_vectors(64), st.data(), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_point_refuses_nan_and_inf_anywhere(vs, data, bad):
    (v,) = vs
    assert Point(v).dim == v.size  # the finite vector is accepted
    v = v.copy()
    v[data.draw(st.integers(0, v.size - 1))] = bad
    with pytest.raises(ValueError, match="finite"):
        Point(v)
    with pytest.raises(ValueError, match="finite"):
        RayCone(v)


@given(_vectors(4096, count=2))
def test_point_distance_equals_numpy(vs):
    a, b = vs
    with np.errstate(over="ignore"):  # the difference or its sum of squares may overflow
        got, want = Point(a).distance(Point(b)), np.linalg.norm(a - b)
    assert _same(got, want), (got, want)


@given(_vectors(64, count=3), st.floats(0.0, 1.0))
def test_affine_residuals_equal_numpy(vs, s):
    x, y, rhs = vs
    aff = AffineSet(np.eye(x.size), rhs)
    with np.errstate(over="ignore", invalid="ignore"):  # A x - b may overflow, r0 + s d too
        r0 = aff.matrix @ x - aff.rhs
        d = aff.matrix @ y - aff.rhs - r0
        got, want = aff.membership_residual(Point(x)), np.linalg.norm(r0)
        assert _same(got, want), (got, want)
        got, want = aff._residual_along(Point(x), Point(y))(s), np.linalg.norm(r0 + s * d)
        assert _same(got, want), (got, want)


# ---------------------------------------------------------------------------
# Strict JSON

_KEY = st.one_of(st.text(max_size=6), st.sampled_from(['é', '"', '\\', '\n', '\x00', ' ']))
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from([-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 'ünï"\\\t']))
_ROW = st.dictionaries(_KEY, _SCALAR, min_size=1, max_size=8)


def _nulled(value):
    """``value`` with every non-finite float, through dicts and lists, as ``None``."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _nulled(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_nulled(v) for v in value]
    return value


@given(st.one_of(
    st.just([]), st.just([{}]), st.lists(_ROW, min_size=1, max_size=6),
    st.lists(_ROW, min_size=1).map(lambda rows: rows + [{}]),
    st.lists(st.one_of(_ROW, _SCALAR, st.lists(_SCALAR, max_size=2)), min_size=1, max_size=6)
    .filter(lambda items: not all(isinstance(item, dict) for item in items)),
    st.lists(_ROW.map(lambda row: {**row, "nested": [1.5, None]}), min_size=1, max_size=3),
    st.lists(_ROW.map(lambda row: {**row, "pair": (1, 2)}), min_size=1, max_size=3),
    _ROW))
def test_write_json_other_values_take_the_reference_path(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "value.json"
    with mock.patch.object(json, "dump", wraps=json.dump) as dump:
        write_json(path, value)
    dump.assert_called_once()
    assert path.read_text() == json.dumps(_nulled(value), indent=1, sort_keys=True,
                                          allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Trace writers

_CELL = st.one_of(st.sampled_from(_EDGES + [-1e-300, math.nan, math.inf, -math.inf]),
                  st.floats())


@given(st.lists(st.tuples(*[_CELL] * 5), max_size=8), st.sampled_from(sorted(TERMINATION_REASONS)))
def test_trace_writers_equal_write_csv_and_json_dump(tmp_path_factory, cells, reason):
    trace = IterationTrace()
    for k, values in enumerate(cells):
        trace.append(TraceRecord(k, None, None, *values))
    trace.finish(reason)
    base = tmp_path_factory.getbasetemp()
    trace.to_csv(base / "trace.csv")
    write_csv(base / "want.csv", TRACE_COLUMNS, trace._rows())
    assert (base / "trace.csv").read_bytes() == (base / "want.csv").read_bytes()
    trace.to_json(base / "trace.json")
    rows = [dict(zip(TRACE_COLUMNS, (k, *values, reason))) for k, values in enumerate(cells)]
    text = (base / "trace.json").read_text()
    assert text == json.dumps(_nulled(rows), allow_nan=False) + "\n"
    # the parsed rows are the CSV rows, with null where the CSV holds nan or inf
    with open(base / "trace.csv", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    assert len(csv_rows) == len(rows)
    for parsed, row in zip(json.loads(text), csv_rows):
        assert list(parsed) == list(row)
        assert parsed["k"] == int(row["k"]) and parsed["reason"] == row["reason"]
        for column in TRACE_COLUMNS[1:-1]:
            cell = float(row[column])
            assert parsed[column] == (cell if math.isfinite(cell) else None)
