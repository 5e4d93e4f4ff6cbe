"""Core types: points, cones, segment search, and iteration traces."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from regap.core import (COMPLEX, REAL, DimensionMismatchError, IterationTrace,
                        Point, RayCone, SetOracle, SignedProductCone,
                        SubspaceCone, TraceRecord, ZeroCone, canonical_point,
                        first_crossing, lerp, null_space, orth, write_csv, write_json)
from regap.projectors import HalfspaceSet


# ---------------------------------------------------------------------------
# Point

def test_point_basic_properties():
    p = Point(np.array([3.0, 4.0]))
    assert p.dim == 2 and p.kind == REAL
    assert p.norm() == 5.0
    assert p.distance(Point(np.array([0.0, 0.0]))) == 5.0


@settings(max_examples=200)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       st.data())
def test_point_checks_finiteness_in_one_pass(entries, data):
    # The sum of squares decides, and where it overflows (entries near
    # 1e154 and up) the entrywise test does: every finite entry is taken,
    # with no overflow warning, and one NaN or infinity anywhere is refused.
    arr = np.array(entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Point(arr).data.tobytes() == arr.tobytes()
        assert Point(np.array([1e200, -1e200])).data.tolist() == [1e200, -1e200]
        assert Point._fresh(arr.copy()).data.tobytes() == arr.tobytes()
    j = data.draw(st.integers(0, arr.size - 1))
    for bad in (np.nan, np.inf, -np.inf):
        broken = arr.copy()
        broken[j] = bad
        for build in (Point, Point._fresh):
            with pytest.raises(ValueError, match="finite"):
                build(broken.copy())


def test_point_rejects_bad_input():
    with pytest.raises(ValueError):
        Point(np.array([]))
    with pytest.raises(ValueError):
        Point(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Point(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Point(np.ones((2, 2)))
    with pytest.raises(ValueError):
        Point(np.array([1.0, 2.0, 3.0]), COMPLEX)  # odd storage length


def test_point_is_immutable():
    p = Point(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        p.data[0] = 5.0


def test_complex_point_roundtrip():
    z = np.array([1 + 2j, 3 - 4j])
    p = Point.from_complex(z)
    assert p.kind == COMPLEX and p.dim == 4
    assert np.array_equal(p.as_complex(), z)
    assert np.array_equal(p.data, [1.0, 2.0, 3.0, -4.0])


def test_complex_norm_is_euclidean_on_storage():
    p = Point.from_complex(np.array([3 + 4j]))
    assert p.norm() == 5.0


def test_kind_mismatch_rejected():
    a = Point(np.array([1.0, 2.0]))
    b = Point(np.array([1.0, 2.0]), COMPLEX)
    with pytest.raises(DimensionMismatchError):
        a.distance(b)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
def test_point_norm_matches_numpy(values):
    p = Point(np.asarray(values, dtype=np.float64))
    assert p.norm() == pytest.approx(np.linalg.norm(values), abs=1e-12)


def test_lerp_endpoints_and_midpoint():
    a = Point(np.array([0.0, 0.0]))
    b = Point(np.array([2.0, 4.0]))
    assert np.array_equal(lerp(a, b, 0.0).data, a.data)
    assert np.array_equal(lerp(a, b, 1.0).data, b.data)
    assert np.array_equal(lerp(a, b, 0.5).data, [1.0, 2.0])


def test_canonical_point_is_lexicographic_min():
    pts = [Point(np.array([1.0, 0.0])), Point(np.array([-1.0, 5.0])),
           Point(np.array([-1.0, 2.0]))]
    assert np.array_equal(canonical_point(pts).data, [-1.0, 2.0])
    with pytest.raises(ValueError):
        canonical_point([])


def test_canonical_point_returns_a_single_candidate_itself():
    only = Point(np.array([3.0, -1.0]))
    assert canonical_point([only]) is only


# ---------------------------------------------------------------------------
# first_crossing

def test_first_crossing_step_threshold():
    # Oracle: the predicate t >= 0.3 has its first crossing exactly at 0.3.
    t = first_crossing(lambda t: 0.3 - t)
    assert t >= 0.3
    assert t == pytest.approx(0.3, abs=1e-9)


def test_first_crossing_prefers_earliest_component():
    # True on [0.40, 0.45] and on [0.9, 1.0]; the scan must find the
    # earlier island even though the predicate is not monotone.
    def pred(t):
        return 0.40 <= t <= 0.45 or t >= 0.9

    t = first_crossing(lambda t: 0.0 if pred(t) else 1.0)
    assert pred(t)
    assert t == pytest.approx(0.40, abs=1e-9)


def test_first_crossing_requires_true_upper_end():
    with pytest.raises(ValueError):
        first_crossing(lambda t: t - 0.5)


def test_first_crossing_returns_satisfying_value():
    t = first_crossing(lambda t: 1.0 - t)
    assert t == 1.0


def _scan_bisect_reference(pred, lo=0.0, hi=1.0, scan=64, tol=1e-12, max_iter=200):
    """The former first_crossing, verbatim: a forward scan, then bisection."""
    if not pred(hi):
        raise ValueError("predicate does not hold at the upper endpoint")
    grid = np.linspace(lo, hi, scan + 1)
    bracket_lo, bracket_hi = lo, hi
    for t in grid[1:]:
        if pred(float(t)):
            bracket_hi = float(t)
            break
        bracket_lo = float(t)
    it = 0
    while bracket_hi - bracket_lo > tol and it < max_iter:
        mid = 0.5 * (bracket_lo + bracket_hi)
        if pred(mid):
            bracket_hi = mid
        else:
            bracket_lo = mid
        it += 1
    return bracket_hi


def _reference_cell(excess, scan):
    """The scan cell (lo, hi] in which the reference brackets the crossing."""
    grid = np.linspace(0.0, 1.0, scan + 1)
    k = next(k for k in range(1, scan + 1) if excess(float(grid[k])) <= 0.0)
    return float(grid[k - 1]), float(grid[k])


def _run_both(excess, scan):
    """Both root finders on one excess: results, evaluation counts, new probes."""
    probes = []

    def counted(t):
        probes.append((t, excess(t)))
        return probes[-1][1]
    ref_evals = [0]

    def ref_pred(t):
        ref_evals[0] += 1
        return excess(t) <= 0.0
    # scan 1 is the one cell [0, 1], which the bracket names; 64 is the default scan
    got = first_crossing(counted, bracket=(0.0, 1.0)) if scan == 1 else first_crossing(counted)
    ref = _scan_bisect_reference(ref_pred, scan=scan)
    return got, ref, len(probes), ref_evals[0], probes


def _check_crossing(excess, got, probes, tol=1e-12):
    """A member, with a probed non-member (or lo = 0) within tol below it."""
    assert excess(got) <= 0.0
    assert got <= tol or any(value > 0.0 and got - tol <= t < got for t, value in probes)


def _smooth_excess(draw):
    """A smooth excess on [0, 1], > 0 at 0 and <= 0 at 1, with a bound on |excess''|."""
    if draw(st.booleans()):
        coef = np.asarray(draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=5)))
        poly = np.polynomial.Polynomial(coef)
        curve, slope = poly, poly.deriv()
        bend = float(sum(abs(c) * k * (k - 1) for k, c in enumerate(coef)))
    else:
        waves = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 20.0),
                                        st.floats(0.0, 2 * math.pi)), min_size=1, max_size=3))
        amp, freq, phase = (np.asarray(v) for v in zip(*waves))

        def curve(t):
            return np.sin(np.multiply.outer(t, freq) + phase) @ amp

        def slope(t):
            return np.cos(np.multiply.outer(t, freq) + phase) @ (amp * freq)
        bend = float(np.sum(np.abs(amp) * freq ** 2))
    start, end = float(curve(0.0)), float(curve(1.0))
    sign = 1.0 if start > end else -1.0
    level = end + draw(st.floats(0.0, 1.0, exclude_max=True)) * (start - end)
    return (lambda t: sign * (float(curve(t)) - level)), (lambda t: sign * slope(t)), bend


def _single_sign_change(slope, bend, lo, hi, floor=1e-3, samples=2001):
    """True if the excess is strictly monotone on [lo, hi] with |excess'| >= floor.

    |excess''| <= bend bounds how far |excess'| can dip between samples.
    """
    d = slope(np.linspace(lo, hi, samples))
    margin = bend * (hi - lo) / (samples - 1) / 2 + floor
    return bool(np.all(d >= margin) or np.all(d <= -margin))


@settings(max_examples=300)
@given(st.data(), st.sampled_from([1, 64]))
def test_first_crossing_matches_scan_bisection_on_smooth_excess(data, scan):
    excess, slope, bend = _smooth_excess(data.draw)
    got, ref, _, _, probes = _run_both(excess, scan)
    _check_crossing(excess, got, probes)
    lo, hi = _reference_cell(excess, scan)
    if excess(lo) > 0.0 and _single_sign_change(slope, bend, lo, hi):
        assert abs(got - ref) <= 1e-10


@settings(max_examples=300)
@given(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=6, unique=True),
       st.sampled_from([1, 64]))
def test_first_crossing_matches_scan_bisection_on_step_predicates(breaks, scan):
    # Membership switches at every break point, and the last piece is a member.
    breaks = sorted(breaks)

    def excess(t):
        return 0.0 if sum(t >= b for b in breaks) % 2 == len(breaks) % 2 else 1.0
    got, ref, evals, ref_evals, probes = _run_both(excess, scan)
    _check_crossing(excess, got, probes)
    lo, hi = _reference_cell(excess, scan)
    if sum(lo < b <= hi for b in breaks) == 1:
        assert abs(got - ref) <= 1e-10
    assert evals <= 2 * ref_evals + 2


# ---------------------------------------------------------------------------
# Subspace bases

@settings(max_examples=200)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_null_space_and_orth_match_scipy(m, n, data):
    rank = data.draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (u[:, :rank] * rng.uniform(0.5, 2.0, rank)) @ v[:, :rank].T
    kernel, span = null_space(a), orth(a)
    assert kernel.shape == linalg.null_space(a).shape
    assert span.shape == linalg.orth(a).shape
    for basis in (kernel, span):
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), rtol=0, atol=1e-12)
    assert np.allclose(a @ kernel, 0.0, rtol=0, atol=1e-12)
    assert np.allclose(span @ (span.T @ a), a, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Normal cones

def test_zero_cone_distance_is_norm():
    cone = ZeroCone(3)
    v = np.array([1.0, -2.0, 2.0])
    assert cone.distance(v) == pytest.approx(3.0)
    assert cone.sample_units(np.random.default_rng(0), 3) is None


def test_ray_cone_distance_matches_grid_oracle():
    rng = np.random.default_rng(42)
    d = rng.standard_normal(4)
    cone = RayCone(d)
    ts = np.linspace(0.0, 50.0, 200001)
    for _ in range(5):
        v = rng.standard_normal(4) * 3
        brute = np.linalg.norm(v - ts[:, None] * d / np.linalg.norm(d), axis=1).min()
        assert cone.distance(v) == pytest.approx(brute, abs=1e-3)


def test_ray_cone_behind_origin():
    cone = RayCone(np.array([1.0, 0.0]))
    v = np.array([-2.0, 0.0])
    # Nothing on the ray is closer than the origin.
    assert cone.distance(v) == pytest.approx(2.0, abs=1e-12)


def test_subspace_cone_distance_matches_lstsq():
    rng = np.random.default_rng(7)
    basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    cone = SubspaceCone(basis)
    for _ in range(5):
        v = rng.standard_normal(5)
        coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
        assert cone.distance(v) == pytest.approx(
            np.linalg.norm(v - basis @ coef), abs=1e-12)


def test_signed_product_cone_distance():
    cone = SignedProductCone(free=np.array([True, False, False, False]),
                             nonpos=np.array([False, False, True, False]))
    v = np.array([5.0, 3.0, 1.0, -2.0])
    # Projection: keep free coord, clamp nonpos coord above zero, zero the rest.
    proj = np.array([5.0, 0.0, 0.0, 0.0])
    assert cone.distance(v) == pytest.approx(np.linalg.norm(v - proj), abs=1e-12)
    v2 = np.array([5.0, 3.0, -1.0, -2.0])
    proj2 = np.array([5.0, 0.0, -1.0, 0.0])
    assert cone.distance(v2) == pytest.approx(np.linalg.norm(v2 - proj2), abs=1e-12)


def test_cone_samples_live_in_cone():
    rng = np.random.default_rng(1)
    cones = [RayCone(np.array([1.0, 2.0, -1.0])),
             SubspaceCone(np.linalg.qr(rng.standard_normal((4, 2)))[0]),
             SignedProductCone(free=np.arange(5) == 1, nonpos=np.arange(5) == 3)]
    for cone in cones:
        units = cone.sample_units(rng, 20)
        assert units.shape[0] == 20
        for u in units:
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-9)
            assert cone.distance(u) <= 1e-9


class _ZeroFirstRow:
    """Generator stand-in: all ones, except a zero first row in the first draw."""

    def __init__(self):
        self.draws = 0

    def standard_normal(self, shape):
        g = np.ones(shape)
        if self.draws == 0:
            g[0] = 0.0
        self.draws += 1
        return g


@pytest.mark.parametrize("cone", [
    SubspaceCone(np.array([[1.0], [0.0]])),
    SignedProductCone(free=np.array([True, False]), nonpos=np.array([False, False])),
])
def test_sample_units_redraws_rows_too_short_to_normalize(cone):
    rng = _ZeroFirstRow()
    units = cone.sample_units(rng, 3)
    assert rng.draws == 2
    assert np.array_equal(units, np.tile([1.0, 0.0], (3, 1)))


# ---------------------------------------------------------------------------
# Set oracle contract

def test_dimension_mismatch_raises():
    s = HalfspaceSet(np.array([0.0, 1.0]), 0.0)
    with pytest.raises(DimensionMismatchError):
        s.project(Point(np.array([1.0, 2.0, 3.0])))


def test_unavailable_normal_cone():
    class Bare(SetOracle):
        def project(self, x):
            return [x]

        def membership_residual(self, x):
            return 0.0

    from regap.core import NormalConeUnavailableError
    with pytest.raises(NormalConeUnavailableError):
        Bare(2).normal_cone_at(Point(np.array([0.0, 0.0])))


# ---------------------------------------------------------------------------
# Traces

def _record(k, step, gap, residual=0.0, gamma=math.nan, lam=math.nan):
    pt = Point(np.array([float(k), 0.0]))
    return TraceRecord(k=k, even=pt, odd=pt, step_norm=step, gap=gap,
                       residual=residual, gamma=gamma, lam=lam)


def test_trace_requires_contiguous_records():
    tr = IterationTrace()
    tr.append(_record(0, math.nan, 1.0))
    with pytest.raises(ValueError):
        tr.append(_record(2, 0.5, 0.5))


def test_trace_finish_contract():
    tr = IterationTrace()
    tr.append(_record(0, math.nan, 1.0))
    with pytest.raises(ValueError):
        tr.reason  # noqa: B018 - not finished yet
    with pytest.raises(ValueError):
        tr.finish("bogus_reason")
    tr.finish("fixed_point")
    assert tr.reason == "fixed_point"
    with pytest.raises(ValueError):
        tr.finish("fixed_point")
    with pytest.raises(ValueError):
        tr.append(_record(1, 0.5, 0.5))


def test_step_sequence_interleaves_gaps_and_steps():
    tr = IterationTrace()
    tr.append(_record(0, math.nan, 8.0))
    tr.append(_record(1, 4.0, 2.0))
    tr.append(_record(2, 1.0, 0.5))
    tr.finish("max_iter")
    assert np.array_equal(tr.step_sequence(), [8.0, 4.0, 2.0, 1.0, 0.5])


def test_trace_csv_is_deterministic(tmp_path):
    tr = IterationTrace()
    tr.append(_record(0, math.nan, 1.0, residual=0.25))
    tr.append(_record(1, 0.5, 1.0 / 3.0, residual=0.125, gamma=0.1, lam=1.0))
    tr.finish("fixed_point")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    tr.to_csv(p1)
    tr.to_csv(p2)
    text = p1.read_text()
    assert text == p2.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "k,step_norm,gap,residual,gamma,lambda,reason"
    assert lines[1] == "0,nan,1,0.25,nan,nan,fixed_point"
    assert lines[2] == "1,0.5,0.33333333333333331,0.125,0.10000000000000001,1,fixed_point"


def test_trace_json_layout(tmp_path):
    import json

    tr = IterationTrace()
    tr.append(_record(0, math.nan, 1.0))
    tr.finish("stalled_gap")
    path = tmp_path / "t.json"
    tr.to_json(path)

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    rows = json.loads(path.read_text(), parse_constant=refuse)
    assert isinstance(rows, list) and len(rows) == 1
    assert rows[0]["k"] == 0
    assert rows[0]["reason"] == "stalled_gap"
    assert rows[0]["gap"] == 1.0
    assert rows[0]["step_norm"] is None


_NUMPY_AND_NON_FINITE = {
    "rate": np.float64(0.1), "count": np.int64(3), "gap": math.nan, "flag": np.bool_(True),
    "rows": [{"k": np.int32(0), "step": -math.inf}, {"k": 1, "step": np.float32(0.5)}],
    "top": math.inf, "label": "a",
}


def test_write_json_text(tmp_path):
    # keys sorted, indent 1, numpy scalars as numbers and non-finite values as null
    path = tmp_path / "v.json"
    write_json(path, _NUMPY_AND_NON_FINITE)
    assert path.read_text() == (
        '{\n "count": 3,\n "flag": true,\n "gap": null,\n "label": "a",\n "rate": 0.1,\n'
        ' "rows": [\n  {\n   "k": 0,\n   "step": null\n  },\n  {\n   "k": 1,\n'
        '   "step": 0.5\n  }\n ],\n "top": null\n}\n')


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("x", "none", "n", "s"),
              [(0.1, None, 7, "a,b"), (np.float64(1 / 3), None, -1, "c"), (math.nan, 2.0, 0, "")])
    assert path.read_bytes() == (b"x,none,n,s\r\n0.10000000000000001,,7,\"a,b\"\r\n"
                                 b"0.33333333333333331,,-1,c\r\nnan,2,0,\r\n")


class _Unwritable:
    """A trace value that fails once the writer reaches it."""

    def __float__(self):
        raise OSError("device full")


@pytest.mark.parametrize("writer", ["to_csv", "to_json"])
def test_trace_writer_that_fails_halfway_leaves_no_partial_file(tmp_path, writer):
    trace = IterationTrace()
    for k in range(200):
        trace.append(_record(k, 0.5, 0.25, residual=_Unwritable() if k == 150 else 0.125))
    trace.finish("max_iter")
    path = tmp_path / "trace.out"
    with pytest.raises((OSError, TypeError)):
        getattr(trace, writer)(path)
    assert list(tmp_path.iterdir()) == []

    # a complete file from an earlier write survives a failed rewrite as it was
    path.write_text("earlier\n")
    with pytest.raises((OSError, TypeError)):
        getattr(trace, writer)(path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "earlier\n"
