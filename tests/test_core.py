"""Core types: points, cones, segment search, and iteration traces."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regap.core import (COMPLEX, REAL, DimensionMismatchError, IterationTrace,
                        Point, RayCone, SetOracle, SignedProductCone,
                        SubspaceCone, TraceRecord, ZeroCone, canonical_point,
                        distance, first_crossing, lerp,
                        proximal_normal_residual)
from regap.projectors import HalfspaceSet


# ---------------------------------------------------------------------------
# Point

def test_point_basic_properties():
    p = Point(np.array([3.0, 4.0]))
    assert p.dim == 2 and p.n == 2 and p.kind == REAL
    assert p.norm() == 5.0
    assert p.distance(Point(np.array([0.0, 0.0]))) == 5.0
    assert p.inner(Point(np.array([1.0, 1.0]))) == 7.0


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
    assert p.kind == COMPLEX and p.dim == 4 and p.n == 2
    assert np.array_equal(p.as_complex(), z)
    assert np.array_equal(p.data, [1.0, 2.0, 3.0, -4.0])


def test_complex_norm_is_euclidean_on_storage():
    p = Point.from_complex(np.array([3 + 4j]))
    assert p.norm() == 5.0


def test_point_arithmetic():
    a = Point(np.array([1.0, 2.0]))
    b = Point(np.array([10.0, 20.0]))
    assert np.array_equal((a + b).data, [11.0, 22.0])
    assert np.array_equal((b - a).data, [9.0, 18.0])
    assert np.array_equal((a * 3.0).data, [3.0, 6.0])
    assert np.array_equal((3.0 * a).data, [3.0, 6.0])


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
    t = first_crossing(lambda t: t >= 0.3)
    assert t >= 0.3
    assert t == pytest.approx(0.3, abs=1e-9)


def test_first_crossing_prefers_earliest_component():
    # True on [0.40, 0.45] and on [0.9, 1.0]; the scan must find the
    # earlier island even though the predicate is not monotone.
    def pred(t):
        return 0.40 <= t <= 0.45 or t >= 0.9

    t = first_crossing(pred)
    assert pred(t)
    assert t == pytest.approx(0.40, abs=1e-9)


def test_first_crossing_requires_true_upper_end():
    with pytest.raises(ValueError):
        first_crossing(lambda t: t < 0.5)


def test_first_crossing_returns_satisfying_value():
    t = first_crossing(lambda t: t >= 1.0)
    assert t == 1.0


# ---------------------------------------------------------------------------
# Normal cones

def test_zero_cone_distance_is_norm():
    cone = ZeroCone(3)
    v = np.array([1.0, -2.0, 2.0])
    assert cone.distance(v) == pytest.approx(3.0)
    assert cone.sample_unit(np.random.default_rng(0)) is None


def test_ray_cone_distance_matches_grid_oracle():
    rng = np.random.default_rng(42)
    d = rng.standard_normal(4)
    cone = RayCone(d)
    ts = np.linspace(0.0, 50.0, 200001)
    for _ in range(5):
        v = rng.standard_normal(4) * 3
        brute = min(np.linalg.norm(v - t * d / np.linalg.norm(d)) for t in ts)
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
    cone = SignedProductCone(4, free=[0], nonpos=[2])
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
             SignedProductCone(5, free=[1], nonpos=[3])]
    for cone in cones:
        for _ in range(20):
            u = cone.sample_unit(rng)
            assert u is not None
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-9)
            assert cone.distance(u) <= 1e-9


# ---------------------------------------------------------------------------
# Set oracle contract

def test_distance_exact_zero_for_members():
    s = HalfspaceSet(np.array([0.0, 1.0]), 0.0)
    inside = Point(np.array([4.0, -1.0]))
    assert distance(inside, s) == 0.0
    outside = Point(np.array([0.0, 2.0]))
    assert distance(outside, s) == pytest.approx(2.0)


def test_dimension_mismatch_raises():
    s = HalfspaceSet(np.array([0.0, 1.0]), 0.0)
    with pytest.raises(DimensionMismatchError):
        s.project(Point(np.array([1.0, 2.0, 3.0])))


def test_proximal_normal_residual_contract():
    s = HalfspaceSet(np.array([0.0, 1.0]), 0.0)
    base = Point(np.array([0.0, 0.0]))
    up = Point(np.array([0.0, 1.0]))
    assert proximal_normal_residual(s, base, up) == pytest.approx(0.0, abs=1e-12)
    sideways = Point(np.array([1.0, 0.0]))
    assert proximal_normal_residual(s, base, sideways) == pytest.approx(1.0, abs=1e-12)
    zero = Point(np.array([0.0, 0.0]))
    assert proximal_normal_residual(s, base, zero) == 0.0
    with pytest.raises(ValueError):
        proximal_normal_residual(s, base, Point(np.array([0.0, 0.5])))
    with pytest.raises(ValueError):
        proximal_normal_residual(s, Point(np.array([0.0, 3.0])), up)


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
    rows = json.loads(path.read_text())
    assert isinstance(rows, list) and len(rows) == 1
    assert rows[0]["k"] == 0
    assert rows[0]["reason"] == "stalled_gap"
    assert rows[0]["gap"] == 1.0
