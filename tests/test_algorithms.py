"""Iteration drivers, rate prediction/measurement, stall and step conditions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regap.algorithms
import regap.core
import regap.projectors
from regap.algorithms import (FixedPointError, GammaConditionError, InexactAPConfig,
                              RateMeasurementError, StepConditionError,
                              exact_alternating_projections,
                              inexact_alternating_projections, measure_rate,
                              predict_rate, regularized_extrapolated_ap)
from regap.core import (FIXED_POINT, MAX_ITER, STALLED_GAP, TOLERANCE_MET,
                        IterationTrace, Point, SetOracle, SolverError, TraceRecord,
                        canonical_point, lerp)
from regap.divergences import EuclideanKernel, LinearMap, RegularizedSet
from regap.problems import (box_affine_regularized, parallel_lines, perturbed_line,
                            slab_problem, two_lines, two_subspaces)
from regap.projectors import AffineSet
from regap.regularity import cbar_subspaces


# ---------------------------------------------------------------------------
# Oracles

def two_lines_trace_oracle(theta, d, n_cycles):
    """Closed-form alternating-projection orbit between two lines.

    For lines spanned by e1 and u = (cos t, sin t), starting from the point
    d*u, every projection scales the distance to the intersection by cos t:
    even_k = d cos^(2k+1) t along e1, odd_k = d cos^(2k+2) t along u.
    """
    u = np.array([math.cos(theta), math.sin(theta)])
    rows = []
    for k in range(n_cycles):
        even = d * math.cos(theta) ** (2 * k + 1) * np.array([1.0, 0.0])
        odd = d * math.cos(theta) ** (2 * k + 2) * u
        step = math.nan if k == 0 else d * math.cos(theta) ** (2 * k) * math.sin(theta)
        gap = d * math.cos(theta) ** (2 * k + 1) * math.sin(theta)
        rows.append((even, odd, step, gap))
    return rows


def perturbed_cycle_contraction(theta, phi):
    """Per-cycle contraction of the slid orbit, from plane trigonometry.

    Sliding the exact projection by tan(phi) times the point-to-line distance
    shortens each full cycle's distance decay to cos t * cos(t - phi)/cos(phi).
    """
    return math.cos(theta) * math.cos(theta - phi) / math.cos(phi)


def assert_same_records(a, b, iterates, skip=(), count=None):
    """Equal traces record by record; NaN equals NaN, ``skip`` names fields left out.

    ``iterates`` is the fixture that captured both traces' iterates.  With
    ``count`` only the first ``count`` records are compared.
    """
    if count is None:
        assert a.reason == b.reason
        assert len(a) == len(b) == len(iterates[a]) == len(iterates[b])
    for ra, rb, (ea, oa), (eb, ob) in zip(a.records[:count], b.records[:count],
                                          iterates[a], iterates[b]):
        assert np.array_equal(ea.data, eb.data)
        assert np.array_equal(oa.data, ob.data)
        for field in ("k", "step_norm", "gap", "residual", "gamma", "lam"):
            if field not in skip:
                va, vb = getattr(ra, field), getattr(rb, field)
                assert va == vb or (math.isnan(va) and math.isnan(vb)), (ra.k, field)


def geometric_trace(ratio, n, first=1.0, reason=FIXED_POINT):
    """Synthetic trace whose half-step norms decay exactly geometrically."""
    trace = IterationTrace()
    e = Point(np.zeros(1))
    val = first
    for k in range(n):
        gap = val * ratio if k > 0 else val
        step = math.nan if k == 0 else val
        trace.append(TraceRecord(k, e, e, step, gap, 0.0, math.nan, math.nan))
        val = gap * ratio
    return trace.finish(reason)


# ---------------------------------------------------------------------------
# Rate prediction

def test_predict_rate_spot_values():
    assert predict_rate(0.5).eta == pytest.approx(0.5)
    assert predict_rate(0.0, 0.25).eta == pytest.approx(0.25)
    # eta = sin(asin c + asin gamma): at c = gamma = sin(pi/8) it is sin(pi/4)
    s = math.sin(math.pi / 8)
    assert predict_rate(s, s).eta == pytest.approx(math.sin(math.pi / 4), abs=1e-12)


def test_predict_rate_prox_regularity_switch():
    p = predict_rate(0.6, 0.1, m_prox_regular=True)
    q = predict_rate(0.6, 0.1, m_prox_regular=False)
    assert p.r_linear_rate == pytest.approx(p.eta)
    assert q.r_linear_rate == pytest.approx(math.sqrt(q.eta))
    assert q.r_linear_rate > p.r_linear_rate


def test_predict_rate_domain_guards():
    with pytest.raises(ValueError):
        predict_rate(1.0)
    with pytest.raises(ValueError):
        predict_rate(-0.1)
    with pytest.raises(ValueError):
        predict_rate(0.6, math.sqrt(1 - 0.36))  # gamma at the open boundary
    with pytest.raises(ValueError):
        predict_rate(0.6, 0.9)


@settings(max_examples=100)
@given(st.floats(0.0, 0.99), st.floats(0.0, 0.99), st.floats(0.0, 0.99))
def test_predict_rate_monotone_in_gamma_and_below_one(c, g1, g2):
    limit = math.sqrt(1.0 - c * c)
    g1, g2 = g1 * limit * 0.999, g2 * limit * 0.999
    lo, hi = min(g1, g2), max(g1, g2)
    eta_lo = predict_rate(c, lo).eta
    eta_hi = predict_rate(c, hi).eta
    assert eta_lo < 1.0 and eta_hi < 1.0
    if hi > lo + 1e-12:
        assert eta_hi > eta_lo  # strictly increasing in the alignment bound


# ---------------------------------------------------------------------------
# Rate measurement

def test_measure_rate_recovers_synthetic_ratio():
    trace = geometric_trace(0.7, 40)
    assert measure_rate(trace) == pytest.approx(0.7, abs=1e-10)


def test_measure_rate_fits_the_trailing_half():
    # 20 cycles give 39 half-steps: the first 20 decay by 0.3, the last 19 by 0.7.
    trace = IterationTrace()
    e = Point(np.zeros(1))
    seq = [0.3 ** j for j in range(20)]
    seq += [seq[-1] * 0.7 ** j for j in range(1, 20)]
    trace.append(TraceRecord(0, e, e, math.nan, seq[0], 0.0, math.nan, math.nan))
    for k in range(1, 20):
        trace.append(TraceRecord(k, e, e, seq[2 * k - 1], seq[2 * k], 0.0, math.nan, math.nan))
    trace.finish(FIXED_POINT)
    assert np.array_equal(trace.step_sequence(), seq)
    assert measure_rate(trace) == pytest.approx(0.7, abs=1e-10)


def test_measure_rate_ignores_trailing_zeros():
    trace = IterationTrace()
    e = Point(np.zeros(1))
    val = 1.0
    n = 30
    for k in range(n):
        step = math.nan if k == 0 else val
        gap = val * 0.5
        if k >= n - 2:  # the iterate landed on the set and stopped moving
            step, gap = 0.0, 0.0
        trace.append(TraceRecord(k, e, e, step, gap, 0.0, math.nan, math.nan))
        val = gap * 0.5
    trace.finish(FIXED_POINT)
    assert measure_rate(trace) == pytest.approx(0.5, abs=1e-10)


def test_measure_rate_refusals():
    with pytest.raises(RateMeasurementError, match="stalled"):
        measure_rate(geometric_trace(0.9, 40, reason=STALLED_GAP))
    with pytest.raises(RateMeasurementError, match="at least 10"):
        measure_rate(geometric_trace(0.5, 4))


# ---------------------------------------------------------------------------
# Exact alternating projections

def test_two_lines_matches_closed_form_orbit(iterates):
    theta, d = math.pi / 3, 2.0
    C, M = two_lines(theta)
    x0 = Point(d * np.array([math.cos(theta), math.sin(theta)]))
    trace = exact_alternating_projections(
        C, M, x0, InexactAPConfig(max_iterations=25, fixed_point_tolerance=1e-300))
    oracle = two_lines_trace_oracle(theta, d, 20)
    for rec, (rec_even, rec_odd), (even, odd, step, gap) in zip(
            trace.records, iterates[trace], oracle):
        assert np.allclose(rec_even.data, even, atol=1e-12)
        assert np.allclose(rec_odd.data, odd, atol=1e-12)
        if not math.isnan(step):
            assert rec.step_norm == pytest.approx(step, abs=1e-12)
        assert rec.gap == pytest.approx(gap, abs=1e-12)
        if not math.isnan(rec.step_norm):  # step monotonicity: gap <= step
            assert rec.gap <= rec.step_norm * (1 + 1e-12) + 1e-15


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_two_lines_rate_equals_cosine(theta):
    C, M = two_lines(theta)
    x0 = Point(np.array([3.0, 1.0]))
    trace = exact_alternating_projections(
        C, M, x0, InexactAPConfig(max_iterations=300, fixed_point_tolerance=1e-13))
    assert trace.reason == FIXED_POINT
    assert measure_rate(trace) == pytest.approx(math.cos(theta), abs=1e-6)


def test_two_subspaces_rate_bounded_by_regularity_constant():
    from scipy.linalg import null_space
    C, M = two_subspaces(8, 3, 4, seed=2)
    cbar = cbar_subspaces(null_space(C.matrix), null_space(M.matrix)).c_bar
    x0 = Point(np.random.default_rng(5).standard_normal(8))
    trace = exact_alternating_projections(
        C, M, x0, InexactAPConfig(max_iterations=2000, fixed_point_tolerance=1e-12))
    assert trace.reason == FIXED_POINT
    rate = measure_rate(trace)
    assert rate <= cbar + 1e-6
    assert rate == pytest.approx(cbar, abs=1e-3)  # generic starts see the worst angle


def test_max_iter_reason():
    C, M = two_lines(0.01)  # nearly parallel: very slow contraction
    trace = exact_alternating_projections(
        C, M, Point(np.array([5.0, 3.0])),
        InexactAPConfig(max_iterations=5, fixed_point_tolerance=1e-300))
    assert trace.reason == MAX_ITER
    assert len(trace.records) == 6


def test_tolerance_met_reason():
    C, M = two_lines(math.pi / 4)
    trace = exact_alternating_projections(
        C, M, Point(np.array([4.0, 4.0])),
        InexactAPConfig(max_iterations=400, fixed_point_tolerance=1e-14,
                        membership_tolerance=1e-3))
    assert trace.reason == TOLERANCE_MET
    final = trace.records[-1].even
    assert C.membership_residual(final) <= 1e-3
    assert M.membership_residual(final) <= 1e-3
    # looser tolerance stops strictly earlier than the fixed-point run
    tight = exact_alternating_projections(
        C, M, Point(np.array([4.0, 4.0])),
        InexactAPConfig(max_iterations=400, fixed_point_tolerance=1e-14))
    assert len(trace.records) < len(tight.records)


def test_parallel_lines_stall():
    C, M = parallel_lines(1.0)
    cfg = InexactAPConfig(max_iterations=500, fixed_point_tolerance=1e-9,
                          gap_stall_window=50)
    trace = exact_alternating_projections(C, M, Point(np.array([2.0, 0.3])), cfg)
    assert trace.reason == STALLED_GAP
    # even iterates freeze immediately; the stall needs one full window
    assert len(trace.records) == cfg.gap_stall_window + 2
    for rec in trace.records:
        assert rec.gap == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(RateMeasurementError):
        measure_rate(trace)


def test_config_validation():
    with pytest.raises(ValueError):
        InexactAPConfig(gamma=1.0)
    with pytest.raises(ValueError):
        InexactAPConfig(max_iterations=0)
    with pytest.raises(ValueError):
        InexactAPConfig(lambda_schedule="warmup")
    with pytest.raises(ValueError):
        InexactAPConfig(lambda_schedule="custom")
    with pytest.raises(ValueError):
        InexactAPConfig(lambda_schedule="custom", lambda_sequence=[0.5, 1.5])
    with pytest.raises(ValueError):
        InexactAPConfig(membership_tolerance=0.0)
    # NaN fails every comparison, and an infinite tolerance reports a fixed
    # point after one cycle
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="fixed_point_tolerance"):
            InexactAPConfig(fixed_point_tolerance=bad)
        with pytest.raises(ValueError, match="membership_tolerance"):
            InexactAPConfig(membership_tolerance=bad)


# ---------------------------------------------------------------------------
# Inexact driver with supplied odd steps

def _run_perturbed(theta, phi, gamma=None, m_oracle=None, **kw):
    C, oracle, exact = perturbed_line(theta, phi)
    x0 = Point(np.array([2.0, 0.0]))
    even0 = canonical_point(C.project(x0))
    odd0 = canonical_point(oracle.project(even0))
    cfg = InexactAPConfig(gamma=gamma if gamma is not None else min(math.sin(phi) + 1e-9, 0.99),
                          max_iterations=500, fixed_point_tolerance=1e-12, **kw)
    return inexact_alternating_projections(
        C, lambda p: oracle.project(p), exact if m_oracle is None else m_oracle,
        even0, odd0, cfg)


def test_perturbed_alignment_equals_sine_of_slide_angle():
    theta, phi = math.pi / 4, 0.3
    trace = _run_perturbed(theta, phi)
    assert trace.reason == FIXED_POINT
    measured = [r.gamma for r in trace.records[1:]
                if not math.isnan(r.gamma) and r.gap > 1e-10]
    assert len(measured) > 10
    assert np.allclose(measured, math.sin(phi), atol=1e-9)


class _CountingAffineSet(AffineSet):
    """Affine set that records the points it measures and its cones' base points."""

    def __init__(self, matrix, rhs):
        super().__init__(matrix, rhs)
        self.measured, self.bases = [], []

    def membership_residual(self, x):
        self.measured.append(x)
        return super().membership_residual(x)

    def normal_cone_at(self, x):
        self.bases.append(x)
        return super().normal_cone_at(x)


def test_inexact_cycle_membership_count(monkeypatch):
    # Per cycle: the interior test of even, the membership re-check of the
    # alignment search's entry point, which the normal cone then takes
    # without measuring it again, and residual(odd).  The search probes the
    # affine set's closed-form segment residual, which measures no point and
    # builds none: its one lerp is the entry point it returns.
    lerps = []

    def counted_lerp(x, y, t):
        lerps.append(t)
        return lerp(x, y, t)
    for module in (regap.core, regap.projectors):
        monkeypatch.setattr(module, "lerp", counted_lerp)
    exact = perturbed_line(math.pi / 4, 0.3)[2]
    counted = _CountingAffineSet(exact.matrix, exact.rhs)
    trace = _run_perturbed(math.pi / 4, 0.3, m_oracle=counted)
    assert trace.reason == FIXED_POINT and len(trace) > 10
    assert len(counted.measured) <= 3 * len(trace)
    assert len(lerps) <= len(trace)
    assert len(counted.bases) > 10
    for star in counted.bases:
        assert sum(p is star for p in counted.measured) == 1


def test_normal_cone_refuses_a_non_member_after_an_entry_point():
    # the entry point is remembered as a member; any other point is measured
    m = perturbed_line(math.pi / 4, 0.3)[2]
    inside = m.project(Point(np.array([2.0, 0.0])))[0]
    outside = Point(inside.data + m.matrix[0])
    m.normal_cone_at(m.segment_entry(outside, inside)[1])
    with pytest.raises(ValueError, match="not a member"):
        m.normal_cone_at(outside)


@pytest.mark.parametrize("driver", ["exact", "inexact", "regularized"])
def test_each_cycle_measures_its_even_odd_gap_once(driver, iterates, monkeypatch):
    # The gap a record holds is the one distance the step condition and the
    # alignment residual used too: each (even, odd) pair is measured once.
    pairs = []
    distance = Point.distance

    def recorded(self, other):
        pairs.append((self, other))
        return distance(self, other)
    monkeypatch.setattr(Point, "distance", recorded)
    C, M = two_lines(math.pi / 4)
    x0 = Point(np.array([2.0, 1.0]))
    cfg = InexactAPConfig(max_iterations=200, fixed_point_tolerance=1e-12)
    if driver == "exact":
        trace = exact_alternating_projections(C, M, x0, cfg)
    elif driver == "inexact":
        trace = _run_perturbed(math.pi / 4, 0.3)
    else:
        ball = RegularizedSet(LinearMap(M.matrix), np.zeros(1), EuclideanKernel(), 0.01)
        trace = regularized_extrapolated_ap(C, ball, M, x0, cfg)
    moved = [(even, odd) for even, odd in iterates[trace] if odd is not even]
    assert len(trace) > 5 and len(moved) > 5
    for even, odd in moved:
        assert sum(a is even and b is odd for a, b in pairs) == 1


class _DefaultSegmentAffineSet(AffineSet):
    """Affine set that answers ``segment_entry`` with SetOracle's generic default."""

    segment_entry = SetOracle.segment_entry


class _MisreportingAffineSet(AffineSet):
    """Affine set whose closed-form segment residual reads ``offset`` off.

    It records the base point of every normal cone it is asked for.
    """

    def __init__(self, matrix, rhs, offset):
        super().__init__(matrix, rhs)
        self.offset = offset
        self.bases = []

    def _residual_along(self, x, y):
        closed = super()._residual_along(x, y)
        return lambda s: max(closed(s) + self.offset, 0.0)

    def normal_cone_at(self, x):
        self.bases.append(x)
        return super().normal_cone_at(x)


@pytest.mark.parametrize("offset", [-1e-6, 1e-6])
def test_alignment_search_rechecks_the_closed_form_entry_point(offset, iterates, monkeypatch):
    # Read 1e-6 low, the search stops short of the set, and the re-check
    # with contains must redo it on built points; read 1e-6 high, odd itself
    # looks outside and the search must fall back at once.  Either way the
    # generic default answers every search, every cone's base is a member
    # and every record, gamma included, is the reference run's.
    reference = _run_perturbed(math.pi / 4, 0.3)
    generic = []
    default = SetOracle.segment_entry

    def counted_default(self, x, y):
        generic.append(x)
        return default(self, x, y)
    monkeypatch.setattr(SetOracle, "segment_entry", counted_default)
    exact = perturbed_line(math.pi / 4, 0.3)[2]
    off = _MisreportingAffineSet(exact.matrix, exact.rhs, offset)
    trace = _run_perturbed(math.pi / 4, 0.3, m_oracle=off)
    assert len(off.bases) > 10 and len(generic) == len(off.bases)
    assert all(AffineSet.contains(off, p) for p in off.bases)
    assert_same_records(trace, reference, iterates)


@pytest.mark.parametrize("build", [
    lambda: perturbed_line(math.pi / 4, 0.3),
    lambda: two_subspaces(8, 3, 4, seed=2),
])
def test_closed_form_segment_residual_keeps_every_record(build, iterates):
    # The same inexact run on AffineSet's closed form and on the generic
    # lerp-and-measure default: an affine set's normal cone does not depend
    # on its base point, so every record, gamma included, is equal.
    sets = build()  # (C, inexact oracle, M) or (C, M)
    C, M = sets[0], sets[-1]
    approx = sets[1].project if len(sets) == 3 else M.project
    x0 = Point(np.random.default_rng(5).standard_normal(C.dim))
    even0 = canonical_point(C.project(x0))
    odd0 = canonical_point(approx(even0))
    cfg = InexactAPConfig(gamma=0.5, max_iterations=500, fixed_point_tolerance=1e-12)
    runs = [inexact_alternating_projections(C, approx, m, even0, odd0, cfg)
            for m in (M, _DefaultSegmentAffineSet(M.matrix, M.rhs))]
    assert runs[0].reason == FIXED_POINT and len(runs[0]) > 5
    assert sum(r.gap > 0.0 for r in runs[0].records[1:]) > 5
    assert_same_records(*runs, iterates)


def test_perturbed_rate_matches_trigonometric_contraction():
    theta, phi = math.pi / 6, 0.305
    trace = _run_perturbed(theta, phi)
    per_cycle = perturbed_cycle_contraction(theta, phi)
    assert measure_rate(trace) == pytest.approx(math.sqrt(per_cycle), abs=1e-3)


def test_perturbed_rate_within_prediction():
    for theta, phi in [(math.pi / 4, 0.3), (math.pi / 3, 0.2)]:
        trace = _run_perturbed(theta, phi)
        pred = predict_rate(math.cos(theta), math.sin(phi))
        assert measure_rate(trace) <= pred.eta + 0.02


def test_overshooting_slide_violates_step_condition():
    with pytest.raises(StepConditionError):
        _run_perturbed(math.pi / 6, math.pi / 4)


def test_strict_gamma_enforcement():
    with pytest.raises(GammaConditionError, match="alignment residual"):
        _run_perturbed(math.pi / 4, 0.3, gamma=0.1, strict_gamma=True)
    # a generous bound passes strict verification
    trace = _run_perturbed(math.pi / 4, 0.3, gamma=0.5, strict_gamma=True)
    assert trace.reason == FIXED_POINT


def test_strict_gamma_requires_a_measured_gamma():
    # The oracle is there, but measure_gamma is off: nothing to verify.
    C, oracle, exact = perturbed_line(math.pi / 4, 0.2)
    x0 = Point(np.array([2.0, 0.0]))
    even0 = canonical_point(C.project(x0))
    odd0 = canonical_point(oracle.project(even0))
    cfg = InexactAPConfig(gamma=0.5, strict_gamma=True, measure_gamma=False,
                          max_iterations=50)
    with pytest.raises(GammaConditionError, match="was not measured"):
        inexact_alternating_projections(C, lambda p: oracle.project(p), exact,
                                        even0, odd0, cfg)


def test_strict_gamma_checks_the_regularized_driver():
    # Surface steps on the box-affine pair enter the fattened box far from
    # normal (gamma up to about 0.5): a zero bound must stop the run.
    affine, box, anchor, _, _ = box_affine_regularized(12, 6, 0.05, 1.0, 0)
    x0 = Point(np.random.default_rng(0).standard_normal(12))
    with pytest.raises(GammaConditionError, match="exceeds gamma = 0"):
        regularized_extrapolated_ap(affine, box, anchor, x0,
                                    InexactAPConfig(gamma=0.0, strict_gamma=True))
    trace = regularized_extrapolated_ap(affine, box, anchor, x0, InexactAPConfig(gamma=0.0))
    assert max(r.gamma for r in trace.records if math.isfinite(r.gamma)) > 0.1
    # the slab's surface steps are normal to it, so a small bound passes
    C, ball, line = slab_problem(1.0, epsilon=0.2)
    cfg = InexactAPConfig(gamma=1e-6, strict_gamma=True, max_iterations=60,
                          gap_stall_window=30)
    assert regularized_extrapolated_ap(C, ball, line, Point(np.array([1.0, 0.0])), cfg).reason \
        == STALLED_GAP


def test_strict_gamma_in_the_regularized_driver_requires_a_measured_gamma():
    C, ball, line = slab_problem(1.0, epsilon=0.2)
    cfg = InexactAPConfig(gamma=0.5, strict_gamma=True, measure_gamma=False)
    with pytest.raises(GammaConditionError, match="cycle 0: .*was not measured"):
        regularized_extrapolated_ap(C, ball, line, Point(np.array([1.0, 0.0])), cfg)


def test_strict_gamma_in_the_exact_driver_is_never_measured():
    # The exact driver records no alignment residual, so strict mode fails at once.
    C, M = two_lines(math.pi / 3)
    cfg = InexactAPConfig(gamma=0.5, strict_gamma=True)
    with pytest.raises(GammaConditionError, match="cycle 0: .*was not measured"):
        exact_alternating_projections(C, M, Point(np.array([1.0, 2.0])), cfg)


def test_even_iterate_in_set_fixes_odd_iterate():
    # Feed candidates that land the even iterate inside the second set: the
    # driver must then take odd = even (fixed-point rule) and finish.
    C, M = two_lines(math.pi / 4)
    origin = Point(np.zeros(2))

    def approx(p):
        return M.project(p)

    even0 = Point(np.array([1.0, 0.0]))
    odd0 = origin  # jump straight to the intersection
    cfg = InexactAPConfig(max_iterations=10, fixed_point_tolerance=1e-12)
    trace = inexact_alternating_projections(C, approx, M, even0, odd0, cfg)
    assert trace.reason == FIXED_POINT
    last = trace.records[-1]
    assert last.gap == 0.0
    assert last.gamma == 0.0
    assert np.allclose(last.even.data, last.odd.data)


@pytest.mark.parametrize("build, x0", [
    (lambda: two_lines(math.pi / 3), np.array([3.0, 1.0])),
    (lambda: two_subspaces(8, 3, 4, seed=2), np.random.default_rng(5).standard_normal(8)),
])
def test_inexact_with_exact_odd_steps_matches_exact_driver(build, x0, iterates):
    # Fed the exact projection, the inexact driver must walk the exact orbit
    # until its fixed-point rule finds an even iterate in M (within the
    # membership tolerance) and takes odd = even there.
    C, M = build()
    cfg = InexactAPConfig(max_iterations=500, fixed_point_tolerance=1e-12)
    exact = exact_alternating_projections(C, M, Point(x0), cfg)
    even0 = canonical_point(C.project(Point(x0)))
    inexact = inexact_alternating_projections(
        C, M.project, M, even0, canonical_point(M.project(even0)), cfg)
    fired = next(r.k for r in inexact.records if r.gap == 0.0)
    assert exact.reason == inexact.reason == FIXED_POINT and fired > 5
    assert_same_records(inexact, exact, iterates, skip=("gamma",), count=fired)
    even = iterates[inexact][fired][0]
    assert np.array_equal(even.data, iterates[exact][fired][0].data) and M.contains(even)
    # exact steps are normal to M: their measured alignment residual is ~0
    assert all(r.gamma <= 1e-9 for r in inexact.records[1:fired])


def test_trace_keeps_iterates_of_first_and_last_two_records_only(iterates):
    C, M = two_lines(math.pi / 3)
    trace = exact_alternating_projections(
        C, M, Point(np.array([1.0, 2.0])),
        InexactAPConfig(max_iterations=25, fixed_point_tolerance=1e-300))
    assert len(trace) == 26
    kept = {0, len(trace) - 2, len(trace) - 1}
    for rec in trace.records:
        if rec.k in kept:
            assert isinstance(rec.even, Point) and isinstance(rec.odd, Point)
        else:
            assert rec.even is None and rec.odd is None
    # every record still carries both iterates while it is appended
    assert all(isinstance(e, Point) and isinstance(o, Point) for e, o in iterates[trace])
    assert trace.final_even is iterates[trace][-1][0]


# ---------------------------------------------------------------------------
# Regularized driver

def test_consistent_slab_finishes_immediately():
    C, ball, _ = slab_problem(1.0, epsilon=0.6)  # x-axis lies inside the ball
    cfg = InexactAPConfig(max_iterations=50, fixed_point_tolerance=1e-10)
    trace = regularized_extrapolated_ap(C, ball, _, Point(np.array([3.0, 2.0])), cfg)
    assert trace.reason == FIXED_POINT
    assert len(trace.records) == 2
    assert trace.records[0].gap == 0.0


def test_inconsistent_slab_stalls_with_boundary_pinned_odds():
    C, ball, line = slab_problem(1.0, epsilon=0.2)
    cfg = InexactAPConfig(max_iterations=400, fixed_point_tolerance=1e-9,
                          gap_stall_window=40, lambda_schedule="surface")
    trace = regularized_extrapolated_ap(C, ball, line, Point(np.array([1.0, 0.0])), cfg)
    assert trace.reason == STALLED_GAP
    for rec in trace.records:
        assert rec.residual == pytest.approx(ball.epsilon, abs=1e-9)
        assert 0.0 < rec.lam <= 1.0
    # final gap: from the axis to the slab boundary at height 1 - sqrt(2 eps)
    assert trace.records[-1].gap == pytest.approx(1.0 - math.sqrt(0.4), abs=1e-6)


def test_custom_schedule_replays_sequence():
    C, ball, line = slab_problem(1.0, epsilon=0.2)
    cfg = InexactAPConfig(max_iterations=5, fixed_point_tolerance=1e-12,
                          lambda_schedule="custom", lambda_sequence=[0.3, 0.5],
                          measure_gamma=False)
    trace = regularized_extrapolated_ap(C, ball, line, Point(np.array([1.0, 0.0])), cfg)
    lams = [r.lam for r in trace.records]
    assert lams[0] == pytest.approx(0.3)
    assert all(v == pytest.approx(0.5) for v in lams[1:])


def test_constant_one_schedule_jumps_to_anchor(iterates):
    C, ball, line = slab_problem(1.0, epsilon=0.02)
    cfg = InexactAPConfig(max_iterations=3, fixed_point_tolerance=1e-12,
                          lambda_schedule="constant_one", measure_gamma=False)
    trace = regularized_extrapolated_ap(C, ball, line, Point(np.array([1.0, 0.0])), cfg)
    assert len(iterates[trace]) == len(trace)
    for rec, (_, odd) in zip(trace.records, iterates[trace]):
        assert np.allclose(odd.data[1], 1.0)  # anchor line x2 = 1
        assert rec.lam == pytest.approx(1.0)


def test_surface_schedule_alignment_is_small_for_euclid_slab():
    # For the slab the segment is vertical and so is the residual gradient:
    # the surface step is perfectly aligned with the normal cone.
    C, ball, line = slab_problem(1.0, epsilon=0.2)
    cfg = InexactAPConfig(max_iterations=60, fixed_point_tolerance=1e-9,
                          gap_stall_window=30)
    trace = regularized_extrapolated_ap(C, ball, line, Point(np.array([1.0, 0.0])), cfg)
    gammas = [r.gamma for r in trace.records if not math.isnan(r.gamma)]
    assert gammas and max(gammas) < 1e-9


def test_custom_schedule_of_ones_matches_constant_one(iterates):
    C, ball, line = slab_problem(1.0, epsilon=0.2)
    x0 = Point(np.array([1.0, 0.0]))
    runs = [regularized_extrapolated_ap(
        C, ball, line, x0, InexactAPConfig(max_iterations=60, gap_stall_window=20, **kw))
        for kw in ({"lambda_schedule": "constant_one"},
                   {"lambda_schedule": "custom", "lambda_sequence": [1.0]})]
    assert len(runs[0]) > 5
    assert_same_records(*runs, iterates)


def test_failed_fixed_point_verification_raises():
    # The consistent slab reaches fixed_point at once; a C that refuses every
    # membership query must then fail the final verification.
    C, ball, line = slab_problem(1.0, epsilon=0.6)
    C.contains = lambda x, tol=None: False
    cfg = InexactAPConfig(max_iterations=50, fixed_point_tolerance=1e-10)
    with pytest.raises(FixedPointError, match="fixed point verification failed") as info:
        regularized_extrapolated_ap(C, ball, line, Point(np.array([3.0, 2.0])), cfg)
    assert isinstance(info.value, SolverError)
