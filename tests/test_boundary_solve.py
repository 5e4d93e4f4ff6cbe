"""The boundary solve on Euclidean and KL balls, against the generic segment search.

Along a segment, the excess of a Euclidean ball on a quadratic map is a
quartic in ``t``.  ``bregman_line_boundary`` takes it at the scan's 64 cell
ends at once, from the coefficients, and ``first_crossing`` refines the
first cell that ends in a member with Newton steps on the exact slope.  A
KL excess probes the cell ends itself, from ``1/64`` upward, and carries
its slope.  ``SetOracle.segment_entry``, the 64-cell scan on the residual
of each built point, is the reference.  These tests import no scipy, so
the numpy-only CI job runs them too.
"""

import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import smooth_instance
from regap import algorithms, cli, divergences, projectors
from regap.algorithms import InexactAPConfig
from regap.core import MEMBERSHIP_TOL, SCAN_GRID, Point, SetOracle, first_crossing, lerp
from regap.divergences import (EuclideanKernel, FourierIntensityMap, KullbackLeiblerKernel,
                               RegularizedSet, SquareMap, _quartic_search,
                               bregman_line_boundary)
from regap.phase import reconstruct
from regap.projectors import AffineSet, FourierMagnitudeSet


def _ball(x: Point, x0: Point, data, frac: float) -> RegularizedSet:
    """SquareMap-Euclidean ball whose radius is ``frac`` of the way from r(x0) to r(x)."""
    n = x.dim
    probe = RegularizedSet(SquareMap(n), data, EuclideanKernel(), 0.0)
    r_x, r_0 = probe.residual(x), probe.residual(x0)
    return RegularizedSet(SquareMap(n), data, EuclideanKernel(), r_0 + frac * (r_x - r_0))


def _no_member_before(ball, x, x0, tau, samples=256):
    """No sampled point of the segment below ``tau - 1e-9`` is a member."""
    return not any(ball.contains(lerp(x, x0, t))
                   for t in np.linspace(0.0, tau - 1e-9, samples)[1:] if t > 0.0)


@settings(max_examples=100)
@given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95),
       st.floats(-3.0, 3.0), st.booleans())
@example(1, 0, 0.5, 0.0, True)
@example(64, 1, 0.5, 3.0, True)
@example(64, 2, 0.5, -3.0, False)
@example(1, 17591, 0.0625, 0.05078125, True)
def test_quartic_solve_matches_segment_entry(n, seed, frac, k, flip):
    # x scaled by 10^k, the anchor on |x_j| = sqrt(b_j).  Anchors with the
    # signs of x make each x_j² monotone along the segment, so the members
    # form one interval ending at 1 and none lies before tau.  Random signs
    # make the segment cross zero, where the members can form several
    # intervals; the quartic is entered on segment_entry's cells, and both
    # step over a member interval that holds no cell end (the last example
    # has one inside (1/64, 2/64]).
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 2.0, n)
    data[rng.random(n) < 0.2] = 0.0
    x = Point(10.0 ** k * 3.0 * rng.standard_normal(n))
    signs = rng.choice([-1.0, 1.0], n) if flip else np.where(x.data < 0, -1.0, 1.0)
    x0 = Point(np.sqrt(data) * signs)
    ball = _ball(x, x0, data, frac)
    assume(not ball.contains(x) and ball.contains(x0))

    tau, point = bregman_line_boundary(ball, x, x0)
    s, _ = SetOracle.segment_entry(ball, x, x0)
    assert ball.contains(point)
    assert abs(tau - s) <= 1e-10
    assert flip or _no_member_before(ball, x, x0, tau)


@settings(max_examples=300)
@given(st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5))
@example([1.0, 0.0, 0.0, -1.0, 4e-160])
def test_cell_pass_brackets_the_first_member_cell_end(coef):
    # The cell pass takes the quartic at every cell end in one product, which
    # can round to the other side of zero than the scalar Horner value, but
    # only where that value is within rounding of zero.  In the example the
    # product reads 4e-160 at t = 1, a non-member, and Horner reads 0.
    c = tuple(coef)
    excess = lambda t: c[0] + t * (c[1] + t * (c[2] + t * (c[3] + t * c[4])))  # noqa: E731
    assume(excess(1.0) <= 0.0)

    def near_zero(t):
        bound = 8 * np.finfo(float).eps * sum(abs(ci) * t ** i for i, ci in enumerate(c))
        return abs(excess(t)) <= bound
    search = _quartic_search(c)
    a, b = search.get("bracket", (1.0, math.inf))
    assert search == {} or a == SCAN_GRID[SCAN_GRID.index(b) - 1]
    assert all(excess(t) > 0.0 or near_zero(t) for t in SCAN_GRID[1:] if t < b)
    first = next(t for t in SCAN_GRID[1:] if excess(t) <= 0.0)
    tau = first_crossing(excess)
    if b == first:
        assert abs(first_crossing(excess, **search) - tau) <= 1e-10
    elif b < first:  # first_crossing refuses the member end, and the caller falls back
        assert near_zero(b)
        with pytest.raises(ValueError):
            first_crossing(excess, **search)


def _two_interval_ball(n, scale, spread, where, seed):
    """A ball the segment enters twice, first where ``x_where`` passes ``-scale``.

    The coordinate ``where`` runs from ``-2 scale`` to ``scale`` with data
    ``scale²``; the other coordinates sit on their anchor, so they add
    nothing.  The members along it are ``|x² − scale²| <= spread·scale²``:
    one interval around ``t = 1/3`` and one ending at ``t = 1``.  Returns
    the ball, the segment's ends, and the entries of the two intervals.
    """
    rng = np.random.default_rng(seed)
    anchor = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n) * scale
    anchor[where] = scale
    start = anchor.copy()
    start[where] = -2.0 * scale
    data = anchor ** 2
    half_width = spread * scale ** 2
    ball = RegularizedSet(SquareMap(n), data, EuclideanKernel(),
                          0.5 * half_width ** 2 - MEMBERSHIP_TOL)
    reach = math.sqrt(2.0 * (ball.epsilon + MEMBERSHIP_TOL))  # the member band of r
    first = (2.0 * scale - math.sqrt(scale ** 2 + reach)) / (3.0 * scale)
    second = (2.0 * scale + math.sqrt(scale ** 2 - reach)) / (3.0 * scale)
    return ball, Point(start), Point(anchor), first, second


@settings(max_examples=60)
@given(st.integers(1, 64), st.floats(-1.0, 3.0), st.floats(0.05, 0.3), st.data())
def test_two_interval_ball_is_entered_on_its_first_interval(n, k, spread, data):
    # Each interval holds a scan point (the first spans t = 21/64), so the
    # scan of segment_entry finds the first interval too.
    where, seed = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2 ** 32 - 1))
    ball, x, x0, first, second = _two_interval_ball(n, 10.0 ** k, spread, where, seed)
    assert first < 21 / 64 < 1 / 3 < second
    tau, point = bregman_line_boundary(ball, x, x0)
    assert ball.contains(point)
    assert abs(tau - first) <= 1e-10
    assert abs(SetOracle.segment_entry(ball, x, x0)[0] - first) <= 1e-10


@settings(max_examples=60)
@given(st.integers(1, 64), st.floats(-0.5, 3.0), st.floats(0.0, 1.0), st.data())
def test_member_interval_narrower_than_a_cell_is_stepped_over(n, k, where_in_range, data):
    # The first member interval lies strictly inside the cell (21/64, 22/64]
    # and holds no scan point, so the 64-cell scan of segment_entry steps
    # over it and answers the second interval's entry.  The quartic's cell
    # ends step over the interval too, so its solve answers the second
    # entry, up to the rounding of the quartic's crossing, or refuses its
    # member end where that rounding puts it outside.
    # bregman_line_boundary returns the quartic's point when contains
    # accepts it, and otherwise segment_entry's.  The 1e-9
    # tolerance alone makes the band of r about 4.5e-5 wide, so at scales
    # below 10^-0.5 no interval this narrow exists.
    scale = 10.0 ** k
    low = 4.0 * math.sqrt(2.0 * MEMBERSHIP_TOL) / scale ** 2
    spread = low + where_in_range * (0.01 - low)
    where, seed = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2 ** 32 - 1))
    ball, x, x0, first, second = _two_interval_ball(n, scale, spread, where, seed)
    assert 21 / 64 < first < 1 / 3 < 22 / 64 < second
    assert abs(SetOracle.segment_entry(ball, x, x0)[0] - second) <= 1e-10
    excess = ball.divergence.segment_excess(ball.forward.segment_polynomial(x, x0),
                                            ball.epsilon + MEMBERSHIP_TOL)
    c = excess.coefficients
    try:
        quartic_tau = first_crossing(excess, **_quartic_search(c))
    except ValueError:  # rounding put the member end the scan starts from outside
        quartic_tau = math.nan

    def rounding(t):  # of the quartic's Horner value at t
        return 8 * np.finfo(float).eps * sum(abs(ci) * t ** i for i, ci in enumerate(c))

    slope = sum(i * ci * second ** (i - 1) for i, ci in enumerate(c) if i)
    assert math.isnan(quartic_tau) or \
        abs(quartic_tau - second) <= 1e-10 + rounding(second) / abs(slope)

    tau, point = bregman_line_boundary(ball, x, x0)
    assert ball.contains(point)
    assert tau == quartic_tau or abs(tau - second) <= 1e-10


# ---------------------------------------------------------------------------
# Evaluations per solve on the box-affine sweep

# The instance seeds the benchmark's box_affine_sweep draws at workload seeds 0, 1
# and 7.  Seed 1's solves include quartics that are not convex on [0, 1].
_BOX_SWEEPS = {0: (885440, 403958, 794772, 933488, 441001, 42450, 271493, 536110),
               1: (140891, 596853, 888598, 841235, 800875, 66172, 267459, 123646),
               7: (339563, 993908, 158176, 414002, 682554, 50631, 75954, 861168)}


def _run_box_sweep(seeds, tmp_path) -> None:
    cfg = tmp_path / "box.cfg"
    cfg.write_text("problem = box_affine\nalgorithm = regularized_extrapolated\n"
                   "lambda_schedule = surface\nn = 40\nm = 20\nepsilon_kappa = 1\njobs = 1\n"
                   f"seed = {', '.join(map(str, seeds))}\nout = {tmp_path / 'out'}\n")
    assert cli.main(["run", "--config", str(cfg)]) == 0


def _counting_quartics(monkeypatch) -> list[int]:
    """Count the scalar quartic evaluations of each Euclidean boundary solve.

    Every excess a prepared Euclidean divergence makes is wrapped, keeping
    its coefficients, so ``first_crossing``'s calls are counted and the
    cell pass on the coefficients is not.  The returned list gains one
    entry per solve.
    """
    evals = []
    against = EuclideanKernel.against

    def counted_against(self, y):
        prepared = against(self, y)
        segment_excess = prepared.segment_excess

        def counted_segment_excess(p, bound):
            excess = segment_excess(p, bound)
            evals.append(0)

            def counted(t):
                evals[-1] += 1
                return excess(t)
            counted.coefficients = excess.coefficients
            return counted
        prepared.segment_excess = counted_segment_excess
        return prepared
    monkeypatch.setattr(EuclideanKernel, "against", counted_against)
    return evals


@pytest.mark.parametrize("bench_seed", sorted(_BOX_SWEEPS))
def test_box_sweep_solves_take_at_most_ten_evaluations(bench_seed, monkeypatch, tmp_path):
    # tau lies between 0.92 and 0.97 on these sweeps, so a forward scan walks
    # about 61 of its 64 cells before it refines.
    evals = _counting_quartics(monkeypatch)
    seeds = _BOX_SWEEPS[bench_seed]
    _run_box_sweep(seeds, tmp_path)
    cycles = sum(len((tmp_path / "out" / f"seed{s}" / "trace.csv").read_text().splitlines()) - 1
                 for s in seeds)
    assert len(evals) == cycles > 400
    assert max(evals) <= 10


def test_box_sweep_solves_agree_with_the_plain_scan(monkeypatch, tmp_path):
    # Every Euclidean solve's tau agrees with first_crossing's scan of the
    # same excess, without the bracket and slope.
    solves = []

    def recorded(excess, **search):
        tau = first_crossing(excess, **search)
        solves.append((excess, tau))
        return tau
    monkeypatch.setattr(divergences, "first_crossing", recorded)
    _run_box_sweep(_BOX_SWEEPS[1], tmp_path)
    assert len(solves) > 400
    for excess, tau in solves:
        assert abs(tau - first_crossing(excess)) <= 1e-12


# ---------------------------------------------------------------------------
# first_crossing's keyword arguments

def _probed(excess):
    probes = []

    def counted(t):
        probes.append((t, excess(t)))
        return probes[-1][1]
    return counted, probes


@settings(max_examples=200)
@given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=5), st.floats(0.0, 1.0))
def test_newton_steps_return_a_member_with_a_non_member_within_tol(coef, level):
    poly = np.polynomial.Polynomial(coef)
    start, end = float(poly(0.0)), float(poly(1.0))
    sign = 1.0 if start > end else -1.0
    mark = end + level * (start - end)
    excess = lambda t: sign * (float(poly(t)) - mark)  # noqa: E731
    slope = lambda t: sign * float(poly.deriv()(t))  # noqa: E731
    assume(excess(1.0) <= 0.0)
    counted, probes = _probed(excess)
    got = first_crossing(counted, bracket=(0.0, 1.0), slope=slope)
    assert excess(got) <= 0.0
    assert got <= 1e-12 or any(v > 0.0 and got - 1e-12 <= t < got for t, v in probes)


def test_newton_steps_bound_the_evaluations_on_a_quartic_not_convex_on_the_segment():
    # One boundary solve of the box sweep at workload seed 1: q'' < 0 near 0.
    # Its monotone piece is all of [0, 1], a bracket in which Newton steps
    # took 11 evaluations; the cell that holds the crossing takes fewer.
    c0, c1, c2, c3, c4 = c = (11.47991803504638, -14.160791210329814, -3.26303669256849,
                              2.9267474753963607, 2.976655542319429)
    counted, probes = _probed(lambda t: c0 + t * (c1 + t * (c2 + t * (c3 + t * c4))))
    assert abs(first_crossing(counted, **_quartic_search(c)) - 0.9578099157269) <= 1e-12
    assert len(probes) <= 10


def test_bracket_end_must_be_a_member():
    with pytest.raises(ValueError):
        first_crossing(lambda t: 0.5 - t, bracket=(0.0, 0.25))
    assert first_crossing(lambda t: 0.5 - t, bracket=(0.25, 0.75)) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# The KL solve on Fourier balls

def _fourier_kl_ball(side, seed, kappa, zeros, fresh_anchor):
    """A KL ball on a ``side``² Fourier map, a start outside it, and an anchor on its data set.

    The data are the intensities of a random object, a fraction ``zeros`` of
    them set to 0; the start is the object plus noise, and the anchor its
    magnitude projection.  ``epsilon`` is ``kappa`` times the start's
    residual.  The anchor is built by ``from_spectrum`` on the ball's map,
    which remembers its spectrum, or with ``fresh_anchor`` from its own
    inverse FFT, so that the ball takes its spectrum with a forward FFT.
    """
    rng = np.random.default_rng(seed)
    shape = (side, side)
    obj = rng.uniform(0.0, 1.0, shape)
    data = np.abs(np.fft.fftn(obj, norm="ortho")).ravel() ** 2
    data[rng.random(data.size) < zeros] = 0.0
    x = Point.from_complex((obj + rng.normal(0.0, 0.5, shape)).ravel().astype(np.complex128))
    fmap = FourierIntensityMap(shape)
    x0 = FourierMagnitudeSet(data, fmap).project(x)[0]
    if fresh_anchor:
        x0 = Point.from_complex(np.fft.ifftn(fmap.spectrum(x0), norm="ortho"))
    epsilon = kappa * RegularizedSet(fmap, data, KullbackLeiblerKernel(), 0.0).residual(x)
    return RegularizedSet(fmap, data, KullbackLeiblerKernel(), epsilon), x, x0


def _cell(t: float) -> int:
    """The scan cell ``((k - 1)/64, k/64]`` that holds ``t``, by its ``k``."""
    return math.ceil(64 * t)


@settings(max_examples=80)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.floats(-3.0, 0.0), st.floats(-0.01, 0.0)), st.floats(0.0, 0.5),
       st.booleans())
@example(2, 0, 0.0, 0.5, True)
@example(16, 1, -3.0, 0.0, False)
@example(16, 2, -0.001, 0.2, False)
def test_kl_solve_enters_the_cell_segment_entry_enters(side, seed, log_kappa, zeros, fresh):
    # kappa from 1e-3 to 1: above about 0.98 the start lies just outside and
    # the segment is entered in its first cell, near 1e-3 close to the anchor.
    ball, x, x0 = _fourier_kl_ball(side, seed, 10.0 ** log_kappa, zeros, fresh)
    assume(not ball.contains(x) and ball.contains(x0))
    tau, point = bregman_line_boundary(ball, x, x0)
    s, _ = SetOracle.segment_entry(ball, x, x0)
    assert ball.contains(point)
    assert abs(tau - s) <= 1e-10
    # the two excesses round apart, so only a crossing at a cell end may
    # fall on the other side of it
    assert _cell(tau) == _cell(s) or abs(64 * s - round(64 * s)) <= 64e-10


@settings(max_examples=100)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1), st.floats(0.01, 0.99),
       st.floats(-2.0, 2.0))
def test_kl_slope_is_the_derivative_of_the_excess(side, seed, t, log_scale):
    # A central difference with step h differs from the derivative by at
    # most h²/6 max|f'''| on [t - h, t + h], plus the rounding of its two
    # probes over 2h.  With z = p0 + p1 t + p2 t², each entry of the excess
    # adds 3 z' z''/z - z'³/z² to f''', bounded on the window through the
    # smallest z there, which is kept away from the clamp at 0.
    rng = np.random.default_rng(seed)
    shape, n = (side, side), side * side
    grid = lambda: Point.from_complex(  # noqa: E731
        10.0 ** log_scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    fmap, x, x0 = FourierIntensityMap(shape), grid(), grid()
    y = fmap.value(grid())
    y[rng.random(n) < 0.2] = 0.0
    p0, p1, p2 = p = fmap.segment_polynomial(x, x0)
    excess = KullbackLeiblerKernel().against(y).segment_excess(p, 1.0)
    h = 1e-5

    def z_at(s):
        return p0 + s * (p1 + s * p2)
    lo, hi = t - h, t + h
    vertex = np.clip(-p1 / np.where(p2 > 0, 2.0 * p2, np.inf), lo, hi)
    z_min = np.minimum(np.minimum(z_at(lo), z_at(hi)), z_at(vertex))
    assume(z_min.min() > 1e-6 * z_at(t).max())
    d1 = np.maximum(np.abs(p1 + 2.0 * lo * p2), np.abs(p1 + 2.0 * hi * p2))
    third = float(np.sum(3.0 * d1 * 2.0 * p2 / z_min + d1 ** 3 / z_min ** 2))
    # rounding: 8 n ulps of the magnitude of every term a probe sums
    log_y = np.log(np.maximum(y, divergences.CLIP_FLOOR))
    size = np.abs(p0) + hi * np.abs(p1) + hi * hi * np.abs(p2)
    scale = float(np.sum(size * (np.abs(np.log(z_min)) + np.abs(log_y) + 2.0)) + y.sum() + 1.0)
    rounding = 8 * n * np.finfo(float).eps * scale
    central = (excess(t + h) - excess(t - h)) / (2.0 * h)
    assert abs(excess.slope(t) - central) <= h * h / 6.0 * third + rounding / h


def test_kl_excess_is_freed_without_the_garbage_collector():
    # The excess's cell and slope share its buffers but not the excess
    # itself, so no reference cycle keeps it alive until a collection.
    ball, x, x0 = _fourier_kl_ball(8, 3, 0.5, 0.2, False)
    excess = ball.divergence.segment_excess(ball.forward.segment_polynomial(x, x0),
                                            ball.epsilon + MEMBERSHIP_TOL)
    a, b = excess.cell()
    excess.slope(a)
    assert excess(b) <= 0.0
    ref = weakref.ref(excess)
    gc.disable()
    try:
        del excess
        assert ref() is None
    finally:
        gc.enable()


def _counting_kl_probes(monkeypatch) -> list[list]:
    """``[tau, probes]`` of each boundary solve of the surface driver.

    A KL probe takes one logarithm of a whole array.  The logarithms of
    the prepared divergence, taken in ``residual`` for the solve's
    ``contains`` checks, are not counted.  Asking again at the ``t`` last
    probed takes no logarithm, so it counts nothing either.
    """
    solves, state = [], {"solving": False, "residuals": 0}

    class CountingNumpy:  # the module's numpy, with log counted
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def log(*args, **kwargs):
            if state["solving"] and not state["residuals"]:
                solves[-1][1] += 1
            return np.log(*args, **kwargs)

    residual = RegularizedSet.residual

    def counted_residual(self, x):
        state["residuals"] += 1
        try:
            return residual(self, x)
        finally:
            state["residuals"] -= 1

    def counted_solve(m, x, x0):
        solves.append([math.nan, 0])
        state["solving"] = True
        try:
            tau, point = bregman_line_boundary(m, x, x0)
        finally:
            state["solving"] = False
        solves[-1][0] = tau
        return tau, point
    monkeypatch.setattr(divergences, "np", CountingNumpy())
    monkeypatch.setattr(RegularizedSet, "residual", counted_residual)
    monkeypatch.setattr(algorithms, "bregman_line_boundary", counted_solve)
    return solves


def test_kl_solves_in_the_first_cell_take_at_most_six_probes(monkeypatch):
    # A solve that crosses in the first cell probes t = 1/64 (a member),
    # t = 0, and then takes Newton steps and a closing probe.  Probing the
    # anchor end t = 1 first and refining by secant steps took 6 to 8.
    instance = smooth_instance(0, shape=(16, 16))
    solves = _counting_kl_probes(monkeypatch)
    cfg = InexactAPConfig(max_iterations=60, measure_gamma=False)
    reconstruct(instance, instance.kl_noise_level(), cfg, seed=0)
    first = [probes for tau, probes in solves if _cell(tau) == 1]
    assert len(first) > 20
    assert max(first) <= 6


# ---------------------------------------------------------------------------
# One retry before the generic search

class _Offset:
    """A ball's prepared divergence whose segment excess reads ``delta`` below the residual.

    Its excess aims ``delta`` past the ball's bound, as one does whose
    rounding puts it below a fresh residual, so the entry it finds can lie
    outside the band by up to ``delta``.
    """

    def __init__(self, divergence, delta):
        self.divergence, self.delta, self.gradient = divergence, delta, divergence.gradient

    def __call__(self, z):
        return self.divergence(z)

    def segment_excess(self, p, bound):
        return self.divergence.segment_excess(p, bound + self.delta)


class _OffsetAffine(AffineSet):
    """An affine set whose closed-form residual along a segment reads ``delta`` low."""

    delta = 0.0

    def _residual_along(self, x, y):
        residual = super()._residual_along(x, y)
        return lambda s: residual(s) - self.delta


# Each case crosses the band with a slope of order 1 in t, so the fast
# entry lies within 1e-11 of the crossing and an offset of 2e-10 moves the
# fresh residual there out of the band.

def _quartic_case(delta):
    rng = np.random.default_rng(3)
    data = 0.01 * rng.uniform(0.5, 2.0, 8)
    x = Point(0.3 * rng.standard_normal(8))
    x0 = Point(np.sqrt(data) * np.where(x.data < 0, -1.0, 1.0))
    ball = _ball(x, x0, data, 0.5)
    return ball, x, x0, lambda: setattr(ball, "divergence", _Offset(ball.divergence, delta)), \
        bregman_line_boundary


def _kl_case(delta):
    rng = np.random.default_rng(1)
    obj = 0.3 * rng.uniform(0.0, 1.0, (8, 8))
    data = np.abs(np.fft.fftn(obj, norm="ortho")).ravel() ** 2
    x = Point.from_complex((obj + rng.normal(0.0, 0.15, obj.shape)).ravel().astype(complex))
    fmap = FourierIntensityMap(obj.shape)
    x0 = FourierMagnitudeSet(data, fmap).project(x)[0]
    epsilon = 0.5 * RegularizedSet(fmap, data, KullbackLeiblerKernel(), 0.0).residual(x)
    ball = RegularizedSet(fmap, data, KullbackLeiblerKernel(), epsilon)
    return ball, x, x0, lambda: setattr(ball, "divergence", _Offset(ball.divergence, delta)), \
        bregman_line_boundary


def _affine_case(delta):
    rng = np.random.default_rng(4)
    s = _OffsetAffine(rng.standard_normal((2, 5)), rng.standard_normal(2))
    x = Point(rng.standard_normal(5))
    return s, x, s.project(x)[0], lambda: setattr(s, "delta", delta), AffineSet.segment_entry


@pytest.mark.parametrize("case", [_quartic_case, _kl_case, _affine_case])
@pytest.mark.parametrize("delta, solves, searches", [(2e-10, 2, 0), (6e-10, 1, 1)])
def test_a_refused_entry_is_mended_by_one_retry(case, delta, solves, searches, monkeypatch):
    # The offset excess reads delta below the fresh residual, so the
    # re-check refuses its entry by a gap of about delta.  A gap below
    # MEMBERSHIP_TOL / 2 is rounding: the fast search runs once more, aimed
    # half the tolerance inside, and the fresh excess refined between the
    # two entries gives segment_entry's answer without its search.  A
    # larger gap is no rounding, and segment_entry answers.
    m, x, x0, offset, solve = case(delta)
    assert not m.contains(x) and m.contains(x0)
    s, _ = SetOracle.segment_entry(m, x, x0)
    offset()
    calls = []

    def counted_crossing(excess, **search):
        calls.append(search)
        return first_crossing(excess, **search)
    for module in (divergences, projectors):
        monkeypatch.setattr(module, "first_crossing", counted_crossing)
    with mock.patch.object(SetOracle, "segment_entry", autospec=True,
                           side_effect=SetOracle.segment_entry) as search:
        tau, point = solve(m, x, x0)
    assert (len(calls), search.call_count) == (solves, searches)
    assert m.contains(point)
    assert point.data.tobytes() == lerp(x, x0, tau).data.tobytes()
    assert abs(tau - s) <= 1e-12
