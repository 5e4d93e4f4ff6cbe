"""Divergence kernels, forward maps, fattened sets, and boundary search."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import xlogy

from regap.algorithms import InexactAPConfig, regularized_extrapolated_ap
from regap.core import COMPLEX, MEMBERSHIP_TOL, Point, first_crossing, lerp
from regap.divergences import (CLIP_FLOOR, EuclideanKernel, FourierIntensityMap, ForwardMap,
                               IdentityMap, KernelDomainError, KullbackLeiblerKernel,
                               LinearMap, RegularizedSet, SquareMap,
                               bregman_line_boundary, kl_divergence, make_kernel,
                               residual)
from regap.phase import box_support, synthesize
from regap.projectors import AffineSet, FourierMagnitudeSet, SupportNonnegSet


# ---------------------------------------------------------------------------
# Oracles

def kl_by_integration(z, y):
    """Independent Bregman-distance oracle for the entropy kernel.

    For separable strictly convex phi, d_phi(z, y) is the componentwise
    integral of phi'(s) - phi'(y_j) from y_j to z_j; for phi = sum s log s - s
    the integrand is log(s) - log(y_j).  Evaluated numerically, so it shares
    no code path with the closed form under test.
    """
    total = 0.0
    for zj, yj in zip(z, y):
        val, err = quad(lambda s: math.log(s) - math.log(yj), yj, zj,
                        epsabs=1e-12, epsrel=1e-12,
                        points=[min(zj, yj), max(zj, yj)])
        assert err < 1e-8
        total += val
    return total


def finite_difference_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def finite_difference_hessian(f, x, h=1e-4):
    n = len(x)
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                          - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
    return hess


# ---------------------------------------------------------------------------
# Kernels

def test_euclidean_kernel_matches_half_squared_norm():
    rng = np.random.default_rng(0)
    k = EuclideanKernel()
    for _ in range(10):
        z, y = rng.standard_normal(6), rng.standard_normal(6)
        assert k.evaluate(z, y) == pytest.approx(0.5 * np.sum((z - y) ** 2), rel=1e-14)
        assert np.allclose(k.gradient_in_first_arg(z, y), z - y)
        assert np.allclose(k.hessian_in_first_arg(z, y), np.eye(6))


def test_kl_matches_integration_oracle():
    rng = np.random.default_rng(1)
    k = KullbackLeiblerKernel()
    for _ in range(10):
        z = rng.uniform(0.1, 5.0, 5)
        y = rng.uniform(0.1, 5.0, 5)
        assert k.evaluate(z, y) == pytest.approx(kl_by_integration(z, y), abs=1e-7)


def test_kl_two_log_two_minus_one():
    # Scalar spot value: d(2, 1) = 2 log 2 + 1 - 2.
    expected = kl_by_integration([2.0], [1.0])
    assert expected == pytest.approx(2 * math.log(2) - 1, abs=1e-12)
    assert kl_divergence([2.0], [1.0]) == pytest.approx(expected, abs=1e-12)
    assert KullbackLeiblerKernel().evaluate([2.0], [1.0]) == pytest.approx(expected, abs=1e-12)


def test_kl_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(2)
    k = KullbackLeiblerKernel()
    y = rng.uniform(0.5, 2.0, 4)
    z = rng.uniform(0.5, 2.0, 4)
    g = k.gradient_in_first_arg(z, y)
    fd = finite_difference_gradient(lambda v: k.evaluate(v, y), z)
    assert np.allclose(g, fd, atol=1e-6)
    hess = k.hessian_in_first_arg(z, y)
    fdh = finite_difference_hessian(lambda v: k.evaluate(v, y), z)
    assert np.allclose(hess, fdh, atol=1e-5)


def test_kl_is_nonnegative_and_zero_on_diagonal():
    rng = np.random.default_rng(3)
    k = KullbackLeiblerKernel()
    for _ in range(20):
        z = rng.uniform(0.01, 10.0, 6)
        assert k.evaluate(z, z) == pytest.approx(0.0, abs=1e-12)
        y = rng.uniform(0.01, 10.0, 6)
        assert k.evaluate(z, y) >= 0.0


def test_strict_kl_rejects_bad_domains():
    with pytest.raises(KernelDomainError):
        kl_divergence([-1.0], [1.0])
    with pytest.raises(KernelDomainError):
        kl_divergence([1.0], [0.0])
    with pytest.raises(KernelDomainError):
        kl_divergence([1.0], [-2.0])
    # First argument may contain exact zeros: 0 log 0 = 0.
    assert kl_divergence([0.0], [2.0]) == pytest.approx(2.0)


def test_guarded_kernel_counts_clipped_zeros():
    k = KullbackLeiblerKernel()
    assert k.clip_count == 0
    value = k.evaluate(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert math.isfinite(value)
    assert k.clip_count > 0
    with pytest.raises(KernelDomainError):
        k.evaluate(np.array([-0.5]), np.array([1.0]))


def kl_reference(z, y):
    """Reference guarded KL sum, with scipy's xlogy for 0*log(0) = 0.

    Returns the divergence, the sum of the absolute values of its terms (the
    scale its rounding error is relative to) and the number of clipped
    entries of ``y``.
    """
    small = y < CLIP_FLOOR
    log_y = np.log(np.where(small, CLIP_FLOOR, y))
    terms = (xlogy(z, z), z * log_y, y, z)
    value = float(np.sum(terms[0] - terms[1] + terms[2] - terms[3]))
    scale = float(sum(np.sum(np.abs(t)) for t in terms))
    return value, scale, int(np.count_nonzero(small))


_KL_ENTRY = st.one_of(st.just(0.0),
                      st.floats(5e-324, CLIP_FLOOR, exclude_max=True),
                      st.floats(CLIP_FLOOR, 1e6))


@settings(max_examples=200)
@given(st.lists(st.tuples(_KL_ENTRY, _KL_ENTRY), min_size=1, max_size=40))
def test_kl_divergence_matches_xlogy_reference(pairs):
    z, y = (np.array(v) for v in zip(*pairs))
    expected, scale, n_clipped = kl_reference(z, y)
    k = KullbackLeiblerKernel()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        prepared = k.against(y)
        for evaluate in (prepared, lambda v: k.evaluate(v, y)):
            before = k.clip_count
            assert abs(evaluate(z) - expected) <= 1e-13 * scale
            assert k.clip_count - before == n_clipped
            negative = z.copy()
            negative[len(negative) // 2] = -1e-3
            with pytest.raises(KernelDomainError):
                evaluate(negative)


def test_make_kernel_names():
    assert isinstance(make_kernel("euclidean"), EuclideanKernel)
    assert isinstance(make_kernel("kullback_leibler"), KullbackLeiblerKernel)
    with pytest.raises(ValueError):
        make_kernel("mahalanobis")


# ---------------------------------------------------------------------------
# Forward maps

def _pullback_matches_fd(fmap, x, w):
    got = fmap.pullback(x, w)
    fd = finite_difference_gradient(
        lambda v: float(np.dot(fmap.value(Point(v, x.kind)), w)), x.data.copy())
    assert np.allclose(got, fd, atol=1e-5)


def test_identity_and_linear_pullbacks():
    rng = np.random.default_rng(4)
    x = Point(rng.standard_normal(5))
    w = rng.standard_normal(5)
    _pullback_matches_fd(IdentityMap(5), x, w)
    A = rng.standard_normal((3, 5))
    _pullback_matches_fd(LinearMap(A), x, rng.standard_normal(3))
    assert np.allclose(LinearMap(A).jacobian(x), A)


def test_square_map_real_and_complex():
    rng = np.random.default_rng(5)
    x = Point(rng.standard_normal(4))
    w = rng.standard_normal(4)
    m = SquareMap(4)
    assert np.allclose(m.value(x), x.data ** 2)
    _pullback_matches_fd(m, x, w)

    z = rng.standard_normal(6)
    xc = Point(z, COMPLEX)
    mc = SquareMap(3, COMPLEX)
    expected = z[0::2] ** 2 + z[1::2] ** 2
    assert np.allclose(mc.value(xc), expected)
    _pullback_matches_fd(mc, xc, rng.standard_normal(3))


def test_fourier_intensity_map_value_and_pullback():
    rng = np.random.default_rng(6)
    shape = (4, 4)
    z = rng.standard_normal(32)
    x = Point(z, COMPLEX)
    m = FourierIntensityMap(shape)
    expected = np.abs(np.fft.fftn(x.as_complex().reshape(shape), norm="ortho")) ** 2
    assert np.allclose(m.value(x), expected.ravel())
    _pullback_matches_fd(m, x, rng.standard_normal(16))


def test_fourier_intensity_preserves_energy():
    # Unitary transform: total intensity equals the squared storage norm.
    rng = np.random.default_rng(7)
    x = Point(rng.standard_normal(32), COMPLEX)
    m = FourierIntensityMap((4, 4))
    assert np.sum(m.value(x)) == pytest.approx(x.norm() ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# Regularized sets

def _euclid_affine_ball(rng, n=5, m=2, eps=0.4):
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return RegularizedSet(LinearMap(A), b, EuclideanKernel(), eps), AffineSet(A, b)


def test_regularized_set_validation():
    with pytest.raises(ValueError):
        RegularizedSet(IdentityMap(2), np.zeros(3), EuclideanKernel(), 1.0)
    with pytest.raises(ValueError):
        RegularizedSet(IdentityMap(2), np.zeros(2), EuclideanKernel(), -1.0)
    with pytest.raises(ValueError):
        RegularizedSet(IdentityMap(2), np.array([np.nan, 0.0]), EuclideanKernel(), 1.0)


def test_residual_and_membership():
    ball = RegularizedSet(IdentityMap(2), np.zeros(2), EuclideanKernel(), 0.5)
    inside = Point(np.array([0.5, 0.5]))   # residual 0.25
    boundary = Point(np.array([1.0, 0.0]))  # residual 0.5
    outside = Point(np.array([2.0, 0.0]))   # residual 2.0
    assert residual(ball, inside) == pytest.approx(0.25)
    assert ball.contains(inside) and ball.contains(boundary)
    assert not ball.contains(outside)


def test_residual_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(8)
    cases = [
        RegularizedSet(LinearMap(rng.standard_normal((2, 4))), rng.standard_normal(2),
                       EuclideanKernel(), 0.3),
        RegularizedSet(SquareMap(4), rng.uniform(0.5, 2.0, 4), EuclideanKernel(), 0.3),
        RegularizedSet(SquareMap(4), rng.uniform(0.5, 2.0, 4),
                       KullbackLeiblerKernel(), 0.3),
    ]
    for ball in cases:
        x = Point(rng.uniform(0.8, 1.6, 4))
        g = ball.residual_gradient(x)
        fd = finite_difference_gradient(lambda v: ball.residual(Point(v)), x.data.copy())
        assert np.allclose(g.data, fd, atol=1e-5)
        hess = ball.residual_hessian(x)
        fdh = finite_difference_hessian(lambda v: ball.residual(Point(v)), x.data.copy())
        assert np.allclose(hess, fdh, atol=1e-4)


# ---------------------------------------------------------------------------
# Boundary search along a segment

def test_boundary_closed_form_matches_brentq_oracle():
    rng = np.random.default_rng(9)
    for _ in range(25):
        ball, affine = _euclid_affine_ball(rng)
        x = Point(rng.standard_normal(5) * 3)
        if ball.contains(x):
            continue
        x0 = affine.project_one(x)
        tau, point = bregman_line_boundary(ball, x, x0)
        def f(t):
            from regap.core import lerp
            return ball.residual(lerp(x, x0, t)) - ball.epsilon
        oracle = brentq(f, 0.0, 1.0, xtol=1e-13)
        assert tau == pytest.approx(oracle, abs=1e-9)
        assert ball.residual(point) == pytest.approx(ball.epsilon, abs=1e-8)


def test_boundary_bisection_path_for_kl():
    rng = np.random.default_rng(10)
    ball = RegularizedSet(IdentityMap(3), np.array([1.0, 1.0, 1.0]),
                          KullbackLeiblerKernel(), 0.05)
    for _ in range(10):
        x = Point(rng.uniform(2.0, 5.0, 3))
        assert not ball.contains(x)
        anchor = Point(np.array([1.0, 1.0, 1.0]))
        tau, point = bregman_line_boundary(ball, x, anchor)
        assert ball.contains(point)
        assert ball.residual(point) == pytest.approx(ball.epsilon, abs=1e-6)
        from regap.core import lerp
        before = lerp(x, anchor, max(tau - 1e-6, 0.0))
        assert ball.residual(before) > ball.epsilon


def test_boundary_rejects_bad_endpoints():
    ball = RegularizedSet(IdentityMap(2), np.zeros(2), EuclideanKernel(), 0.5)
    inside = Point(np.array([0.1, 0.1]))
    outside = Point(np.array([5.0, 0.0]))
    with pytest.raises(ValueError):
        bregman_line_boundary(ball, inside, Point(np.zeros(2)))  # x already member
    with pytest.raises(ValueError):
        bregman_line_boundary(ball, outside, Point(np.array([4.0, 0.0])))  # x0 outside


@settings(max_examples=40)
@given(st.floats(0.05, 0.95), st.floats(1.5, 20.0))
def test_boundary_tau_shrinks_with_epsilon(eps_frac, reach):
    # Larger balls are entered earlier along the same segment.
    ball_small = RegularizedSet(IdentityMap(1), np.zeros(1), EuclideanKernel(),
                                0.5 * (eps_frac * 0.5) ** 2)
    ball_large = RegularizedSet(IdentityMap(1), np.zeros(1), EuclideanKernel(),
                                0.5 * (eps_frac * 0.9) ** 2)
    x = Point(np.array([reach]))
    anchor = Point(np.zeros(1))
    tau_small, _ = bregman_line_boundary(ball_small, x, anchor)
    tau_large, _ = bregman_line_boundary(ball_large, x, anchor)
    assert tau_large <= tau_small + 1e-9


# ---------------------------------------------------------------------------
# Prepared divergence and residual memo

class _CountingFourierMap(FourierIntensityMap):
    """Fourier intensity map that counts its ``value`` calls."""

    def __init__(self, shape):
        super().__init__(shape)
        self.values = 0

    def value(self, x):
        self.values += 1
        return super().value(x)


def test_residual_memo_answers_only_the_identical_point():
    rng = np.random.default_rng(5)
    shape = (4, 4)
    data = rng.uniform(0.0, 2.0, 16)
    m = RegularizedSet(_CountingFourierMap(shape), data, KullbackLeiblerKernel(), 1.0)
    p = Point.from_complex(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    first = m.residual(p)
    assert m.residual(p) == first
    assert m.contains(p) == (first <= m.epsilon + MEMBERSHIP_TOL)
    assert m.forward.values == 1
    twin = Point(p.data, p.kind)
    assert m.residual(twin) == first
    assert m.forward.values == 2
    assert m.divergence is m.divergence
    assert first == m.kernel.evaluate(m.forward.value(p), data)


def test_surface_cycle_transform_count(monkeypatch):
    shape = (8, 8)
    instance = synthesize(shape, box_support(shape, 2), 1e3, seed=3)
    observed = instance.observed.ravel()
    m = RegularizedSet(_CountingFourierMap(shape), observed, KullbackLeiblerKernel(),
                       instance.kl_noise_level())
    setC = SupportNonnegSet(instance.forced_zero, observed.size, kind=COMPLEX)
    unreg = FourierMagnitudeSet(observed, shape)
    start = np.zeros(shape)
    start[instance.support] = np.random.default_rng(0).uniform(0.0, 1.0, 16)
    x0 = Point.from_complex(start.ravel().astype(np.complex128))

    ffts = [0]
    for name in ("fftn", "ifftn"):
        def counted(*args, _fft=getattr(np.fft, name), **kwargs):
            ffts[0] += 1
            return _fft(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)

    def run(cycles):
        ffts[0] = m.forward.values = 0
        trace = regularized_extrapolated_ap(
            setC, m, unreg, x0, InexactAPConfig(max_iterations=cycles, measure_gamma=False))
        assert trace.reason == "max_iter"
        assert all(0.0 < r.lam < 1.0 for r in trace.records)  # every odd step hits the boundary
        return ffts[0], m.forward.values

    (f2, v2), (f3, v3) = run(2), run(3)
    # One surface cycle, by hand:
    #   the support projection onto C                    0
    #   residual(even), the interior test                1 (value)
    #   the anchor projection onto |F x|^2 = b           2 (fftn + ifftn)
    #   boundary solve: residual(even) again             0 (memo)
    #   boundary solve: residual(anchor)                 1 (value)
    #   boundary solve: segment(even, anchor)            2 (two fftn)
    #   boundary solve: contains(boundary point)         1 (value)
    #   residual(odd) for the trace                      0 (memo)
    assert f3 - f2 == 7
    assert v3 - v2 == 3


# ---------------------------------------------------------------------------
# Boundary fast path against the generic scan + bisection

def _reference_boundary(m, x, x0):
    """The generic predicate: build each segment point and evaluate the residual."""
    return first_crossing(lambda t: m.residual(lerp(x, x0, t)) <= m.epsilon + MEMBERSHIP_TOL)


def _check_fast_boundary(m, x, x0, exact_segment):
    tau, point = bregman_line_boundary(m, x, x0)
    assert abs(tau - _reference_boundary(m, x, x0)) <= 1e-10
    assert m.contains(point)

    along = m.forward.segment(x, x0)
    clips = lambda: getattr(m.kernel, "clip_count", 0)  # noqa: E731
    for t in (0.0, tau, 0.5 * tau, 0.37, 1.0):
        got, ref = along(t), m.forward.value(lerp(x, x0, t))
        if exact_segment:
            assert np.array_equal(got, ref)
        else:
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

        # the prepared divergence is bit-identical and clips as often
        start = clips()
        prepared = m.kernel.against(m.data)(ref)
        mid = clips()
        assert prepared == m.kernel.evaluate(ref, m.data)
        assert clips() - mid == mid - start


def _outside_ball(forward, data, kernel, x, x0, frac):
    """Ball whose radius is a fraction of the way from r(x0) to r(x)."""
    probe = RegularizedSet(forward, data, kernel, 0.0)
    r_x, r_0 = probe.residual(x), probe.residual(x0)
    return RegularizedSet(forward, data, kernel, r_0 + frac * (r_x - r_0))


@settings(max_examples=60)
@given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 2 ** 32 - 1),
       st.floats(0.05, 0.95))
def test_fourier_kl_boundary_matches_generic_path(n1, n2, seed, frac):
    rng = np.random.default_rng(seed)
    shape = (n1, n2)
    obj = rng.uniform(0.0, 1.0, shape)
    data = np.abs(np.fft.fftn(obj, norm="ortho")).ravel() ** 2
    data[rng.random(data.size) < 0.3] = 0.0  # zeros in the data: KL clips them
    data[rng.integers(data.size)] = 0.0
    x = Point.from_complex((obj + rng.normal(0.0, 0.5, shape)).ravel().astype(np.complex128))
    x0 = FourierMagnitudeSet(data, shape).project_one(x)
    ball = _outside_ball(FourierIntensityMap(shape), data, KullbackLeiblerKernel(), x, x0, frac)
    assume(not ball.contains(x))
    _check_fast_boundary(ball, x, x0, exact_segment=False)
    assert ball.kernel.clip_count > 0


@settings(max_examples=60)
@given(st.integers(1, 12), st.sampled_from(["real", COMPLEX]), st.integers(0, 2 ** 32 - 1),
       st.floats(0.05, 0.95))
def test_square_euclidean_boundary_matches_generic_path(n, kind, seed, frac):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 2.0, n)
    data[rng.random(n) < 0.2] = 0.0
    if kind == COMPLEX:
        x = Point.from_complex(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        c = x.as_complex()
        phase = np.where(c == 0, 1.0, c / np.where(c == 0, 1.0, np.abs(c)))
        x0 = Point.from_complex(np.sqrt(data) * phase)
    else:
        x = Point(3.0 * rng.standard_normal(n))
        x0 = Point(np.sqrt(data) * np.where(x.data < 0, -1.0, 1.0))
    ball = _outside_ball(SquareMap(n, kind), data, EuclideanKernel(), x, x0, frac)
    assume(not ball.contains(x))
    _check_fast_boundary(ball, x, x0, exact_segment=True)


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.floats(0.05, 0.95))
def test_linear_kl_boundary_uses_generic_segment(rows, cols, seed, frac):
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.1, 1.0, (rows, cols))
    x0 = Point(rng.uniform(0.5, 1.5, cols))
    x = Point(x0.data + rng.uniform(0.5, 5.0, cols))
    forward = LinearMap(A)
    assert type(forward).segment is ForwardMap.segment
    ball = _outside_ball(forward, A @ x0.data, KullbackLeiblerKernel(), x, x0, frac)
    assume(not ball.contains(x))
    _check_fast_boundary(ball, x, x0, exact_segment=True)


class _SkewedSegment(IdentityMap):
    """Identity map whose prepared segment is off by ``shift`` in ``t``."""

    def __init__(self, n, shift):
        super().__init__(n)
        self.shift = shift

    def segment(self, x, a):
        return lambda t: self.value(lerp(x, a, min(max(t + self.shift, 0.0), 1.0)))


@pytest.mark.parametrize("shift", [0.3, -0.5])
def test_boundary_falls_back_when_the_segment_disagrees(shift):
    # +0.3 enters the ball too early (the re-check catches it); -0.5 misses
    # the anchor at t = 1 (the scan refuses).  Both end on the generic answer.
    ball = RegularizedSet(_SkewedSegment(3, shift), np.ones(3), KullbackLeiblerKernel(), 0.05)
    x, anchor = Point(np.array([2.0, 3.0, 5.0])), Point(np.ones(3))
    tau, point = bregman_line_boundary(ball, x, anchor)
    assert tau == _reference_boundary(ball, x, anchor)
    assert ball.contains(point)
