"""Divergence kernels, forward maps, fattened sets, and boundary search."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import xlogy

from regap.algorithms import InexactAPConfig, regularized_extrapolated_ap
from regap.core import (COMPLEX, MEMBERSHIP_TOL, DimensionMismatchError, Point, SetOracle,
                        canonical_point, first_crossing, lerp)
from regap.divergences import (CLIP_FLOOR, EuclideanKernel, FourierIntensityMap, ForwardMap,
                               IdentityMap, KernelDomainError, KullbackLeiblerKernel,
                               LinearMap, RegularizedSet, SquareMap,
                               bregman_line_boundary)
from regap.phase import box_support, reconstruct, synthesize
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


# ---------------------------------------------------------------------------
# Kernels

def test_euclidean_kernel_matches_half_squared_norm():
    rng = np.random.default_rng(0)
    k = EuclideanKernel()
    for _ in range(10):
        z, y = rng.standard_normal(6), rng.standard_normal(6)
        assert k.evaluate(z, y) == pytest.approx(0.5 * np.sum((z - y) ** 2), rel=1e-14)
        assert np.allclose(k.against(y).gradient(z), z - y)


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
    assert KullbackLeiblerKernel().evaluate([2.0], [1.0]) == pytest.approx(expected, abs=1e-12)


def test_kl_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    k = KullbackLeiblerKernel()
    y = rng.uniform(0.5, 2.0, 4)
    z = rng.uniform(0.5, 2.0, 4)
    g = k.against(y).gradient(z)
    fd = finite_difference_gradient(lambda v: k.evaluate(v, y), z)
    assert np.allclose(g, fd, atol=1e-6)


def test_kl_is_nonnegative_and_zero_on_diagonal():
    rng = np.random.default_rng(3)
    k = KullbackLeiblerKernel()
    for _ in range(20):
        z = rng.uniform(0.01, 10.0, 6)
        assert k.evaluate(z, z) == pytest.approx(0.0, abs=1e-12)
        y = rng.uniform(0.01, 10.0, 6)
        assert k.evaluate(z, y) >= 0.0


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


def kl_masked_log_reference(z, y):
    """The full KL divergence as it was taken on a masked log: ``log z`` on the
    positive entries of ``z`` only, zero elsewhere, in the kernel's order."""
    log_y = np.log(np.where(y < CLIP_FLOOR, CLIP_FLOOR, y))
    terms = np.log(z, out=np.zeros_like(z), where=z > 0)
    terms *= z
    terms -= z * log_y
    terms += y
    terms -= z
    return float(terms.sum())


@settings(max_examples=200)
@given(st.lists(st.one_of(st.tuples(_KL_ENTRY, _KL_ENTRY), _KL_ENTRY.map(lambda v: (v, v))),
                min_size=1, max_size=40))
def test_kl_floored_log_is_bit_identical_to_the_masked_log(pairs):
    # log(max(z, smallest subnormal)) is log z for z > 0, and a zero entry
    # gives 0 * log(5e-324) = -0.0 where the mask gave 0.0: every sum agrees.
    z, y = (np.array(v) for v in zip(*pairs))
    prepared = KullbackLeiblerKernel().against(y)
    assert prepared(z) == kl_masked_log_reference(z, y)
    assert prepared(y) == kl_masked_log_reference(y, y)  # the reused buffer holds no state


def kl_gradient_reference(z, y):
    """The KL gradient as taken per call before it read the prepared data:
    both arguments clipped at ``CLIP_FLOOR`` and logged."""
    clip = lambda v: np.where(v < CLIP_FLOOR, CLIP_FLOOR, v)  # noqa: E731
    return np.log(clip(z)) - np.log(clip(y)), int(np.count_nonzero(z < CLIP_FLOOR)
                                                  + np.count_nonzero(y < CLIP_FLOOR))


@settings(max_examples=200)
@given(st.lists(st.tuples(_KL_ENTRY, _KL_ENTRY), min_size=1, max_size=40))
def test_kl_prepared_gradient_is_bit_identical_and_clips_as_often(pairs):
    z, y = (np.array(v) for v in zip(*pairs))
    expected, n_clipped = kl_gradient_reference(z, y)
    k = KullbackLeiblerKernel()
    ball = RegularizedSet(IdentityMap(z.size), y, k, 1.0)  # g = id: the gradient is w
    for gradient in (k.against(y).gradient, lambda v: ball.residual_gradient(Point(v)).data):
        before = k.clip_count
        assert np.array_equal(gradient(z), expected)
        assert k.clip_count - before == n_clipped


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


def test_square_map_real_and_complex():
    rng = np.random.default_rng(5)
    x = Point(rng.standard_normal(4))
    w = rng.standard_normal(4)
    m = SquareMap(4)
    assert np.allclose(m.value(x), x.data ** 2)
    _pullback_matches_fd(m, x, w)
    # complex points have no square map: their storage kind is refused
    with pytest.raises(DimensionMismatchError):
        m.value(Point(rng.standard_normal(4), COMPLEX))


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


def test_kl_ball_on_negative_data_fails_when_built():
    # the ball prepares its divergence at construction, not at its first residual
    with pytest.raises(KernelDomainError, match="second argument"):
        RegularizedSet(IdentityMap(3), np.array([1.0, -0.5, 2.0]), KullbackLeiblerKernel(), 0.1)


def test_residual_and_membership():
    ball = RegularizedSet(IdentityMap(2), np.zeros(2), EuclideanKernel(), 0.5)
    inside = Point(np.array([0.5, 0.5]))   # residual 0.25
    boundary = Point(np.array([1.0, 0.0]))  # residual 0.5
    outside = Point(np.array([2.0, 0.0]))   # residual 2.0
    assert ball.residual(inside) == pytest.approx(0.25)
    assert ball.contains(inside) and ball.contains(boundary)
    assert not ball.contains(outside)


def test_residual_gradient_matches_finite_differences():
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


# ---------------------------------------------------------------------------
# Boundary search along a segment

def test_boundary_closed_form_matches_brentq_oracle():
    rng = np.random.default_rng(9)
    for _ in range(25):
        ball, affine = _euclid_affine_ball(rng)
        x = Point(rng.standard_normal(5) * 3)
        if ball.contains(x):
            continue
        x0 = canonical_point(affine.project(x))
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
    with pytest.raises(ValueError, match="anchor"):
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

class _CountsValues:
    """Mixin for a forward map that counts its ``value`` calls."""

    values = 0

    def value(self, x):
        self.values += 1
        return super().value(x)


class _CountingFourierMap(_CountsValues, FourierIntensityMap):
    pass


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


def _counting_ffts(monkeypatch) -> list[int]:
    """Count ``np.fft.fftn`` and ``ifftn`` calls into the returned one-item list."""
    ffts = [0]
    for name in ("fftn", "ifftn"):
        def counted(*args, _fft=getattr(np.fft, name), **kwargs):
            ffts[0] += 1
            return _fft(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return ffts


def test_transform_memo_answers_only_the_identical_point(monkeypatch):
    rng = np.random.default_rng(5)
    fmap = FourierIntensityMap((4, 4))
    a, b, c = (Point.from_complex(rng.standard_normal(16) + 1j * rng.standard_normal(16))
               for _ in range(3))
    ffts = _counting_ffts(monkeypatch)
    spectrum = fmap.spectrum(a)
    assert fmap.spectrum(a) is spectrum
    assert ffts[0] == 1
    twin = Point(a.data, a.kind)
    fresh = fmap.spectrum(twin)
    assert fresh is not spectrum and fresh.tobytes() == spectrum.tobytes()
    assert ffts[0] == 2
    fmap.spectrum(b)
    again = fmap.spectrum(a)  # A, twin, B, A: the two later pairs displaced A
    assert ffts[0] == 4
    assert again is not spectrum and again.tobytes() == spectrum.tobytes()
    fmap.spectrum(b)
    assert fmap.spectrum(a) is again  # B, A, B, A: the memo holds two pairs
    fmap.spectrum(c)
    assert fmap.spectrum(a) is again and ffts[0] == 5  # C displaced B, not A
    with pytest.raises(ValueError):
        again[0, 0] = 0.0
    assert again.tobytes() == spectrum.tobytes()


def test_remembered_spectra_are_read_only_copies(monkeypatch):
    # from_spectrum takes one ifftn and segment_point none: both points then
    # answer from the memo, with read-only spectra the caller cannot reach.
    rng = np.random.default_rng(6)
    fmap = FourierIntensityMap((4, 4))
    Y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = Point.from_complex(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    X = fmap.spectrum(x)
    ffts = _counting_ffts(monkeypatch)
    p = fmap.from_spectrum(Y)
    kept = Y.copy()
    Y[0, 0] = 7.0
    q = fmap.segment_point(x, p, 0.25)
    assert ffts[0] == 1
    assert q.data.tobytes() == lerp(x, p, 0.25).data.tobytes()
    assert fmap.spectrum(p).tobytes() == kept.tobytes()
    assert fmap.spectrum(q).tobytes() == (0.75 * X + 0.25 * kept).tobytes()
    assert ffts[0] == 1
    for point in (p, q):
        with pytest.raises(ValueError):
            fmap.spectrum(point)[0, 0] = 0.0


def _kl_on_spectra(spectra, data):
    """KL residuals of ``data`` on each ``|S|^2``, and the rounding scale of the
    residual when every entry of every spectrum ``S`` is known to within
    ``u = eps * max ||S||`` (a unitary transform keeps that norm): ``|S_j|^2``
    moves by at most ``2 |S_j| u + u^2 <= 2 a_j u`` with ``a_j = max |S_j| + u``,
    and each term's slope is ``|log z| + |log b_c| + 1`` at ``z`` between
    ``u^2`` and ``a_j^2``."""
    u = np.finfo(float).eps * max(np.linalg.norm(S) for S in spectra)
    a = np.max([np.abs(S).ravel() for S in spectra], axis=0) + u
    log_b = np.abs(np.log(np.maximum(data, CLIP_FLOOR)))
    log_z = np.maximum(np.abs(np.log(np.maximum(a * a, CLIP_FLOOR))),
                       abs(math.log(max(u * u, CLIP_FLOOR))))
    values = [KullbackLeiblerKernel().evaluate(np.abs(S).ravel() ** 2, data) for S in spectra]
    return values, float(np.sum(2.0 * a * u * (log_z + log_b + 1.0)))


def _random_grid(rng, shape, k, zeros):
    """Complex grid of scale 10^k with a fraction ``zeros`` of exact zeros."""
    g = 10.0 ** k * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    g[rng.random(shape) < zeros] = 0.0
    return g


# A remembered spectrum differs from a fresh FFT of its point by one
# transform's rounding, which grows as log2(n) times the scale above; the
# worst of 4,000 random cases drawn as below reached 0.72 of that product.
_SPECTRUM_ULPS = 4


@settings(max_examples=100)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
       st.floats(-3.0, 3.0), st.floats(0.0, 0.5))
def test_from_spectrum_residual_matches_a_fresh_transform(n1, n2, seed, k, zeros):
    rng = np.random.default_rng(seed)
    shape = (n1, n2)
    Y = _random_grid(rng, shape, k, zeros)
    data = np.abs(_random_grid(rng, shape, k, zeros)).ravel() ** 2
    fmap = FourierIntensityMap(shape)
    point = fmap.from_spectrum(Y)
    remembered = fmap.spectrum(point)
    assert remembered.tobytes() == Y.tobytes()
    fresh = np.fft.fftn(point.as_complex().reshape(shape), norm="ortho")
    (got, ref), scale = _kl_on_spectra([remembered, fresh], data)
    assert RegularizedSet(fmap, data, KullbackLeiblerKernel(), 0.0).residual(point) == got
    assert abs(got - ref) <= _SPECTRUM_ULPS * math.log2(2 * Y.size) * scale


@settings(max_examples=100)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
       st.floats(-3.0, 3.0), st.floats(0.0, 0.5), st.floats(0.0, 1.0), st.booleans())
def test_segment_point_residual_matches_a_fresh_transform(n1, n2, seed, k, zeros, tau,
                                                          anchor_from_spectrum):
    # The anchor comes either from a fresh FFT or from from_spectrum, as the
    # anchor projection's does; the data and the ends have zero entries.
    rng = np.random.default_rng(seed)
    shape = (n1, n2)
    fmap = FourierIntensityMap(shape)
    x = Point.from_complex(_random_grid(rng, shape, k, zeros).ravel())
    if anchor_from_spectrum:
        a = fmap.from_spectrum(_random_grid(rng, shape, k, zeros))
    else:
        a = Point.from_complex(_random_grid(rng, shape, k, zeros).ravel())
    data = np.abs(_random_grid(rng, shape, k, zeros)).ravel() ** 2
    X, A = fmap.spectrum(x), fmap.spectrum(a)
    point = fmap.segment_point(x, a, tau)
    assert point.data.tobytes() == lerp(x, a, tau).data.tobytes()
    remembered = fmap.spectrum(point)
    fresh = np.fft.fftn(point.as_complex().reshape(shape), norm="ortho")
    (got, ref, _, _), scale = _kl_on_spectra([remembered, fresh, (1 - tau) * X, tau * A], data)
    assert abs(got - ref) <= _SPECTRUM_ULPS * math.log2(2 * X.size) * scale


def _surface_8x8(forward_map):
    """An 8x8 phase instance: ``(C, ball, unregularized set, start)``.

    The unregularized set transforms on the ball's map, as in
    ``phase.reconstruct``, so both read one spectrum memo.
    """
    shape = (8, 8)
    instance = synthesize(shape, box_support(shape, 2), 1e3, seed=3)
    observed = instance.observed.ravel()
    m = RegularizedSet(forward_map(shape), observed, KullbackLeiblerKernel(),
                       instance.kl_noise_level())
    setC = SupportNonnegSet(instance.forced_zero, observed.size, kind=COMPLEX)
    unreg = FourierMagnitudeSet(observed, m.forward)
    start = np.zeros(shape)
    start[instance.support] = np.random.default_rng(0).uniform(0.0, 1.0, 16)
    return setC, m, unreg, Point.from_complex(start.ravel().astype(np.complex128))


def _surface_cycle_cost(monkeypatch, measure_gamma: bool) -> tuple[int, int]:
    """FFTs and ``value`` calls of the third surface cycle on the 8x8 instance."""
    setC, m, unreg, x0 = _surface_8x8(_CountingFourierMap)
    ffts = _counting_ffts(monkeypatch)

    def run(cycles):
        ffts[0] = m.forward.values = 0
        trace = regularized_extrapolated_ap(
            setC, m, unreg, x0,
            InexactAPConfig(max_iterations=cycles, measure_gamma=measure_gamma))
        assert trace.reason == "max_iter"
        assert all(0.0 < r.lam < 1.0 for r in trace.records)  # every odd step hits the boundary
        return ffts[0], m.forward.values

    (f2, v2), (f3, v3) = run(2), run(3)
    return f3 - f2, v3 - v2


def test_surface_cycle_transform_count(monkeypatch):
    # One surface cycle, by hand:
    #   the support projection onto C                    0
    #   residual(even), the interior test                1 (value: fftn of even)
    #   the anchor projection onto |F x|^2 = b           1 (F even from the memo;
    #                                                       one ifftn, and the map
    #                                                       remembers the anchor's
    #                                                       spectrum Y with it)
    #   boundary solve: residual(even) again             0 (residual memo)
    #   boundary solve: segment_polynomial(even, anchor) 0 (F even and Y from the
    #                                                       memo; its t = 1 end
    #                                                       tests the anchor)
    #   boundary solve: contains(boundary point)         0 (value: segment_point
    #                                                       remembered the point's
    #                                                       spectrum (1 - tau) F even
    #                                                       + tau Y)
    #   residual(odd) for the trace                      0 (residual memo)
    # The two value calls are the interior test's and the re-check's.
    assert _surface_cycle_cost(monkeypatch, measure_gamma=False) == (2, 2)


def test_surface_cycle_transform_count_with_gamma(monkeypatch):
    # As above, plus the alignment residual at the boundary point, which
    # is the odd iterate: normal_cone_at reads the residual memo, and
    # residual_gradient's value and pullback take the point's remembered
    # spectrum, so only the pullback's ifftn is new (9 per cycle before
    # the memo, 5 before the remembered spectra).
    assert _surface_cycle_cost(monkeypatch, measure_gamma=True) == (3, 3)


def test_reconstruct_shares_one_spectrum_per_iterate(monkeypatch):
    # phase.reconstruct builds its anchor set on the ball's map, so a surface
    # cycle there costs the 2 FFTs counted above: the interior test's fftn
    # of the even iterate and the anchor's ifftn.
    instance = synthesize((8, 8), box_support((8, 8), 2), 1e3, seed=3)
    ffts = _counting_ffts(monkeypatch)

    def run(cycles):
        ffts[0] = 0
        cfg = InexactAPConfig(max_iterations=cycles, measure_gamma=False)
        trace = reconstruct(instance, instance.kl_noise_level(), cfg, seed=0).trace
        assert trace.reason == "max_iter"
        assert all(0.0 < r.lam < 1.0 for r in trace.records)
        return ffts[0]

    assert run(3) - run(2) == 2


def _counting_crossings(monkeypatch) -> list[int]:
    """Count the excess evaluations of each boundary solve's ``first_crossing``.

    The returned list gains one entry per ``first_crossing`` call.
    """
    evals = []

    def counted_crossing(excess):
        evals.append(0)

        def counted(t):
            evals[-1] += 1
            return excess(t)
        return first_crossing(counted)
    monkeypatch.setattr("regap.divergences.first_crossing", counted_crossing)
    return evals


def _counting_divergences(monkeypatch, kernel) -> list[int]:
    """Count calls of every divergence ``kernel.against`` prepares from now on."""
    calls = [0]
    against = kernel.against

    def counted_against(self, y):
        prepared = against(self, y)

        @functools.wraps(prepared)  # keeps its gradient and segment_excess
        def counted(z):
            calls[0] += 1
            return prepared(z)
        return counted
    monkeypatch.setattr(kernel, "against", counted_against)
    return calls


def test_surface_boundary_solve_evaluation_count(monkeypatch):
    # A solve evaluates the upper end, scans the ceil(64 tau) grid points up
    # to the first member, then refines: a handful of secant steps where
    # bisection to 1e-12 took about 35.  One first_crossing per solve: no
    # solve falls back to the generic excess.
    setC, m, unreg, x0 = _surface_8x8(FourierIntensityMap)
    solves = _counting_crossings(monkeypatch)
    trace = regularized_extrapolated_ap(
        setC, m, unreg, x0, InexactAPConfig(max_iterations=40, measure_gamma=False))
    scans = [math.ceil(64 * r.lam) for r in trace.records if 0.0 < r.lam < 1.0]
    assert len(solves) == len(scans) and scans.count(1) > 10
    assert all(n <= 14 for n, cells in zip(solves, scans) if cells == 1)
    assert all(n - cells <= 13 for n, cells in zip(solves, scans))


# ---------------------------------------------------------------------------
# Boundary fast path against the generic excess

def _reference_boundary(m, x, x0):
    """The generic excess: build each segment point and evaluate the residual."""
    return first_crossing(lambda t: m.residual(lerp(x, x0, t)) - (m.epsilon + MEMBERSHIP_TOL))


def _check_segment_polynomial(fmap, x, a, ts, ulps=0):
    """``fmap.segment_polynomial(x, a)`` against ``value(lerp(x, a, t))``.

    It matches g to 1e-12 relative.  With ``ulps > 0`` it may instead match
    to that many ulps of the rounding scale ``|p0| + t |p1| + t^2 |p2|``
    where that is larger: near a zero of a square map's segment the
    coefficients dwarf g itself.
    """
    p0, p1, p2 = fmap.segment_polynomial(x, a)
    for t in ts:
        got, ref = p0 + t * (p1 + t * p2), fmap.value(lerp(x, a, t))
        size = np.abs(p0) + t * np.abs(p1) + t * t * np.abs(p2)
        assert np.linalg.norm(got - ref) <= max(1e-12 * np.linalg.norm(ref),
                                                ulps * np.finfo(float).eps * np.linalg.norm(size))
    return p0, p1, p2


def _check_fast_boundary(m, x, x0, ulps=0):
    tau, point = bregman_line_boundary(m, x, x0)
    assert abs(tau - _reference_boundary(m, x, x0)) <= 1e-10
    assert m.contains(point)

    ts = (0.0, tau, 0.5 * tau, 0.37, 1.0)
    _check_segment_polynomial(m.forward, x, x0, ts, ulps)
    clips = lambda: getattr(m.kernel, "clip_count", 0)  # noqa: E731
    for t in ts:
        ref = m.forward.value(lerp(x, x0, t))

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
@example(2, 2, 3028, 0.5)  # 3 of 4 data entries zero: ‖g‖ ≈ 5.6e-6 against coefficients ≈ 5
def test_fourier_kl_boundary_matches_generic_path(n1, n2, seed, frac):
    rng = np.random.default_rng(seed)
    shape = (n1, n2)
    obj = rng.uniform(0.0, 1.0, shape)
    data = np.abs(np.fft.fftn(obj, norm="ortho")).ravel() ** 2
    data[rng.random(data.size) < 0.3] = 0.0  # zeros in the data: KL clips them
    data[rng.integers(data.size)] = 0.0
    x = Point.from_complex((obj + rng.normal(0.0, 0.5, shape)).ravel().astype(np.complex128))
    x0 = canonical_point(FourierMagnitudeSet(data, FourierIntensityMap(shape)).project(x))
    ball = _outside_ball(FourierIntensityMap(shape), data, KullbackLeiblerKernel(), x, x0, frac)
    assume(not ball.contains(x))
    _check_fast_boundary(ball, x, x0, ulps=8)
    assert ball.kernel.clip_count > 0


@settings(max_examples=100)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.floats(-2.0, 3.0), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_kl_segment_excess_matches_prepared_divergence(n1, n2, seed, through_zero, k, ts):
    # Grids scaled by 10^k.  With x0 = -x the segment's spectrum X + t D
    # vanishes at t = 1/2, so every z log z there is 0 log 0.
    rng = np.random.default_rng(seed)
    fmap, n = FourierIntensityMap((n1, n2)), n1 * n2
    grid = lambda: Point.from_complex(  # noqa: E731
        10.0 ** k * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    x, y = grid(), fmap.value(grid())
    x0 = Point(-x.data, COMPLEX) if through_zero else grid()
    y[rng.random(n) < 0.3] = 0.0  # zeros in the data: KL clips them
    y[rng.random(n) < 0.2] = 1e-310
    kernel, bound = KullbackLeiblerKernel(), 0.25
    prepared = kernel.against(y)
    p = fmap.segment_polynomial(x, x0)
    excess = prepared.segment_excess(p, bound)
    log_y = np.log(np.where(y < CLIP_FLOOR, CLIP_FLOOR, y))
    for t in ts + [0.0, 0.5, 1.0]:
        z = fmap.value(lerp(x, x0, t))
        if through_zero and t == 0.5:
            assert not z.any()
        before = kernel.clip_count
        expected = prepared(z) - bound
        mid = kernel.clip_count
        got = excess(t)
        assert kernel.clip_count - mid == mid - before == np.count_nonzero(y < CLIP_FLOOR)
        # rounding scale: the reference's terms, plus each expanded entry
        # M = |p0| + t |p1| + t^2 |p2| times the logs it meets
        size = np.abs(p[0]) + t * np.abs(p[1]) + t * t * np.abs(p[2])
        log_size = np.log(size, out=np.zeros_like(size), where=size > 0)
        scale = kl_reference(z, y)[1] + np.sum(size * (np.abs(log_y) + np.abs(log_size) + 1.0))
        assert abs(got - expected) <= 1e-13 * scale


def test_kl_fourier_boundary_evaluates_no_residual_per_probe(monkeypatch):
    # As for the square-Euclidean quartic: the segment polynomial and the
    # KL moments stand in for g and d at every probe, so a solve evaluates
    # them only for residual(x) and the contains re-check.
    divergences = _counting_divergences(monkeypatch, KullbackLeiblerKernel)
    evals = _counting_crossings(monkeypatch)

    rng = np.random.default_rng(4)
    shape = (8, 8)
    obj = rng.uniform(0.0, 1.0, shape)
    data = np.abs(np.fft.fftn(obj, norm="ortho")).ravel() ** 2
    data[rng.random(data.size) < 0.3] = 0.0
    x = Point.from_complex((obj + rng.normal(0.0, 0.5, shape)).ravel().astype(np.complex128))
    x0 = canonical_point(FourierMagnitudeSet(data, FourierIntensityMap(shape)).project(x))
    ball = _outside_ball(_CountingFourierMap(shape), data, KullbackLeiblerKernel(), x, x0, 0.1)
    ball.forward.values = divergences[0] = 0
    tau, point = bregman_line_boundary(ball, x, x0)
    assert ball.forward.values == 2 and divergences[0] == 2
    assert len(evals) == 1 and evals[0] > 2
    assert ball.contains(point)
    assert abs(tau - _reference_boundary(ball, x, x0)) <= 1e-10


@settings(max_examples=60)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95),
       st.floats(-1.0, 2.0))
def test_square_euclidean_boundary_matches_generic_path(n, seed, frac, k):
    # x scaled by 10^k: the quartic's coefficients then span up to 10^(4k)
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 2.0, n)
    data[rng.random(n) < 0.2] = 0.0
    x = Point(10.0 ** k * 3.0 * rng.standard_normal(n))
    x0 = Point(np.sqrt(data) * np.where(x.data < 0, -1.0, 1.0))
    ball = _outside_ball(SquareMap(n), data, EuclideanKernel(), x, x0, frac)
    assume(not ball.contains(x))
    _check_fast_boundary(ball, x, x0, ulps=8)


@settings(max_examples=60)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95),
       st.floats(-1.0, 2.0))
def test_square_kl_boundary_matches_generic_path(n, seed, frac, k):
    # KL on a SquareMap takes the same polynomial branch as the Fourier map
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 2.0, n)
    data[rng.random(n) < 0.2] = 0.0
    x = Point(10.0 ** k * 3.0 * rng.standard_normal(n))
    x0 = Point(np.sqrt(data) * np.where(x.data < 0, -1.0, 1.0))
    ball = _outside_ball(SquareMap(n), data, KullbackLeiblerKernel(), x, x0, frac)
    assume(not ball.contains(x))
    _check_fast_boundary(ball, x, x0, ulps=8)


class _CountingSquareMap(_CountsValues, SquareMap):
    pass


def test_square_euclidean_boundary_evaluates_no_residual_per_probe(monkeypatch):
    # The quartic stands in for g and d at every probe: a solve evaluates
    # them only for residual(x) and the contains re-check, and first_crossing
    # takes as many excess evaluations as on the generic excess.
    divergences = _counting_divergences(monkeypatch, EuclideanKernel)
    evals = _counting_crossings(monkeypatch)

    rng = np.random.default_rng(3)
    n = 40
    data = rng.uniform(0.5, 2.0, n)
    x = Point(3.0 * rng.standard_normal(n))
    x0 = Point(np.sqrt(data) * np.where(x.data < 0, -1.0, 1.0))
    ball = _outside_ball(_CountingSquareMap(n), data, EuclideanKernel(), x, x0, 0.1)
    ball.forward.values = divergences[0] = 0
    tau, point = bregman_line_boundary(ball, x, x0)
    assert ball.forward.values == 2 and divergences[0] == 2
    assert ball.contains(point)

    probes = []

    def generic(t):
        probes.append(t)
        return ball.residual(lerp(x, x0, t)) - (ball.epsilon + MEMBERSHIP_TOL)
    assert abs(tau - first_crossing(generic)) <= 1e-10
    assert evals == [len(probes)]


class _CountingLinearMap(_CountsValues, LinearMap):
    pass


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.floats(0.05, 0.95))
def test_linear_kl_boundary_uses_the_affine_polynomial(rows, cols, seed, frac):
    # A linear map inherits (g(x), g(a) - g(x), 0): a solve evaluates g for
    # the polynomial's two ends and the contains re-check, and never per
    # probe (residual(x) is remembered from the membership test above).
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.1, 1.0, (rows, cols))
    x0 = Point(rng.uniform(0.5, 1.5, cols))
    x = Point(x0.data + rng.uniform(0.5, 5.0, cols))
    forward = _CountingLinearMap(A)
    assert type(forward).segment_polynomial is ForwardMap.segment_polynomial
    ball = _outside_ball(forward, A @ x0.data, KullbackLeiblerKernel(), x, x0, frac)
    assume(not ball.contains(x))
    forward.values = 0
    bregman_line_boundary(ball, x, x0)
    assert forward.values == 3
    _check_fast_boundary(ball, x, x0)


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_affine_segment_polynomial_is_linear_in_t(rows, cols, seed, ts):
    rng = np.random.default_rng(seed)
    x, a = Point(rng.standard_normal(cols)), Point(rng.standard_normal(cols))
    for fmap in (IdentityMap(cols), LinearMap(rng.standard_normal((rows, cols)))):
        _, _, p2 = _check_segment_polynomial(fmap, x, a, ts + [0.0, 1.0])
        assert not p2.any()


class _CubeMap(ForwardMap):
    """Componentwise cube: neither affine nor given a segment polynomial."""

    def __init__(self, n):
        self.in_dim = self.out_dim = n

    def value(self, x):
        return x.data ** 3


def test_boundary_refuses_a_map_without_a_segment_polynomial():
    ball = RegularizedSet(_CubeMap(2), np.zeros(2), EuclideanKernel(), 0.5)
    with pytest.raises(NotImplementedError, match="_CubeMap"):
        bregman_line_boundary(ball, Point(np.array([2.0, 2.0])), Point(np.zeros(2)))


class _SkewedPolynomial(SquareMap):
    """Square map whose segment polynomial starts ``shift`` along the segment
    (``shift > 0``) or ends ``-shift`` short of the anchor (``shift < 0``)."""

    def __init__(self, n, shift):
        super().__init__(n)
        self.shift = shift

    def segment_polynomial(self, x, a):
        return super().segment_polynomial(lerp(x, a, max(self.shift, 0.0)),
                                          lerp(x, a, 1.0 + min(self.shift, 0.0)))


@pytest.mark.parametrize("kernel, shift", [
    pytest.param(KullbackLeiblerKernel, 0.3, id="0.3"),
    pytest.param(KullbackLeiblerKernel, -0.5, id="-0.5"),
    pytest.param(EuclideanKernel, 0.3, id="quartic-0.3"),
    pytest.param(EuclideanKernel, -0.5, id="quartic--0.5"),
])
def test_boundary_falls_back_when_the_segment_disagrees(kernel, shift):
    # +0.3 enters the ball too early (the re-check catches it); -0.5 misses
    # the anchor at t = 1 (the scan refuses).  Both end on the generic answer.
    ball = RegularizedSet(_SkewedPolynomial(3, shift), np.ones(3), kernel(), 0.05)
    x, anchor = Point(np.array([2.0, 3.0, 5.0])), Point(np.ones(3))
    tau, point = bregman_line_boundary(ball, x, anchor)
    assert tau == _reference_boundary(ball, x, anchor)
    assert ball.contains(point)


def _fourier_kl_case(rng):
    shape = (4, 4)
    obj = rng.uniform(0.0, 1.0, shape)
    data = np.abs(np.fft.fftn(obj, norm="ortho")).ravel() ** 2
    x = Point.from_complex((obj + rng.normal(0.0, 0.5, shape)).ravel().astype(np.complex128))
    x0 = canonical_point(FourierMagnitudeSet(data, FourierIntensityMap(shape)).project(x))
    ball = _outside_ball(FourierIntensityMap(shape), data, KullbackLeiblerKernel(), x, x0, 0.3)
    return ball, x, x0


def _square_euclidean_case(rng):
    data = rng.uniform(0.5, 2.0, 6)
    x = Point(3.0 * rng.standard_normal(6))
    x0 = Point(np.sqrt(data) * np.where(x.data < 0, -1.0, 1.0))
    return _outside_ball(SquareMap(6), data, EuclideanKernel(), x, x0, 0.3), x, x0


def _linear_euclidean_case(rng):
    A = rng.standard_normal((3, 5))
    x0 = Point(rng.standard_normal(5))
    x = Point(x0.data + 3.0 * rng.standard_normal(5))
    return _outside_ball(LinearMap(A), A @ x0.data, EuclideanKernel(), x, x0, 0.3), x, x0


def _two_intervals_case(rng):
    # {x : (x^2 - 1)^2 / 2 <= 0.1} is two intervals; the segment from -2 to 1
    # enters the left one first, which only a scan finds
    ball = RegularizedSet(SquareMap(1), np.ones(1), EuclideanKernel(), 0.1)
    return ball, Point(np.array([-2.0])), Point(np.ones(1))


def _skewed_case(rng):
    ball = RegularizedSet(_SkewedPolynomial(3, 0.3), np.ones(3), KullbackLeiblerKernel(), 0.05)
    return ball, Point(np.array([2.0, 3.0, 5.0])), Point(np.ones(3))


@pytest.mark.parametrize("build", [_fourier_kl_case, _square_euclidean_case,
                                   _linear_euclidean_case, _two_intervals_case, _skewed_case],
                         ids=["fourier-kl", "square-euclidean", "linear-euclidean",
                              "two-intervals", "forced-fallback"])
@pytest.mark.parametrize("seed", range(5))
def test_boundary_solve_agrees_with_the_generic_segment_entry(build, seed):
    # The boundary solve is the ball's segment_entry, taken fast; the forced
    # fallback's polynomial enters the ball too early, so SetOracle's default
    # answers it outright.  Both refuse a wrong-space and a non-member anchor.
    ball, x, x0 = build(np.random.default_rng(seed))
    tau, point = bregman_line_boundary(ball, x, x0)
    s, entry = SetOracle.segment_entry(ball, x, x0)
    assert abs(tau - s) <= (0.0 if build is _skewed_case else 1e-9)
    assert ball.contains(point) and ball.contains(entry)
    with pytest.raises(DimensionMismatchError):
        bregman_line_boundary(ball, x, Point(np.zeros(x.dim + 2), x.kind))
    beyond = Point(2.0 * x.data - x0.data, x.kind)  # x0 reflected through x
    assert not ball.contains(beyond)
    with pytest.raises(ValueError, match="anchor"):
        bregman_line_boundary(ball, x, beyond)
