"""Exact projectors, segment-based approximate projection, KKT Newton solve."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import NonlinearConstraint, minimize

from regap.core import (COMPLEX, MEMBERSHIP_TOL, REAL, DimensionMismatchError, Point,
                        RayCone, SetOracle, ZeroCone, canonical_point, lerp)
from regap.divergences import (EuclideanKernel, FourierIntensityMap, IdentityMap,
                               KullbackLeiblerKernel, LinearMap,
                               RegularizedSet, SquareMap)
from regap.projectors import (AffineSet, BoxMagnitudeSet, FourierMagnitudeSet,
                              HalfspaceSet, NewtonConvergenceError, SupportNonnegSet,
                              project_affine, project_fourier_magnitude,
                              project_regularized_approx, project_regularized_exact)


# ---------------------------------------------------------------------------
# Oracles

def affine_projection_by_kkt(A, b, x):
    """Stationarity oracle: solve the saddle system for min ||y-x|| s.t. Ay=b."""
    m, n = A.shape
    K = np.block([[np.eye(n), A.T], [A, np.zeros((m, m))]])
    rhs = np.concatenate([x, b])
    return np.linalg.solve(K, rhs)[:n]


def ball_projection_by_solver(ball, x, x0):
    """Constrained-optimization oracle for the Euclidean projection."""
    constraint = NonlinearConstraint(
        lambda y: ball.residual(Point(y)), -np.inf, ball.epsilon,
        jac=lambda y: ball.residual_gradient(Point(y)).data.reshape(1, -1))
    res = minimize(
        lambda y: 0.5 * np.sum((y - x.data) ** 2),
        x0=x0,
        jac=lambda y: y - x.data,
        constraints=[constraint],
        method="trust-constr",
        options={"maxiter": 2000, "gtol": 1e-12, "xtol": 1e-14},
    )
    assert res.status in (1, 2), res.message
    return res.x


# ---------------------------------------------------------------------------
# Affine and halfspace sets

def test_affine_projection_matches_kkt_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, n = rng.integers(1, 4), rng.integers(4, 8)
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        x = rng.standard_normal(n)
        s = AffineSet(A, b)
        got = project_affine(s, Point(x))
        assert np.allclose(got.data, affine_projection_by_kkt(A, b, x), atol=1e-10)
        assert s.membership_residual(got) < 1e-10


@settings(max_examples=150)
@given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_affine_projection_matches_cholesky_reference(m, extra, seed):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((m + extra, m + extra)))
    A = (u * rng.uniform(0.5, 2.0, m)) @ v[:, :m].T
    b = rng.standard_normal(m)
    x = rng.standard_normal(m + extra)
    expected = x - A.T @ cho_solve(cho_factor(A @ A.T), A @ x - b)
    got = AffineSet(A, b).project(Point(x))[0].data
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(x)))


def affine_projection_by_cholesky_solves(A, b, x):
    """The projection before the QR form: two general solves with the
    Cholesky factor of A A^T."""
    chol = np.linalg.cholesky(A @ A.T)
    w = np.linalg.solve(chol.T, np.linalg.solve(chol, A @ x - b))
    return x - A.T @ w


@settings(max_examples=150)
@given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 2**32 - 1),
       st.floats(0.0, 3.0), st.floats(-3.0, 3.0))
def test_affine_qr_projection_matches_cholesky_solves(m, extra, seed, spread, k):
    # singular values 10^-spread .. 1 times a random scale; x and b times 10^k
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((m + extra, m + extra)))
    sv = 10.0 ** rng.uniform(-spread, 0.0, m)
    sv[0] = 1.0
    A = (u * sv * 10.0 ** rng.uniform(-2.0, 2.0)) @ v[:, :m].T
    b = 10.0 ** k * rng.standard_normal(m)
    x = 10.0 ** k * rng.standard_normal(m + extra)
    expected = affine_projection_by_cholesky_solves(A, b, x)
    got = AffineSet(A, b).project(Point(x))[0].data
    size = max(np.max(np.abs(x)), np.max(np.abs(expected)))
    assert np.max(np.abs(got - expected)) <= 1e-13 * (sv.max() / sv.min()) ** 2 * size


@settings(max_examples=150)
@given(st.data(), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.booleans())
def test_affine_segment_residual_matches_generic_default(data, seed, k, member_end):
    # The closed form ||r0 + s d|| against the lerp-and-measure residual,
    # and AffineSet's segment_entry against SetOracle's default, on segments
    # of scale 10^k; with member_end the far end is a member, as in the
    # alignment search, and otherwise both searches refuse it.
    # ||r0|| + s ||d|| alone is too narrow a scale: near a member end both
    # sides cancel, and each rounds at the size of the products it forms,
    # ||A|| times the point, plus ||b||.
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, min(n, 6)))
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (u * rng.uniform(0.5, 2.0, m)) @ v[:, :m].T
    s = AffineSet(A, 10.0 ** k * rng.standard_normal(m))
    x = Point(10.0 ** k * rng.standard_normal(n))
    y = Point(10.0 ** k * rng.standard_normal(n))
    if member_end:
        y = s.project(y)[0]
    fast, generic = s._residual_along(x, y), lambda t: s.membership_residual(lerp(x, y, t))
    r0 = A @ x.data - s.rhs
    d = A @ y.data - s.rhs - r0
    for t in (0.0, 1.0, 0.5, 1.0 - 2.0 ** -30, *rng.uniform(0.0, 1.0, 4)):
        t = float(t)
        scale = (np.linalg.norm(A) * ((1.0 - t) * x.norm() + t * y.norm())
                 + np.linalg.norm(s.rhs) + np.linalg.norm(r0) + t * np.linalg.norm(d))
        assert abs(fast(t) - generic(t)) <= 8 * np.finfo(float).eps * scale
    if member_end:
        entries = [s.segment_entry(x, y), SetOracle.segment_entry(s, x, y)]
        assert abs(entries[0][0] - entries[1][0]) <= 1e-11
        assert all(s.contains(point) for _, point in entries)
    else:
        for search in (s.segment_entry, lambda x, y: SetOracle.segment_entry(s, x, y)):
            with pytest.raises(ValueError, match="not a member"):
                search(x, y)
    with pytest.raises(DimensionMismatchError):
        s.segment_entry(x, Point(np.zeros(n + 1)))


def test_affine_rejects_rank_deficiency_and_bad_shapes():
    with pytest.raises(ValueError):
        AffineSet(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))
    # Cholesky of A A^T leaves a positive 4e-8 pivot on this one
    with pytest.raises(ValueError, match="full row rank"):
        AffineSet(np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        AffineSet(np.array([[1.0, np.nan]]), np.zeros(1))
    with pytest.raises(DimensionMismatchError):
        AffineSet(np.eye(2), np.zeros(3))


def test_affine_projection_is_idempotent_and_normal_cone_is_row_space():
    A = np.array([[1.0, 1.0, 0.0]])
    s = AffineSet(A, np.array([2.0]))
    x = Point(np.array([5.0, -1.0, 7.0]))
    p = project_affine(s, x)
    assert np.allclose(project_affine(s, p).data, p.data, atol=1e-12)
    cone = s.normal_cone_at(p)
    # The projection residual x - Px lies in the normal cone (row space).
    assert cone.distance(x.data - p.data) < 1e-10


_SMALL_SETS = {
    "affine": lambda: AffineSet(np.array([[1.0, 1.0]]), np.array([1.0])),
    "halfspace": lambda: HalfspaceSet(np.array([1.0, 2.0]), 0.5),
    "support": lambda: SupportNonnegSet([1], 2),
    "box": lambda: BoxMagnitudeSet(np.array([1.0, 2.0])),
    "fourier": lambda: FourierMagnitudeSet(np.ones(2), FourierIntensityMap((2,))),
}


@pytest.mark.parametrize("name, method", [
    (name, method) for name in _SMALL_SETS
    for method in ("project", "membership_residual", "normal_cone_at")
    if name != "fourier" or method != "normal_cone_at"  # no cone of its own
])
def test_every_set_refuses_a_point_of_another_space(name, method):
    oracle = _SMALL_SETS[name]()
    with pytest.raises(DimensionMismatchError):
        getattr(oracle, method)(Point(np.zeros(3)))


@settings(max_examples=150)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_halfspace_generic_segment_entry_is_the_closed_form(n, seed, k):
    # SetOracle.segment_entry scans a halfspace as it scans any set.  Along the
    # segment, v = <a, .> - beta is affine, so the entry is the closed form
    # v(x) / (v(x) - v(y)), moved in by the membership tolerance of the
    # residual v / ||a||; segments span at least a tenth of their scale 10^k.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    half = HalfspaceSet(a, 10.0 ** k * rng.standard_normal())
    x, y = (Point(10.0 ** k * rng.standard_normal(n)) for _ in range(2))
    vx, vy = (float(a @ p.data) - half.offset for p in (x, y))
    if vx < vy:
        x, y, vx, vy = y, x, vy, vx
    scale = np.linalg.norm(a) * max(x.norm(), y.norm()) + abs(half.offset)
    assume(vy <= 0.0 < vx and vx - vy >= 0.1 * scale and vx >= 1e-6 * scale)
    s, point = SetOracle.segment_entry(half, x, y)
    assert half.contains(point)
    closed = vx / (vx - vy)
    tol = MEMBERSHIP_TOL * np.linalg.norm(a) / (vx - vy)
    assert closed - tol - 1e-11 <= s <= closed - tol + 1e-11


def test_halfspace_projection():
    s = HalfspaceSet(np.array([0.0, 2.0]), 4.0)  # y <= 2 after normalization
    inside = Point(np.array([3.0, 1.0]))
    assert s.project(inside)[0] is inside or np.allclose(s.project(inside)[0].data, inside.data)
    assert s.membership_residual(inside) == 0.0
    outside = Point(np.array([3.0, 5.0]))
    p = s.project(outside)[0]
    assert np.allclose(p.data, [3.0, 2.0])
    assert s.membership_residual(outside) == pytest.approx(3.0)
    assert isinstance(s.normal_cone_at(p), RayCone)
    assert isinstance(s.normal_cone_at(inside), ZeroCone)


# ---------------------------------------------------------------------------
# Support / nonnegativity

def test_support_projection_clamps_and_zeroes():
    s = SupportNonnegSet(forced_zero=[1], n=3)
    x = Point(np.array([-2.0, 5.0, 3.0]))
    p = s.project(x)[0]
    assert np.allclose(p.data, [0.0, 0.0, 3.0])
    assert s.contains(p)
    assert s.membership_residual(x) == pytest.approx(5.0)


def test_support_projection_complex_drops_imaginary_parts():
    s = SupportNonnegSet(forced_zero=[0], n=2, kind=COMPLEX)
    x = Point.from_complex(np.array([1 + 2j, -3 + 4j]))
    p = s.project(x)[0]
    assert np.allclose(p.as_complex(), [0.0, 0.0])
    y = Point.from_complex(np.array([1 + 0.5j, 2 - 1j]))
    q = s.project(y)[0]
    assert np.allclose(q.as_complex(), [0.0, 2.0])


@settings(max_examples=60)
@given(st.integers(0, 2 ** 31 - 1))
def test_support_projection_is_nearest_member(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    zero = rng.choice(n, size=rng.integers(0, n), replace=False)
    s = SupportNonnegSet(zero, n)
    x = Point(rng.standard_normal(n) * 3)
    p = s.project(x)[0]
    d_star = x.distance(p)
    for _ in range(30):
        member = np.abs(rng.standard_normal(n)) * rng.uniform(0, 4)
        member[s.forced_zero] = 0.0
        assert x.distance(Point(member)) >= d_star - 1e-12


def support_mask_reference(forced_zero, n):
    """The forced-zero mask as built before, through a sorted Python set."""
    idx = np.asarray(sorted({int(i) for i in forced_zero}), dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError("forced-zero index out of range")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


@pytest.mark.parametrize("forced_zero", [
    [3, 1, 3, 1], (4, 0, 4), np.array([2, 2, 0]), np.arange(5)[::-1], [], range(5),
    [-1], [5], [0, 7, 0], np.array([-3, 2]),
])
def test_support_mask_matches_set_reference(forced_zero):
    # duplicate and unsorted indices give the same mask; negative and
    # out-of-range ones the same error
    try:
        expected = support_mask_reference(forced_zero, 5)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            SupportNonnegSet(forced_zero, 5)
    else:
        assert np.array_equal(SupportNonnegSet(forced_zero, 5).forced_zero, expected)


def test_support_normal_cone_signs():
    s = SupportNonnegSet(forced_zero=[0], n=3)
    x = Point(np.array([0.0, 0.0, 2.0]))
    cone = s.normal_cone_at(x)
    # forced-zero coord is free, active-bound coord nonpositive, interior zero
    assert cone.distance(np.array([7.0, 0.0, 0.0])) < 1e-12
    assert cone.distance(np.array([0.0, -3.0, 0.0])) < 1e-12
    assert cone.distance(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)
    assert cone.distance(np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0)


def support_cone_masks_by_coordinate(s, x):
    """Reference ``(free, nonpos)`` masks of the support set's cone, one coordinate at a time."""
    re = x.as_complex().real if s.kind == COMPLEX else x.data
    stride = 2 if s.kind == COMPLEX else 1
    free = np.zeros(s.dim, dtype=bool)
    nonpos = np.zeros(s.dim, dtype=bool)
    for j in range(s.n_logical):
        coord = stride * j
        if s.forced_zero[j]:
            free[coord] = True
        elif re[j] <= MEMBERSHIP_TOL:
            nonpos[coord] = True
        if s.kind == COMPLEX:
            free[coord + 1] = True
    return free, nonpos


@settings(max_examples=100)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([REAL, COMPLEX]))
def test_support_normal_cone_masks_match_per_coordinate_reference(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    s = SupportNonnegSet(rng.choice(n, size=rng.integers(0, n + 1), replace=False), n, kind)
    # members: real parts on, near and off the bound, within the tolerance elsewhere
    re = rng.choice([-5e-10, 0.0, 1e-9, 2e-9, 0.5, 3.0], size=n)
    re[s.forced_zero] = rng.choice([-5e-10, 0.0, 5e-10], size=int(s.forced_zero.sum()))
    im = rng.uniform(-5e-10, 5e-10, n)
    x = Point(re) if kind == REAL else Point.from_complex(re + 1j * im)
    assert s.contains(x)
    cone = s.normal_cone_at(x)
    free, nonpos = support_cone_masks_by_coordinate(s, x)
    assert np.array_equal(cone.free, free) and np.array_equal(cone.nonpos, nonpos)


class SupportByParts:
    """The support set's projection and residual on complex parts, one branch per kind."""

    def __init__(self, s):
        self.s = s

    def parts(self, x):
        if self.s.kind == COMPLEX:
            c = x.as_complex()
            return c.real.copy(), c.imag.copy()
        return x.data.copy(), None

    def project(self, x):
        re, _ = self.parts(x)
        re = np.maximum(re, 0.0)
        re[self.s.forced_zero] = 0.0
        if self.s.kind == COMPLEX:
            return Point.from_complex(re.astype(np.complex128))
        return Point(re)

    def membership_residual(self, x):
        re, im = self.parts(x)
        worst = max(float(np.max(-re, initial=0.0)),
                    float(np.max(np.abs(re[self.s.forced_zero]), initial=0.0)))
        if im is not None:
            worst = max(worst, float(np.max(np.abs(im), initial=0.0)))
        return worst


_SUPPORT_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-10, -5e-10, MEMBERSHIP_TOL - 5e-10, MEMBERSHIP_TOL,
                     MEMBERSHIP_TOL + 5e-10, -MEMBERSHIP_TOL - 5e-10]),
    st.floats(-1e12, 1e12, allow_nan=False, allow_subnormal=True))


@settings(max_examples=300)
@given(st.sampled_from([REAL, COMPLEX]), st.integers(1, 8), st.data())
def test_support_set_on_storage_matches_the_per_kind_formulas(kind, n, data):
    index_sets = st.one_of(st.just([]), st.just(list(range(n))),
                           st.lists(st.integers(0, n - 1), max_size=2 * n))
    s = SupportNonnegSet(data.draw(index_sets), n, kind)
    ref = SupportByParts(s)
    dim = 2 * n if kind == COMPLEX else n
    x = Point(data.draw(st.lists(_SUPPORT_ENTRIES, min_size=dim, max_size=dim)), kind)
    p = s.project(x)[0]
    assert p.kind == kind and p.data.tobytes() == ref.project(x).data.tobytes()
    assert s.membership_residual(x) == ref.membership_residual(x)
    for y in (x, p):
        if s.contains(y):
            cone = s.normal_cone_at(y)
            free, nonpos = support_cone_masks_by_coordinate(s, y)
            assert np.array_equal(cone.free, free) and np.array_equal(cone.nonpos, nonpos)


@pytest.mark.parametrize("kind", [REAL, COMPLEX])
def test_support_membership_residual_of_a_member_is_positive_zero(kind):
    s = SupportNonnegSet([1], 3, kind)
    values = [2.0, 0.0, 0.0]
    member = Point(values) if kind == REAL else Point.from_complex(np.array(values, complex))
    r = s.membership_residual(member)
    assert r == 0.0 and math.copysign(1.0, r) == 1.0
    r = s.membership_residual(s.project(Point(-member.data, kind))[0])
    assert r == 0.0 and math.copysign(1.0, r) == 1.0


# ---------------------------------------------------------------------------
# Magnitude sets

def test_magnitude_projection_real_signs():
    s = BoxMagnitudeSet([2.0, 3.0])
    cands = s.project(Point(np.array([-0.5, 4.0])))
    assert len(cands) == 1
    assert np.allclose(cands[0].data, [-2.0, 3.0])
    assert s.contains(cands[0])


def test_magnitude_projection_zero_component_yields_two_candidates():
    s = BoxMagnitudeSet([2.0, 3.0])
    cands = s.project(Point(np.array([0.0, 4.0])))
    assert len(cands) == 2
    datas = sorted(tuple(c.data) for c in cands)
    assert datas == [(-2.0, 3.0), (2.0, 3.0)]
    # canonical tie-break picks the lexicographically smallest
    assert tuple(canonical_point(cands).data) == (-2.0, 3.0)


def test_magnitude_projection_optimality_against_sampled_members():
    rng = np.random.default_rng(11)
    r = rng.uniform(0.5, 2.0, 4)
    s = BoxMagnitudeSet(r)
    for _ in range(20):
        x = Point(rng.standard_normal(4))
        p = canonical_point(s.project(x))
        d_star = x.distance(p)
        # the corner set has 16 members: sample every one
        for signs in np.ndindex(2, 2, 2, 2):
            member = Point(r * np.where(np.array(signs) == 1, -1.0, 1.0))
            assert x.distance(member) >= d_star - 1e-12


def test_magnitude_projection_matches_sign_times_magnitude():
    # Reference: r * x/|x| with phase 1 at zero, the unit-phase form of the
    # projection; -0.0 counts as zero.
    rng = np.random.default_rng(12)
    r = rng.uniform(0.0, 2.0, 9)
    r[3] = 0.0
    x = rng.standard_normal(9)
    x[[1, 3, 5]] = 0.0
    x[7] = -0.0
    mag = np.abs(x)
    base = r * np.divide(x, mag, out=np.ones_like(x), where=mag > 0)
    cands = BoxMagnitudeSet(r).project(Point(x))
    assert len(cands) == 2
    assert cands[0].data.tobytes() == base.tobytes()
    base[1] = -r[1]  # the first zero component with r > 0 flips
    assert cands[1].data.tobytes() == base.tobytes()


def test_magnitude_from_intensity():
    s = BoxMagnitudeSet.from_intensity([4.0, 9.0])
    assert np.allclose(s.magnitudes, [2.0, 3.0])
    with pytest.raises(ValueError):
        BoxMagnitudeSet.from_intensity([-1.0])


# ---------------------------------------------------------------------------
# Fourier magnitude

def _random_complex_grid(rng, shape):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Point.from_complex(z.ravel())


def test_fourier_projection_idempotent_and_member():
    rng = np.random.default_rng(12)
    shape = (4, 4)
    b = rng.uniform(0.0, 3.0, 16)
    x = _random_complex_grid(rng, shape)
    p = project_fourier_magnitude(b, x, shape)
    s = FourierMagnitudeSet(b, FourierIntensityMap(shape))
    assert s.membership_residual(p) < 1e-10
    p2 = project_fourier_magnitude(b, p, shape)
    assert np.allclose(p2.data, p.data, atol=1e-10)


@pytest.mark.parametrize("small", [0.0, -5e-324, -1e-300, -1.0])
def test_fourier_projection_keeps_each_phase_and_gives_zero_phase_1(small):
    # Each coefficient is scaled by sqrt(b)/|X|.  At exactly 0 the phase is
    # 1; at 5e-324 and 1e-300 against sqrt(b) = 1e150 the factor would
    # overflow, and so would a complex division by the subnormal modulus.
    fmap = FourierIntensityMap((2, 2))
    b = np.array([4.0, 1e300, 2.0, 0.0])
    spectrum = np.array([3.0 - 4.0j, small, -2.0j, 1.0 + 1.0j])
    x = fmap.from_spectrum(spectrum)  # the map remembers the spectrum as given
    got = fmap.spectrum(FourierMagnitudeSet(b, fmap).project(x)[0]).ravel()
    phase = np.array([0.6 - 0.8j, 1.0 if small == 0.0 else -1.0, -1.0j, 0.0])  # b = 0 last
    assert np.allclose(got, np.sqrt(b) * phase, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_fourier_projection_norm_is_total_intensity():
    # With a unitary transform the projected field carries exactly sum(b) energy.
    rng = np.random.default_rng(13)
    shape = (8, 4)
    b = rng.uniform(0.1, 2.0, 32)
    x = _random_complex_grid(rng, shape)
    p = project_fourier_magnitude(b, x, shape)
    assert p.norm() ** 2 == pytest.approx(np.sum(b), rel=1e-10)


def test_fourier_projection_optimality_against_sampled_members():
    rng = np.random.default_rng(14)
    shape = (2, 2)
    b = rng.uniform(0.2, 2.0, 4)
    x = _random_complex_grid(rng, shape)
    p = project_fourier_magnitude(b, x, shape)
    d_star = x.distance(p)
    root = np.sqrt(b)
    for _ in range(300):
        spectrum = root * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        field = np.fft.ifftn(spectrum.reshape(shape), norm="ortho").ravel()
        assert x.distance(Point.from_complex(field)) >= d_star - 1e-10


def test_fourier_set_validation():
    with pytest.raises(ValueError):
        FourierMagnitudeSet([-1.0, 0.0], FourierIntensityMap((2,)))
    with pytest.raises(DimensionMismatchError):
        FourierMagnitudeSet(np.ones(6), FourierIntensityMap((2, 2)))


@pytest.mark.parametrize("build, argument", [
    (lambda: HalfspaceSet([1.0, 0.0], math.inf), "offset"),
    (lambda: HalfspaceSet([1.0, 0.0], math.nan), "offset"),
    (lambda: HalfspaceSet([math.nan, 1.0], 0.0), "normal"),
    (lambda: HalfspaceSet([math.inf, 1.0], 0.0), "normal"),
    (lambda: BoxMagnitudeSet([1.0, math.nan]), "magnitudes"),
    (lambda: BoxMagnitudeSet([1.0, math.inf]), "magnitudes"),
    (lambda: BoxMagnitudeSet.from_intensity([math.nan, 1.0]), "intensities"),
    (lambda: BoxMagnitudeSet.from_intensity([math.inf, 1.0]), "intensities"),
    (lambda: FourierMagnitudeSet([math.nan, 0.0], FourierIntensityMap((2,))), "intensities"),
    (lambda: FourierMagnitudeSet([math.inf, 0.0], FourierIntensityMap((2,))), "intensities"),
])
def test_constructors_refuse_numbers_that_are_not_finite(build, argument):
    # A NaN passes a ``< 0`` check, and an infinite offset makes every point a member.
    with pytest.raises(ValueError, match=argument):
        build()


# ---------------------------------------------------------------------------
# Exact projection onto divergence balls (KKT Newton)

def test_exact_projection_identity_ball_closed_form():
    rng = np.random.default_rng(15)
    for _ in range(10):
        center = rng.standard_normal(4)
        eps = rng.uniform(0.05, 0.8)
        ball = RegularizedSet(IdentityMap(4), center, EuclideanKernel(), eps)
        x = Point(center + rng.standard_normal(4) * 5)
        if ball.contains(x):
            continue
        p = project_regularized_exact(ball, x)
        direction = (x.data - center) / np.linalg.norm(x.data - center)
        expected = center + math.sqrt(2 * eps) * direction
        assert np.allclose(p.data, expected, atol=1e-9)


def test_exact_projection_quartic_matches_grid_search():
    # One-dimensional squared map: residual(y) = (y^2 - 1)^2 / 2 <= 0.02,
    # projecting x = 2 must land on the nearest boundary root sqrt(1.2).
    ball = RegularizedSet(SquareMap(1), np.array([1.0]), EuclideanKernel(), 0.02)
    x = Point(np.array([2.0]))
    p = project_regularized_exact(ball, x)

    grid = np.arange(1.0, 2.0, 1e-6)
    feasible = grid[0.5 * (grid ** 2 - 1.0) ** 2 <= 0.02]
    oracle = feasible[np.argmin(np.abs(feasible - 2.0))]
    assert abs(p.data[0] - oracle) < 1e-5
    assert p.data[0] == pytest.approx(math.sqrt(1.2), abs=1e-9)


def test_exact_projection_matches_slsqp_on_general_instances():
    rng = np.random.default_rng(16)
    checked = 0
    for _ in range(12):
        m_rows, n = 2, 5
        A = rng.standard_normal((m_rows, n))
        b = rng.standard_normal(m_rows)
        ball = RegularizedSet(LinearMap(A), b, EuclideanKernel(), rng.uniform(0.1, 0.5))
        x = Point(rng.standard_normal(n) * 3)
        if ball.contains(x):
            continue
        p = project_regularized_exact(ball, x)
        # feasible start: least-norm correction onto Ay = b (pure numpy)
        start = x.data + A.T @ np.linalg.solve(A @ A.T, b - A @ x.data)
        oracle = ball_projection_by_solver(ball, x, start)
        assert np.allclose(p.data, oracle, atol=1e-5)
        assert ball.residual(p) == pytest.approx(ball.epsilon, abs=1e-9)
        checked += 1
    assert checked >= 8


def test_exact_projection_on_a_fourier_kl_ball_is_a_kkt_point():
    # Complex storage, dim 18.  The ball is nonconvex, so the Newton point
    # is a KKT point; it need not be the nearest one.
    rng = np.random.default_rng(3)
    fmap = FourierIntensityMap((3, 3))
    truth = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    ball = RegularizedSet(fmap, fmap.value(Point.from_complex(truth)),
                          KullbackLeiblerKernel(), 0.5)
    x = Point.from_complex(truth + 1.5 * (rng.standard_normal(9) + 1j * rng.standard_normal(9)))
    assert x.dim == 18 and not ball.contains(x)
    p = project_regularized_exact(ball, x)
    assert ball.residual(p) == pytest.approx(ball.epsilon, abs=1e-9)
    grad, step = ball.residual_gradient(p).data, x.data - p.data
    eta = float(step @ grad) / float(grad @ grad)
    assert eta >= 0.0
    assert np.allclose(step, eta * grad, rtol=0.0, atol=1e-9)
    assert np.array_equal(ball.project(x)[0].data, p.data)


def test_exact_projection_refusals():
    ball0 = RegularizedSet(IdentityMap(2), np.zeros(2), EuclideanKernel(), 0.0)
    with pytest.raises(ValueError, match="epsilon"):
        project_regularized_exact(ball0, Point(np.array([3.0, 0.0])))

    big = RegularizedSet(IdentityMap(51), np.zeros(51), EuclideanKernel(), 0.5)
    with pytest.raises(ValueError, match="dimension"):
        project_regularized_exact(big, Point(np.ones(51)))

    ball = RegularizedSet(IdentityMap(2), np.zeros(2), EuclideanKernel(), 0.5)
    with pytest.raises(ValueError, match="member"):
        project_regularized_exact(ball, Point(np.array([0.1, 0.0])))


# ---------------------------------------------------------------------------
# Approximate (segment) projection

def test_approx_equals_exact_for_orthonormal_rows():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n))
        A = np.linalg.qr(rng.standard_normal((n, m)))[0].T
        b = rng.standard_normal(m)
        ball = RegularizedSet(LinearMap(A), b, EuclideanKernel(), rng.uniform(0.05, 0.5))
        affine = AffineSet(A, b)
        x = Point(rng.standard_normal(n) * 3)
        if ball.contains(x):
            continue
        approx, tau = project_regularized_approx(ball, affine, x)
        exact = project_regularized_exact(ball, x)
        assert 0.0 < tau < 1.0
        assert np.allclose(approx.data, exact.data, atol=1e-10)


def test_approx_lands_on_boundary_but_differs_for_general_rows():
    rng = np.random.default_rng(18)
    seen_gap = 0.0
    for _ in range(10):
        A = rng.standard_normal((2, 5)) * np.array([[3.0], [0.2]])
        b = rng.standard_normal(2)
        ball = RegularizedSet(LinearMap(A), b, EuclideanKernel(), 0.2)
        affine = AffineSet(A, b)
        x = Point(rng.standard_normal(5) * 3)
        if ball.contains(x):
            continue
        approx, _ = project_regularized_approx(ball, affine, x)
        exact = project_regularized_exact(ball, x)
        assert ball.residual(approx) == pytest.approx(ball.epsilon, abs=1e-8)
        assert ball.residual(exact) == pytest.approx(ball.epsilon, abs=1e-8)
        seen_gap = max(seen_gap, float(np.linalg.norm(approx.data - exact.data)))
        # The segment point can never beat the true projection.
        assert x.distance(approx) >= x.distance(exact) - 1e-10
    assert seen_gap > 1e-3


def test_approx_rejects_members():
    ball = RegularizedSet(IdentityMap(2), np.zeros(2), EuclideanKernel(), 0.5)
    affine = AffineSet(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="member"):
        project_regularized_approx(ball, affine, Point(np.array([0.1, 0.0])))


# ---------------------------------------------------------------------------
# The ball as a set oracle

def test_regularized_oracle_modes_and_normal_cones():
    rng = np.random.default_rng(19)
    A = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    b = rng.standard_normal(2)
    ball = RegularizedSet(LinearMap(A), b, EuclideanKernel(), 0.3)
    affine = AffineSet(A, b)

    x = Point(rng.standard_normal(4) * 4)
    pe = ball.project(x)[0]
    pa, _ = project_regularized_approx(ball, affine, x)
    assert np.allclose(pe.data, pa.data, atol=1e-9)

    inside = ball.project(x)[0]
    assert ball.project(inside)[0] is inside  # members are fixed

    assert isinstance(ball.normal_cone_at(pe), RayCone)
    deep = Point(affine.project(Point(np.zeros(4)))[0].data)
    assert isinstance(ball.normal_cone_at(deep), ZeroCone)
    with pytest.raises(ValueError):
        ball.normal_cone_at(Point(pe.data * 50))


def test_regularized_oracle_projection_is_the_kkt_solve():
    rng = np.random.default_rng(23)
    data = rng.uniform(0.5, 2.0, 4)
    ball = RegularizedSet(SquareMap(4), data, EuclideanKernel(), 0.3)
    for _ in range(5):
        x = Point(rng.standard_normal(4) * 3)
        assert not ball.contains(x)
        (exact,) = ball.project(x)
        assert np.array_equal(exact.data, project_regularized_exact(ball, x).data)


def test_regularized_oracle_membership_residual():
    ball = RegularizedSet(IdentityMap(1), np.zeros(1), EuclideanKernel(), 0.5)
    assert ball.membership_residual(Point(np.array([0.5]))) == 0.0
    assert ball.membership_residual(Point(np.array([2.0]))) == pytest.approx(1.5)
