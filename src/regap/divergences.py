"""Bregman divergences, forward maps, and divergence-ball feasibility sets.

A feasibility constraint ``g(x) = b`` is relaxed to the sublevel set
``{x : d(g(x), b) <= eps}`` of a Bregman divergence ``d``.  The module ships
the Euclidean and Kullback-Leibler kernels and the forward maps needed by the
experiments (identity, linear, componentwise squared modulus, and DFT
intensity), plus the 1-d boundary solve along a segment that powers the
approximate projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (COMPLEX, MEMBERSHIP_TOL, REAL, DimensionMismatchError, NormalCone,
                   NormalConeUnavailableError, Point, RayCone, ZeroCone, first_crossing, lerp)

CLIP_FLOOR = 1e-300
EPS = 2.0 ** -52  # float64 machine epsilon


class KernelDomainError(ValueError):
    """Argument outside the kernel's domain."""


def _as_array(v) -> np.ndarray:
    if isinstance(v, Point):
        return v.data
    return np.asarray(v, dtype=np.float64)


class EuclideanKernel:
    """Half squared Euclidean distance, the Bregman distance of 0.5*||.||^2."""

    def evaluate(self, z, y) -> float:
        return self.against(y)(z)

    def against(self, y) -> Callable[[np.ndarray], float]:
        """Prepared ``z -> d(z, y)`` for repeated evaluation against fixed data,
        with ``gradient`` and ``segment_excess`` as for KL (here a quartic)."""
        y = _as_array(y)

        def distance(z) -> float:
            d = _as_array(z) - y
            return 0.5 * float(d @ d)

        def segment_excess(p, bound: float) -> Callable[[float], float]:
            # ½‖p0 − y + p1 t + p2 t²‖² − bound, expanded once into a quartic in t
            p0, p1, p2 = p[0] - y, p[1], p[2]
            c0 = 0.5 * float(p0 @ p0) - bound
            c1, c2 = float(p0 @ p1), 0.5 * float(p1 @ p1) + float(p0 @ p2)
            c3, c4 = float(p1 @ p2), 0.5 * float(p2 @ p2)
            return lambda t: c0 + t * (c1 + t * (c2 + t * (c3 + t * c4)))

        distance.gradient, distance.segment_excess = lambda z: _as_array(z) - y, segment_excess
        return distance


class KullbackLeiblerKernel:
    """Kullback-Leibler divergence, the Bregman distance of t*log(t) - t.

    ``evaluate`` accepts nonnegative data in both slots.  The first argument
    ``z`` follows the ``0*log(0) = 0`` convention: its zeros are neither
    clipped nor counted.  Entries of the second argument ``y`` below
    ``CLIP_FLOOR`` are clipped to it before the logarithm, and each clipped
    entry adds one to ``clip_count`` per evaluation; stored data is never
    modified.  Negative entries in either argument are a hard domain error.
    The gradient also clips and counts zeros of ``z``, where ``log(z)`` has
    no such convention.
    """

    def __init__(self):
        self.clip_count = 0

    def _check_nonneg(self, v: np.ndarray, slot: str) -> None:
        if np.any(v < 0):
            raise KernelDomainError(f"negative component in the {slot} argument")

    def evaluate(self, z, y) -> float:
        return self.against(y)(z)

    def against(self, y) -> Callable[[np.ndarray], float]:
        """Prepared ``z -> d(z, y)`` for repeated evaluation against fixed data.

        ``y`` is checked, clipped and logged once; each call checks ``z`` and
        adds the clipped entries of ``y`` to ``clip_count``, as ``evaluate``
        does per call.  So do the callable's ``gradient(z)`` and each probe
        of its ``segment_excess(p, bound)``, ``t -> d(z(t), y) - bound`` on
        ``z(t) = p0 + p1 t + p2 t^2``, clamped at 0 as it may round below.
        A probe takes only ``sum z log z``: ``sum z (log y + 1)`` is three
        moments taken once per segment, and ``sum y`` is taken once here.
        Its ``upper(lo, hi)`` bounds the divergence over a box of ``z``.
        """
        y = _as_array(y)
        self._check_nonneg(y, "second")
        small = y < CLIP_FLOOR
        n_small = int(np.count_nonzero(small))
        log_y = np.log(np.where(small, CLIP_FLOOR, y))
        weight, total, buffer = log_y + 1.0, float(y.sum()), np.empty_like(y)

        def terms(z, out: np.ndarray) -> np.ndarray:
            z = _as_array(z)
            self._check_nonneg(z, "first")
            self.clip_count += n_small
            # z*log(z/y) as z*log(z) - z*log(yc).  The log is taken at z floored
            # at the smallest subnormal 5e-324: exact for z > 0, 0*log(0) = -0.0.
            out = np.log(np.maximum(z, 5e-324, out=out), out=out)
            out *= z
            out -= z * log_y
            out += y
            out -= z
            return out

        def divergence(z) -> float:
            return float(terms(z, buffer).sum())

        def upper(lo, hi) -> float:
            """At least ``divergence(z)``, as computed, for every ``lo <= z <= hi``.

            Each term is convex in its ``z_i`` (``log_y`` is fixed), so it is
            largest at an end of ``[lo_i, hi_i]``.  The sum of the larger
            ends' terms is raised by ``4·(n + 8)·eps·s``, where ``s`` sums
            ``hi·(|log hi| + |log y| + 1) + y + 1/e`` and bounds the size of
            every term on the interval: that covers the rounding of each
            term (a few eps of its parts) and of each sum (``n·eps`` of the
            summed sizes), both here and in ``divergence(z)``.
            """
            hi = _as_array(hi)
            most = np.maximum(terms(lo, np.empty_like(y)), terms(hi, buffer), out=buffer)
            size = np.abs(np.log(np.maximum(hi, 5e-324))) + np.abs(log_y) + 1.0
            scale = float(hi @ size) + total + y.size / np.e
            return float(most.sum()) + 4.0 * (y.size + 8) * EPS * scale

        def gradient(z) -> np.ndarray:
            z = _as_array(z)
            self._check_nonneg(z, "first")
            self.clip_count += n_small + int(np.count_nonzero(z < CLIP_FLOOR))
            return np.log(np.maximum(z, CLIP_FLOOR)) - log_y

        def segment_excess(p, bound: float) -> Callable[[float], float]:
            p0, p1, p2 = p
            k0, k1, k2 = (float(weight @ pj) for pj in p)
            c0 = total - k0 - bound
            z, log_z = np.empty_like(p0), np.empty_like(p0)

            def excess(t: float) -> float:
                np.multiply(p2, t, out=z)
                np.add(z, p1, out=z)
                np.multiply(z, t, out=z)
                np.add(z, p0, out=z)
                np.maximum(z, 0.0, out=z)
                # log at max(z, CLIP_FLOOR): 0*log(0) = 0, and < 1e-297 off below
                np.log(np.maximum(z, CLIP_FLOOR, out=log_z), out=log_z)
                self.clip_count += n_small
                return float(z @ log_z) + c0 - t * (k1 + t * k2)
            return excess

        divergence.gradient, divergence.segment_excess = gradient, segment_excess
        divergence.upper = upper
        return divergence


# ---------------------------------------------------------------------------
# Forward maps


class ForwardMap:
    """Differentiable map g from the ambient space into the data space.

    ``value`` evaluates g and ``pullback`` applies the Jacobian adjoint
    Dg(x)^T w in real-storage coordinates.  ``segment_polynomial(x, a)``
    gives ``(p0, p1, p2)`` with ``g((1 - t) x + t a) = p0 + p1 t + p2 t^2``,
    which the boundary solve hands to the kernel's prepared divergence;
    affine maps (``is_affine``) inherit it, quadratic maps override it.
    """

    in_dim: int
    out_dim: int
    in_kind: str = REAL
    is_affine = False

    def value(self, x: Point) -> np.ndarray:
        raise NotImplementedError

    def pullback(self, x: Point, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def segment_point(self, x: Point, a: Point, t: float) -> Point:
        """The point ``(1 - t) x + t a``; a map may remember its image with it."""
        return lerp(x, a, t)

    def value_bounds(self, x: Point, radius: float) -> tuple[np.ndarray, np.ndarray] | None:
        """Componentwise ``(lo, hi)`` around ``value(y)`` for ``‖y − x‖ <= radius``.

        ``None`` here: a map without bounds leaves its callers to sample.
        """
        return None

    def segment_polynomial(self, x: Point, a: Point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coefficients ``(g(x), g(a) − g(x), 0)``, exact for affine maps only."""
        if not self.is_affine:
            raise NotImplementedError(f"{type(self).__name__} has no segment polynomial")
        gx = self.value(x)
        return gx, self.value(a) - gx, np.zeros_like(gx)

    def _check(self, x: Point) -> None:
        if x.dim != self.in_dim or x.kind != self.in_kind:
            raise DimensionMismatchError(
                f"point ({x.kind}/{x.dim}) does not match the map domain "
                f"({self.in_kind}/{self.in_dim})"
            )


class IdentityMap(ForwardMap):
    is_affine = True

    def __init__(self, n: int):
        self.in_dim = self.out_dim = int(n)

    def value(self, x: Point) -> np.ndarray:
        self._check(x)
        return x.data.copy()

    def pullback(self, x: Point, w: np.ndarray) -> np.ndarray:
        return np.asarray(w, dtype=np.float64).copy()


class LinearMap(ForwardMap):
    is_affine = True

    def __init__(self, matrix):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        self.out_dim, self.in_dim = self.matrix.shape

    def value(self, x: Point) -> np.ndarray:
        self._check(x)
        return self.matrix @ x.data

    def pullback(self, x: Point, w: np.ndarray) -> np.ndarray:
        return self.matrix.T @ np.asarray(w, dtype=np.float64)


class SquareMap(ForwardMap):
    """Componentwise square x_j^2 of a real vector."""

    def __init__(self, n: int):
        self.in_dim = self.out_dim = int(n)

    def value(self, x: Point) -> np.ndarray:
        self._check(x)
        return x.data ** 2

    def pullback(self, x: Point, w: np.ndarray) -> np.ndarray:
        return 2.0 * x.data * np.asarray(w, dtype=np.float64)

    def segment_polynomial(self, x: Point, a: Point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coefficients ``(x², 2·x·d, d²)``, ``d = a − x``, of ``t -> g((1 - t) x + t a)``."""
        self._check(x)
        self._check(a)
        d = a.data - x.data
        return x.data ** 2, 2.0 * x.data * d, d * d


class FourierIntensityMap(ForwardMap):
    """Squared modulus of the unitary DFT of a complex grid.

    The map owns every transform: ``spectrum(x)`` is ``F x``,
    ``from_spectrum(Y)`` builds the point ``F^-1 Y``, and
    ``segment_point(x, a, t)`` builds ``(1 - t) x + t a`` with the spectrum
    ``(1 - t) F x + t F a`` by linearity.  Each remembers its ``(point,
    spectrum)`` pair; the memo holds the last two, keyed on ``Point``
    identity as ``RegularizedSet.residual`` is.  So a phase ball and the
    anchor set on its map share each iterate's spectrum, and the anchor and
    the boundary point take no forward FFT; a spectrum no FFT took differs
    from ``F`` of its point by rounding only.  Spectra are read-only, so no
    caller can change a remembered value.
    """

    in_kind = COMPLEX

    def __init__(self, shape: Sequence[int]):
        self.shape = tuple(int(s) for s in shape)
        n = int(np.prod(self.shape))
        self.out_dim = n
        self.in_dim = 2 * n
        self._memo: list[tuple[Point, np.ndarray]] = []

    def _remember(self, x: Point, spectrum: np.ndarray) -> np.ndarray:
        spectrum.setflags(write=False)
        self._memo = [*self._memo[-1:], (x, spectrum)]
        return spectrum

    def spectrum(self, x: Point) -> np.ndarray:
        """The unitary DFT ``F x`` on the grid, read-only."""
        for point, spectrum in self._memo:
            if point is x:
                return spectrum
        self._check(x)
        return self._remember(x, np.fft.fftn(x.as_complex().reshape(self.shape), norm="ortho"))

    def from_spectrum(self, spectrum: np.ndarray) -> Point:
        """The point ``F^-1 Y`` of the spectrum ``Y``, remembered with a copy of ``Y``."""
        spectrum = np.array(spectrum, dtype=np.complex128).reshape(self.shape)
        point = Point.from_complex(self._inverse_transform(spectrum))
        self._remember(point, spectrum)
        return point

    def segment_point(self, x: Point, a: Point, t: float) -> Point:
        X, A, t = self.spectrum(x), self.spectrum(a), float(t)
        point = lerp(x, a, t)
        self._remember(point, (1.0 - t) * X + t * A)
        return point

    def value_bounds(self, x: Point, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise ``(lo, hi)`` with ``lo <= value(y) <= hi`` for ``‖y − x‖ <= radius``.

        The DFT is unitary, so each ``|(F y)_i|`` lies within ``radius`` of
        ``a_i = |(F x)_i|``: ``lo = max(a − r, 0)²`` and ``hi = (a + r)²``,
        on the remembered spectrum of ``x`` (no transform when ``x`` has
        one).  The bounds hold for ``value(y)`` as computed, on a fresh FFT
        of ``y``: ``r`` is ``radius`` plus ``64·eps·(log2 n + 1)·(‖x‖ +
        radius)``, several times the worst-case error of a radix-2 FFT
        (about ``3.4·eps·log2 n`` of the norm, Higham, Accuracy and
        Stability of Numerical Algorithms, §24.1) for each of the two
        spectra, plus the rounding of ``|·|²`` and of ``lo`` and ``hi``.
        That takes the remembered spectrum to be within FFT rounding of
        ``F x``, as it is when an FFT or ``from_spectrum`` gave it; a
        ``segment_point`` spectrum is within it unless the point is far
        shorter than the segment's ends.
        """
        a = np.abs(self.spectrum(x)).ravel()
        r = radius + 64.0 * EPS * (np.log2(self.out_dim) + 1.0) * (x.norm() + radius)
        lo = np.maximum(a - r, 0.0)
        a += r
        return np.square(lo, out=lo), np.square(a, out=a)

    def _inverse_transform(self, spectrum: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(spectrum, norm="ortho").ravel()

    def value(self, x: Point) -> np.ndarray:
        X = self.spectrum(x)
        return np.abs(X).ravel() ** 2

    def pullback(self, x: Point, w: np.ndarray) -> np.ndarray:
        X = self.spectrum(x)
        w = np.asarray(w, dtype=np.float64).reshape(self.shape)
        grad = self._inverse_transform(2.0 * w * X)
        return np.ascontiguousarray(grad).view(np.float64).copy()

    def segment_polynomial(self, x: Point, a: Point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coefficients ``(|X|², 2·Re(X·conj D), |D|²)`` of ``t -> g((1 - t) x + t a)``.

        The DFT is linear, ``F((1 - t) x + t a) = X + t D`` with ``X = F x``
        and ``D = F a − X``, so the two memoized spectra serve the segment.
        """
        X = self.spectrum(x).ravel()
        D = self.spectrum(a).ravel() - X
        xr, xi, dr, di = X.real, X.imag, D.real, D.imag
        return xr * xr + xi * xi, 2.0 * (xr * dr + xi * di), dr * dr + di * di


# ---------------------------------------------------------------------------
# Regularized sets


@dataclass
class RegularizedSet:
    """Divergence ball {x : d(g(x), b) <= epsilon} around the data b.

    At epsilon = 0 it is the data set {x : g(x) = b}.  Whether the
    divergence grows fast enough at infinity for projections to exist is a
    property of (g, d, b) that the caller must ensure; it is not checked.

    ``forward``, ``data`` and ``kernel`` are fixed after construction: the
    kernel's divergence against ``data`` is prepared once, as ``divergence``,
    when the ball is built, and ``residual`` remembers its last ``(point,
    value)`` pair so that asking again for the identical ``Point`` (whose
    storage is read-only) costs nothing.
    """

    forward: ForwardMap
    data: np.ndarray
    kernel: object
    epsilon: float
    divergence: Callable[[np.ndarray], float] = field(init=False, repr=False, compare=False)
    _last_residual: tuple[Point, float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 1 or self.data.size != self.forward.out_dim:
            raise DimensionMismatchError(
                f"data length {self.data.size} does not match the map range "
                f"{self.forward.out_dim}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("data entries must be finite")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        self.divergence = self.kernel.against(self.data)

    @property
    def dim(self) -> int:
        return self.forward.in_dim

    @property
    def kind(self) -> str:
        return self.forward.in_kind

    def residual(self, x: Point) -> float:
        last = self._last_residual
        if last is not None and last[0] is x:
            return last[1]
        value = self.divergence(self.forward.value(x))
        self._last_residual = (x, value)
        return value

    def residual_gradient(self, x: Point) -> Point:
        w = self.divergence.gradient(self.forward.value(x))
        return Point(self.forward.pullback(x, w), self.kind)

    def contains(self, x: Point, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.residual(x) <= self.epsilon + tol

    def membership_residual(self, x: Point) -> float:
        """Excess of the residual over ``epsilon``, zero exactly on the ball."""
        return max(self.residual(x) - self.epsilon, 0.0)

    def normal_cone_at(self, x: Point) -> NormalCone:
        """Normal cone at the member ``x``.

        Within ``max(MEMBERSHIP_TOL, 1e-6 * epsilon)`` of the boundary value
        it is the ray of the residual gradient; deeper inside it is {0}.
        """
        r = self.residual(x)
        band = max(MEMBERSHIP_TOL, 1e-6 * self.epsilon)
        if r > self.epsilon + band:
            raise ValueError("base point is not a member of the set")
        if r < self.epsilon - band:
            return ZeroCone(self.dim)
        grad = self.residual_gradient(x)
        if grad.norm() <= 1e-14:
            raise NormalConeUnavailableError("zero residual gradient at the boundary")
        return RayCone(grad.data)


def bregman_line_boundary(m: RegularizedSet, x: Point, x0: Point) -> tuple[float, Point]:
    """First entry of the segment from ``x`` toward ``x0`` into the set.

    Returns ``(tau, point)`` with ``tau`` the smallest relaxation in (0, 1]
    such that ``(1 - tau) x + tau x0`` is a member.  Euclidean kernels with
    affine maps solve a closed-form quadratic.  Otherwise
    :func:`~regap.core.first_crossing` (a forward scan plus safeguarded secant
    refinement) locates the first member of the excess ``residual - (epsilon
    + MEMBERSHIP_TOL)``, taken as the prepared divergence's ``segment_excess``
    on the map's ``segment_polynomial`` without building a point per step; a
    map with no polynomial raises ``NotImplementedError``.  For non-monotone
    residuals the first crossing found by the scan is returned.  Requires
    ``x`` outside the set and ``x0`` a member (for instance a projection onto
    the data set); a member ``x`` raises ``ValueError``, as does a non-member
    ``x0`` in the segment search, which tests the ``x0`` end first.  The
    returned point is re-checked with ``contains``; should rounding in the
    prepared excess ever disagree, the search is redone with the generic
    excess ``residual(lerp(...))``, so the result is always a member within
    the membership tolerance granted to the anchor itself.
    """
    if m.residual(x) <= m.epsilon:
        raise ValueError("x is already a member; no boundary crossing to find")

    if isinstance(m.kernel, EuclideanKernel) and m.forward.is_affine:
        u = m.forward.value(x) - m.data
        d = m.forward.value(x0) - m.data - u
        a, b, c = 0.5 * float(d @ d), float(u @ d), 0.5 * float(u @ u) - m.epsilon
        disc = b * b - 4.0 * a * c
        if a > 0 and disc >= 0:
            for tau in ((-b - np.sqrt(disc)) / (2.0 * a), (-b + np.sqrt(disc)) / (2.0 * a)):
                if 0.0 < tau <= 1.0:
                    return float(tau), lerp(x, x0, float(tau))
        # fall through to the segment search on degenerate geometry

    bound = m.epsilon + MEMBERSHIP_TOL
    fast = m.divergence.segment_excess(m.forward.segment_polynomial(x, x0), bound)

    def search(excess: Callable[[float], float]) -> tuple[float, Point]:
        tau = float(first_crossing(excess))
        return tau, m.forward.segment_point(x, x0, tau)

    def generic(t: float) -> float:
        return m.residual(lerp(x, x0, t)) - bound

    try:
        tau, point = search(fast)
    except ValueError:  # rounding in ``fast`` can put the anchor itself outside
        if not m.contains(x0):
            raise ValueError("anchor x0 is not a member of the set") from None
        return search(generic)
    return (tau, point) if m.contains(point) else search(generic)
