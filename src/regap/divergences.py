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
from scipy.special import xlogy

from .core import COMPLEX, MEMBERSHIP_TOL, REAL, DimensionMismatchError, Point, first_crossing, lerp

CLIP_FLOOR = 1e-300

EUCLIDEAN = "euclidean"
KULLBACK_LEIBLER = "kullback_leibler"


class KernelDomainError(ValueError):
    """Argument outside the kernel's domain."""


def _as_array(v) -> np.ndarray:
    if isinstance(v, Point):
        return v.data
    return np.asarray(v, dtype=np.float64)


class EuclideanKernel:
    """Half squared Euclidean distance, the Bregman distance of 0.5*||.||^2."""

    name = EUCLIDEAN

    def evaluate(self, z, y) -> float:
        return self.against(y)(z)

    def against(self, y) -> Callable[[np.ndarray], float]:
        """Prepared ``z -> d(z, y)`` for repeated evaluation against fixed data."""
        y = _as_array(y)

        def distance(z) -> float:
            d = _as_array(z) - y
            return 0.5 * float(d @ d)
        return distance

    def gradient_in_first_arg(self, z, y) -> np.ndarray:
        return _as_array(z) - _as_array(y)

    def hessian_in_first_arg(self, z, y) -> np.ndarray:
        return np.eye(_as_array(z).size)


class KullbackLeiblerKernel:
    """Kullback-Leibler divergence, the Bregman distance of t*log(t) - t.

    ``evaluate`` accepts nonnegative data in both slots.  The first argument
    ``z`` follows the ``0*log(0) = 0`` convention: its zeros are neither
    clipped nor counted.  Entries of the second argument ``y`` below
    ``CLIP_FLOOR`` are clipped to it before the logarithm, and each clipped
    entry adds one to ``clip_count`` per evaluation; stored data is never
    modified.  Negative entries in either argument are a hard domain error.
    The gradient and Hessian also clip and count zeros of ``z``, where
    ``log(z)`` and ``1/z`` have no such convention.
    """

    name = KULLBACK_LEIBLER

    def __init__(self):
        self.clip_count = 0

    def _clip(self, v: np.ndarray) -> np.ndarray:
        small = v < CLIP_FLOOR
        if np.any(small):
            self.clip_count += int(np.count_nonzero(small))
            v = np.where(small, CLIP_FLOOR, v)
        return v

    def _check_nonneg(self, v: np.ndarray, slot: str) -> None:
        if np.any(v < 0):
            raise KernelDomainError(f"negative component in the {slot} argument")

    def evaluate(self, z, y) -> float:
        return self.against(y)(z)

    def against(self, y) -> Callable[[np.ndarray], float]:
        """Prepared ``z -> d(z, y)`` for repeated evaluation against fixed data.

        ``y`` is checked, clipped and logged once; each call checks ``z`` and
        adds the clipped entries of ``y`` to ``clip_count``, as ``evaluate``
        does per call.
        """
        y = _as_array(y)
        self._check_nonneg(y, "second")
        small = y < CLIP_FLOOR
        n_small = int(np.count_nonzero(small))
        log_y = np.log(np.where(small, CLIP_FLOOR, y))

        def divergence(z) -> float:
            z = _as_array(z)
            if (z < 0).any():
                raise KernelDomainError("negative component in the first argument")
            self.clip_count += n_small
            # z*log(z/y) as z*log(z) - z*log(yc), with 0*log(0) = 0: numpy's
            # vectorized log on the positive entries (scipy's xlogy would call
            # the scalar log once per entry).
            terms = np.log(z, out=np.zeros_like(z), where=z > 0)
            terms *= z
            terms -= z * log_y
            terms += y
            terms -= z
            return float(terms.sum())
        return divergence

    def gradient_in_first_arg(self, z, y) -> np.ndarray:
        z = _as_array(z)
        y = _as_array(y)
        self._check_nonneg(z, "first")
        self._check_nonneg(y, "second")
        return np.log(self._clip(z)) - np.log(self._clip(y))

    def hessian_in_first_arg(self, z, y) -> np.ndarray:
        z = self._clip(_as_array(z))
        return np.diag(1.0 / z)


def make_kernel(name: str):
    if name == EUCLIDEAN:
        return EuclideanKernel()
    if name == KULLBACK_LEIBLER:
        return KullbackLeiblerKernel()
    raise ValueError(f"unknown kernel {name!r}")


def kl_divergence(z, y) -> float:
    """Strict Kullback-Leibler divergence sum(z*log(z/y) + y - z).

    Requires ``z >= 0`` and ``y > 0`` componentwise; ``0*log(0) = 0``.
    """
    z = _as_array(z)
    y = _as_array(y)
    if np.any(z < 0):
        raise KernelDomainError("negative component in z")
    if np.any(y <= 0):
        raise KernelDomainError("nonpositive component in y")
    return float(np.sum(xlogy(z, z / y) + y - z))


# ---------------------------------------------------------------------------
# Forward maps


class ForwardMap:
    """Differentiable map g from the ambient space into the data space.

    ``value`` evaluates g, ``pullback`` applies the Jacobian adjoint
    Dg(x)^T w in real-storage coordinates, and ``segment`` prepares g along
    a segment for the boundary solve.  ``is_affine`` enables the closed-form
    boundary solve for Euclidean kernels.
    """

    in_dim: int
    out_dim: int
    in_kind: str = REAL
    is_affine = False

    def value(self, x: Point) -> np.ndarray:
        raise NotImplementedError

    def pullback(self, x: Point, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def segment(self, x: Point, a: Point) -> Callable[[float], np.ndarray]:
        """``t -> g((1 - t) x + t a)``, prepared once per segment.

        This generic version evaluates ``value(lerp(x, a, t))`` and is the
        reference that overrides must reproduce.
        """
        return lambda t: self.value(lerp(x, a, t))

    def second_order_correction(self, x: Point, w: np.ndarray) -> np.ndarray:
        """Matrix sum_k w_k * Hess(g_k)(x); zero for affine maps."""
        return np.zeros((self.in_dim, self.in_dim))

    def jacobian(self, x: Point) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no dense Jacobian")

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

    def jacobian(self, x: Point) -> np.ndarray:
        return np.eye(self.in_dim)


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

    def jacobian(self, x: Point) -> np.ndarray:
        return self.matrix.copy()


class SquareMap(ForwardMap):
    """Componentwise squared modulus: |x_j|^2 per logical component."""

    def __init__(self, n: int, kind: str = REAL):
        self.in_kind = kind
        self.out_dim = int(n)
        self.in_dim = 2 * int(n) if kind == COMPLEX else int(n)

    def value(self, x: Point) -> np.ndarray:
        self._check(x)
        if self.in_kind == COMPLEX:
            c = x.as_complex()
            return (c.real ** 2 + c.imag ** 2)
        return x.data ** 2

    def pullback(self, x: Point, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if self.in_kind == COMPLEX:
            return 2.0 * x.data * np.repeat(w, 2)
        return 2.0 * x.data * w

    def segment(self, x: Point, a: Point) -> Callable[[float], np.ndarray]:
        # lerp's arithmetic on the raw storage, without building a Point
        self._check(x)
        self._check(a)
        xd, ad = x.data, a.data
        if self.in_kind == COMPLEX:
            def along(t: float) -> np.ndarray:
                c = ((1.0 - t) * xd + t * ad).view(np.complex128)
                return c.real ** 2 + c.imag ** 2
        else:
            def along(t: float) -> np.ndarray:
                return ((1.0 - t) * xd + t * ad) ** 2
        return along

    def second_order_correction(self, x: Point, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        diag = 2.0 * (np.repeat(w, 2) if self.in_kind == COMPLEX else w)
        return np.diag(diag)

    def jacobian(self, x: Point) -> np.ndarray:
        if self.in_kind == COMPLEX:
            jac = np.zeros((self.out_dim, self.in_dim))
            jac[np.arange(self.out_dim), 2 * np.arange(self.out_dim)] = 2.0 * x.data[0::2]
            jac[np.arange(self.out_dim), 2 * np.arange(self.out_dim) + 1] = 2.0 * x.data[1::2]
            return jac
        return np.diag(2.0 * x.data)


class FourierIntensityMap(ForwardMap):
    """Squared modulus of the unitary DFT of a complex grid."""

    in_kind = COMPLEX

    def __init__(self, shape: Sequence[int]):
        self.shape = tuple(int(s) for s in shape)
        n = int(np.prod(self.shape))
        self.out_dim = n
        self.in_dim = 2 * n

    def _transform(self, x: Point) -> np.ndarray:
        self._check(x)
        grid = x.as_complex().reshape(self.shape)
        return np.fft.fftn(grid, norm="ortho")

    def value(self, x: Point) -> np.ndarray:
        X = self._transform(x)
        return np.abs(X).ravel() ** 2

    def pullback(self, x: Point, w: np.ndarray) -> np.ndarray:
        X = self._transform(x)
        w = np.asarray(w, dtype=np.float64).reshape(self.shape)
        grad = np.fft.ifftn(2.0 * w * X, norm="ortho")
        return np.ascontiguousarray(grad.ravel()).view(np.float64).copy()

    def segment(self, x: Point, a: Point) -> Callable[[float], np.ndarray]:
        # The DFT is linear: F((1 - t) x + t a) = X + t (A - X), so two
        # transforms serve the whole segment.  The intensity is evaluated as
        # re^2 + im^2 in real arithmetic, which skips the complex modulus
        # (a hypot per entry) and is nonnegative by construction.
        X = self._transform(x).ravel()
        D = self._transform(a).ravel() - X
        xr, xi = np.ascontiguousarray(X.real), np.ascontiguousarray(X.imag)
        dr, di = np.ascontiguousarray(D.real), np.ascontiguousarray(D.imag)

        def along(t: float) -> np.ndarray:
            re = xr + t * dr
            im = xi + t * di
            re *= re
            im *= im
            re += im
            return re
        return along


# ---------------------------------------------------------------------------
# Regularized sets


@dataclass
class RegularizedSet:
    """Divergence ball {x : d(g(x), b) <= epsilon} around the data b.

    The unregularized set (epsilon = 0) is {x : g(x) = b}.  Whether the
    divergence grows fast enough at infinity for projections to exist is a
    property of (g, d, b) that the caller must ensure; it is not checked.

    ``forward``, ``data`` and ``kernel`` are fixed after construction: the
    kernel's divergence against ``data`` is prepared once, on first use, and
    ``residual`` remembers its last ``(point, value)`` pair so that asking
    again for the identical ``Point`` (whose storage is read-only) costs
    nothing.
    """

    forward: ForwardMap
    data: np.ndarray
    kernel: object
    epsilon: float
    _divergence: Callable[[np.ndarray], float] | None = field(
        default=None, init=False, repr=False, compare=False)
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

    @property
    def dim(self) -> int:
        return self.forward.in_dim

    @property
    def kind(self) -> str:
        return self.forward.in_kind

    @property
    def divergence(self) -> Callable[[np.ndarray], float]:
        """The prepared ``z -> d(z, b)``, built on first use."""
        if self._divergence is None:
            self._divergence = self.kernel.against(self.data)
        return self._divergence

    def residual(self, x: Point) -> float:
        last = self._last_residual
        if last is not None and last[0] is x:
            return last[1]
        value = self.divergence(self.forward.value(x))
        self._last_residual = (x, value)
        return value

    def residual_gradient(self, x: Point) -> Point:
        w = self.kernel.gradient_in_first_arg(self.forward.value(x), self.data)
        return Point(self.forward.pullback(x, w), self.kind)

    def residual_hessian(self, x: Point) -> np.ndarray:
        z = self.forward.value(x)
        jac = self.forward.jacobian(x)
        w = self.kernel.gradient_in_first_arg(z, self.data)
        hess = jac.T @ self.kernel.hessian_in_first_arg(z, self.data) @ jac
        return hess + self.forward.second_order_correction(x, w)

    def contains(self, x: Point, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.residual(x) <= self.epsilon + tol


def residual(m: RegularizedSet, x: Point) -> float:
    """Divergence d(g(x), b) of the point's image from the data."""
    return m.residual(x)


def bregman_line_boundary(m: RegularizedSet, x: Point, x0: Point,
                          tol: float = 1e-12, max_iter: int = 200,
                          scan: int = 64) -> tuple[float, Point]:
    """First entry of the segment from ``x`` toward ``x0`` into the set.

    Returns ``(tau, point)`` with ``tau`` the smallest relaxation in (0, 1]
    such that ``(1 - tau) x + tau x0`` is a member, located by a forward scan
    plus bisection (closed-form quadratic for Euclidean kernels with affine
    maps).  Requires ``x`` outside the set and ``x0`` a member (for instance
    a projection onto the unregularized set).  For non-monotone residuals
    along the segment the first crossing found by the scan is returned, so
    the result is always a member within the membership tolerance, matching
    the slack granted to the anchor itself.

    The scan and bisection test membership through the map's ``segment``
    and the set's prepared divergence, which skip building and re-validating
    a point per step.  The returned point is re-checked with ``contains``;
    should rounding in a fast ``segment`` ever disagree, the search is
    redone with the generic predicate.
    """
    rx = m.residual(x)
    if rx <= m.epsilon:
        raise ValueError("x is already a member; no boundary crossing to find")
    r0 = m.residual(x0)
    if r0 > m.epsilon + MEMBERSHIP_TOL:
        raise ValueError("anchor x0 is not a member of the set")

    if isinstance(m.kernel, EuclideanKernel) and m.forward.is_affine:
        u = m.forward.value(x) - m.data
        v = m.forward.value(x0) - m.data
        d = v - u
        a = 0.5 * float(d @ d)
        b = float(u @ d)
        c = 0.5 * float(u @ u) - m.epsilon
        if a > 0:
            disc = b * b - 4.0 * a * c
            if disc >= 0:
                sqrt_disc = np.sqrt(disc)
                tau = (-b - sqrt_disc) / (2.0 * a)
                if not 0.0 < tau <= 1.0:
                    tau = (-b + sqrt_disc) / (2.0 * a)
                if 0.0 < tau <= 1.0:
                    return float(tau), lerp(x, x0, float(tau))
        # fall through to bisection on degenerate geometry

    bound = m.epsilon + MEMBERSHIP_TOL
    along = m.forward.segment(x, x0)
    divergence = m.divergence

    def search(member: Callable[[float], bool]) -> tuple[float, Point]:
        tau = float(first_crossing(member, 0.0, 1.0, scan=scan, tol=tol, max_iter=max_iter))
        return tau, lerp(x, x0, tau)

    def generic(t: float) -> bool:
        return m.residual(lerp(x, x0, t)) <= bound

    try:
        tau, point = search(lambda t: divergence(along(t)) <= bound)
    except ValueError:  # rounding in ``along`` can put the anchor itself outside
        return search(generic)
    return (tau, point) if m.contains(point) else search(generic)
