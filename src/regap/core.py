"""Vectors, set oracles, normal cones, and iteration traces.

Everything downstream works with :class:`Point` values.  A complex vector of
logical length ``n`` is stored as ``2n`` interleaved real entries
``[re_0, im_0, re_1, im_1, ...]`` together with a scalar-kind flag, so every
norm, inner product, and lexicographic comparison is the plain Euclidean one
on ``R^{2n}``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Sequence

import numpy as np

MEMBERSHIP_TOL = 1e-9

REAL = "real"
COMPLEX = "complex"

FIXED_POINT = "fixed_point"
MAX_ITER = "max_iter"
STALLED_GAP = "stalled_gap"
TOLERANCE_MET = "tolerance_met"
TERMINATION_REASONS = frozenset({FIXED_POINT, MAX_ITER, STALLED_GAP, TOLERANCE_MET})

TRACE_COLUMNS = ("k", "step_norm", "gap", "residual", "gamma", "lambda", "reason")


class DimensionMismatchError(ValueError):
    """Operands live in different ambient spaces or have different scalar kinds."""


class NormalConeUnavailableError(RuntimeError):
    """The set does not expose an analytic normal cone at the queried point."""


class SolverError(RuntimeError):
    """A run cannot go on: a projection or a driver's check failed."""


class Point:
    """Immutable finite vector, real or complex-as-interleaved-real storage."""

    __slots__ = ("_data", "_kind")

    def __init__(self, data, kind: str = REAL):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("point storage must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point entries must be finite")
        if kind not in (REAL, COMPLEX):
            raise ValueError(f"unknown scalar kind {kind!r}")
        if kind == COMPLEX and arr.size % 2:
            raise ValueError("complex storage must have even length")
        arr.setflags(write=False)
        self._data = arr
        self._kind = kind

    @classmethod
    def from_complex(cls, values) -> "Point":
        c = np.ascontiguousarray(values, dtype=np.complex128)
        if c.ndim != 1:
            c = c.ravel()
        return cls(c.view(np.float64), COMPLEX)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def dim(self) -> int:
        """Length of the real storage."""
        return self._data.size

    def as_complex(self) -> np.ndarray:
        if self._kind != COMPLEX:
            raise ValueError("point is not complex")
        return self._data.view(np.complex128)

    def norm(self) -> float:
        return float(np.linalg.norm(self._data))

    def distance(self, other: "Point") -> float:
        self._check_compatible(other)
        return float(np.linalg.norm(self._data - other._data))

    def _check_compatible(self, other: "Point") -> None:
        if self._kind != other._kind or self._data.size != other._data.size:
            raise DimensionMismatchError(
                f"incompatible points: {self._kind}/{self._data.size} vs "
                f"{other._kind}/{other._data.size}"
            )

    def __repr__(self) -> str:
        return f"Point({np.array2string(self._data, threshold=8)}, kind={self._kind!r})"


def lerp(x: Point, y: Point, t: float) -> Point:
    """Point ``(1 - t) x + t y`` on the segment from x to y."""
    x._check_compatible(y)
    t = float(t)
    return Point((1.0 - t) * x.data + t * y.data, x.kind)


def canonical_point(candidates: Sequence[Point]) -> Point:
    """First candidate by lexicographic order of the storage entries.

    This is the deterministic tie-break used whenever a multivalued
    projection feeds a single-point step.
    """
    if not candidates:
        raise ValueError("empty candidate set")
    if len(candidates) == 1:
        return candidates[0]
    return min(candidates, key=lambda p: tuple(p.data.tolist()))


@functools.lru_cache(maxsize=None)
def _scan_grid(scan: int) -> tuple[float, ...]:
    """The scan's cell ends ``1/scan, 2/scan, ..., 1``, built once per ``scan``."""
    return tuple(np.linspace(0.0, 1.0, scan + 1)[1:].tolist())


def first_crossing(excess: Callable[[float], float], scan: int = 64) -> float:
    """Smallest member ``t`` in ``(0, 1]``, where ``t`` is a member iff ``excess(t) <= 0``.

    Callers pass a residual minus its bound, so membership is exactly the
    test ``residual <= bound``.  A forward scan of ``scan`` cells from 0
    brackets the first member, so on non-monotone excesses the first
    crossing is returned.  The bracket is then narrowed to ``tol = 1e-12``
    by at most 200 Illinois (modified regula falsi) steps, with
    ``excess(0)`` taken to seed them when the first cell holds the
    crossing.  Each probe aims ``tol/4`` past the secant root, so the member
    end lands strictly inside the set, and stays ``tol/2`` inside the
    bracket, so the last steps close it from both sides.  A step bisects
    instead when an end value is unknown or not finite, or when the bracket
    is wider than ``2**(1 - k/2)`` scan cells after ``k`` steps; the
    refinement thus takes at most about twice bisection's evaluations.
    ``excess(1) <= 0`` must hold.  The returned value is always a member
    with a non-member, or 0, within ``tol`` below it.
    """
    tol = 1e-12
    f_hi = float(excess(1.0))
    if not f_hi <= 0.0:
        raise ValueError("the upper endpoint is not a member")
    a, fa = 0.0, math.nan  # lower end: 0 or a non-member
    b, fb = 1.0, f_hi      # upper end: always a member
    for t in _scan_grid(scan):
        ft = f_hi if t == 1.0 else float(excess(t))
        if ft <= 0.0:
            b, fb = t, ft
            break
        a, fa = t, ft
    if a == 0.0:
        f_lo = float(excess(0.0))
        if f_lo > 0.0:
            fa = f_lo
    limit, shrink = 2.0 * (b - a), math.sqrt(0.5)
    moved = 0  # +1 when the last step moved b, -1 when it moved a
    for _ in range(200):
        width = b - a
        if width <= tol:
            break
        drop = fa - fb  # positive and finite when both end values are
        if width <= limit and 0.0 < drop < math.inf:
            root = b + fb / drop * width
            t = min(max(root + 0.25 * tol, a + 0.5 * tol), b - 0.5 * tol)
        else:
            t = 0.5 * (a + b)
        limit *= shrink
        ft = float(excess(t))
        if ft <= 0.0:
            if moved > 0:
                fa *= 0.5  # Illinois: a was kept twice, so weight it down
            b, fb, moved = t, ft, 1
        else:
            if moved < 0:
                fb *= 0.5
            a, fa, moved = t, ft, -1
    return b


def _svd_rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Count of singular values above ``s.max() * eps * max(m, n)``."""
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(shape)
    return int(np.count_nonzero(s > tol))


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of the real matrix ``a``, as columns.

    Uses the SVD with the rank rule of ``scipy.linalg.null_space``.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return vh[_svd_rank(s, a.shape):].T


def orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of the real matrix ``a``, as columns.

    Uses the SVD with the rank rule of ``scipy.linalg.orth``.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :_svd_rank(s, a.shape)]


# ---------------------------------------------------------------------------
# Normal cones


class NormalCone:
    """Closed convex cone of (proximal) normal directions at a point."""

    def distance(self, v: np.ndarray) -> float:
        raise NotImplementedError

    def sample_units(self, rng: np.random.Generator, k: int) -> np.ndarray | None:
        """``k`` unit directions in the cone as rows, or None if the cone is {0}."""
        raise NotImplementedError


def _unit_rows(draw: Callable[[int], np.ndarray], k: int) -> np.ndarray:
    """The rows of ``draw(k)`` normalized; rows of norm <= 1e-12 are drawn again."""
    w = draw(k)
    norms = np.linalg.norm(w, axis=1)
    while np.any(small := norms <= 1e-12):
        w[small] = draw(int(np.count_nonzero(small)))
        norms = np.linalg.norm(w, axis=1)
    return w / norms[:, None]


class ZeroCone(NormalCone):
    """Normal cone at an interior point."""

    def __init__(self, dim: int):
        self.dim = dim

    def distance(self, v: np.ndarray) -> float:
        return float(np.linalg.norm(v))

    def sample_units(self, rng: np.random.Generator, k: int) -> np.ndarray | None:
        return None


class RayCone(NormalCone):
    """Cone spanned by nonnegative multiples of a single direction."""

    def __init__(self, direction: np.ndarray):
        d = np.asarray(direction, dtype=np.float64)
        nrm = np.linalg.norm(d)
        if nrm == 0.0 or not np.all(np.isfinite(d)):
            raise ValueError("ray direction must be nonzero and finite")
        self.direction = d / nrm

    def distance(self, v: np.ndarray) -> float:
        t = max(float(v @ self.direction), 0.0)
        return float(np.linalg.norm(v - t * self.direction))

    def sample_units(self, rng: np.random.Generator, k: int) -> np.ndarray | None:
        return np.tile(self.direction, (k, 1))


class SubspaceCone(NormalCone):
    """Cone that is a full linear subspace, given by an orthonormal basis."""

    def __init__(self, basis: np.ndarray):
        q = np.atleast_2d(np.asarray(basis, dtype=np.float64))
        if q.shape[1] == 0:
            raise ValueError("use ZeroCone for the trivial subspace")
        self.basis = q  # columns orthonormal

    def distance(self, v: np.ndarray) -> float:
        coeff = self.basis.T @ v
        return float(np.linalg.norm(v - self.basis @ coeff))

    def sample_units(self, rng: np.random.Generator, k: int) -> np.ndarray | None:
        r = self.basis.shape[1]
        return _unit_rows(lambda n: rng.standard_normal((n, r)) @ self.basis.T, k)


class SignedProductCone(NormalCone):
    """Coordinate product of free lines, {0} factors, and nonpositive rays.

    ``free`` and ``nonpos`` are boolean masks of one length; coordinates in
    neither are constrained to zero.
    """

    def __init__(self, free: np.ndarray, nonpos: np.ndarray):
        self.free = np.asarray(free, dtype=bool)
        self.nonpos = np.asarray(nonpos, dtype=bool)
        if np.any(self.free & self.nonpos):
            raise ValueError("a coordinate cannot be both free and sign-constrained")

    def distance(self, v: np.ndarray) -> float:
        proj = np.zeros_like(v)
        proj[self.free] = v[self.free]
        proj[self.nonpos] = np.minimum(v[self.nonpos], 0.0)
        return float(np.linalg.norm(v - proj))

    def sample_units(self, rng: np.random.Generator, k: int) -> np.ndarray | None:
        if not (np.any(self.free) or np.any(self.nonpos)):
            return None

        def draw(n: int) -> np.ndarray:
            g = rng.standard_normal((n, self.free.size))
            return np.where(self.nonpos, -np.abs(g), np.where(self.free, g, 0.0))
        return _unit_rows(draw, k)


# ---------------------------------------------------------------------------
# Set oracles


class SetOracle:
    """A closed set queried through projections and membership tests.

    Subclasses must set ``dim`` (real storage length) and ``kind`` and
    implement :meth:`project` and :meth:`membership_residual`.  ``project``
    returns the full finite candidate set; use :func:`canonical_point` to pick
    the deterministic representative.  ``convex`` marks sets whose
    ``membership_residual`` is a convex function, so the members on a segment
    form an interval and :meth:`segment_entry` needs no scan for the first one.
    """

    kind = REAL
    convex = False

    def __init__(self, dim: int):
        self.dim = int(dim)

    def project(self, x: Point) -> list[Point]:
        raise NotImplementedError

    def membership_residual(self, x: Point) -> float:
        """Nonnegative defining residual, zero exactly on the set."""
        raise NotImplementedError

    def contains(self, x: Point, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.membership_residual(x) <= tol

    def segment_entry(self, x: Point, y: Point) -> tuple[float, Point]:
        """First member ``(s, (1 - s) x + s y)`` of the segment from ``x`` to the member ``y``.

        :func:`first_crossing` on ``membership_residual(lerp(x, y, s)) -
        MEMBERSHIP_TOL``, exactly the test of :meth:`contains`, with no scan
        on a convex set; the point is built by :func:`lerp` as each probe
        was, so it is a member.  Every fast path is tested against it.
        """
        s = first_crossing(lambda s: self.membership_residual(lerp(x, y, s)) - MEMBERSHIP_TOL,
                           scan=1 if self.convex else 64)
        return s, lerp(x, y, s)

    def normal_cone_at(self, x: Point) -> NormalCone:
        raise NormalConeUnavailableError(
            f"{type(self).__name__} exposes no analytic normal cone"
        )

    def _check_point(self, x: Point) -> None:
        if x.dim != self.dim or x.kind != self.kind:
            raise DimensionMismatchError(
                f"point ({x.kind}/{x.dim}) does not match the set's ambient "
                f"space ({self.kind}/{self.dim})"
            )


# ---------------------------------------------------------------------------
# Iteration traces


@dataclass
class TraceRecord:
    """One projection cycle: even iterate, odd iterate, and diagnostics.

    ``even`` and ``odd`` become ``None`` once the record is superseded: an
    :class:`IterationTrace` keeps the iterates of its first and last two
    records only.  ``step_norm`` is the even half-step into this cycle's even
    iterate (NaN at k = 0), ``gap`` the odd half-step out of it.  ``gamma``
    is the measured normal-alignment residual (NaN when unverified), ``lam``
    the relaxation used for the odd step (NaN when not applicable).
    """

    k: int
    even: Point | None
    odd: Point | None
    step_norm: float
    gap: float
    residual: float
    gamma: float
    lam: float


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None) -> Iterator[IO]:
    """File for writing that appears under ``path`` only when complete.

    ``mode`` is ``"w"`` (text) or ``"wb"`` (binary).  The block writes a
    temporary file in the same directory, which ``os.replace`` moves onto
    ``path`` once the block ends without error.  On an error the temporary
    file is removed and ``path`` keeps whatever it held before.
    """
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class IterationTrace:
    """Strictly ordered sequence of cycle records plus a termination reason.

    Every record keeps its scalars, but only records 0, -2 and -1 keep their
    iterates: appending a record sets ``even`` and ``odd`` of the record that
    falls out of the last two to ``None``, so memory does not grow with the
    cycle count.
    """

    def __init__(self):
        self.records: list[TraceRecord] = []
        self._reason: str | None = None

    def append(self, record: TraceRecord) -> None:
        if self._reason is not None:
            raise ValueError("trace already finished")
        if record.k != len(self.records):
            raise ValueError(
                f"records must be contiguous: expected k={len(self.records)}, "
                f"got k={record.k}"
            )
        self.records.append(record)
        if len(self.records) > 3:
            self.records[-3].even = self.records[-3].odd = None

    def finish(self, reason: str) -> "IterationTrace":
        if reason not in TERMINATION_REASONS:
            raise ValueError(f"unknown termination reason {reason!r}")
        if self._reason is not None:
            raise ValueError("trace already finished")
        self._reason = reason
        return self

    @property
    def reason(self) -> str:
        if self._reason is None:
            raise ValueError("trace not finished")
        return self._reason

    @property
    def final_even(self) -> Point:
        return self.records[-1].even

    def __len__(self) -> int:
        return len(self.records)

    def step_sequence(self) -> np.ndarray:
        """Chronological half-step norms: gap_0, step_1, gap_1, step_2, ..."""
        out = []
        for r in self.records:
            if r.k > 0 and math.isfinite(r.step_norm):
                out.append(r.step_norm)
            if math.isfinite(r.gap):
                out.append(r.gap)
        return np.asarray(out, dtype=np.float64)

    def rows(self) -> list[dict]:
        reason = self.reason
        return [
            {
                "k": r.k,
                "step_norm": r.step_norm,
                "gap": r.gap,
                "residual": r.residual,
                "gamma": r.gamma,
                "lambda": r.lam,
                "reason": reason,
            }
            for r in self.records
        ]

    def to_csv(self, path) -> None:
        with atomic_open(path, newline="") as fh:
            w = csv.writer(fh)
            w.writerow(TRACE_COLUMNS)
            for row in self.rows():
                w.writerow(
                    [row["k"]]
                    + [_fmt(row[c]) for c in ("step_norm", "gap", "residual", "gamma", "lambda")]
                    + [row["reason"]]
                )

    def to_json(self, path) -> None:
        """Write the rows as strict JSON: non-finite values become ``null``."""
        rows = [{key: None if isinstance(v, float) and not math.isfinite(v) else v
                 for key, v in row.items()} for row in self.rows()]
        with atomic_open(path) as fh:
            json.dump(rows, fh, indent=1, allow_nan=False)
            fh.write("\n")
