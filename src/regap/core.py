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
import json
import math
import os
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Sequence

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


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a contiguous 1-d real array, bit for bit, without its dispatch."""
    return math.sqrt(float(v.dot(v)))


class Point:
    """Immutable finite vector, real or complex-as-interleaved-real storage.

    The constructor copies ``data``.  Code that has just computed a fresh
    float64 array builds its point with :meth:`_fresh`, which freezes that
    array in place instead; both check every entry is finite.  A point also
    keeps the values other objects derive from it: see :meth:`derived`.
    """

    __slots__ = ("_data", "_kind", "_derived")

    def __init__(self, data, kind: str = REAL):
        self._adopt(np.array(data, dtype=np.float64), kind)

    @classmethod
    def _fresh(cls, arr: np.ndarray, kind: str = REAL) -> "Point":
        """Point on the float64 array ``arr``, which no one else may hold or write: no copy."""
        point = cls.__new__(cls)
        point._adopt(arr, kind)
        return point

    def _adopt(self, arr: np.ndarray, kind: str) -> None:
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("point storage must be a nonempty 1-d array")
        if not np.logical_and.reduce(np.isfinite(arr)):
            raise ValueError("point entries must be finite")
        if kind not in (REAL, COMPLEX):
            raise ValueError(f"unknown scalar kind {kind!r}")
        if kind == COMPLEX and arr.size % 2:
            raise ValueError("complex storage must have even length")
        arr.setflags(write=False)
        self._data = arr
        self._kind = kind
        self._derived = {}

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

    def derived(self, owner, make: Callable[[], object]):
        """``make()``, computed on the first call for ``owner`` and kept with the point.

        ``owner`` is the object (a map or a set) whose value it is; each
        owner keeps one value per point, keyed by the owner's identity.  The
        point is immutable, so the value cannot go stale, and it dies with
        the point: a twin built from the same data computes its own.
        """
        if owner not in self._derived:
            self._derived[owner] = make()
        return self._derived[owner]

    def as_complex(self) -> np.ndarray:
        if self._kind != COMPLEX:
            raise ValueError("point is not complex")
        return self._data.view(np.complex128)

    def norm(self) -> float:
        return _norm(self._data)

    def distance(self, other: "Point") -> float:
        self._check_compatible(other)
        return _norm(self._data - other._data)

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
    out = np.multiply(x.data, 1.0 - t)
    out += t * y.data
    return Point._fresh(out, x.kind)


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


SCAN_GRID = tuple(k / 64 for k in range(65))  # 0, 1/64, ..., 1: the ends of the scan's cells


def first_crossing(excess: Callable[[float], float], *,
                   bracket: tuple[float, float] | None = None,
                   slope: Callable[[float], float] | None = None) -> float:
    """Smallest member ``t`` in ``(0, 1]``, where ``t`` is a member iff ``excess(t) <= 0``.

    Callers pass a residual minus its bound, so membership is exactly the
    test ``residual <= bound``.  A forward scan of the 64 cells of
    ``SCAN_GRID`` brackets the first member, so on non-monotone excesses
    the first crossing is returned.  The bracket is then narrowed to
    ``tol = 1e-12`` by at most 200 Illinois (modified regula falsi) steps,
    with ``excess(0)`` taken to seed them when the bracket starts at 0.
    Each probe aims ``tol/4`` past the secant root, so the member end
    lands strictly inside the set, and stays ``tol/2`` inside the bracket,
    so the last steps close it from both sides.  A step bisects instead
    when an end value is unknown or not finite, or when the bracket is
    wider than ``2**(1 - k/2)`` times its first width after ``k`` steps;
    the refinement thus takes at most about twice bisection's evaluations.
    ``excess(1) <= 0`` must hold.  The returned value is always a member
    with a non-member, or 0, within ``tol`` below it.

    A caller that knows more of the excess passes it by keyword:

    - ``bracket``: ``(a, b)``, the cell in which the scan would bracket the
      crossing: no member lies in ``(0, a]`` and the excess changes sign
      once in ``(a, b]``.  The scan is skipped and ``excess(b) <= 0`` must
      hold instead of ``excess(1) <= 0``.
    - ``slope``: the derivative of the excess.  Each step first tries the
      Newton step from the latest probe, taken when its root falls inside
      the bracket and aimed and kept inside as the secant step is.  The
      first step starts from ``t = 0`` when ``excess(0)`` was taken, and
      from ``b`` otherwise.
    """
    tol = 1e-12
    a, b = (0.0, 1.0) if bracket is None else bracket
    fb = float(excess(b))
    if not fb <= 0.0:
        raise ValueError("the upper endpoint is not a member")
    fa = math.nan  # lower end: 0 or a non-member; b is always a member
    if bracket is None:  # the last cell ends at 1, where b and fb already are
        for t in SCAN_GRID[1:-1]:
            ft = float(excess(t))
            if ft <= 0.0:
                b, fb = t, ft
                break
            a, fa = t, ft
    last, f_last = b, fb  # the latest probe, where a Newton step starts
    if a == 0.0:
        last, f_last = 0.0, float(excess(0.0))
        if f_last > 0.0:
            fa = f_last
    limit, shrink = 2.0 * (b - a), math.sqrt(0.5)
    moved = 0  # +1 when the last step moved b, -1 when it moved a
    for _ in range(200):
        width = b - a
        if width <= tol:
            break
        root = math.nan
        if width <= limit:
            if slope is not None and (d := float(slope(last))) < 0.0 \
                    and a < (newton := last - f_last / d) < b:
                root = newton
            elif 0.0 < fa - fb < math.inf:  # both end values known and finite
                root = b + fb / (fa - fb) * width
        if root == root:  # a Newton or secant root; NaN when neither step applies
            t = min(max(root + 0.25 * tol, a + 0.5 * tol), b - 0.5 * tol)
        else:
            t = 0.5 * (a + b)
        limit *= shrink
        ft = float(excess(t))
        last, f_last = t, ft
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

    distance = staticmethod(_norm)

    def sample_units(self, rng: np.random.Generator, k: int) -> np.ndarray | None:
        return None


class RayCone(NormalCone):
    """Cone spanned by nonnegative multiples of a single direction."""

    def __init__(self, direction: np.ndarray):
        d = np.ascontiguousarray(direction, dtype=np.float64)
        if not np.logical_and.reduce(np.isfinite(d)) or (nrm := _norm(d)) == 0.0:
            raise ValueError("ray direction must be nonzero and finite")
        self.direction = d / nrm

    def distance(self, v: np.ndarray) -> float:
        t = max(float(v @ self.direction), 0.0)
        return _norm(v - t * self.direction)

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
        return _norm(v - self.basis @ coeff)

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
        return _norm(v - proj)

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
    the deterministic representative.
    """

    kind = REAL

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
        MEMBERSHIP_TOL``, exactly the test of :meth:`contains`; the point is
        built by :func:`lerp` as each probe was, so it is a member.  Every
        fast path is tested against it.
        """
        s = first_crossing(lambda s: self.membership_residual(lerp(x, y, s)) - MEMBERSHIP_TOL)
        return s, lerp(x, y, s)

    def _checked_entry(self, x: Point, y: Point,
                       solve: Callable[[float], tuple[float, Callable[[float], float]]],
                       build: Callable[[float], Point]) -> tuple[float, Point]:
        """:meth:`segment_entry` by a fast search, re-checked with :meth:`contains`.

        ``solve(margin)`` returns ``(s, excess)``: a fast stand-in
        ``excess`` for the default's ``membership_residual(lerp(x, y, s)) -
        MEMBERSHIP_TOL``, lowered by ``margin``, and its first member ``s``
        by :func:`first_crossing`, which raises ``ValueError`` when the
        excess puts ``y`` outside.  ``build(s)`` builds the point at ``s``,
        as ``lerp`` does.  The fast excess rounds differently from a fresh
        residual, so its entry can fail the re-check by a gap ``g``, the
        fresh excess there less the fast one.  A gap ``0 < g <
        MEMBERSHIP_TOL / 2`` is rounding, and the fast search is made once
        more with ``margin = MEMBERSHIP_TOL / 2``, so that its entry lies
        inside by more than ``g``.  The refused entry and the retry's, a
        member, bracket the default's entry, and :func:`first_crossing`
        refines that bracket on the fresh excess of built points: the answer
        is the default's up to the search tolerance.  Where the excess puts
        ``y`` outside, the gap is not rounding, or the retry's entry fails
        too, the default answers.  A non-member ``y`` raises ``ValueError``.
        """
        try:
            s, excess = solve(0.0)
        except ValueError:  # rounding in the fast excess can put y itself outside
            if not self.contains(y):
                raise ValueError("anchor is not a member of the set") from None
            return SetOracle.segment_entry(self, x, y)
        point = build(s)
        if self.contains(point):
            return s, point
        gap = self.membership_residual(point) - MEMBERSHIP_TOL - excess(s)
        if 0.0 < gap < 0.5 * MEMBERSHIP_TOL:
            built = {}

            def fresh(t: float) -> float:
                built[t] = build(t)
                return self.membership_residual(built[t]) - MEMBERSHIP_TOL
            with contextlib.suppress(ValueError):  # raised where the retry's entry fails too
                s = first_crossing(fresh, bracket=(s, solve(0.5 * MEMBERSHIP_TOL)[0]))
                return s, built[s]
        return SetOracle.segment_entry(self, x, y)

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


def _strict(value):
    """``value`` with numpy scalars as Python numbers and non-finite floats as ``None``.

    Dicts and lists are rebuilt; the float test comes first, as most values
    are floats.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    if isinstance(value, np.generic):
        return _strict(value.item())
    return value


def write_json(path, value) -> None:
    """Write ``value`` atomically as strict JSON via :func:`_strict`.

    Keys are sorted, the indent is 1, and a final newline ends the file.
    """
    with atomic_open(path) as fh:
        json.dump(_strict(value), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header``, then ``rows``, atomically as CSV: floats as ``.17g``, ``None`` empty."""
    with atomic_open(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([format(c, ".17g") if isinstance(c, float) else c for c in row]
                    for row in rows)


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

    def _rows(self, strict: bool = False) -> Iterator[tuple]:
        """Each record's cells in ``TRACE_COLUMNS`` order; ``strict`` makes non-finite ``None``."""
        reason = self.reason
        for r in self.records:
            values = (float(r.step_norm), float(r.gap), float(r.residual), float(r.gamma),
                      float(r.lam))
            if strict:
                values = [v if math.isfinite(v) else None for v in values]
            yield (r.k, *values, reason)

    def to_csv(self, path) -> None:
        """Write the rows as :func:`write_csv` would, one ``%`` format per row.

        Every float cell is ``.17g``, and no termination reason needs quoting.
        """
        line = "%d" + ",%.17g" * 5 + ",%s\r\n"
        with atomic_open(path, newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\r\n")
            fh.write("".join(line % row for row in self._rows()))

    def to_json(self, path) -> None:
        """Write the rows as one line of strict JSON: non-finite values become ``null``."""
        rows = [dict(zip(TRACE_COLUMNS, row)) for row in self._rows(strict=True)]
        with atomic_open(path) as fh:
            fh.write(json.dumps(rows, allow_nan=False) + "\n")
