"""Synthetic phase retrieval: instances, reconstruction, and diagnostics.

A nonnegative object supported on a known region is observed through the
squared modulus of its unitary DFT under Poisson photon noise.  The
reconstruction alternates between the support-and-nonnegativity constraint
and a Kullback-Leibler ball around the noisy intensities.  Because the data
are noisy, the unrelaxed problem is typically inconsistent; the ball radius
is what restores solutions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algorithms import InexactAPConfig, regularized_extrapolated_ap
from .core import COMPLEX, IterationTrace, Point, atomic_open, write_json
from .divergences import FourierIntensityMap, KullbackLeiblerKernel, RegularizedSet
from .projectors import FourierMagnitudeSet, SupportNonnegSet

MAGIC = b"PHZINST1"


@dataclass
class PhaseInstance:
    """Ground truth plus simulated measurement for one synthetic problem."""

    object_image: np.ndarray
    noiseless_intensity: np.ndarray
    observed: np.ndarray
    support: np.ndarray
    photon_scale: float
    seed: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.object_image.shape

    @property
    def forced_zero(self) -> np.ndarray:
        """Flat indices outside the support (constrained to zero)."""
        return np.flatnonzero(~self.support.ravel())

    def kl_noise_level(self) -> float:
        """Divergence of the noiseless intensities from the observed ones."""
        return KullbackLeiblerKernel().evaluate(self.noiseless_intensity.ravel(),
                                                self.observed.ravel())


def cup_object(shape: tuple[int, int] = (32, 32)) -> np.ndarray:
    """Binary cup-shaped test object: a thick open body plus a handle."""
    n1, n2 = shape
    img = np.zeros(shape)
    r0, r1 = int(0.25 * n1), int(0.78 * n1)
    c0, c1 = int(0.22 * n2), int(0.60 * n2)
    t = max(1, n1 // 16)
    img[r0:r1, c0:c0 + t] = 1.0          # left wall
    img[r0:r1, c1 - t:c1] = 1.0          # right wall
    img[r1 - t:r1, c0:c1] = 1.0          # bottom
    hr0, hr1 = int(0.35 * n1), int(0.60 * n1)
    hc1 = min(n2 - 1, int(0.80 * n2))
    img[hr0:hr0 + t, c1:hc1] = 1.0       # handle top
    img[hr1:hr1 + t, c1:hc1] = 1.0       # handle bottom
    img[hr0:hr1 + t, hc1 - t:hc1] = 1.0  # handle outer wall
    return img


def loose_support(object_image: np.ndarray, margin: int = 2) -> np.ndarray:
    """Bounding-box support of the object dilated by ``margin`` pixels."""
    rows = np.flatnonzero(object_image.any(axis=1))
    cols = np.flatnonzero(object_image.any(axis=0))
    if rows.size == 0:
        raise ValueError("object is identically zero")
    mask = np.zeros(object_image.shape, dtype=bool)
    r0 = max(rows[0] - margin, 0)
    r1 = min(rows[-1] + margin + 1, object_image.shape[0])
    c0 = max(cols[0] - margin, 0)
    c1 = min(cols[-1] + margin + 1, object_image.shape[1])
    mask[r0:r1, c0:c1] = True
    return mask


def gaussian_filter(image: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of ``image`` with edges reflected about the border.

    Each axis in turn is correlated with the taps ``exp(-x^2 / 2 sigma^2)``
    for ``|x| <= int(4 sigma + 0.5)``, normalized to sum 1.  Mirror-image
    samples are added in pairs and the far taps come first, which is the
    order of operations of ``scipy.ndimage.gaussian_filter(image, sigma)``.
    ``sigma`` must be finite and positive.
    """
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
    out = np.asarray(image, dtype=np.float64)
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    taps = taps / taps.sum()
    for axis in range(out.ndim):
        widths = [(0, 0)] * out.ndim
        widths[axis] = (radius, radius)
        padded = np.moveaxis(np.pad(out, widths, mode="symmetric"), axis, 0)
        n = out.shape[axis]
        acc = padded[radius:radius + n] * taps[radius]
        for j in range(radius, 0, -1):
            acc += (padded[radius - j:radius - j + n] + padded[radius + j:radius + j + n]) \
                * taps[radius + j]
        out = np.moveaxis(acc, 0, axis)
    return out


def smooth_object(support: np.ndarray, seed: int, sigma: float = 1.0) -> np.ndarray:
    """Gaussian-smoothed random field on the support.

    Smooth objects concentrate their spectrum at low frequencies, which makes
    the resulting instances much friendlier to alternating projections than
    rough ones — useful when the point under study is the behavior of the
    iteration rather than worst-case phase retrieval.  ``sigma`` is the blur
    of :func:`gaussian_filter`, which refuses it unless it is finite and
    positive.
    """
    support = np.asarray(support, dtype=bool)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    img = np.zeros(support.shape)
    img[support] = rng.uniform(0.5, 1.5, size=int(support.sum()))
    out = gaussian_filter(img, sigma)
    out[~support] = 0.0
    return out


def box_support(shape: tuple[int, int], half_width: int = 6) -> np.ndarray:
    """Centered square support of side ``2 * half_width``."""
    n1, n2 = shape
    if not 0 < half_width <= min(n1, n2) // 2:
        raise ValueError("half_width must fit inside the grid")
    mask = np.zeros(shape, dtype=bool)
    mask[n1 // 2 - half_width:n1 // 2 + half_width,
         n2 // 2 - half_width:n2 // 2 + half_width] = True
    return mask


def synthesize(shape: tuple[int, int], support: np.ndarray, photon_scale: float,
               seed: int, object_image: np.ndarray | None = None) -> PhaseInstance:
    """Draw a Poisson-noised diffraction instance.

    The object is taken as given or filled with seeded uniform values on the
    support.  Noiseless intensities are the squared moduli of the unitary
    DFT; the observation is ``Poisson(scale * I) / scale`` drawn per pixel,
    so larger ``photon_scale`` means less relative noise.  It must be
    finite and positive.
    """
    shape = tuple(int(s) for s in shape)
    support = np.asarray(support, dtype=bool)
    if support.shape != shape:
        raise ValueError("support shape does not match the instance shape")
    if not support.any():
        raise ValueError("support must be nonempty")
    if not 0.0 < photon_scale < np.inf:
        raise ValueError(f"photon_scale must be finite and positive, got {photon_scale!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if object_image is None:
        object_image = np.zeros(shape)
        object_image[support] = rng.uniform(0.5, 1.5, size=int(support.sum()))
    else:
        object_image = np.asarray(object_image, dtype=np.float64)
        if object_image.shape != shape:
            raise ValueError("object shape does not match the instance shape")
        if np.any(object_image < 0):
            raise ValueError("object must be nonnegative")
        if np.any(object_image[~support] != 0):
            raise ValueError("object must vanish outside the support")
    intensity = FourierIntensityMap(shape).value(
        Point.from_complex(object_image.ravel().astype(np.complex128))).reshape(shape)
    observed = rng.poisson(photon_scale * intensity).astype(np.float64) / photon_scale
    return PhaseInstance(object_image=object_image, noiseless_intensity=intensity,
                         observed=observed, support=support,
                         photon_scale=float(photon_scale), seed=int(seed))


def divergence_ball(instance: PhaseInstance, epsilon: float) -> RegularizedSet:
    """Kullback-Leibler ball of radius epsilon around the observed intensities."""
    return RegularizedSet(FourierIntensityMap(instance.shape),
                          instance.observed.ravel(),
                          KullbackLeiblerKernel(), float(epsilon))


@dataclass
class ReconstructionResult:
    """The best restart's trace and image, and the ball every restart used.

    ``restarts`` is the 1-based index of the restart that was kept, not the
    number of restarts run (that is ``n_restarts``).
    """

    trace: IterationTrace
    reconstruction: np.ndarray
    aligned_error: float
    restarts: int
    ball: RegularizedSet


def reconstruct(instance: PhaseInstance, epsilon: float, cfg: InexactAPConfig, seed: int,
                n_restarts: int = 1) -> ReconstructionResult:
    """Alternating projections between the support cone and the intensity ball.

    Starts from seeded uniform noise on the support.  Each restart reruns
    from a fresh start; the best symmetry-aligned reconstruction is kept.
    """
    n1, n2 = instance.shape
    n = n1 * n2
    setC = SupportNonnegSet(instance.forced_zero, n, kind=COMPLEX)
    m = divergence_ball(instance, epsilon)
    # on the ball's map, so that the anchor projection reads the spectrum each
    # iterate keeps from the interior test
    unreg = FourierMagnitudeSet(instance.observed.ravel(), m.forward)

    streams = np.random.SeedSequence(seed).spawn(max(1, n_restarts))
    best: ReconstructionResult | None = None
    for restart, stream in enumerate(streams, start=1):
        rng = np.random.default_rng(stream)
        start = np.zeros(instance.shape)
        start[instance.support] = rng.uniform(0.0, 1.0, size=int(instance.support.sum()))
        x0 = Point.from_complex(start.ravel().astype(np.complex128))
        trace = regularized_extrapolated_ap(setC, m, unreg, x0, cfg)
        recon = trace.final_even.as_complex().real.reshape(instance.shape)
        err = aligned_error(recon, instance.object_image)
        if best is None or err < best.aligned_error:
            best = ReconstructionResult(trace=trace, reconstruction=recon,
                                        aligned_error=err, restarts=restart, ball=m)
    return best


def aligned_error(candidate: np.ndarray, truth: np.ndarray) -> float:
    """Relative error minimized over the trivial ambiguities of the model.

    Intensity data determine the object only up to circular shifts and the
    point reflection x(i, j) -> x(-i, -j).  One FFT cross-correlation per
    orientation gives the squared error under every shift (Guizar-Sicairos,
    Thurman & Fienup, Opt. Lett. 33(2), 2008); the exact norm is then taken
    at every shift within rounding of the smallest, so the result equals the
    smallest relative Euclidean error over all shifts and both orientations.
    It is ``nan`` when the squared norm of either image overflows float64.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if candidate.shape != truth.shape:
        raise ValueError("images must share a shape")
    with np.errstate(over="ignore"):
        denom = np.linalg.norm(truth)
    if denom == 0:
        raise ValueError("truth image is identically zero")
    if not np.isfinite(denom):
        return float("nan")
    reflected = np.roll(np.flip(candidate, axis=(0, 1)), shift=(1, 1), axis=(0, 1))
    shape = truth.shape
    truth_hat = np.fft.rfftn(truth)
    best = np.inf
    for image in (candidate, reflected):
        with np.errstate(over="ignore"):
            energy = float(np.sum(image * image) + denom * denom)
        if not np.isfinite(energy):
            return float("nan")
        # ||roll(image, s) - truth||^2 = ||image||^2 + ||truth||^2 - 2 corr(s)
        corr = np.fft.irfftn(truth_hat * np.conj(np.fft.rfftn(image)), s=shape, axes=(0, 1))
        sq_err = energy - 2.0 * corr
        # FFT rounding is ~1e-16 of the energy; the slack leaves ample room.
        near = np.flatnonzero(sq_err <= sq_err.min() + 1e-9 * energy)
        for s1, s2 in zip(*np.unravel_index(near, shape)):
            err = np.linalg.norm(np.roll(image, (s1, s2), axis=(0, 1)) - truth)
            best = min(best, err)
    return float(best / denom)


def interiority_check(m: RegularizedSet, x: Point) -> bool:
    """True when the residual of ``x`` is below ``epsilon - band``.

    The residual is continuous, so ``{r < epsilon}`` is open and such a
    point is interior.  The ball's ``band`` is far above the residual's
    rounding, and below it the ball's normal cone is {0}.  At ``epsilon =
    0`` the verdict is False.  A residual the point keeps costs no
    transform, and nothing is drawn.
    """
    return m.residual(x) < m.epsilon - m.band


# ---------------------------------------------------------------------------
# Serialization

def save_instance(instance: PhaseInstance, path) -> None:
    """Write the binary container and its JSON sidecar.

    Layout (little endian): 8-byte magic "PHZINST1", uint32 n1, uint32 n2,
    uint64 seed, float64 photon_scale, then n1*n2 bytes of 0/1 support mask
    followed by three float64 arrays (object, noiseless intensity, observed),
    each n1*n2 long in row-major order.  The sidecar repeats the scalar
    metadata for humans.
    """
    path = Path(path)
    n1, n2 = instance.shape
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIQd", n1, n2, instance.seed, instance.photon_scale))
        fh.write(instance.support.astype(np.uint8).tobytes())
        for arr in (instance.object_image, instance.noiseless_intensity, instance.observed):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    sidecar = {
        "format": MAGIC.decode(),
        "shape": [n1, n2],
        "seed": instance.seed,
        "photon_scale": instance.photon_scale,
        "support_pixels": int(instance.support.sum()),
        "kl_noise_level": instance.kl_noise_level(),
    }
    write_json(path.with_suffix(path.suffix + ".json"), sidecar)


def load_instance(path) -> PhaseInstance:
    """Read a container written by :func:`save_instance`.

    Raises ``ValueError`` naming the file and the offending field when the
    magic, the photon scale (finite, positive), the grid (at least one pixel),
    the byte length implied by the header, the support (at least one pixel
    set), the object image (finite, not identically zero, zero outside the
    support) or the intensities (finite, nonnegative, summing to at most
    1e300) are wrong.
    By Parseval an intensity sum is the squared norm of every image a run
    builds from it, so the bound keeps those norms finite.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path} is not a phase instance container")
    off = 8 + struct.calcsize("<IIQd")
    if len(raw) < off:
        raise ValueError(f"{path}: header: file ends after {len(raw)} bytes")
    n1, n2, seed, scale = struct.unpack_from("<IIQd", raw, 8)
    if not 0.0 < scale < np.inf:
        raise ValueError(f"{path}: photon scale: {scale!r} is not finite and positive")
    n = n1 * n2
    if n == 0:
        raise ValueError(f"{path}: shape: a {n1}x{n2} grid has no pixels")
    expected = off + n + 3 * 8 * n
    if len(raw) != expected:
        raise ValueError(f"{path}: shape: a {n1}x{n2} instance takes {expected} bytes, "
                         f"the file has {len(raw)}")
    support = np.frombuffer(raw, dtype=np.uint8, count=n, offset=off).astype(bool)
    off += n
    arrays = []
    for _ in range(3):
        arrays.append(np.frombuffer(raw, dtype="<f8", count=n, offset=off).copy())
        off += 8 * n
    obj, intensity, observed = (a.reshape(n1, n2) for a in arrays)
    support = support.reshape(n1, n2)
    if not support.any():
        raise ValueError(f"{path}: support: the mask has no pixel set")
    if not np.all(np.isfinite(obj)):
        raise ValueError(f"{path}: object image: entries must be finite")
    if not np.any(obj):
        raise ValueError(f"{path}: object image: entries are all zero")
    if np.any(obj[~support]):
        raise ValueError(f"{path}: object image: entries outside the support must be zero")
    for field, values in (("noiseless intensity", intensity), ("observed intensity", observed)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}: {field}: entries must be finite")
        if np.any(values < 0):
            raise ValueError(f"{path}: {field}: entries must be nonnegative")
        with np.errstate(over="ignore"):
            total = values.sum()
        if total > 1e300:
            raise ValueError(f"{path}: {field}: entries sum to {total:.3g}, above 1e300")
    return PhaseInstance(object_image=obj, noiseless_intensity=intensity,
                         observed=observed, support=support,
                         photon_scale=float(scale), seed=int(seed))


def export_grid(image: np.ndarray, stem) -> tuple[Path, Path]:
    """Write ``stem.npy`` (float64) and ``stem.pgm`` (16-bit binary PGM).

    The PGM rescales [0, max] linearly to [0, 65535] and stores big-endian
    16-bit samples per the format's requirement for maxval > 255.
    """
    stem = Path(stem)
    npy_path = stem.with_suffix(".npy")
    with atomic_open(npy_path, "wb") as fh:
        np.save(fh, np.asarray(image, dtype=np.float64))
    pgm_path = stem.with_suffix(".pgm")
    img = np.asarray(image, dtype=np.float64)
    top = float(img.max())
    scaled = np.zeros_like(img) if top <= 0 else np.clip(img / top, 0.0, 1.0)
    samples = np.round(scaled * 65535).astype(">u2")
    with atomic_open(pgm_path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode())
        fh.write(samples.tobytes())
    return npy_path, pgm_path
