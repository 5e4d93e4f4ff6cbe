"""Synthetic diffraction instances, reconstruction driver, serialization."""

import dataclasses
import json
import math
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter as scipy_gaussian_filter

from conftest import noiseless_instance, smooth_instance
from regap import problems
from regap.algorithms import InexactAPConfig
from regap.core import FIXED_POINT, MAX_ITER, STALLED_GAP, Point, ZeroCone, canonical_point, lerp
from regap.divergences import (EuclideanKernel, FourierIntensityMap, IdentityMap,
                               KullbackLeiblerKernel, LinearMap, RegularizedSet, SquareMap,
                               bregman_line_boundary)
from regap.phase import (PhaseInstance, aligned_error, box_support,
                         cup_object, divergence_ball, export_grid, gaussian_filter,
                         interiority_check, load_instance, loose_support, reconstruct,
                         save_instance, smooth_object, synthesize)
from regap.projectors import FourierMagnitudeSet


# ---------------------------------------------------------------------------
# Objects and supports

def test_cup_object_geometry():
    img = cup_object((32, 32))
    assert img.shape == (32, 32)
    assert np.all(img >= 0)
    assert img.max() > 0
    assert np.any(img == 0)  # hollow interior and empty border
    # border rows/cols are empty so the DFT is oversampled
    assert img[0].sum() == 0 and img[-1].sum() == 0
    assert img[:, 0].sum() == 0 and img[:, -1].sum() == 0


def test_loose_support_covers_object_with_margin():
    img = cup_object((32, 32))
    sup = loose_support(img, margin=2)
    assert sup.dtype == bool and sup.shape == img.shape
    assert np.all(sup[img > 0])  # support covers the object
    assert sup.sum() > (img > 0).sum()  # and is strictly looser
    rows = np.flatnonzero(img.any(axis=1))
    sup_rows = np.flatnonzero(sup.any(axis=1))
    assert sup_rows.min() == rows.min() - 2 and sup_rows.max() == rows.max() + 2


def test_box_support_is_centered_square():
    sup = box_support((32, 32), half_width=6)
    assert sup.sum() == 144
    rows = np.flatnonzero(sup.any(axis=1))
    cols = np.flatnonzero(sup.any(axis=0))
    assert rows.min() == 16 - 6 and rows.max() == 16 + 5
    assert np.array_equal(rows, cols)
    assert np.array_equal(sup, sup.T)


def test_smooth_object_support_and_determinism():
    sup = box_support((16, 16), 4)
    a = smooth_object(sup, seed=7)
    b = smooth_object(sup, seed=7)
    c = smooth_object(sup, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a[~sup] == 0)
    assert np.all(a[sup] > 0)
    # smoothing leaves values near the generating field's range
    assert 0 < a[sup].min() and a[sup].max() < 2.0


_GRID = st.tuples(st.integers(1, 40), st.integers(1, 40))


@settings(max_examples=150)
@given(_GRID, st.integers(0, 2**32 - 1), st.floats(-3, 3))
def test_gaussian_filter_equals_scipy_at_unit_sigma(shape, seed, log_scale):
    img = np.random.default_rng(seed).standard_normal(shape) * 10.0 ** log_scale
    assert np.array_equal(gaussian_filter(img, 1.0), scipy_gaussian_filter(img, 1.0))


@settings(max_examples=150)
@given(_GRID, st.integers(0, 2**32 - 1), st.floats(0.3, 4.0))
def test_gaussian_filter_equals_scipy_at_any_sigma(shape, seed, sigma):
    # same taps and the same order of additions as scipy, so equal to the bit
    img = np.random.default_rng(seed).uniform(0.0, 2.0, size=shape)
    assert np.array_equal(gaussian_filter(img, sigma), scipy_gaussian_filter(img, sigma))


# ---------------------------------------------------------------------------
# Synthesis

@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
def test_blur_refuses_a_sigma_that_is_not_finite_and_positive(sigma):
    sup = box_support((16, 16), 4)
    with pytest.raises(ValueError, match="sigma"):
        gaussian_filter(np.ones((16, 16)), sigma)
    with pytest.raises(ValueError, match="sigma"):
        smooth_object(sup, seed=0, sigma=sigma)


def test_synthesize_determinism_and_scaling():
    sup = box_support((16, 16), 4)
    a = synthesize((16, 16), sup, 1e3, seed=5)
    b = synthesize((16, 16), sup, 1e3, seed=5)
    assert np.array_equal(a.observed, b.observed)
    assert np.array_equal(a.object_image, b.object_image)
    # observations are Poisson counts divided by the scale
    counts = a.observed * 1e3
    assert np.allclose(counts, np.round(counts), atol=1e-9)
    # bit for bit: the map's transform is the unitary DFT of the object
    assert np.array_equal(a.noiseless_intensity,
                          np.abs(np.fft.fftn(a.object_image, norm="ortho")) ** 2)


def test_synthesize_noise_shrinks_with_photon_scale():
    sup = box_support((16, 16), 4)
    lo = synthesize((16, 16), sup, 1e2, seed=5)
    hi = synthesize((16, 16), sup, 1e6, seed=5)
    assert hi.kl_noise_level() < lo.kl_noise_level()
    assert hi.kl_noise_level() > 0


def test_synthesize_validation():
    sup = box_support((16, 16), 4)
    with pytest.raises(ValueError, match="support shape"):
        synthesize((8, 8), sup, 1e3, seed=0)
    with pytest.raises(ValueError, match="nonempty"):
        synthesize((16, 16), np.zeros((16, 16), dtype=bool), 1e3, seed=0)
    for scale in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="photon_scale"):
            synthesize((16, 16), sup, scale, seed=0)
    bad = np.zeros((16, 16))
    bad[0, 0] = 1.0  # mass outside the support
    with pytest.raises(ValueError, match="outside the support"):
        synthesize((16, 16), sup, 1e3, seed=0, object_image=bad)
    neg = np.zeros((16, 16))
    neg[8, 8] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        synthesize((16, 16), sup, 1e3, seed=0, object_image=neg)


def test_forced_zero_indexes_complement_of_support():
    sup = box_support((4, 4), 1)
    inst = synthesize((4, 4), sup, 1e3, seed=0)
    assert set(inst.forced_zero) == set(np.flatnonzero(~sup.ravel()))


def test_divergence_ball_residual_at_truth_is_noise_level():
    inst = smooth_instance(0)
    ball = divergence_ball(inst, epsilon=1.0)
    truth = Point.from_complex(inst.object_image.ravel().astype(np.complex128))
    assert ball.residual(truth) == pytest.approx(inst.kl_noise_level(), rel=1e-12)


def test_noiseless_instance_has_zero_noise_level():
    inst = noiseless_instance(0)
    assert inst.kl_noise_level() == 0.0


# ---------------------------------------------------------------------------
# Symmetry-aligned error

def test_aligned_error_invariant_under_trivial_ambiguities():
    rng = np.random.default_rng(0)
    truth = rng.uniform(0, 1, (8, 8))
    assert aligned_error(truth, truth) == 0.0
    shifted = np.roll(truth, (3, 5), axis=(0, 1))
    assert aligned_error(shifted, truth) == pytest.approx(0.0, abs=1e-14)
    reflected = np.roll(np.flip(truth, axis=(0, 1)), shift=(1, 1), axis=(0, 1))
    assert aligned_error(reflected, truth) == pytest.approx(0.0, abs=1e-14)
    both = np.roll(reflected, (2, 7), axis=(0, 1))
    assert aligned_error(both, truth) == pytest.approx(0.0, abs=1e-14)


def test_aligned_error_detects_genuine_differences():
    rng = np.random.default_rng(1)
    truth = rng.uniform(0, 1, (8, 8))
    other = rng.uniform(0, 1, (8, 8))
    err = aligned_error(other, truth)
    assert err > 0.1
    assert err <= np.linalg.norm(other - truth) / np.linalg.norm(truth) + 1e-12


def exhaustive_aligned_error(candidate, truth):
    """Reference: every circular shift of both orientations, one at a time."""
    candidate = np.asarray(candidate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    denom = np.linalg.norm(truth)
    reflected = np.roll(np.flip(candidate, axis=(0, 1)), shift=(1, 1), axis=(0, 1))
    best = np.inf
    for image in (candidate, reflected):
        for s1 in range(truth.shape[0]):
            rolled_rows = np.roll(image, s1, axis=0)
            for s2 in range(truth.shape[1]):
                err = np.linalg.norm(np.roll(rolled_rows, s2, axis=1) - truth)
                if err < best:
                    best = err
    return float(best / denom)


@st.composite
def alignment_cases(draw):
    n1, n2 = draw(st.integers(1, 17)), draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pattern = draw(st.sampled_from(["random", "constant", "periodic"]))
    if pattern == "random":
        truth = rng.uniform(0.0, 1.0, (n1, n2))
    elif pattern == "constant":
        # every shift of both orientations ties
        truth = np.full((n1, n2), draw(st.floats(0.1, 10.0)))
    else:
        # a tile repeated along both axes: several shifts tie exactly
        tile = rng.uniform(0.0, 1.0, (draw(st.integers(1, 3)), draw(st.integers(1, 3))))
        truth = np.tile(tile, (17, 17))[:n1, :n2]
    candidate = np.roll(truth, (draw(st.integers(0, n1 - 1)), draw(st.integers(0, n2 - 1))),
                        axis=(0, 1))
    if draw(st.booleans()):
        candidate = np.roll(np.flip(candidate, axis=(0, 1)), shift=(1, 1), axis=(0, 1))
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-6, 0.1, 1.0]))
    candidate = candidate + noise * rng.standard_normal((n1, n2))
    if draw(st.booleans()):
        candidate = rng.uniform(0.0, 1.0, (n1, n2))  # unrelated image
    return candidate, truth


@settings(max_examples=300)
@given(alignment_cases())
def test_aligned_error_matches_exhaustive_search(case):
    candidate, truth = case
    fast = aligned_error(candidate, truth)
    reference = exhaustive_aligned_error(candidate, truth)
    assert fast == pytest.approx(reference, rel=1e-12, abs=0.0)
    assert fast == reference  # the same norm is taken at the minimizing shift


def test_aligned_error_validation():
    with pytest.raises(ValueError, match="shape"):
        aligned_error(np.zeros((4, 4)), np.zeros((4, 5)))
    with pytest.raises(ValueError, match="zero"):
        aligned_error(np.ones((4, 4)), np.zeros((4, 4)))


@pytest.mark.parametrize("pixel", [1e160, 1e200, 1e300])
def test_aligned_error_of_a_huge_truth_is_nan_without_a_warning(pixel):
    # The norm is finite, but numpy takes it from the squared norm, which overflows.
    truth = np.ones((4, 4))
    truth[1, 2] = pixel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(aligned_error(np.ones((4, 4)), truth))


@pytest.mark.parametrize("pixel", [1e160, 1e300])
def test_aligned_error_of_a_huge_candidate_is_nan_without_a_warning(pixel):
    candidate = np.ones((4, 4))
    candidate[2, 1] = pixel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(aligned_error(candidate, np.ones((4, 4))))


# ---------------------------------------------------------------------------
# Reconstruction driver

def test_noiseless_reconstruction_recovers_object():
    # Tightly supported noiseless instance: the intersection is the truth's
    # symmetry orbit, and the extrapolated run lands on it.
    sup = box_support((16, 16), 3)
    obj = smooth_object(sup, seed=2)
    intensity = np.abs(np.fft.fftn(obj, norm="ortho")) ** 2
    inst = PhaseInstance(object_image=obj, noiseless_intensity=intensity,
                         observed=intensity.copy(), support=sup,
                         photon_scale=float("inf"), seed=2)
    cfg = InexactAPConfig(max_iterations=4000, fixed_point_tolerance=1e-9,
                          lambda_schedule="constant_one", measure_gamma=False)
    res = reconstruct(inst, 1e-8, cfg, seed=2, n_restarts=3)
    assert res.trace.reason == FIXED_POINT
    assert res.aligned_error <= 1e-3
    ball = divergence_ball(inst, 1e-8)
    final = res.trace.final_even
    assert ball.residual(final) <= 1e-8 + 1e-9


def test_reconstruction_restart_bookkeeping_and_determinism():
    inst = smooth_instance(1, shape=(16, 16))
    cfg = InexactAPConfig(max_iterations=50, fixed_point_tolerance=1e-7,
                          lambda_schedule="constant_one", measure_gamma=False)
    a = reconstruct(inst, inst.kl_noise_level(), cfg, seed=4, n_restarts=3)
    b = reconstruct(inst, inst.kl_noise_level(), cfg, seed=4, n_restarts=3)
    assert np.array_equal(a.reconstruction, b.reconstruction)
    assert a.aligned_error == b.aligned_error
    assert 1 <= a.restarts <= 3
    # restart 1 starts the same way alone, and the best of three is no worse
    one = reconstruct(inst, inst.kl_noise_level(), cfg, seed=4)
    assert one.restarts == 1
    assert a.aligned_error <= one.aligned_error


def test_noisy_zero_epsilon_run_stalls():
    sup = box_support((16, 16), 4)
    obj = smooth_object(sup, seed=0)
    inst = synthesize((16, 16), sup, 1e3, seed=0, object_image=obj)
    cfg = InexactAPConfig(max_iterations=3000, fixed_point_tolerance=1e-5,
                          lambda_schedule="surface", measure_gamma=False,
                          gap_stall_window=40)
    res = reconstruct(inst, 0.0, cfg, seed=0)
    trace = res.trace
    assert trace.reason == STALLED_GAP
    last, prev = trace.records[-1], trace.records[-2]
    assert last.gap >= 10 * cfg.fixed_point_tolerance
    assert last.even.distance(prev.even) <= cfg.fixed_point_tolerance


def test_epsilon_sweep_error_grows_with_ball_radius():
    # Balls larger than the noise level admit earlier, farther fixed points;
    # a sub-noise ball is never entered at all.
    mean_err = {}
    reasons_half = []
    for kappa in (0.5, 1.0, 3.0):
        errs = []
        for seed in (0, 1, 2):
            inst = smooth_instance(seed)
            cfg = InexactAPConfig(max_iterations=300, fixed_point_tolerance=1e-7,
                                  lambda_schedule="constant_one",
                                  measure_gamma=False, gap_stall_window=40)
            res = reconstruct(inst, kappa * inst.kl_noise_level(), cfg, seed=seed)
            errs.append(res.aligned_error)
            if kappa == 0.5:
                reasons_half.append(res.trace.reason)
            else:
                assert res.trace.reason == FIXED_POINT
        mean_err[kappa] = np.mean(errs)
    assert mean_err[1.0] < mean_err[3.0]
    assert all(r in (MAX_ITER, STALLED_GAP) for r in reasons_half)


def test_interiority_check_distinguishes_interior_from_boundary():
    inst = smooth_instance(0)
    eps = inst.kl_noise_level()
    ball = divergence_ball(inst, eps)
    cfg = InexactAPConfig(max_iterations=300, fixed_point_tolerance=1e-7,
                          lambda_schedule="constant_one", measure_gamma=False)
    res = reconstruct(inst, eps, cfg, seed=0)
    assert res.trace.reason == FIXED_POINT
    final = res.trace.final_even
    assert interiority_check(ball, final)

    surface_cfg = InexactAPConfig(max_iterations=20, fixed_point_tolerance=1e-7,
                                  lambda_schedule="surface", measure_gamma=False)
    surf = reconstruct(inst, eps, surface_cfg, seed=0)
    boundary_odd = surf.trace.records[0].odd  # pinned to the ball's surface
    assert ball.residual(boundary_odd) == pytest.approx(eps, abs=1e-8)
    assert not interiority_check(ball, boundary_odd)


def _sampled_interiority(m, x) -> bool:
    """The sampling verdict alone: 20 perturbations of norm 1e-6 from seed 0."""
    rng = np.random.default_rng(np.random.SeedSequence(0))
    for _ in range(20):
        d = rng.standard_normal(x.dim)
        d *= 1e-6 / np.linalg.norm(d)
        if not m.contains(Point(x.data + d, x.kind)):
            return False
    return True


def _counting_transforms_and_draws(monkeypatch) -> dict[str, int]:
    """Count FFTs (``fftn``, ``ifftn``) and random generators made."""
    counts = {"fft": 0, "rng": 0}

    def counted(original, key):
        def call(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return call
    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), "fft"))
    monkeypatch.setattr(np.random, "default_rng", counted(np.random.default_rng, "rng"))
    return counts


def test_interiority_check_certifies_a_deep_interior_point_without_sampling(monkeypatch):
    inst = smooth_instance(0, shape=(16, 16))
    eps = inst.kl_noise_level()
    cfg = InexactAPConfig(max_iterations=300, fixed_point_tolerance=1e-7,
                          lambda_schedule="constant_one", measure_gamma=False)
    res = reconstruct(inst, eps, cfg, seed=0)
    assert res.trace.reason == FIXED_POINT
    final, ball = res.trace.final_even, res.ball
    assert ball.residual(final) < 0.97 * eps  # well inside the ball
    counts = _counting_transforms_and_draws(monkeypatch)
    assert interiority_check(ball, final)
    # the residual and the spectrum of the final iterate are remembered
    assert counts == {"fft": 0, "rng": 0}
    assert _sampled_interiority(ball, final)


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_interiority_check_reads_a_square_map_ball_without_drawing(monkeypatch, kappa):
    # The planted point is on the boundary at kappa = 1 and inside at kappa = 2.
    _, ball, _, xbar, _ = problems.box_affine_regularized(12, 6, 0.1, kappa, seed=3)
    counts = _counting_transforms_and_draws(monkeypatch)
    verdict = interiority_check(ball, xbar)
    assert counts["rng"] == 0
    assert verdict == (kappa == 2.0)


def _ball_with_start_and_anchor(kind, n, rng, scale):
    """A ball of ``kind`` around data of size ``scale`` with zero entries,
    a random start and a member anchor of residual zero (or rounding)."""
    if kind == "fourier_kl":
        shape = (2, n)
        fmap = FourierIntensityMap(shape)
        data = np.abs(np.fft.fftn(rng.uniform(0.0, 1.0, shape), norm="ortho")).ravel() ** 2
        data *= scale * rng.uniform(0.5, 1.5, data.size)
        data[rng.random(data.size) < 0.2] = 0.0
        start = Point.from_complex(
            math.sqrt(scale) * rng.uniform(0.0, 1.0, data.size).astype(np.complex128))
        anchor = canonical_point(FourierMagnitudeSet(data, fmap).project(start))
        return fmap, data, KullbackLeiblerKernel(), start, anchor
    data = scale * rng.uniform(0.5, 1.5, n)
    data[rng.random(n) < 0.2] = 0.0
    if kind == "square":
        start = Point(math.sqrt(scale) * rng.uniform(-1.0, 1.0, n))
        forward, anchor = SquareMap(n), Point(np.sign(start.data) * np.sqrt(data))
    elif kind == "linear":
        matrix = rng.standard_normal((n, 2 * n))
        start = Point(scale * rng.standard_normal(2 * n))
        forward, anchor = LinearMap(matrix), Point(np.linalg.lstsq(matrix, data, rcond=None)[0])
    else:
        start = Point(scale * rng.uniform(0.0, 2.0, n))
        forward, anchor = IdentityMap(n), Point(data)
    return forward, data, EuclideanKernel(), start, anchor


@settings(max_examples=100)
@given(st.sampled_from(["fourier_kl", "square", "linear", "identity"]), st.integers(2, 8),
       st.integers(0, 2 ** 32 - 1), st.integers(-3, 3), st.floats(0.0, 0.5),
       st.floats(0.01, 0.9))
def test_interiority_check_is_the_band_rule(kind, n, seed, k, depth, ratio):
    # Points at relative depth 0 to 0.5 from the boundary toward the anchor,
    # on a Fourier KL ball and three Euclidean balls, at data scales 10^-3
    # to 10^3 with zero data entries.
    rng = np.random.default_rng(seed)
    forward, data, kernel, start, anchor = _ball_with_start_and_anchor(kind, n, rng, 10.0 ** k)
    start_residual = kernel.evaluate(forward.value(start), data)
    ball = RegularizedSet(forward, data, kernel, ratio * start_residual)
    assume(not ball.contains(start) and ball.contains(anchor))
    _, boundary = bregman_line_boundary(ball, start, anchor)
    point = lerp(boundary, anchor, depth)
    with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as made:
        verdict = interiority_check(ball, point)
        on_boundary = interiority_check(ball, boundary)
    assert made.call_count == 0
    assert verdict == (ball.residual(point) < ball.epsilon - ball.band)
    if ball.contains(point):
        assert verdict == isinstance(ball.normal_cone_at(point), ZeroCone)
    assert not on_boundary


def test_trace_memory_does_not_grow_with_cycles():
    # A trace keeps the iterates of three records, so ten times the cycles
    # add only the scalars of the extra records: less than 4 iterates.
    inst = smooth_instance(0)
    eps = inst.kl_noise_level()
    peaks = {}
    for n in (20, 200):
        cfg = InexactAPConfig(max_iterations=n, fixed_point_tolerance=1e-300,
                              lambda_schedule="surface", measure_gamma=False)
        tracemalloc.start()
        try:
            res = reconstruct(inst, eps, cfg, seed=0)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.trace) == n + 1  # every cycle ran
    assert peaks[200] - peaks[20] < 4 * res.trace.final_even.data.nbytes


# ---------------------------------------------------------------------------
# Serialization

def test_save_load_roundtrip(tmp_path):
    inst = smooth_instance(9, shape=(16, 16))
    path = tmp_path / "instance.phz"
    save_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.object_image, inst.object_image)
    assert np.array_equal(back.noiseless_intensity, inst.noiseless_intensity)
    assert np.array_equal(back.observed, inst.observed)
    assert np.array_equal(back.support, inst.support)
    assert back.photon_scale == inst.photon_scale
    assert back.seed == inst.seed

    raw = path.read_bytes()
    assert raw[:8] == b"PHZINST1"
    n1, n2, seed, scale = struct.unpack_from("<IIQd", raw, 8)
    assert (n1, n2) == (16, 16) and seed == 9 and scale == 1e3
    assert len(raw) == 8 + struct.calcsize("<IIQd") + 256 + 3 * 8 * 256

    sidecar = json.loads((tmp_path / "instance.phz.json").read_text())
    assert sidecar["shape"] == [16, 16]
    assert sidecar["support_pixels"] == int(inst.support.sum())
    assert sidecar["kl_noise_level"] == pytest.approx(inst.kl_noise_level())


def test_noiseless_instance_sidecar_is_strict_json(tmp_path):
    # a noiseless instance has an infinite photon scale, which loading refuses
    path = tmp_path / "noiseless.phz"
    save_instance(noiseless_instance(0, shape=(16, 16)), path)

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    sidecar = json.loads((tmp_path / "noiseless.phz.json").read_text(), parse_constant=refuse)
    assert sidecar["photon_scale"] is None
    with pytest.raises(ValueError, match="noiseless.phz: photon scale"):
        load_instance(path)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.phz"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(ValueError, match="not a phase instance"):
        load_instance(path)


def test_export_grid_npy_and_pgm(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.uniform(0, 2.5, (6, 9))
    npy_path, pgm_path = export_grid(img, tmp_path / "recon")
    assert np.array_equal(np.load(npy_path), img)

    raw = pgm_path.read_bytes()
    header = b"P5\n9 6\n65535\n"
    assert raw.startswith(header)
    samples = np.frombuffer(raw[len(header):], dtype=">u2").reshape(6, 9)
    assert samples.max() == 65535  # the maximum maps to full scale
    expected = np.round(img / img.max() * 65535).astype(">u2")
    assert np.array_equal(samples, expected)


class _Unwritable:
    """An array entry that fails once the writer reaches it."""

    def __float__(self):
        raise OSError("device full")


def test_binary_writers_that_fail_halfway_keep_the_old_files(tmp_path, monkeypatch):
    inst = smooth_instance(0, shape=(16, 16))
    broken = dataclasses.replace(inst, observed=np.full(inst.shape, _Unwritable(), object))
    phz = tmp_path / "inst.phz"
    phz.write_bytes(b"earlier")
    with pytest.raises(OSError):
        save_instance(broken, phz)
    assert list(tmp_path.iterdir()) == [phz]
    assert phz.read_bytes() == b"earlier"

    def failing_save(fh, arr):
        fh.write(b"\x93NUMPY")
        raise OSError("device full")
    npy = tmp_path / "recon.npy"
    npy.write_bytes(b"earlier")
    monkeypatch.setattr(np, "save", failing_save)
    with pytest.raises(OSError):
        export_grid(inst.object_image, tmp_path / "recon")
    assert sorted(tmp_path.iterdir()) == [phz, npy]
    assert npy.read_bytes() == b"earlier"


def test_export_grid_all_zero_image(tmp_path):
    npy_path, pgm_path = export_grid(np.zeros((4, 4)), tmp_path / "blank")
    raw = pgm_path.read_bytes()
    samples = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
    assert np.all(samples == 0)
