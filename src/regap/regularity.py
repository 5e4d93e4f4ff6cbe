"""Regularity constants of set intersections.

The constant ``c_bar`` is the largest inner product between unit normals of
the first set and negated unit normals of the second at a common point;
``c_bar < 1`` certifies that the intersection survives small perturbations
and feeds the linear rate predictions as the cosine of the angle between the
sets.  Two estimators are provided: a spectral one for subspaces and a
seeded Monte Carlo lower bound for any pair of sets with analytic cones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Point, SetOracle, null_space, orth


@dataclass
class RegularityEstimate:
    """Estimated regularity constant ``c_bar``, clamped to [0, 1]."""

    c_bar: float

    def __post_init__(self):
        self.c_bar = float(min(max(self.c_bar, 0.0), 1.0))


def cbar_subspaces(basis_u, basis_v) -> RegularityEstimate:
    """Angle constant for two linear subspaces given by spanning columns.

    Computes the singular values of the cross-Gram matrix of orthonormal
    bases of the two normal spaces (orthogonal complements) and reports the
    largest one after discarding directions normal to both subspaces
    (singular values within 1e-8 of 1).  Discarding shared normals
    yields the quantity that governs the convergence rate of alternating
    projections between the subspaces: identical subspaces or a subspace
    contained in the other come out as 0, consistent with the one-step
    convergence of the iteration in those cases.  Use :func:`cbar_sampled`
    for the raw definition, which reports 1 whenever opposing normals exist.
    """
    u = np.atleast_2d(np.asarray(basis_u, dtype=np.float64))
    v = np.atleast_2d(np.asarray(basis_v, dtype=np.float64))
    if u.shape[0] != v.shape[0]:
        raise ValueError("bases must live in the same ambient space")
    for name, mat in (("first", u), ("second", v)):
        if np.linalg.matrix_rank(mat) < mat.shape[1]:
            raise ValueError(f"{name} basis is degenerate (dependent or zero columns)")
    nu = null_space(orth(u).T)
    nv = null_space(orth(v).T)
    if nu.shape[1] == 0 or nv.shape[1] == 0:
        return RegularityEstimate(0.0)
    sigma = np.linalg.svd(nu.T @ nv, compute_uv=False)
    sigma = sigma[sigma < 1.0 - 1e-8]
    c_bar = float(sigma[0]) if sigma.size else 0.0
    return RegularityEstimate(c_bar)


def cbar_sampled(setC: SetOracle, setM: SetOracle, xbar: Point,
                 n_samples: int = 10_000, seed: int = 0) -> RegularityEstimate:
    """Monte Carlo lower bound on the regularity constant at ``xbar``.

    Draws unit directions from the normal cone of each set at ``xbar``
    (uniformly on the unit sphere of each cone's span, restricted to the
    cone) and reports the largest inner product between a first-set normal
    and a negated second-set normal.  Interior points have normal cone {0}
    and give exactly 0.  The estimate never exceeds the true constant, and
    it reaches 1 whenever opposing normals exist, flagging intersections
    that can vanish under perturbation.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    cone_c = setC.normal_cone_at(xbar)
    cone_m = setM.normal_cone_at(xbar)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # one probe draw per cone, discarded, so seeded estimates keep their stream
    if cone_c.sample_units(rng, 1) is None or cone_m.sample_units(rng, 1) is None:
        return RegularityEstimate(0.0)
    best = 0.0
    for drawn in range(0, n_samples, 4096):
        take = min(4096, n_samples - drawn)
        us = cone_c.sample_units(rng, take)
        vs = -cone_m.sample_units(rng, take)
        best = max(best, float(np.max(np.einsum("ij,ij->i", us, vs))))
    return RegularityEstimate(best)
