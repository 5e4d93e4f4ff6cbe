#!/usr/bin/env python3
"""Measured vs predicted convergence rates for two lines in the plane.

For each angle theta the exact alternating-projection rate should match
cos(theta); adding a synthetic slide of angle phi to the second projector
keeps the measured rate below the bound

    eta = c sqrt(1 - gamma^2) + gamma sqrt(1 - c^2),  c = cos(theta),

with gamma = sin(phi) the measured normal-cone misalignment.  Prints one
table row per (theta, gamma) pair and optionally writes it as CSV.
"""

import argparse
import math
import sys

import numpy as np

from regap.algorithms import (InexactAPConfig, exact_alternating_projections,
                              inexact_alternating_projections, measure_rate,
                              predict_rate)
from regap.core import Point, canonical_point, write_csv
from regap.problems import perturbed_line, two_lines


def exact_rate(theta: float) -> float:
    C, M = two_lines(theta)
    cfg = InexactAPConfig(max_iterations=400, fixed_point_tolerance=1e-13)
    trace = exact_alternating_projections(C, M, Point(np.array([3.0, 1.0])), cfg)
    return measure_rate(trace)


def perturbed_rate(theta: float, gamma: float) -> float:
    phi = math.asin(gamma)
    line, oracle, exact = perturbed_line(theta, phi)
    even0 = canonical_point(line.project(Point(np.array([2.0, 0.0]))))
    odd0 = canonical_point(oracle.project(even0))
    cfg = InexactAPConfig(gamma=gamma + 1e-9, max_iterations=600,
                          fixed_point_tolerance=1e-12)
    trace = inexact_alternating_projections(
        line, lambda p: oracle.project(p), exact, even0, odd0, cfg)
    return measure_rate(trace)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--thetas", default="pi/6,pi/4,pi/3",
                    help="comma-separated angles; 'pi' expressions allowed")
    ap.add_argument("--gammas", default="0,0.1,0.3",
                    help="comma-separated alignment bounds in [0, 1)")
    ap.add_argument("--out", help="optional CSV output path")
    args = ap.parse_args(argv)

    from regap.cli import parse_scalar
    thetas = [parse_scalar(t) for t in args.thetas.split(",")]
    gammas = [float(g) for g in args.gammas.split(",")]

    rows = []
    print(f"{'theta':>9} {'gamma':>6} {'measured':>9} {'predicted':>10} {'slack':>8}")
    for theta in thetas:
        c = math.cos(theta)
        for gamma in gammas:
            if gamma >= math.sqrt(1.0 - c * c):
                print(f"{theta:9.4f} {gamma:6.2f}   (skipped: gamma >= sin(theta))")
                continue
            measured = exact_rate(theta) if gamma == 0 else perturbed_rate(theta, gamma)
            predicted = predict_rate(c, gamma).eta
            rows.append((theta, gamma, measured, predicted))
            print(f"{theta:9.4f} {gamma:6.2f} {measured:9.4f} {predicted:10.4f}"
                  f" {predicted - measured:8.4f}")

    if any(measured > predicted + 0.02 for _, _, measured, predicted in rows):
        print("WARNING: a measured rate exceeds its prediction", file=sys.stderr)
        return 1
    if args.out:
        write_csv(args.out, ("theta", "gamma", "measured", "predicted"), rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
