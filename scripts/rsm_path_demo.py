#!/usr/bin/env python3
"""Fit a second-order response surface and walk its descent path.

Samples an objective on a latin hypercube, fits the quadratic model, and
prints the canonical analysis (stationary point, curvature) followed by the
ladder of steepest-descent steps.
"""

import argparse

import numpy as np

from seqtune import (
    ParamSpace,
    descent_path,
    fit_rsm,
    get_objective,
    make_lhd,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fun", default="sphere", help="objective name")
    ap.add_argument("--size", type=int, default=20, help="sample size")
    ap.add_argument("--seed", type=int, default=1, help="design seed")
    ap.add_argument(
        "--bounds", default="-5,5", help="lower,upper applied to both inputs"
    )
    args = ap.parse_args()

    lo, hi = (float(tok) for tok in args.bounds.split(","))
    space = ParamSpace(np.array([lo, lo]), np.array([hi, hi]), ())
    X = make_lhd(None, space, dict(size=args.size, seed=args.seed))
    fun = get_objective(args.fun)
    fit = fit_rsm(X, fun(X))

    print(f"stationary point : {np.array2string(fit.stationary, precision=4)}")
    print(f"eigenvalues      : {np.array2string(fit.eigenvalues, precision=4)}")
    path = descent_path(fit)
    print(f"path mode        : {path.mode}")
    print(f"{'radius':>8s} {'x1':>10s} {'x2':>10s} {'predicted':>12s}")
    for r, x, y in zip(path.radii, path.x, path.y):
        print(f"{r:8.2f} {x[0]:10.4f} {x[1]:10.4f} {float(y[0]):12.4f}")


if __name__ == "__main__":
    main()
