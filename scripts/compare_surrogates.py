#!/usr/bin/env python3
"""Compare surrogate models on the Branin function.

Fits Kriging, a random forest, and the default stack, a convex blend of
Kriging, the forest and the response surface, on the same latin hypercube
sample, then reports root-mean-square error on a fresh uniform test sample
and the stack's member weights.
"""

import argparse
import time

import numpy as np

from seqtune import (
    ParamSpace,
    fit_forest,
    fit_kriging,
    fit_stack,
    fun_branin,
    make_lhd,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train", type=int, default=20, help="training sample size")
    ap.add_argument("--test", type=int, default=200, help="test sample size")
    ap.add_argument("--seed", type=int, default=1, help="seed for both samples")
    args = ap.parse_args()

    space = ParamSpace(np.array([-5.0, 0.0]), np.array([10.0, 15.0]), ())
    X = make_lhd(None, space, dict(size=args.train, seed=args.seed))
    y = fun_branin(X)

    rng = np.random.default_rng(args.seed + 1)
    xtest = space.lower + rng.uniform(size=(args.test, 2)) * (
        space.upper - space.lower
    )
    ytest = fun_branin(xtest).reshape(-1)

    fitters = [
        ("kriging", fit_kriging, {"seed": args.seed}),
        ("forest", fit_forest, {"seed": args.seed}),
        ("stack", fit_stack, {"seed": args.seed}),
    ]
    print(f"train {args.train}  test {args.test}  seed {args.seed}")
    for name, fitter, control in fitters:
        t0 = time.perf_counter()
        fit = fitter(X, y, control)
        pred = np.asarray(fit.predict(xtest)).reshape(-1)
        rmse = float(np.sqrt(np.mean((pred - ytest) ** 2)))
        print(f"{name:8s} rmse {rmse:10.4f}   fit {time.perf_counter() - t0:6.2f}s")
        if name == "stack":
            weights = zip(fit.member_names, fit.weights)
            print("stack weights: " + "  ".join(f"{m} {w:.4f}" for m, w in weights))


if __name__ == "__main__":
    main()
