#!/usr/bin/env python3
"""Tester operating points: accept rates as a marginal deforms away from the target.

Two deformation families: anisotropy (one coordinate's scale grows; seen by
t1) and in-strip covariance inflation (orthogonal coordinates scaled inside a
strip; seen by t4).
"""

import argparse
import json

import numpy as np

from halflearn.core import LabeledDataset, RngSeed, project_to_sphere
from halflearn.datagen import MarginalSpec, sample_marginal
from halflearn.testers import TesterConfig, moment_tester, standard_gaussian_target, strip_tester


def aniso_accept_rate(scale, d, n, seeds, seed_base, cfg, target):
    hits = 0
    for s in range(seeds):
        spec = MarginalSpec("aniso_gaussian", d, scales=(scale,) + (1.0,) * (d - 1))
        ds = sample_marginal(spec, n, RngSeed(seed_base + s))
        hits += moment_tester(ds, 2, cfg, target).accepted
    return hits / seeds


def strip_accept_rate(factor, d, n, theta, seeds, seed_base):
    w = project_to_sphere([1.0] + [0.0] * (d - 1))
    hits = 0
    for s in range(seeds):
        ds = sample_marginal(MarginalSpec("standard_gaussian", d), n, RngSeed(seed_base + s))
        X = ds.points.copy()
        margins = X @ w.coords
        in_strip = (margins >= 0.0) & (margins < theta)
        X[np.ix_(in_strip, list(range(1, d)))] *= factor
        hits += strip_tester(LabeledDataset(X, ds.labels), w, theta).accepted
    return hits / seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=4)
    ap.add_argument("--n", type=int, default=50_000)
    ap.add_argument("--theta", type=float, default=0.1)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=19000)
    ap.add_argument("--out", type=str, default="tester_power.json")
    args = ap.parse_args()

    cfg = TesterConfig()
    target = standard_gaussian_target()
    rows = []
    for scale in (1.0, 1.02, 1.05, 1.1, 1.2, 1.5, 2.0):
        rate = aniso_accept_rate(scale, args.d, args.n, args.seeds, args.seed_base, cfg, target)
        rows.append({"family": "aniso_scale", "level": scale, "accept_rate": rate})
        print(f"t1 vs aniso scale {scale:4.2f}: accept rate {rate:.2f}")
    for factor in (1.0, 1.05, 1.1, 1.2, 1.5, 2.0):
        rate = strip_accept_rate(factor, args.d, max(args.n, 200_000), args.theta, args.seeds, args.seed_base)
        rows.append({"family": "strip_inflation", "level": factor, "accept_rate": rate})
        print(f"t4 vs strip inflation {factor:4.2f}: accept rate {rate:.2f}")
    with open(args.out, "w") as fh:
        json.dump({"config": vars(args), "rows": rows}, fh, indent=2)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
