#!/usr/bin/env python3
"""Holdout error of the tester-learners across noise levels.

``--mode massart``: for each eta the planted optimum's holdout error is the
baseline; the table reports mean/max excess over it, plus accept counts,
across seeds.

``--mode agnostic``: runs both adversaries (uniform flips and
boundary-concentrated flips) at each opt level and reports the achieved
holdout error next to opt itself.
"""

import argparse
import json

import numpy as np

from halflearn.core import RngSeed, project_to_sphere
from halflearn.datagen import MarginalSpec, NoiseSpec, apply_noise, sample_marginal
from halflearn.pipeline import AgnosticConfig, MassartConfig, empirical_error, learn_agnostic, learn_massart
from halflearn.testers import standard_gaussian_target

# per mode: epsilon, noise levels (eta or opt), seeds, seed base
DEFAULTS = {
    "massart": dict(epsilon=0.1, levels="0.0,0.1,0.2,0.3,0.4", seeds=5, seed_base=17000),
    "agnostic": dict(epsilon=0.05, levels="0.0,0.02,0.05,0.1", seeds=3, seed_base=18000),
}


def run(kind, level, d, n_train, n_hold, epsilon, seed):
    """Massart: excess holdout error over the planted optimum.  Agnostic:
    holdout error.  None when the learner rejects."""
    root = RngSeed(seed)
    w_star = project_to_sphere(root.generator(99).standard_normal(d))
    spec = MarginalSpec("standard_gaussian", d)
    if kind == "massart_constant":
        noise = NoiseSpec(kind, w_star, eta=level)
    else:
        noise = NoiseSpec(kind, w_star, opt=level)
    train = apply_noise(sample_marginal(spec, n_train, root.child(0)), noise, root.child(1))
    hold = apply_noise(sample_marginal(spec, n_hold, root.child(2)), noise, root.child(3))
    if kind == "massart_constant":
        cfg = MassartConfig(eta=level, epsilon=epsilon, delta=0.05, seed=root.child(4))
        res = learn_massart(train, hold, cfg, standard_gaussian_target())
        return None if res.rejected else res.empirical_error - empirical_error(hold, w_star)
    cfg = AgnosticConfig(epsilon=epsilon, delta=0.05, mode="gaussian", seed=root.child(4))
    res = learn_agnostic(train, hold, cfg, standard_gaussian_target())
    return None if res.rejected else res.empirical_error


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--mode", required=True, choices=sorted(DEFAULTS))
    ap.add_argument("--d", type=int, default=4)
    ap.add_argument("--n-train", type=int, default=200_000)
    ap.add_argument("--n-hold", type=int, default=50_000)
    ap.add_argument("--epsilon", type=float, default=None)
    ap.add_argument("--levels", type=str, default=None, help="comma list of eta (massart) or opt (agnostic)")
    ap.add_argument("--seeds", type=int, default=None)
    ap.add_argument("--seed-base", type=int, default=None)
    ap.add_argument("--out", type=str, default=None, help="default <mode>_experiment.json")
    args = ap.parse_args()
    for key, value in DEFAULTS[args.mode].items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    if args.out is None:
        args.out = f"{args.mode}_experiment.json"

    levels = [float(v) for v in args.levels.split(",")]
    if args.mode == "massart":
        settings = [("massart_constant", eta, {"eta": eta}, f"eta={eta:.2f}") for eta in levels]
        stat, label = "excess", "excess"
    else:
        settings = [(kind, opt, {"adversary": kind, "opt": opt}, f"{kind:18s} opt={opt:.2f}")
                    for kind in ("agnostic_random", "agnostic_boundary") for opt in levels]
        stat, label = "error", "err"

    rows = []
    for kind, level, fields, prefix in settings:
        values = []
        rejects = 0
        for s in range(args.seeds):
            v = run(kind, level, args.d, args.n_train, args.n_hold, args.epsilon, args.seed_base + s)
            if v is None:
                rejects += 1
            else:
                values.append(v)
        row = {
            **fields,
            "accepted": len(values),
            "rejected": rejects,
            f"mean_{stat}": float(np.mean(values)) if values else None,
            f"max_{stat}": float(np.max(values)) if values else None,
        }
        rows.append(row)
        print(f"{prefix}  accepted {row['accepted']}/{args.seeds}  "
              f"mean {label} {row[f'mean_{stat}']}  max {row[f'max_{stat}']}")
    with open(args.out, "w") as fh:
        json.dump({"config": vars(args), "rows": rows}, fh, indent=2)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
