"""Output checks computed apart from the program.

Each function returns a list of failure messages; an empty list means the
output passed.  Errors are recomputed with numpy from data the benchmark
parsed or generated itself, never with halflearn's own helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from inputs import zero_one_error

UNIT_NORM_TOL = 1e-9
# acos is ill-conditioned near 0: a cosine one ulp below 1 is already 1.5e-8 rad
ANGLE_TOL = 1e-7
Z_LIMIT = 5.0  # standard errors allowed for sampled quantities


def check_learn(payload: dict, X_hold: np.ndarray, y_hold: np.ndarray, planted_error: float, *,
                gaussian: bool, epsilon: float, criterion: str, rc: int | None = None) -> list[str]:
    """A learn payload against the holdout data and the planted direction.

    criterion "massart": excess over the planted error <= epsilon (criterion 5).
    criterion "agnostic": error <= 10 * planted error + epsilon (criterion 6).
    """
    fails = []
    rejected = payload["rejected"]
    if rc is not None and (rc not in (0, 3) or (rc == 3) != rejected):
        fails.append(f"exit code {rc} disagrees with rejected={rejected}")
    if rejected:
        if gaussian:
            fails.append("a Gaussian job was rejected")
        last = payload["tester_reports"][-1]["checks"] if payload["tester_reports"] else []
        if all(c["passed"] for c in last):
            fails.append("rejection without a failing check in the last tester report")
        return fails
    h = np.asarray(payload["hypothesis"], dtype=np.float64)
    if abs(float(np.linalg.norm(h)) - 1.0) > UNIT_NORM_TOL:
        fails.append(f"hypothesis norm {np.linalg.norm(h)!r} is not 1")
    err = zero_one_error(X_hold, y_hold, h)
    if err != payload["empirical_error"]:
        fails.append(f"holdout error {err!r} != reported empirical_error {payload['empirical_error']!r}")
    limit = planted_error + epsilon if criterion == "massart" else 10.0 * planted_error + epsilon
    if err > limit:
        fails.append(f"{criterion} holdout error {err:.5f} exceeds {limit:.5f}")
    return fails


def check_eval(payload: dict, X: np.ndarray, y: np.ndarray, hypothesis, planted=None) -> list[str]:
    fails = []
    h = np.asarray(hypothesis, dtype=np.float64)
    err = zero_one_error(X, y, h)
    if payload.get("empirical_error") != err:
        fails.append(f"eval empirical_error {payload.get('empirical_error')!r} != recomputed {err!r}")
    if planted is not None:
        p = np.asarray(planted, dtype=np.float64)
        perr = zero_one_error(X, y, p)
        if payload.get("planted_error") != perr:
            fails.append(f"eval planted_error {payload.get('planted_error')!r} != recomputed {perr!r}")
        cos = float(h @ p) / float(np.linalg.norm(h) * np.linalg.norm(p))
        angle = math.acos(min(1.0, max(-1.0, cos)))
        if abs(payload.get("angle_to_planted", math.inf) - angle) > ANGLE_TOL:
            fails.append(f"eval angle_to_planted {payload.get('angle_to_planted')!r} != recomputed {angle!r}")
    return fails


def check_dataset(header: str, X: np.ndarray, y: np.ndarray, n: int, d: int) -> list[str]:
    fails = []
    want = "y," + ",".join(f"x{i + 1}" for i in range(d))
    if header != want:
        fails.append(f"header {header!r} != {want!r}")
    if X.shape != (n, d):
        fails.append(f"shape {X.shape} != {(n, d)}")
    if not np.all((y == 1.0) | (y == -1.0)):
        fails.append("labels outside {-1, 1}")
    return fails


def check_moments(X: np.ndarray, means, second_moments) -> list[str]:
    """Per-coordinate mean and second moment within Z_LIMIT standard errors."""
    fails = []
    n = X.shape[0]
    for name, sample, want in (("mean", X, means), ("second moment", X * X, second_moments)):
        got = sample.mean(axis=0)
        se = sample.std(axis=0) / math.sqrt(n)
        for i, (g, w, s) in enumerate(zip(got, want, se)):
            if abs(g - w) > Z_LIMIT * s:
                fails.append(f"x{i + 1} {name} {g:.5f} is {abs(g - w) / s:.1f} SE from {w:.5f}")
    return fails


def check_planted_error(err: float, n: int, noise: str, level: float) -> list[str]:
    """agnostic-random flips exactly floor(opt n) labels; massart-const flips
    each label with probability eta."""
    if noise == "agnostic-random":
        want = math.floor(Fraction(str(level)) * n) / n
        if err != want:
            return [f"planted error {err!r} != floor(opt n)/n = {want!r}"]
        return []
    se = math.sqrt(level * (1.0 - level) / n)
    if abs(err - level) > Z_LIMIT * se:
        return [f"planted error {err:.5f} is {abs(err - level) / se:.1f} SE from eta={level}"]
    return []


def check_same(first, second, what: str) -> list[str]:
    return [] if first == second else [f"{what} differ"]
