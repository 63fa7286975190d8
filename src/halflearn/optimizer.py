"""Projected stochastic gradient descent on the unit sphere.

The loop records iterates periodically; the full-sample gradient norm is
evaluated only at recording times, and the run stops early once a recorded
iterate meets the gradient target.  One of the recorded candidates is expected
to be an approximate stationary point of the surrogate loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, RngSeed, UnitVector
from .errors import EmptyDatasetError, NonPositiveStepError
from .surrogate import SurrogateParams, empirical_surrogate_gradient, ramp_derivative, tangent_gradient

_STREAM_INIT = 21
_STREAM_BATCH = 22
# Minibatches drawn and gathered per call, at most.
_DRAW_STEPS = 256


@dataclass(frozen=True)
class PsgdConfig:
    step_size: float
    batch_size: int
    max_iters: int
    grad_target: float
    record_every: int
    seed: RngSeed

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.max_iters < 1 or self.record_every < 1:
            raise ValueError("batch_size, max_iters, record_every must be >= 1")
        if self.max_iters < self.record_every:
            raise ValueError("need max_iters >= record_every")
        if not (self.grad_target > 0):
            raise ValueError("grad_target must be positive")


@dataclass(frozen=True)
class CandidateList:
    """Recorded iterates plus their full-sample gradient norms."""

    candidates: tuple[UnitVector, ...]
    grad_norms: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.candidates) != len(self.grad_norms) or len(self.candidates) < 1:
            raise ValueError("candidates and grad_norms must have equal length >= 1")


def initial_direction(d: int, seed: RngSeed) -> UnitVector:
    """Uniform draw on the sphere; exposed so tests can reproduce the start point."""
    rng = seed.generator(_STREAM_INIT)
    v = rng.standard_normal(d)
    return UnitVector(v / np.linalg.norm(v))


def full_gradient_norm(S: LabeledDataset, w: UnitVector, p: SurrogateParams) -> float:
    return float(np.linalg.norm(empirical_surrogate_gradient(S, w, p)))


def psgd_candidates(S: LabeledDataset, p: SurrogateParams, cfg: PsgdConfig) -> CandidateList:
    """Run PSGD and return the recorded candidate directions.

    The initial iterate is always recorded first and the final iterate is
    always present at the end of the list.
    """
    if cfg.step_size <= 0 or not np.isfinite(cfg.step_size):
        raise NonPositiveStepError("step_size must be strictly positive")
    if S.n < 1:
        raise EmptyDatasetError("dataset is empty")
    if cfg.batch_size > S.n:
        raise EmptyDatasetError(f"batch_size {cfg.batch_size} exceeds dataset size {S.n}")

    X, y = S.points, S.labels
    n, b = S.n, cfg.batch_size
    w = initial_direction(S.d, cfg.seed).coords.copy()
    rng = cfg.seed.generator(_STREAM_BATCH)

    cands: list[np.ndarray] = []
    norms: list[float] = []

    def record(vec: np.ndarray) -> float:
        gn = full_gradient_norm(S, UnitVector(vec), p)
        cands.append(vec.copy())
        norms.append(gn)
        return gn

    if record(w) < cfg.grad_target:
        return _finish(cands, norms)

    half = p.sigma / 2.0
    t = 0
    while t < cfg.max_iters:
        # one draw of k minibatches is the same stream as k draws of one
        idx = rng.integers(0, n, size=(min(_DRAW_STEPS, cfg.max_iters - t), b))
        for Xb, yb in zip(X[idx], y[idx]):
            t += 1
            margins = Xb @ w
            u = np.abs(margins)
            if (u <= half).any():  # else every slope is 0, and so is the step
                w = w - cfg.step_size * tangent_gradient(Xb, yb, w, margins, ramp_derivative(u, p))
            w /= np.linalg.norm(w)
            if t % cfg.record_every == 0 and record(w) < cfg.grad_target:
                return _finish(cands, norms)

    if not np.array_equal(cands[-1], w):
        record(w)
    return _finish(cands, norms)


def _finish(cands: list[np.ndarray], norms: list[float]) -> CandidateList:
    return CandidateList(tuple(UnitVector(c) for c in cands), tuple(norms))
