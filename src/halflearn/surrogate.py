"""Smooth ramp activation and the empirical surrogate loss over a dataset.

The ramp is a C^1 piecewise function with an exactly linear middle section of
slope 1/sigma and derivative support confined to [-sigma/2, sigma/2]: outside
that band the derivative is exactly zero, so out-of-band samples contribute
nothing to the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, UnitVector
from .errors import DimensionMismatchError

ArrayLike = float | np.ndarray


@dataclass(frozen=True)
class SurrogateParams:
    """Slope scale sigma > 0 and the derived cubic spline coefficients.

    The learners only ever use sigma in (0, 1]; the type itself accepts any
    positive sigma so the spline can be unit-tested in isolation.
    """

    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
            raise ValueError("sigma must be a positive finite real")

    # Cubic piece l+(t) = a1 t^3 + a2 t^2 + a3 t + a4 on (sigma/6, sigma/2],
    # the unique cubic matching value/slope of the linear section at sigma/6
    # and flattening to 1 at sigma/2.
    @property
    def a1(self) -> float:
        return -9.0 / self.sigma**3

    @property
    def a2(self) -> float:
        return 15.0 / (2.0 * self.sigma**2)

    @property
    def a3(self) -> float:
        return -3.0 / (4.0 * self.sigma)

    @property
    def a4(self) -> float:
        return 5.0 / 8.0


def _maybe_scalar(out: np.ndarray, scalar: bool) -> ArrayLike:
    return float(out[0]) if scalar else out


def ramp_value(t: ArrayLike, p: SurrogateParams) -> ArrayLike:
    """The ramp: 0 below -sigma/2, linear of slope 1/sigma through (0, 1/2), 1 above sigma/2."""
    arr = np.asarray(t, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    s = p.sigma
    plus = ((p.a1 * arr + p.a2) * arr + p.a3) * arr + p.a4
    neg = -arr
    minus = 1.0 - (((p.a1 * neg + p.a2) * neg + p.a3) * neg + p.a4)
    out = np.select(
        [np.abs(arr) <= s / 6.0, arr > s / 2.0, arr < -s / 2.0, arr > 0.0],
        [arr / s + 0.5, 1.0, 0.0, plus],
        default=minus,
    )
    return _maybe_scalar(out, scalar)


def ramp_derivative(t: ArrayLike, p: SurrogateParams) -> ArrayLike:
    """Derivative of ramp_value; even, nonnegative, zero outside [-sigma/2, sigma/2]."""
    arr = np.asarray(t, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    s = p.sigma
    u = np.abs(arr)
    cubic = (3.0 * p.a1 * u + 2.0 * p.a2) * u + p.a3
    out = np.where(u <= s / 6.0, 1.0 / s, np.where(u > s / 2.0, 0.0, cubic))
    return _maybe_scalar(out, scalar)


def _check_dims(S: LabeledDataset, w: UnitVector) -> None:
    if S.d != w.d:
        raise DimensionMismatchError(f"dataset is {S.d}-dimensional, direction is {w.d}-dimensional")


def empirical_surrogate_loss(S: LabeledDataset, w: UnitVector, p: SurrogateParams) -> float:
    """Mean ramp value of the negated signed margins -y <w, x>."""
    _check_dims(S, w)
    margins = S.points @ w.coords
    return float(np.mean(ramp_value(-S.labels * margins, p)))


def tangent_gradient(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, margins: np.ndarray, slopes: np.ndarray
) -> np.ndarray:
    """Mean over the rows of -slope * y * (x - <w,x> w), with margins = X @ w
    and slopes = l'(|margins|): the loss gradient tangent to the sphere at w.

    Uses the even symmetry of the ramp derivative.  The result is orthogonal
    to w up to rounding.
    """
    coef = -slopes * y
    n = X.shape[0]
    return X.T @ coef / n - (float(coef @ margins) / n) * w


def empirical_surrogate_gradient(S: LabeledDataset, w: UnitVector, p: SurrogateParams) -> np.ndarray:
    """Gradient of the loss in the direction of w, tangent to the sphere."""
    _check_dims(S, w)
    margins = S.points @ w.coords
    return tangent_gradient(S.points, S.labels, w.coords, margins, ramp_derivative(np.abs(margins), p))
