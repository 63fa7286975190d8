"""Dense vector geometry on the unit sphere, multi-indices, and seeded randomness.

Everything here is immutable after construction and safe to share across
threads; operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, ZeroVectorError

# Cap on enumerated multi-indices; binomial(d+k-1, k) explodes quickly in d.
MULTI_INDEX_CAP = 2_000_000


@dataclass(frozen=True)
class RngSeed:
    """Root seed of a counter-based (Philox) PRNG.

    Substreams are derived through spawn keys, so every consumer gets an
    independent stream that depends only on (seed, stream tags) and never on
    call order.
    """

    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")

    def generator(self, *stream: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(stream))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, *stream: int) -> "RngSeed":
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(stream))
        return RngSeed(int(ss.generate_state(1, np.uint64)[0]))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class UnitVector:
    """A direction on the unit sphere in d >= 2 dimensions."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coords, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise ValueError("UnitVector needs a 1-D coordinate vector with d >= 2")
        if not np.all(np.isfinite(arr)):
            raise ValueError("UnitVector coordinates must be finite")
        if abs(float(np.linalg.norm(arr)) - 1.0) > 1e-12:
            raise ValueError("UnitVector must have Euclidean norm 1 within 1e-12")
        object.__setattr__(self, "coords", _freeze(arr))

    @property
    def d(self) -> int:
        return int(self.coords.shape[0])

    def negated(self) -> "UnitVector":
        return UnitVector(-self.coords)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnitVector) and np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which __eq__ treats as equal
        return hash((self.coords + 0.0).tobytes())


@dataclass(frozen=True)
class LabeledDataset:
    """Samples (x in R^d, y in {-1,+1}); labels may be placeholders (+1)."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.points, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("points must be a nonempty (n, d) array")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be a vector of length n")
        if not np.all(np.isfinite(X)):
            raise ValueError("points must be finite")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must lie in {-1, +1}")
        object.__setattr__(self, "points", _freeze(X))
        object.__setattr__(self, "labels", _freeze(y))

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def d(self) -> int:
        return int(self.points.shape[1])


def project_to_sphere(v: Sequence[float] | np.ndarray) -> UnitVector:
    """Radial projection v -> v / ||v||_2."""
    arr = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot project a non-finite vector")
    nrm = float(np.linalg.norm(arr))
    if nrm < 1e-300:
        raise ZeroVectorError("vector has numerically zero norm")
    return UnitVector(arr / nrm)


def angle_between(u: UnitVector, v: UnitVector) -> float:
    """Angle in [0, pi]; the inner product is clamped to [-1, 1] first."""
    if u.d != v.d:
        raise DimensionMismatchError(f"dimension mismatch: {u.d} vs {v.d}")
    return float(np.arccos(np.clip(float(u.coords @ v.coords), -1.0, 1.0)))


def empirical_error(S: LabeledDataset, w: UnitVector) -> float:
    """Fraction of samples misclassified by sign(<w, x>), with sign(0) = +1."""
    if S.d != w.d:
        raise DimensionMismatchError("dataset and direction disagree on d")
    return float(np.mean(np.where(S.points @ w.coords >= 0.0, 1.0, -1.0) != S.labels))


def count_multi_indices(d: int, k: int) -> int:
    return math.comb(d + k - 1, k)


def exponent_tuples(d: int, k: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples of total degree exactly k, highest-first lexicographic."""
    if d == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in exponent_tuples(d - 1, k - first):
            yield (first,) + rest

