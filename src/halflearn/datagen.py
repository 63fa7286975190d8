"""Synthetic marginals, label-noise processes, and desk-scale ground-truth oracles."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import LabeledDataset, RngSeed, UnitVector, project_to_sphere
from .errors import DimensionMismatchError, WrongDimensionError

_STREAM_MARGINAL = 11
_STREAM_NOISE = 12

MARGINAL_KINDS = ("standard_gaussian", "aniso_gaussian", "student_t", "slc_exp_tilt", "planar_mixture")
NOISE_KINDS = ("massart_constant", "massart_boundary", "agnostic_random", "agnostic_boundary")


@dataclass(frozen=True)
class PlanarMixtureParams:
    """Gaussian mixture supported on the first two coordinate axes.

    Component i places mass weights[i] at mean (means[i], 0, ..., 0) in the
    (x1, x2)-plane with isotropic scale scales[i] in that plane; remaining
    coordinates are standard normal.  A deviant marginal for soundness tests.
    """

    weights: tuple[float, ...]
    means: tuple[tuple[float, float], ...]
    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.weights) == len(self.means) == len(self.scales) >= 1):
            raise ValueError("weights, means, scales must have equal positive length")
        if any(w <= 0 for w in self.weights) or any(s <= 0 for s in self.scales):
            raise ValueError("weights and scales must be positive")
        if any(len(m) != 2 for m in self.means):
            raise ValueError("each mean must be a pair (x1, x2)")


@dataclass(frozen=True)
class MarginalSpec:
    kind: str
    d: int
    scales: tuple[float, ...] | None = None
    dof: float | None = None
    lam: float | None = None
    mixture: PlanarMixtureParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in MARGINAL_KINDS:
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        if self.d < 2:
            raise ValueError("need d >= 2")
        if self.kind == "aniso_gaussian":
            if self.scales is None or len(self.scales) != self.d or any(s <= 0 for s in self.scales):
                raise ValueError("aniso_gaussian needs d positive scales")
        if self.kind == "student_t" and not (self.dof is not None and self.dof > 2):
            raise ValueError("student_t needs dof > 2 so the covariance exists")
        if self.kind == "slc_exp_tilt" and not (self.lam is not None and self.lam >= 0):
            raise ValueError("slc_exp_tilt needs lambda >= 0")
        if self.kind == "planar_mixture" and self.mixture is None:
            raise ValueError("planar_mixture needs mixture params")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    planted: UnitVector
    eta: float = 0.0
    opt: float = 0.0
    width: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind.startswith("massart") and not (0.0 <= self.eta < 0.5):
            raise ValueError("massart rate must lie in [0, 0.5)")
        if self.kind == "massart_boundary" and self.width <= 0:
            raise ValueError("massart_boundary needs width > 0")
        if self.kind.startswith("agnostic") and not (0.0 <= self.opt <= 0.5):
            raise ValueError("agnostic opt must lie in [0, 0.5]")


def exp_tilt_variance(lam: float) -> float:
    """Variance of the density proportional to exp(-x^2/2 - lam*|x|).

    Closed form via the Mills ratio: 1 + lam^2 - lam * phi(lam) / (1 - Phi(lam)).
    """
    if lam == 0.0:
        return 1.0
    phi = math.exp(-lam * lam / 2.0) / math.sqrt(2.0 * math.pi)
    upper = 0.5 * math.erfc(lam / math.sqrt(2.0))
    return 1.0 + lam * lam - lam * phi / upper


def sample_exp_tilt(count: int, lam: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. draws from the isotropized exp-tilted Gaussian coordinate density.

    Rejection against the standard normal with acceptance ratio exp(-lam*|z|),
    then rescaled to unit variance.  At lam = 0 every proposal is accepted, so
    the output equals the raw standard-normal stream.
    """
    out = np.empty(count)
    have = 0
    while have < count:
        block = max(count - have, 1)
        if lam > 0:
            # oversample to amortize the rejection loop
            block = int(block / max(math.exp(-lam), 0.05)) + 16
        z = rng.standard_normal(block)
        if lam > 0:
            u = rng.random(block)
            z = z[u < np.exp(-lam * np.abs(z))]
        take = min(len(z), count - have)
        out[have : have + take] = z[:take]
        have += take
    scale = math.sqrt(exp_tilt_variance(lam))
    return out if scale == 1.0 else out / scale


def sample_marginal(spec: MarginalSpec, n: int, seed: RngSeed) -> LabeledDataset:
    """n i.i.d. draws from the marginal; labels are a +1 placeholder."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = seed.generator(_STREAM_MARGINAL)
    d = spec.d
    if spec.kind == "standard_gaussian":
        X = rng.standard_normal((n, d))
    elif spec.kind == "aniso_gaussian":
        X = rng.standard_normal((n, d)) * np.asarray(spec.scales)
    elif spec.kind == "student_t":
        z = rng.standard_normal((n, d))
        g = rng.chisquare(spec.dof, n)
        # scaled to unit coordinate variance: raw multivariate t has var dof/(dof-2)
        X = z / np.sqrt(g / spec.dof)[:, None] * math.sqrt((spec.dof - 2.0) / spec.dof)
    elif spec.kind == "slc_exp_tilt":
        X = sample_exp_tilt(n * d, spec.lam, rng).reshape(n, d)
    else:  # planar_mixture
        mix = spec.mixture
        w = np.asarray(mix.weights, dtype=np.float64)
        comp = rng.choice(len(w), size=n, p=w / w.sum())
        X = rng.standard_normal((n, d))
        means = np.asarray(mix.means)[comp]
        scales = np.asarray(mix.scales)[comp]
        X[:, :2] = X[:, :2] * scales[:, None] + means
    return LabeledDataset(X, np.ones(n))


def apply_noise(X: LabeledDataset, spec: NoiseSpec, seed: RngSeed) -> LabeledDataset:
    """Label the points by the planted halfspace and corrupt per the noise model."""
    if X.d != spec.planted.d:
        raise DimensionMismatchError("planted direction dimension disagrees with data")
    rng = seed.generator(_STREAM_NOISE)
    margins = X.points @ spec.planted.coords
    y = np.where(margins >= 0.0, 1.0, -1.0)
    n = X.n
    if spec.kind == "massart_constant":
        flip = rng.random(n) < spec.eta
    elif spec.kind == "massart_boundary":
        flip = (rng.random(n) < spec.eta) & (np.abs(margins) <= spec.width)
    elif spec.kind == "agnostic_random":
        m = int(spec.opt * n)
        flip = np.zeros(n, dtype=bool)
        flip[rng.permutation(n)[:m]] = True
    else:  # agnostic_boundary: corrupt the smallest margins
        m = int(spec.opt * n)
        flip = np.zeros(n, dtype=bool)
        flip[np.argsort(np.abs(margins), kind="stable")[:m]] = True
    y[flip] *= -1.0
    return LabeledDataset(X.points, y)


def brute_force_opt_2d(S: LabeledDataset) -> tuple[float, UnitVector]:
    """Exact minimum 0-1 error over origin-centered halfspaces in 2-D.

    Sorts the 2n angles at which some sample's classification flips and sweeps
    them once, maintaining the error count incrementally; the returned error is
    re-evaluated exactly at the best arc's midpoint direction.
    """
    if S.d != 2:
        raise WrongDimensionError("exact sweep requires d = 2")
    if S.n > 100_000:
        raise ValueError("exact sweep capped at n <= 1e5")
    X, y = S.points, S.labels
    beta = np.arctan2(X[:, 1], X[:, 0])
    # sample i flips prediction when the normal crosses beta_i +/- pi/2
    ev_angle = np.concatenate([(beta + np.pi / 2) % (2 * np.pi), (beta - np.pi / 2) % (2 * np.pi)])
    # +1 crossing: margin goes positive->negative; -1 crossing: negative->positive
    ev_dir = np.concatenate([np.ones(S.n), -np.ones(S.n)])
    ev_y = np.concatenate([y, y])
    order = np.argsort(ev_angle, kind="stable")
    ev_angle, ev_dir, ev_y = ev_angle[order], ev_dir[order], ev_y[order]

    def error_at(phi: float) -> int:
        w = np.array([np.cos(phi), np.sin(phi)])
        pred = np.where(X @ w >= 0.0, 1.0, -1.0)
        return int(np.sum(pred != y))

    start = (ev_angle[0] + ev_angle[-1] - 2 * np.pi) / 2.0  # midpoint of the wrap-around arc
    err = error_at(start)
    best_err, best_phi = err, start
    m = len(ev_angle)
    i = 0
    while i < m:
        j = i
        while j < m and ev_angle[j] == ev_angle[i]:
            # prediction before the event is +1 on a +1 crossing, -1 on a -1 crossing
            before = ev_dir[j]
            err += int(before == ev_y[j]) - int(before != ev_y[j])
            j += 1
        nxt = ev_angle[j] if j < m else ev_angle[0] + 2 * np.pi
        mid = (ev_angle[i] + nxt) / 2.0
        if err < best_err:
            best_err, best_phi = err, mid
        i = j
    w_opt = project_to_sphere(np.array([np.cos(best_phi), np.sin(best_phi)]))
    exact = error_at(best_phi) / S.n
    return exact, w_opt


# ---------------------------------------------------------------------------
# Dataset file format: UTF-8 CSV, header y,x1,...,xd, floats at 17 significant
# digits (shared with the CLI).  Beside each CSV it writes, the writer leaves a
# binary twin <path>.twin: _TWIN_MAGIC, the SHA-256 of the CSV's bytes, then the
# np.save stream of the (n, d+1) float64 array, labels first like the CSV
# columns.  A reader uses the twin only while the digest matches the CSV, so a
# stale or foreign twin is never read and deleting one is always safe.  The
# twin holds what a parse would return: LabeledDataset guarantees finite points
# and +-1 labels, and %.17g and %d round-trip those bit for bit.

# Rows per written block: the file is written block by block, so its whole
# text is never held.  csvtext.format_rows turns a block into its bytes in
# passes of about 10k values, so its arrays stay small whatever the block.
_CSV_BLOCK_ROWS = 32768
_TWIN_MAGIC = b"HLTWIN01"
_HASH_CHUNK = 1 << 20


def _csv_header(d: int) -> str:
    return "y," + ",".join(f"x{i + 1}" for i in range(d))


def _csv_blocks(S: LabeledDataset) -> Iterator[bytes]:
    """The header line, then the rows in blocks of _CSV_BLOCK_ROWS.

    A label of +-1 formats as '%d' and '%.17g' both print it."""
    from .csvtext import format_rows  # its tables load only when a file is written

    yield (_csv_header(S.d) + "\n").encode("ascii")
    for start in range(0, S.n, _CSV_BLOCK_ROWS):
        y = S.labels[start : start + _CSV_BLOCK_ROWS]
        X = S.points[start : start + _CSV_BLOCK_ROWS]
        yield format_rows(np.column_stack([y, X]))


def dataset_to_csv(S: LabeledDataset) -> str:
    return b"".join(_csv_blocks(S)).decode("ascii")


def write_dataset_csv(S: LabeledDataset, path: str) -> None:
    """Write S as CSV to path, then its binary twin to path + '.twin'.

    The CSV counts as written even when the twin cannot be: a reader without
    a twin parses the text."""
    import hashlib

    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for block in _csv_blocks(S):
            digest.update(block)
            fh.write(block)
    twin = path + ".twin"
    tmp = f"{twin}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_TWIN_MAGIC + digest.digest())
            np.save(fh, np.column_stack([S.labels, S.points]), allow_pickle=False)
        os.replace(tmp, twin)  # a reader never sees a half-written twin
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _read_twin(path: str) -> np.ndarray | None:
    """The (n, d+1) array of path's twin if the twin matches the CSV's bytes,
    else None.  Without a twin this costs one failed open."""
    try:
        twin = open(path + ".twin", "rb")
    except OSError:
        return None
    import hashlib

    with twin:
        try:
            head = twin.read(len(_TWIN_MAGIC) + 32)
            if head[: len(_TWIN_MAGIC)] != _TWIN_MAGIC:
                return None
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                header = fh.readline()
                digest.update(header)
                while chunk := fh.read(_HASH_CHUNK):
                    digest.update(chunk)
            if digest.digest() != head[len(_TWIN_MAGIC) :]:
                return None
            body = np.load(twin, allow_pickle=False)
        except (OSError, ValueError):
            return None
    d = header.count(b",")
    if header != (_csv_header(d) + "\n").encode("ascii"):
        return None
    if body.ndim != 2 or body.dtype != np.float64 or body.shape[0] < 1 or body.shape[1] != d + 1:
        return None
    return body


def read_dataset_csv(path: str) -> LabeledDataset:
    body = _read_twin(path)
    if body is None:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            d = header.count(",")
            if d < 1 or header != _csv_header(d):
                raise ValueError(f"{path}: not a dataset CSV (header must be {_csv_header(max(d, 1))!r})")
            rows_start = fh.tell()
            if not fh.readline():
                raise ValueError(f"{path}: no data rows after the header")
            fh.seek(rows_start)
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
        if body.shape[1] != d + 1:
            raise ValueError(f"{path}: rows have {body.shape[1]} columns but the header names {d + 1}")
    return LabeledDataset(body[:, 1:], body[:, 0])
