"""Label-aware distribution testers that certify a sample is close enough to a
target marginal for the learned halfspace to be near-optimal.

Four testers are exposed (CLI names t1..t4):

* ``moment_tester``      - global degree-k moment match against the target;
* ``band_mass_tester``   - probability mass of the band |<w,x>| <= sigma;
* ``band_moment_tester`` - moment match of the distribution conditioned on the
  band, evaluated in a rotated frame aligned with w;
* ``strip_tester``       - Gaussian-specific strip profile: per-strip mass,
  orthogonal covariance, and tail mass along a candidate direction.

Each t1 and t3 threshold is an inflated quantile of the same statistic under
the target at the same sample size, from a seeded, cached oracle.
``_null_quantiles`` serves both: from ``_CLT_MIN`` rows on it draws each
deviation from its CLT limit, whose variance M(2 alpha) - M(alpha)^2 is
exact, and below it samples rows.  A custom target's in-band moments come
from a million rejection-sampled rows.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import (
    MULTI_INDEX_CAP,
    LabeledDataset,
    RngSeed,
    UnitVector,
    count_multi_indices,
    exponent_tuples,
)
from .datagen import exp_tilt_variance, sample_exp_tilt
from .errors import (
    DimensionMismatchError,
    InsufficientBandSamplesError,
    NoConvergenceError,
    NotSymmetricError,
    OddDegreeError,
    SizeLimitError,
    ThetaOutOfRangeError,
)

# Band-mass constants for the standard Gaussian: 2*phi(1) and 2*phi(0) bracket
# (2*Phi(s)-1)/s on (0, 1].
GAUSSIAN_K1 = 2.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi)
GAUSSIAN_K2 = 2.0 / math.sqrt(2.0 * math.pi)

# Per-strip covariance checks need enough samples for the fixed 0.1 operator
# norm bound; below this count the estimator's own fluctuation exceeds the
# threshold, so the strip is skipped (the tail check bounds skipped mass).
def _min_strip_count(d: int) -> int:
    return max(50 * d, 2000 * (d - 1), 4000)


# Monte-Carlo calibration: _CALIBRATION_REPS replicates, reduced for very
# large (samples x checks) products so a single cache fill stays bounded.
# Large sample sizes tolerate few replicates (the null deviations are nearly
# Gaussian there); small ones are cheap enough to keep the full count.
_CALIBRATION_REPS = 1000
_CALIBRATION_BUDGET = 600_000_000
_MIN_REPS = 200

# From this many rows on (n for t1, the in-band count bucket for t3) the t1
# oracle and the Gaussian t3 oracle draw null deviations from their CLT limit
# with exact variances; below it the skew of high-degree monomial means still
# matters, so rows are sampled.  tests/test_testers.py pins the value against
# the sampled thresholds.
_CLT_MIN = 2000

# Cap on t3's in-band moment degree: the 1/tau^2 the analysis asks for is out of
# reach at desk scale.
T3_DEGREE_CAP = 4

_ORACLE_CACHE: dict[tuple, np.ndarray] = {}


def clear_oracle_cache() -> None:
    _ORACLE_CACHE.clear()


# ---------------------------------------------------------------------------
# Target marginals


def gaussian_moment(alpha: tuple[int, ...]) -> float:
    """E[x^alpha] under N(0, I): product of (e-1)!! over even exponents, else 0."""
    out = 1.0
    for e in alpha:
        if e % 2 == 1:
            return 0.0
        acc = 1.0
        for f in range(e - 1, 0, -2):
            acc *= f
        out *= acc
    return out


@dataclass(frozen=True)
class TargetMarginal:
    """A target distribution described through its oracles: the band mass
    P(|<w,x>| <= sigma) with its [K1, K2] bracket, the moment E[x^alpha] and
    a sampler of n rows in d dimensions, which the calibrated thresholds of
    t1 and of the conditional (in-band) tester draw from.

    ``kind`` is ``standard_gaussian`` (closed-form in-band moments) or
    ``custom`` (in-band moments from rejection-sampled rows).
    """

    kind: str
    band_prob_oracle: Callable[[float], float]
    k1: float
    k2: float
    label: str
    moment: Callable[[tuple[int, ...]], float]
    sample: Callable[[int, int, np.random.Generator], np.ndarray]

    def __post_init__(self) -> None:
        if self.kind not in ("standard_gaussian", "custom"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if not (0 < self.k1 <= self.k2):
            raise ValueError("need 0 < K1 <= K2")
        for s in (0.01, 0.1, 0.5, 1.0):
            ratio = self.band_prob_oracle(s) / s
            if not (self.k1 <= ratio <= self.k2):
                raise ValueError(f"band mass ratio {ratio:.6f} at sigma={s} escapes [K1, K2]")


def standard_gaussian_target() -> TargetMarginal:
    return TargetMarginal(
        kind="standard_gaussian",
        band_prob_oracle=lambda s: math.erf(s / math.sqrt(2.0)),
        k1=GAUSSIAN_K1,
        k2=GAUSSIAN_K2,
        label="standard_gaussian",
        moment=gaussian_moment,
        sample=lambda n, d, rng: rng.standard_normal((n, d)),
    )


def tilted_gaussian_target(lam: float, d: int) -> TargetMarginal:
    """Product target with coordinate density prop. to exp(-x^2/2 - lam|x|),
    rescaled to unit variance.  Strongly log-concave for every lam >= 0.

    The band-probability oracle is evaluated along a coordinate axis; the
    direction dependence of band mass is absorbed by the [K1, K2] bracket.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    from scipy.integrate import quad

    c = math.sqrt(exp_tilt_variance(lam))
    raw = lambda z: math.exp(-0.5 * z * z - lam * abs(z))
    norm_const = 2.0 * quad(raw, 0, np.inf)[0]
    moments_1d: dict[int, float] = {}

    def moment_1d(e: int) -> float:
        if e % 2 == 1:
            return 0.0
        if e not in moments_1d:
            val = 2.0 * quad(lambda z: z**e * raw(z), 0, np.inf)[0] / norm_const
            moments_1d[e] = val / c**e
        return moments_1d[e]

    def moment_oracle(alpha: tuple[int, ...]) -> float:
        out = 1.0
        for e in alpha:
            out *= moment_1d(e)
            if out == 0.0:
                return 0.0
        return out

    def band_prob(sigma: float) -> float:
        return 2.0 * quad(raw, 0, c * sigma)[0] / norm_const

    grid = np.arange(0.005, 1.0005, 0.005)
    ratios = np.array([band_prob(s) / s for s in grid])
    return TargetMarginal(
        kind="custom",
        band_prob_oracle=band_prob,
        k1=0.99 * float(ratios.min()),
        k2=1.01 * float(ratios.max()),
        label=f"exp_tilt_{lam:.6g}_d{d}",
        moment=moment_oracle,
        sample=lambda n, d, rng: sample_exp_tilt(n * d, lam, rng).reshape(n, d),
    )


# ---------------------------------------------------------------------------
# Reports and configuration


@dataclass(frozen=True)
class TesterCheck:
    name: str
    measured: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class TesterReport:
    accepted: bool
    checks: tuple[TesterCheck, ...]
    samples_used: int

    def __post_init__(self) -> None:
        if self.accepted != all(c.passed for c in self.checks):
            raise ValueError("accepted flag must equal the conjunction of checks")

    def to_json_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "samples_used": self.samples_used,
            "checks": [
                {"name": c.name, "measured": c.measured, "threshold": c.threshold, "passed": c.passed}
                for c in self.checks
            ],
        }


def _report(checks: list[TesterCheck], n: int) -> TesterReport:
    return TesterReport(accepted=all(c.passed for c in checks), checks=tuple(checks), samples_used=n)


def _moment_checks(
    prefix: str, alphas: list[tuple[int, ...]], emp: np.ndarray, tgt: np.ndarray, thr: np.ndarray
) -> list[TesterCheck]:
    """One check per alpha, named prefix + its exponents: |emp - tgt| <= thr."""
    dev = np.abs(emp - tgt)
    return [
        TesterCheck(prefix + "_".join(map(str, a)), float(dv), float(th), bool(dv <= th))
        for a, dv, th in zip(alphas, dev, thr)
    ]


@dataclass(frozen=True)
class TesterConfig:
    calibration_inflation: float = 1.5
    delta: float = 0.05
    calibration_seed: RngSeed = RngSeed(271828182845)

    def __post_init__(self) -> None:
        if self.calibration_inflation < 1.0:
            raise ValueError("calibration_inflation must be >= 1")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")


# ---------------------------------------------------------------------------
# Moment evaluation helpers


def _monomial_means_direct(X: np.ndarray, alphas: list[tuple[int, ...]]) -> np.ndarray:
    """Mean of x^alpha per alpha, via per-coordinate power tables."""
    n, d = X.shape
    kmax = max(max(a) for a in alphas)
    tables = []
    for i in range(d):
        T = np.empty((kmax + 1, n))
        T[0] = 1.0
        for e in range(1, kmax + 1):
            T[e] = T[e - 1] * X[:, i]
        tables.append(T)
    out = np.empty(len(alphas))
    for j, a in enumerate(alphas):
        v = None
        for i, e in enumerate(a):
            if e:
                v = tables[i][e] if v is None else v * tables[i][e]
        out[j] = 1.0 if v is None else float(v.mean())
    return out


@functools.cache
def _gram_plan(alphas: tuple[tuple[int, ...], ...]) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Half-degree basis and gather indices (i1, i2) with x^alpha = basis[i1]
    * basis[i2] for each alpha.  The first half takes deg(alpha)//2 units of
    alpha greedily from the first coordinate on.  The basis holds only the
    halves the alphas need, ordered by degree and then in ``exponent_tuples``
    (descending lexicographic) order.  One entry per alphas tuple a run uses."""
    splits = []
    for a in alphas:
        need = sum(a) // 2
        g1 = []
        for e in a:
            g1.append(min(e, need))
            need -= g1[-1]
        splits.append((tuple(g1), tuple(e - g for e, g in zip(a, g1))))
    needed = {g for pair in splits for g in pair}
    basis = sorted(needed, key=lambda g: (sum(g), tuple(-e for e in g)))
    col = {g: j for j, g in enumerate(basis)}
    i1 = np.array([col[g1] for g1, _ in splits], dtype=np.intp)
    i2 = np.array([col[g2] for _, g2 in splits], dtype=np.intp)
    return basis, i1, i2


def _monomial_means(X: np.ndarray, alphas: list[tuple[int, ...]]) -> np.ndarray:
    """Mean of x^alpha per alpha.

    Up to degree 6 every moment is read off one Gram matrix of half-degree
    monomials (a BLAS product).  Higher degrees use power tables, the only
    path whose memory stays bounded at large d.
    """
    if max(sum(a) for a in alphas) > 6:
        return _monomial_means_direct(X, alphas)
    basis, i1, i2 = _gram_plan(tuple(alphas))
    n = X.shape[0]
    V = np.ones((len(basis), n))  # basis x n: one contiguous row per monomial
    for j, g in enumerate(basis):
        for i, e in enumerate(g):
            if e:
                V[j] *= X[:, i] ** e
    G = V @ V.T / n
    return G[i1, i2]


def _lower_gamma_regularized(a: float, x: float) -> float:
    """P(a, x) for a > 0 and 0 <= x <= 500, from the power series
    x^a e^{-x} / Gamma(a + 1) * sum_k x^k / ((a + 1) ... (a + k)).

    Every term is positive, so the sum keeps full relative accuracy at small
    x; the number of terms grows with x, which stays below 1/2 for band
    widths sigma < 1.  Past x = 500 the sum, about e^x, nears overflow."""
    if not 0.0 <= x <= 500.0:
        raise ValueError(f"incomplete gamma series needs 0 <= x <= 500, got {x!r}")
    if x == 0.0:
        return 0.0
    term = total = 1.0
    k = 0.0
    while term > total * 1e-17:
        k += 1.0
        term *= x / (a + k)
        total += term
    return total * x**a * math.exp(-x) / math.gamma(a + 1.0)


def truncated_normal_even_moment(j: int, sigma: float) -> float:
    """E[u^j] for u ~ N(0,1) conditioned on |u| <= sigma (0 for odd j).

    Closed form 2^{j/2} Gamma((j+1)/2) P((j+1)/2, sigma^2/2) / (sqrt(pi)
    erf(sigma/sqrt(2))) with P the regularized lower incomplete gamma; it keeps
    full relative accuracy at small sigma, where the integration-by-parts
    recursion cancels catastrophically.
    """
    if j % 2 == 1:
        return 0.0
    if j == 0:
        return 1.0
    a = 0.5 * (j + 1)
    return (
        2.0 ** (0.5 * j)
        * math.gamma(a)
        * _lower_gamma_regularized(a, 0.5 * sigma * sigma)
        / (math.sqrt(math.pi) * math.erf(sigma / math.sqrt(2.0)))
    )


@functools.cache
def _band_gaussian_moment(alpha: tuple[int, ...], sigma: float) -> float:
    """E[x^alpha] for N(0, I) conditioned on |x_1| <= sigma: a truncated
    normal first coordinate times independent standard normals."""
    return truncated_normal_even_moment(alpha[0], sigma) * gaussian_moment(alpha[1:])


def rotation_to_first_axis(w: UnitVector) -> np.ndarray:
    """Symmetric Householder reflection H with H w = e1 (and H e1 = w)."""
    d = w.d
    e1 = np.zeros(d)
    e1[0] = 1.0
    v = w.coords - e1
    vv = float(v @ v)
    if vv < 1e-30:
        return np.eye(d)
    return np.eye(d) - 2.0 * np.outer(v, v) / vv


def _sample_gaussian_band_rotated(m: int, d: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Draws from N(0, I_d) conditioned on the band, in the frame where the
    band normal is e1: a truncated normal first coordinate times independent
    standard normals."""
    from scipy.special import ndtri  # only this sampled path needs scipy

    lo = 0.5 * math.erfc(sigma / math.sqrt(2.0))
    u = rng.random(m)
    x1 = ndtri(lo + u * (1.0 - 2.0 * lo))
    Z = rng.standard_normal((m, d - 1))
    return np.column_stack([x1, Z])


# ---------------------------------------------------------------------------
# Calibration oracle (the t1 and t3 thresholds)


def _order_statistic(devs: np.ndarray, delta: float, n_checks: int) -> np.ndarray:
    reps = devs.shape[0]
    rank = min(math.ceil((1.0 - delta / n_checks) * reps), reps)
    return np.sort(devs, axis=0)[rank - 1]


def _label_tag(label: str) -> int:
    return zlib.crc32(label.encode("utf-8"))


def _cached_oracle(key: tuple, stream: tuple, per_rep_cost: int, cfg: TesterConfig, fill: Callable) -> object:
    """The one cache site of the calibration oracles: picks the replicate
    count R from the budget, extends the caller's key with (delta, R, seed)
    and on a miss stores ``fill(R, rng)``, rng seeded from stream plus R."""
    R = min(_CALIBRATION_REPS, max(_MIN_REPS, int(_CALIBRATION_BUDGET // max(per_rep_cost, 1))))
    key = (*key, cfg.delta, R, cfg.calibration_seed.seed)
    if key not in _ORACLE_CACHE:
        _ORACLE_CACHE[key] = fill(R, cfg.calibration_seed.generator(*stream, R))
    return _ORACLE_CACHE[key]


def _replicate_devs(blocks: Iterable[np.ndarray], alphas: list[tuple[int, ...]], tgt: np.ndarray) -> np.ndarray:
    """|monomial means - tgt| of each row block, one replicate per row."""
    return np.array([np.abs(_monomial_means(X, alphas) - tgt) for X in blocks])


def _null_variance(moment: Callable[[tuple[int, ...]], float], alphas: list[tuple[int, ...]]) -> np.ndarray:
    """Var x^alpha = M(2 alpha) - M(alpha)^2 per alpha, M the null law's moments."""
    first = np.array([moment(a) for a in alphas])
    second = np.array([moment(tuple(2 * e for e in a)) for a in alphas])
    return second - first**2


def _null_quantiles(
    key: tuple,
    stream: tuple,
    m: int,
    alphas: list[tuple[int, ...]],
    moment: Callable[[tuple[int, ...]], float],
    sample: Callable[[int, np.random.Generator], np.ndarray],
    cfg: TesterConfig,
) -> np.ndarray:
    """Per-alpha order statistics of |mean of x^alpha over m rows - M(alpha)|
    under a null law with moments M and row sampler ``sample(m, rng)``.

    From _CLT_MIN rows on each replicate deviation is drawn from its CLT limit
    N(0, Var/m), Var from _null_variance; _order_statistic sorts each column
    on its own, so only the marginal laws matter and no covariance is needed.
    Below, R blocks of m rows are sampled."""

    def fill(R: int, rng: np.random.Generator) -> np.ndarray:
        if m >= _CLT_MIN:
            devs = np.abs(rng.standard_normal((R, len(alphas)))) * np.sqrt(_null_variance(moment, alphas) / m)
        else:
            tgt = np.array([moment(a) for a in alphas])
            devs = _replicate_devs((sample(m, rng) for _ in range(R)), alphas, tgt)
        return _order_statistic(devs, cfg.delta, len(alphas))

    return _cached_oracle(key, stream, m * len(alphas), cfg, fill)


def _bucket_count(m: int) -> int:
    step = math.log(1.25)
    return int(round(math.exp(round(math.log(m) / step) * step)))


# Largest rejection batch of _band_pool_custom, in proposal rows.
_BAND_POOL_BATCH = 1 << 17


def _band_pool_custom(
    target: TargetMarginal, w: UnitVector, sigma: float, total: int, rng: np.random.Generator
) -> np.ndarray:
    """Rejection-sample the custom target into the band |<w,x>| <= sigma.

    Proposals come in batches of max(4 * total, 1000) rows, capped at
    _BAND_POOL_BATCH so that a large pool holds about its kept rows and not
    four times its size.  Sampling gives up after as many proposal rows as
    2000 uncapped batches hold."""
    rows = []
    have = drawn = 0
    batch = max(4 * total, 1000)
    budget = 2000 * batch
    batch = min(batch, _BAND_POOL_BATCH)
    while have < total:
        if drawn >= budget:
            raise NoConvergenceError("band rejection sampling made no progress; sigma too small?")
        X = target.sample(batch, w.d, rng)
        keep = X[np.abs(X @ w.coords) <= sigma]
        rows.append(keep)
        have += len(keep)
        drawn += batch
    return np.concatenate(rows, axis=0)[:total]


def _custom_band_moments(
    target: TargetMarginal, w: UnitVector, sigma: float, alphas: list[tuple[int, ...]], seed: RngSeed
) -> dict[tuple[int, ...], float]:
    """In-band moments M(alpha) and M(2 alpha) of a custom target in w's
    frame: the monomial means of a million rejection-sampled band rows.  The
    draw does not depend on the replicate count."""
    key = ("t3c_moments", target.label, w.coords.tobytes(), float(sigma), len(alphas), seed.seed)
    if key not in _ORACLE_CACHE:
        sigma_bits = int(np.float64(sigma).view(np.uint64))
        rng = seed.generator(5, _label_tag(target.label), _label_tag(w.coords.tobytes().hex()), sigma_bits)
        pool = _band_pool_custom(target, w, sigma, 1_000_000, rng) @ rotation_to_first_axis(w)
        both = alphas + [tuple(2 * e for e in a) for a in alphas]
        _ORACLE_CACHE[key] = dict(zip(both, _monomial_means(pool, both).tolist()))
    return _ORACLE_CACHE[key]


# ---------------------------------------------------------------------------
# Tester t1: global degree-k moment match


def moment_tester(S: LabeledDataset, k: int, cfg: TesterConfig, target: TargetMarginal) -> TesterReport:
    """Compare every empirical degree-k moment with the target's.

    Each threshold is the inflated null quantile at the same n.
    """
    if k < 2 or k % 2 == 1:
        raise OddDegreeError("k must be an even integer >= 2")
    d = S.d
    if count_multi_indices(d, k) > MULTI_INDEX_CAP:
        raise SizeLimitError(f"degree-{k} moment enumeration exceeds cap in dimension {d}")
    alphas = list(exponent_tuples(d, k))
    tgt = np.array([target.moment(a) for a in alphas])
    key = ("t1", target.label, d, k, S.n)
    stream = (1, _label_tag(target.label), d, k, S.n)
    sample = lambda n, rng: target.sample(n, d, rng)
    thr = cfg.calibration_inflation * _null_quantiles(key, stream, S.n, alphas, target.moment, sample, cfg)
    return _report(_moment_checks("moment_", alphas, _monomial_means(S.points, alphas), tgt, thr), S.n)


# ---------------------------------------------------------------------------
# Tester t2: band mass


def band_mass_tester(
    S: LabeledDataset, w: UnitVector, sigma: float, cfg: TesterConfig, target: TargetMarginal
) -> TesterReport:
    """Check the fraction of points with |<w,x>| <= sigma against the target
    band mass, to additive slack K1*sigma/2.  On accept the fraction is pinned
    inside (K1*sigma/2, (K2 + K1/2)*sigma)."""
    if S.d != w.d:
        raise DimensionMismatchError("dataset and direction disagree on d")
    if not (0.0 < sigma < 1.0):
        raise ValueError("sigma must lie in (0, 1)")
    phat = float(np.mean(np.abs(S.points @ w.coords) <= sigma))
    oracle = float(target.band_prob_oracle(sigma))
    slack = target.k1 * sigma / 2.0
    dev_check = TesterCheck("band_mass_abs_error", abs(phat - oracle), slack, abs(phat - oracle) <= slack)
    upper = (target.k2 + target.k1 / 2.0) * sigma
    window_check = TesterCheck(
        "band_mass_fraction", phat, upper, bool(target.k1 * sigma / 2.0 < phat < upper)
    )
    return _report([dev_check, window_check], S.n)


# ---------------------------------------------------------------------------
# Tester t3: conditional in-band moment match


def band_moment_degree(tau: float, cap: int) -> int:
    """Moment degree needed for fooling accuracy tau, capped for desk-scale runs."""
    # back off a few ulp so 1/tau^2 landing just above an integer does not
    # inflate the ceiling (e.g. tau=0.05 gives 400.00000000000006)
    k = math.ceil(1.0 / (tau * tau) * (1.0 - 1e-12))
    if k % 2 == 1:
        k += 1
    return min(max(k, 2), cap)


def band_moment_tester(
    S: LabeledDataset,
    w: UnitVector,
    sigma: float,
    tau: float,
    cfg: TesterConfig,
    target: TargetMarginal,
) -> TesterReport:
    """Moment match of the in-band conditional distribution.

    Runs the band-mass check first (its rejection propagates, even from a
    band of under 100 rows), then compares conditional moments of degrees
    1..k(tau) in the rotated frame mapping w to the first axis: for the
    Gaussian target the conditional factorizes there (truncated normal times
    independent normals), giving closed-form targets and a direction-free
    calibration oracle.  On accept, functions of halfspaces orthogonal to w
    and orthogonal variances are fooled to accuracy tau inside the band."""
    if S.d != w.d:
        raise DimensionMismatchError("dataset and direction disagree on d")
    if not (0.0 < sigma < 1.0) or not (0.0 < tau < 1.0):
        raise ValueError("sigma and tau must lie in (0, 1)")
    t2 = band_mass_tester(S, w, sigma, cfg, target)
    if not t2.accepted:
        return t2
    d = S.d
    in_band = np.abs(S.points @ w.coords) <= sigma
    m = int(np.count_nonzero(in_band))
    if m < 100:
        raise InsufficientBandSamplesError(f"only {m} in-band samples (need >= 100)")

    k_eff = band_moment_degree(tau, T3_DEGREE_CAP)
    alphas: list[tuple[int, ...]] = []
    for deg in range(1, k_eff + 1):
        if count_multi_indices(d, deg) + len(alphas) > MULTI_INDEX_CAP:
            raise SizeLimitError("conditional moment enumeration exceeds cap")
        alphas.extend(exponent_tuples(d, deg))

    H = rotation_to_first_axis(w)
    Xb = S.points.take(np.flatnonzero(in_band), axis=0) @ H  # H is symmetric, so rows become H x
    emp = _monomial_means(Xb, alphas)

    m_b = _bucket_count(m)
    if target.kind == "custom":
        band_moment = _custom_band_moments(target, w, sigma, alphas, cfg.calibration_seed).__getitem__
        key = ("t3c", target.label, w.coords.tobytes(), float(sigma), len(alphas), m_b)
        stream = (4, _label_tag(target.label), _label_tag(w.coords.tobytes().hex()), m_b)
        sample = lambda size, rng: _band_pool_custom(target, w, sigma, size, rng) @ H
    else:
        band_moment = lambda a: _band_gaussian_moment(a, sigma)
        key = ("t3", "standard_gaussian", d, len(alphas), float(sigma), m_b)
        stream = (3, d, len(alphas), int(np.float64(sigma).view(np.uint64)), m_b)
        sample = lambda size, rng: _sample_gaussian_band_rotated(size, d, sigma, rng)
    tgt = np.array([band_moment(a) for a in alphas])
    q = _null_quantiles(key, stream, m_b, alphas, band_moment, sample, cfg)
    thr = cfg.calibration_inflation * q * math.sqrt(m_b / m)
    return _report([*t2.checks, *_moment_checks("band_moment_", alphas, emp, tgt, thr)], S.n)


# ---------------------------------------------------------------------------
# Tester t4: Gaussian strip profile


def strip_tester(S: LabeledDataset, w: UnitVector, theta: float, cfg: TesterConfig) -> TesterReport:
    """Slice the <w,x> axis into width-theta strips and check, against N(0, I):
    (a) no strip carries fraction above 2*theta, (b) the orthogonal covariance
    of every well-populated strip is 0.1-close to the identity in operator
    norm, (c) the tail beyond sqrt(2 ln(1/theta)) carries at most 5*theta.

    On accept, any w* within angle theta of w disagrees with w on at most
    O(theta) of the sample."""
    if S.d != w.d:
        raise DimensionMismatchError("dataset and direction disagree on d")
    if not (0.0 < theta <= math.pi / 4.0):
        raise ThetaOutOfRangeError("theta must lie in (0, pi/4]")
    n, d = S.n, S.d
    margins = S.points @ w.coords
    k_max = math.ceil(math.sqrt(2.0 * math.log(1.0 / theta)) / theta)
    # strip i covers [i*theta, (i+1)*theta) and sits at position i + k_max;
    # rows outside every strip go to the extra position 2*k_max + 1
    pos = np.floor(margins / theta).astype(np.int64) + k_max
    pos[(pos < 0) | (pos > 2 * k_max)] = 2 * k_max + 1
    counts = np.bincount(pos, minlength=2 * k_max + 2)[:-1]

    checks: list[TesterCheck] = []
    for i in range(-k_max, k_max + 1):
        frac = float(counts[i + k_max]) / n
        checks.append(TesterCheck(f"strip_mass_{i}", frac, 2.0 * theta, frac <= 2.0 * theta))

    H = rotation_to_first_axis(w)
    min_count = _min_strip_count(d)
    eye = np.eye(d - 1)
    # one stable sort lists the rows strip by strip, each strip in row order
    order = np.argsort(pos.astype(np.min_scalar_type(2 * k_max + 1)), kind="stable")
    ends = np.cumsum(counts)
    for i in range(-k_max, k_max + 1):
        count = int(counts[i + k_max])
        if count < min_count:
            continue
        rows = order[ends[i + k_max] - count : ends[i + k_max]]
        Z = (S.points.take(rows, axis=0) @ H)[:, 1:]
        cov = Z.T @ Z / count
        dev = operator_norm_symmetric(cov - eye)
        checks.append(TesterCheck(f"strip_cov_{i}", float(dev), 0.1, dev <= 0.1))

    cut = math.sqrt(2.0 * math.log(1.0 / theta))
    tail = float(np.mean(np.abs(margins) > cut))
    checks.append(TesterCheck("tail_mass", tail, 5.0 * theta, tail <= 5.0 * theta))
    return _report(checks, n)


# ---------------------------------------------------------------------------
# Operator norm and the angle-to-error bound


def operator_norm_symmetric(M: np.ndarray) -> float:
    """Largest |eigenvalue| of a symmetric matrix, by a dense eigen-solver."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetricError("matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    if float(np.max(np.abs(A - A.T))) > 1e-9:
        raise NotSymmetricError("matrix is not symmetric within 1e-9")
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


def angle_to_error_bound(theta: float, k: int, c1: float, c3: float) -> tuple[float, float]:
    """Balance the band-mass and tail terms of the disagreement bound.

    Returns (sigma, bound) with sigma = (c1 k)^{k/(2(k+1))} (tan theta)^{k/(k+1)}
    and bound = c3 sigma + (c1 k)^{k/2} (tan theta)^k / sigma^k, which scales as
    Theta(sqrt(k) * theta^{1 - 1/(k+1)}).
    """
    if not (0.0 < theta <= math.pi / 4.0):
        raise ThetaOutOfRangeError("theta must lie in (0, pi/4]")
    if k < 1 or c1 <= 0 or c3 <= 0:
        raise ValueError("need k >= 1 and positive constants")
    t = math.tan(theta)
    amp = (c1 * k) ** (k / 2.0) * t**k
    sigma_opt = (c1 * k) ** (k / (2.0 * (k + 1.0))) * t ** (k / (k + 1.0))
    bound = c3 * sigma_opt + amp / sigma_opt**k
    return sigma_opt, bound
