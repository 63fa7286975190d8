"""End-to-end tester-learners for origin-centered halfspaces.

``learn_massart`` handles bounded (Massart) label noise at a fixed ramp width;
``learn_agnostic`` handles arbitrary labels by sweeping a grid of ramp widths.
Both vet every optimizer candidate (and its negation) with the band testers
and return the holdout-error argmin among survivors, or a rejection carrying
the offending tester report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import LabeledDataset, RngSeed, UnitVector, empirical_error
from .errors import (
    DimensionMismatchError,
    EmptyCandidateListError,
    ModeMismatchError,
    SizeLimitError,
)
from .optimizer import CandidateList, PsgdConfig, psgd_candidates
from .surrogate import SurrogateParams
from .testers import (
    TargetMarginal,
    TesterConfig,
    TesterReport,
    angle_to_error_bound,
    band_mass_tester,  # not called here; perfbench/spans.py wraps this attribute
    band_moment_tester,
    moment_tester,
    scaled_tester_config,
    strip_tester,
)

AGNOSTIC_MODES = ("gaussian", "slc_fixed_k", "slc_auto_k")

_SIGMA_GRID_CAP = 1_000_000

# Constants the analysis leaves free; values are acceptance-tested, not derived.
C1 = 0.25  # Massart gradient threshold scale
C2 = 0.05  # in-band fooling accuracy tau; also the agnostic gradient target
C_SIGMA = 0.5  # Massart ramp width scale
C4 = 2.0  # certified angle per unit of ramp width
BOUND_C1 = 1.0  # moment-growth constant in the analytic bound
BOUND_C3 = 1.0  # band-mass constant in the analytic bound
PER_CANDIDATE_INFLATION = 1.6  # extra threshold inflation for vetting calls


@dataclass(frozen=True)
class MassartConfig:
    """``delta`` is the run's failure budget: t1 runs at ``delta`` and each
    vetting call at ``delta / (8 * #candidates)``, overriding
    ``tester_cfg.delta``."""

    eta: float
    epsilon: float
    delta: float
    seed: RngSeed
    tester_cfg: TesterConfig = field(default_factory=TesterConfig)

    def __post_init__(self) -> None:
        if not (0.0 <= self.eta < 0.5):
            raise ValueError("eta must lie in [0, 0.5)")
        if not (self.epsilon > 0 and 0 < self.delta < 1):
            raise ValueError("need epsilon > 0 and delta in (0, 1)")


@dataclass(frozen=True)
class AgnosticConfig:
    """``delta`` is the run's failure budget: each global moment test runs at
    ``delta`` and each vetting call at ``delta / (8 * #candidates * #grid)``,
    overriding ``tester_cfg.delta``."""

    epsilon: float
    delta: float
    mode: str
    seed: RngSeed
    k: int | None = None
    tester_cfg: TesterConfig = field(default_factory=TesterConfig)

    def __post_init__(self) -> None:
        if self.mode not in AGNOSTIC_MODES:
            raise ValueError(f"mode must be one of {AGNOSTIC_MODES}")
        if self.mode == "slc_fixed_k":
            if self.k is None or self.k < 2 or self.k % 2 == 1:
                raise ValueError("slc_fixed_k needs an even k >= 2")
        if not (0.0 < self.epsilon < 1.0) or not (0.0 < self.delta < 1.0):
            raise ValueError("need epsilon in (0,1) and delta in (0,1)")


@dataclass(frozen=True)
class LearnResult:
    rejected: bool
    sigma_used: float
    candidates_examined: int
    tester_reports: tuple[TesterReport, ...]
    hypothesis: UnitVector | None = None
    empirical_error: float | None = None
    analytic_excess_bound: float | None = None

    def __post_init__(self) -> None:
        if self.rejected != (self.hypothesis is None):
            raise ValueError("rejected must hold exactly when the hypothesis is absent")
        if (self.empirical_error is None) != (self.hypothesis is None):
            raise ValueError("empirical_error must be present exactly when a hypothesis is")

    def to_json_dict(self) -> dict:
        out: dict = {
            "rejected": self.rejected,
            "sigma_used": self.sigma_used,
            "candidates_examined": self.candidates_examined,
            "tester_reports": [r.to_json_dict() for r in self.tester_reports],
        }
        if self.hypothesis is not None:
            out["hypothesis"] = [float(v) for v in self.hypothesis.coords]
            out["empirical_error"] = self.empirical_error
        if self.analytic_excess_bound is not None:
            out["analytic_excess_bound"] = self.analytic_excess_bound
        return out


def select_best_candidate(S: LabeledDataset, candidates: list[UnitVector]) -> tuple[UnitVector, float]:
    """Holdout argmin of the empirical error; ties go to the lowest index."""
    if not candidates:
        raise EmptyCandidateListError("no candidates to select from")
    errs = [empirical_error(S, w) for w in candidates]
    best = int(np.argmin(errs))
    return candidates[best], errs[best]


def sigma_grid_agnostic(epsilon: float, k: int) -> list[float]:
    """Arithmetic grid over (0, 1] with spacing 0.5 (epsilon/sqrt(k))^(1+1/k)."""
    if not (0.0 < epsilon < 1.0) or k < 2:
        raise ValueError("need epsilon in (0,1) and k >= 2")
    spacing = 0.5 * (epsilon / math.sqrt(k)) ** (1.0 + 1.0 / k)
    return _arithmetic_grid(spacing)


def _gaussian_sigma_grid(epsilon: float) -> list[float]:
    # The Gaussian path only needs the grid to resolve sigma to Theta(epsilon).
    return _arithmetic_grid(epsilon)


def _arithmetic_grid(spacing: float) -> list[float]:
    count = math.floor(1.0 / spacing)
    if count > _SIGMA_GRID_CAP:
        raise SizeLimitError(f"sigma grid would have {count} points (cap {_SIGMA_GRID_CAP})")
    # j*spacing can land a few ulp above 1 when 1/spacing sits just above an integer
    grid = [min(j * spacing, 1.0) for j in range(1, count + 1)]
    if not grid or grid[-1] < 1.0:
        grid.append(1.0)
    return grid


def _pipeline_psgd_config(sigma: float, grad_target: float, n: int, seed: RngSeed) -> PsgdConfig:
    """Practical PSGD schedule for the learners.

    Step proportional to sigma keeps the equilibrium angle of the iterate
    roughly width-independent; the iteration budget grows as 1/sigma because
    the drift per step shrinks with the step size.
    """
    max_iters = int(np.clip(math.ceil(150.0 / sigma), 2000, 40_000))
    return PsgdConfig(
        step_size=0.2 * sigma,
        batch_size=min(256, n),
        max_iters=max_iters,
        grad_target=grad_target,
        record_every=math.ceil(max_iters / 6),
        seed=seed,
    )


def _unique_candidates(cl: CandidateList) -> list[UnitVector]:
    seen: set[bytes] = set()
    out = []
    for w in cl.candidates:
        key = w.coords.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(w)
    return out


def _vet_pairs(
    train: LabeledDataset,
    cands: list[UnitVector],
    sigma: float,
    tau: float,
    tcfg: TesterConfig,
    target: TargetMarginal,
    theta: float | None,
    reports: list[TesterReport],
) -> tuple[list[UnitVector] | None, int]:
    """Vet every candidate and then its negation.  Returns the survivors (each
    candidate followed by its negation) and the number of orientations
    examined; survivors is None as soon as one orientation fails.  t3 runs
    for w only: -w has the same bands and, in the frame diag(-1, I) H(w), the
    same in-band deviations.  t4 runs for both, as strips are not symmetric."""
    survivors: list[UnitVector] = []
    examined = 0
    for w in cands:
        bands = []
        for width in (sigma / 2.0, sigma / 6.0):
            bands.append(band_moment_tester(train, w, width, tau, tcfg, target))
            if not bands[-1].accepted:
                break
        for orient in (w, w.negated()):
            examined += 1
            reports.extend(bands)
            if not bands[-1].accepted:
                return None, examined
            if theta is not None:
                reports.append(strip_tester(train, orient, theta, tcfg))
                if not reports[-1].accepted:
                    return None, examined
            survivors.append(orient)
    return survivors, examined


def learn_massart(
    S_train: LabeledDataset,
    S_holdout: LabeledDataset,
    cfg: MassartConfig,
    target: TargetMarginal,
) -> LearnResult:
    """Tester-learner under Massart noise at rate at most eta.

    Global moment test at degree 2, PSGD on the ramp loss at width
    sigma = C_SIGMA * epsilon^{3/2} * (1 - 2 eta), band vetting of every
    candidate and its negation, then holdout selection."""
    if S_train.d != S_holdout.d:
        raise DimensionMismatchError("train and holdout disagree on d")
    one_minus = 1.0 - 2.0 * cfg.eta
    sigma = min(C_SIGMA * cfg.epsilon**1.5 * one_minus, 1.0)
    tester_cfg = replace(cfg.tester_cfg, delta=cfg.delta)

    reports: list[TesterReport] = []
    t1 = moment_tester(S_train, 2, tester_cfg, target)
    reports.append(t1)
    if not t1.accepted:
        return LearnResult(True, sigma, 0, tuple(reports))

    grad_target = C1 * one_minus * sigma / 2.0
    pcfg = _pipeline_psgd_config(sigma, grad_target, S_train.n, cfg.seed.child(1))
    cands = _unique_candidates(psgd_candidates(S_train, SurrogateParams(sigma), pcfg))

    tcfg = scaled_tester_config(tester_cfg, PER_CANDIDATE_INFLATION, 1.0 / (8.0 * len(cands)))
    pool, examined = _vet_pairs(S_train, cands, sigma, C2, tcfg, target, None, reports)
    if pool is None:
        return LearnResult(True, sigma, examined, tuple(reports))
    best, err = select_best_candidate(S_holdout, pool)
    return LearnResult(False, sigma, examined, tuple(reports), best, err)


def learn_agnostic(
    S_train: LabeledDataset,
    S_holdout: LabeledDataset,
    cfg: AgnosticConfig,
    target: TargetMarginal,
) -> LearnResult:
    """Tester-learner under adversarial labels.

    Runs the global moment tests, then repeats the vet-and-collect process of
    the Massart learner for every ramp width in a grid over (0, 1]; in
    gaussian mode each surviving candidate is additionally strip-tested.  The
    pooled survivors are ranked by holdout error."""
    if S_train.d != S_holdout.d:
        raise DimensionMismatchError("train and holdout disagree on d")
    if cfg.mode == "gaussian" and target.kind != "standard_gaussian":
        raise ModeMismatchError("gaussian mode requires the standard Gaussian target")
    d = S_train.d
    tester_cfg = replace(cfg.tester_cfg, delta=cfg.delta)

    reports: list[TesterReport] = []
    if cfg.mode == "slc_auto_k":
        swept_ks = list(range(2, max(math.ceil(math.log(d) ** 2), 2) + 1, 2))
    elif cfg.mode == "slc_fixed_k":
        swept_ks = [cfg.k]
    else:
        swept_ks = [2]

    for deg in sorted({2, *swept_ks}):
        rep = moment_tester(S_train, deg, tester_cfg, target)
        reports.append(rep)
        if not rep.accepted:
            return LearnResult(True, 0.0, 0, tuple(reports))

    if cfg.mode == "gaussian":
        grid = _gaussian_sigma_grid(cfg.epsilon)
    else:
        grid = sigma_grid_agnostic(cfg.epsilon, max(swept_ks))

    pool: list[tuple[UnitVector, float]] = []
    examined = 0
    for ci, sigma in enumerate(grid):
        pcfg = _pipeline_psgd_config(sigma, C2, S_train.n, cfg.seed.child(2, ci))
        cands = _unique_candidates(psgd_candidates(S_train, SurrogateParams(sigma), pcfg))
        tcfg = scaled_tester_config(tester_cfg, PER_CANDIDATE_INFLATION, 1.0 / (8.0 * len(cands) * len(grid)))
        theta = min(C4 * sigma, math.pi / 4.0) if cfg.mode == "gaussian" else None
        survivors, vetted = _vet_pairs(S_train, cands, sigma, C2, tcfg, target, theta, reports)
        examined += vetted
        if survivors is None:
            return LearnResult(True, sigma, examined, tuple(reports))
        pool.extend((w, sigma) for w in survivors)

    best, err = select_best_candidate(S_holdout, [w for w, _ in pool])
    sigma_best = next(s for w, s in pool if w == best)
    theta_best = min(C4 * sigma_best, math.pi / 4.0)
    if cfg.mode == "gaussian":
        bound = 4.0 * theta_best
    else:
        bound = min(angle_to_error_bound(theta_best, k, BOUND_C1, BOUND_C3)[1] for k in swept_ks)
    return LearnResult(False, sigma_best, examined, tuple(reports), best, err, bound)
