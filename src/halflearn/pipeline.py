"""End-to-end tester-learners for origin-centered halfspaces.

``learn_massart`` handles bounded (Massart) label noise at a fixed ramp width;
``learn_agnostic`` handles arbitrary labels by sweeping a grid of ramp widths.
Both run one search (``_search``): PSGD at each width, the holdout-error
argmin among every optimizer candidate and its negation, and band vetting of
that one orientation, which it returns or rejects with the offending tester
report.  Every stream of a learn derives from its config's seed: PSGD from
``seed.child(1)`` (Massart) or ``seed.child(2, width index)`` (agnostic), and
the testers' calibration from ``seed.child(7)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import LabeledDataset, RngSeed, UnitVector, empirical_error
from .errors import (
    DimensionMismatchError,
    EmptyCandidateListError,
    ModeMismatchError,
    SizeLimitError,
)
from .optimizer import PsgdConfig, psgd_candidates
from .surrogate import SurrogateParams
from .testers import (
    TargetMarginal,
    TesterConfig,
    TesterReport,
    angle_to_error_bound,
    band_mass_tester,  # not called here; perfbench/spans.py wraps this attribute
    band_moment_tester,
    moment_tester,
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
    vetting call at ``delta / (8 * #candidates)``."""

    eta: float
    epsilon: float
    delta: float
    seed: RngSeed

    def __post_init__(self) -> None:
        if not (0.0 <= self.eta < 0.5):
            raise ValueError("eta must lie in [0, 0.5)")
        if not (self.epsilon > 0 and 0 < self.delta < 1):
            raise ValueError("need epsilon > 0 and delta in (0, 1)")


@dataclass(frozen=True)
class AgnosticConfig:
    """``delta`` is the run's failure budget: each global moment test runs at
    ``delta`` and each vetting call at ``delta / (8 * #candidates * #grid)``."""

    epsilon: float
    delta: float
    mode: str
    seed: RngSeed
    k: int | None = None

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


class _Orientation(NamedTuple):
    """One entry of the holdout pool: orientation h, the PSGD candidate w it
    came from (h or -h), and how h is vetted at its width sigma."""

    h: UnitVector
    w: UnitVector
    sigma: float
    tcfg: TesterConfig
    theta: float | None


def _vet(train: LabeledDataset, o: _Orientation, target: TargetMarginal, reports: list[TesterReport]) -> bool:
    """t3 at sigma/2 and then sigma/6, and t4 at theta if set; stops at the
    first rejection.  t3 runs on the generating candidate w: for h = -w that
    is the frame diag(-1, I) H(w), which maps -w to e1 and gives -w the same
    band reports as w.  t4 runs on h, as strips are not symmetric."""
    for width in (o.sigma / 2.0, o.sigma / 6.0):
        reports.append(band_moment_tester(train, o.w, width, C2, o.tcfg, target))
        if not reports[-1].accepted:
            return False
    if o.theta is None:
        return True
    reports.append(strip_tester(train, o.h, o.theta, o.tcfg))
    return reports[-1].accepted


def _search(
    train: LabeledDataset,
    holdout: LabeledDataset,
    widths: list[tuple[float, float, RngSeed]],
    tester_cfg: TesterConfig,
    target: TargetMarginal,
    strips: bool,
    reports: list[TesterReport],
) -> tuple[float, UnitVector | None, float | None]:
    """PSGD -> select -> vet over ramp widths, each (sigma, grad_target, seed).

    The pool holds each distinct candidate of every width and its negation.
    Only the holdout-best orientation h is vetted, at delta / (8 *
    #candidates * #widths) with thresholds inflated by PER_CANDIDATE_INFLATION,
    and with t4 at theta = min(C4 sigma, pi/4) if ``strips``; that share
    covers every orientation the selection could have returned.  Returns
    (h's sigma, h or None if its vetting failed, h's holdout error or None)."""
    pool: list[_Orientation] = []
    for sigma, grad_target, seed in widths:
        pcfg = _pipeline_psgd_config(sigma, grad_target, train.n, seed)
        found = psgd_candidates(train, SurrogateParams(sigma), pcfg).candidates
        # one per exact coordinate bytes, in order of first appearance
        cands = list({w.coords.tobytes(): w for w in found}.values())
        share = 1.0 / (8.0 * len(cands) * len(widths))
        inflation = tester_cfg.calibration_inflation * PER_CANDIDATE_INFLATION
        tcfg = replace(tester_cfg, calibration_inflation=inflation, delta=max(tester_cfg.delta * share, 1e-12))
        theta = min(C4 * sigma, math.pi / 4.0) if strips else None
        pool.extend(_Orientation(h, w, sigma, tcfg, theta) for w in cands for h in (w, w.negated()))
    best, err = select_best_candidate(holdout, [o.h for o in pool])
    chosen = next(o for o in pool if o.h == best)
    if not _vet(train, chosen, target, reports):
        return chosen.sigma, None, None
    return chosen.sigma, best, err


def learn_massart(
    S_train: LabeledDataset,
    S_holdout: LabeledDataset,
    cfg: MassartConfig,
    target: TargetMarginal,
) -> LearnResult:
    """Tester-learner under Massart noise at rate at most eta.

    Global moment test at degree 2, then the search at the one ramp width
    sigma = C_SIGMA * epsilon^{3/2} * (1 - 2 eta)."""
    if S_train.d != S_holdout.d:
        raise DimensionMismatchError("train and holdout disagree on d")
    one_minus = 1.0 - 2.0 * cfg.eta
    sigma = min(C_SIGMA * cfg.epsilon**1.5 * one_minus, 1.0)
    tester_cfg = TesterConfig(delta=cfg.delta, calibration_seed=cfg.seed.child(7))

    reports = [moment_tester(S_train, 2, tester_cfg, target)]
    if not reports[0].accepted:
        return LearnResult(True, sigma, 0, tuple(reports))

    widths = [(sigma, C1 * one_minus * sigma / 2.0, cfg.seed.child(1))]
    _, best, err = _search(S_train, S_holdout, widths, tester_cfg, target, False, reports)
    return LearnResult(best is None, sigma, 1, tuple(reports), best, err)


def learn_agnostic(
    S_train: LabeledDataset,
    S_holdout: LabeledDataset,
    cfg: AgnosticConfig,
    target: TargetMarginal,
) -> LearnResult:
    """Tester-learner under adversarial labels.

    Runs the global moment tests, then the search over a grid of ramp widths
    in (0, 1]; in gaussian mode the selected orientation is additionally
    strip-tested."""
    if S_train.d != S_holdout.d:
        raise DimensionMismatchError("train and holdout disagree on d")
    if cfg.mode == "gaussian" and target.kind != "standard_gaussian":
        raise ModeMismatchError("gaussian mode requires the standard Gaussian target")
    tester_cfg = TesterConfig(delta=cfg.delta, calibration_seed=cfg.seed.child(7))

    reports: list[TesterReport] = []
    if cfg.mode == "slc_auto_k":
        swept_ks = list(range(2, max(math.ceil(math.log(S_train.d) ** 2), 2) + 1, 2))
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
        # The Gaussian path only needs the grid to resolve sigma to Theta(epsilon).
        grid = _arithmetic_grid(cfg.epsilon)
    else:
        grid = sigma_grid_agnostic(cfg.epsilon, max(swept_ks))

    widths = [(sigma, C2, cfg.seed.child(2, ci)) for ci, sigma in enumerate(grid)]
    strips = cfg.mode == "gaussian"
    sigma, best, err = _search(S_train, S_holdout, widths, tester_cfg, target, strips, reports)
    if best is None:
        return LearnResult(True, sigma, 1, tuple(reports))
    theta = min(C4 * sigma, math.pi / 4.0)
    bound = 4.0 * theta if strips else min(angle_to_error_bound(theta, k, BOUND_C1, BOUND_C3)[1] for k in swept_ks)
    return LearnResult(False, sigma, 1, tuple(reports), best, err, bound)
