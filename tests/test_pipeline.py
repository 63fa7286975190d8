import math

import numpy as np
import pytest

from halflearn.core import LabeledDataset, RngSeed, project_to_sphere
from halflearn.datagen import MarginalSpec, NoiseSpec, apply_noise, sample_marginal
from halflearn.errors import EmptyCandidateListError, ModeMismatchError, SizeLimitError
from halflearn import pipeline
from halflearn.pipeline import (
    AgnosticConfig,
    MassartConfig,
    empirical_error,
    learn_agnostic,
    learn_massart,
    select_best_candidate,
    sigma_grid_agnostic,
)
from halflearn.testers import (
    TargetMarginal,
    TesterConfig,
    moment_tester,
    standard_gaussian_target,
    tilted_gaussian_target,
)

from conftest import planted_agnostic, planted_massart

TARGET = standard_gaussian_target()


def test_empirical_error_examples():
    w = project_to_sphere([1.0, 0.0])
    clean = LabeledDataset(np.array([[2.0, 1.0], [-1.0, 3.0]]), np.array([1.0, -1.0]))
    assert empirical_error(clean, w) == 0.0
    flipped = LabeledDataset(clean.points, -clean.labels)
    assert empirical_error(flipped, w) == 1.0
    half = LabeledDataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]))
    assert empirical_error(half, w) == 0.5
    # sign(0) counts as +1
    boundary = LabeledDataset(np.array([[0.0, 1.0]]), np.array([1.0]))
    assert empirical_error(boundary, project_to_sphere([1.0, 0.0])) == 0.0


def test_select_best_candidate():
    ds, w_star = planted_massart(2000, 3, eta=0.0, seed=600)
    assert select_best_candidate(ds, [w_star])[0] == w_star
    best, err = select_best_candidate(ds, [w_star.negated(), w_star])
    assert best == w_star and err == 0.0
    # exhaustive re-evaluation oracle
    rng = np.random.default_rng(601)
    cands = [project_to_sphere(rng.standard_normal(3)) for _ in range(12)]
    best, err = select_best_candidate(ds, cands)
    brute = min(empirical_error(ds, c) for c in cands)
    assert err == brute
    with pytest.raises(EmptyCandidateListError):
        select_best_candidate(ds, [])


def test_sigma_grid_formula_and_coverage():
    grid = sigma_grid_agnostic(0.5, 2)
    delta = 0.5 * (0.5 / math.sqrt(2)) ** 1.5
    assert delta == pytest.approx(0.10511, abs=1e-4)
    assert len(grid) == 10
    assert grid[-1] == 1.0
    gaps = np.diff([0.0] + grid)
    assert np.all(gaps <= delta + 1e-12)
    with pytest.raises(SizeLimitError):
        sigma_grid_agnostic(1e-9, 2)


def test_sigma_grid_stays_inside_unit_interval():
    from halflearn.pipeline import _arithmetic_grid

    # 1/0.1 floats to 10.000000000000002; the last cell must still be exactly 1
    for delta in (0.1, 0.05, 0.2, 1 / 3):
        grid = _arithmetic_grid(delta)
        assert grid[-1] == 1.0
        assert all(0.0 < v <= 1.0 for v in grid)
        assert len(grid) <= math.ceil(1.0 / delta) + 1


def _aniso_train() -> LabeledDataset:
    root = RngSeed(610)
    w = project_to_sphere([1.0, 0, 0, 0])
    X = sample_marginal(MarginalSpec("aniso_gaussian", 4, scales=(2.0, 1, 1, 1)), 20_000, root.child(0))
    return apply_noise(X, NoiseSpec("massart_constant", w, eta=0.1), root.child(1))


def test_learn_massart_rejects_anisotropic():
    root = RngSeed(610)
    train = _aniso_train()
    hold, _ = planted_massart(5_000, 4, eta=0.1, seed=611)
    cfg = MassartConfig(eta=0.1, epsilon=0.5, delta=0.05, seed=root.child(2))
    res = learn_massart(train, hold, cfg, TARGET)
    assert res.rejected and res.hypothesis is None
    failing = [c for c in res.tester_reports[-1].checks if not c.passed]
    assert failing[0].name == "moment_2_0_0_0"
    assert res.candidates_examined == 0


def test_learn_massart_noiseless_and_deterministic():
    train, w_star = planted_massart(40_000, 4, eta=0.0, seed=612)
    hold, _ = planted_massart(10_000, 4, eta=0.0, seed=613)
    cfg = MassartConfig(eta=0.0, epsilon=0.3, delta=0.05, seed=RngSeed(614))
    res = learn_massart(train, hold, cfg, TARGET)
    assert not res.rejected
    assert res.empirical_error <= 0.02
    assert res.sigma_used == pytest.approx(0.5 * 0.3**1.5, rel=1e-12)
    res2 = learn_massart(train, hold, cfg, TARGET)
    assert res2.hypothesis == res.hypothesis
    assert res2.to_json_dict() == res.to_json_dict()


def test_learn_massart_candidate_pool_negation_closure(monkeypatch):
    train, _ = planted_massart(40_000, 4, eta=0.1, seed=615)
    hold, _ = planted_massart(10_000, 4, eta=0.1, seed=616)
    captured = {}
    import halflearn.pipeline as pl

    original = pl.select_best_candidate

    def spy(S, candidates):
        captured["pool"] = list(candidates)
        return original(S, candidates)

    monkeypatch.setattr(pl, "select_best_candidate", spy)
    cfg = MassartConfig(eta=0.1, epsilon=0.4, delta=0.05, seed=RngSeed(617))
    res = pl.learn_massart(train, hold, cfg, TARGET)
    assert not res.rejected
    pool = captured["pool"]
    assert len(pool) % 2 == 0 and len(pool) == res.candidates_examined
    for w in pool:
        assert w.negated() in pool


def _bogus_band_target() -> TargetMarginal:
    # band oracle double the truth; small K1 keeps the slack tight so the
    # band-mass check must fail on genuinely Gaussian data
    from halflearn.testers import gaussian_moment

    return TargetMarginal(
        kind="custom",
        band_prob_oracle=lambda s: min(2.0 * math.erf(s / math.sqrt(2)), 0.99),
        k1=0.2,
        k2=1.7,
        label="bogus_band",
        moment_oracle=gaussian_moment,
    )


def test_learn_massart_rejects_at_first_failing_orientation():
    train, _ = planted_massart(30_000, 3, eta=0.1, seed=618)
    hold, _ = planted_massart(5_000, 3, eta=0.1, seed=619)
    tcfg = TesterConfig(slack_mode="theory")
    cfg = MassartConfig(eta=0.1, epsilon=0.5, delta=0.05, seed=RngSeed(620), tester_cfg=tcfg)
    res = learn_massart(train, hold, cfg, _bogus_band_target())
    assert res.rejected and res.hypothesis is None
    assert res.candidates_examined == 1
    # t1 (six degree-2 moments) passes; the first orientation's t2 fails
    assert [(r.accepted, len(r.checks)) for r in res.tester_reports] == [(True, 6), (False, 2)]
    assert res.tester_reports[1].checks[0].name == "band_mass_abs_error"


def test_learners_spend_their_own_delta(monkeypatch):
    import halflearn.pipeline as pl

    train, _ = planted_massart(20_000, 3, eta=0.1, seed=634)
    hold, _ = planted_massart(5_000, 3, eta=0.1, seed=635)
    want_t1 = moment_tester(train, 2, TesterConfig(delta=0.01), TARGET)
    # the threshold rank differs between delta 0.05 and 0.01, so the reports do too
    assert want_t1 != moment_tester(train, 2, TesterConfig(), TARGET)

    vet_cfgs = []
    original = pl.band_mass_tester

    def spy(S, w, sigma, tcfg, target):
        vet_cfgs.append(tcfg)
        return original(S, w, sigma, tcfg, target)

    monkeypatch.setattr(pl, "band_mass_tester", spy)
    res = pl.learn_massart(train, hold, MassartConfig(eta=0.1, epsilon=0.5, delta=0.01, seed=RngSeed(636)), TARGET)
    assert not res.rejected
    assert res.tester_reports[0] == want_t1
    n_cands = res.candidates_examined // 2
    assert vet_cfgs and {(c.delta, c.calibration_inflation) for c in vet_cfgs} == {
        (0.01 * (1.0 / (8.0 * n_cands)), 1.5 * 1.6)
    }

    aniso = _aniso_train()
    cfg = AgnosticConfig(epsilon=0.3, delta=0.01, mode="gaussian", seed=RngSeed(637))
    res = pl.learn_agnostic(aniso, aniso, cfg, TARGET)
    assert res.rejected and res.candidates_examined == 0
    assert res.tester_reports == (moment_tester(aniso, 2, TesterConfig(delta=0.01), TARGET),)


def test_learn_agnostic_rejects_student_t_at_degree_4():
    # theory-mode slacks: loose at degree 2 (1/d^2), tight at degree 4, so the
    # infinite fourth moment of t(3) is the check that trips.  (Calibrated
    # slacks already reject t(3) at degree 2: the mean of x^2 fluctuates at
    # the stable-law rate n^{-1/3}, above the Gaussian null's n^{-1/2}.)
    root = RngSeed(640)
    w = project_to_sphere([1.0, 0, 0, 0])
    X = sample_marginal(MarginalSpec("student_t", 4, dof=3.0), 100_000, root.child(0))
    train = apply_noise(X, NoiseSpec("agnostic_random", w, opt=0.05), root.child(1))
    hold, _ = planted_agnostic(5_000, 4, 0.05, "agnostic_random", seed=622)
    cfg = AgnosticConfig(
        epsilon=0.3, delta=0.05, mode="slc_fixed_k", k=4, seed=root.child(2),
        tester_cfg=TesterConfig(slack_mode="theory"),
    )
    res = learn_agnostic(train, hold, cfg, TARGET)
    assert res.rejected
    assert res.tester_reports[0].accepted  # degree-2 moments of the scaled t(3) match
    failing = [c for c in res.tester_reports[1].checks if not c.passed]
    assert failing and all(sum(int(p) for p in c.name.split("_")[1:]) == 4 for c in failing)

    # calibrated mode also rejects, with the offense surfacing at degree 2
    res_cal = learn_agnostic(train, hold, AgnosticConfig(
        epsilon=0.3, delta=0.05, mode="slc_fixed_k", k=4, seed=root.child(2)), TARGET)
    assert res_cal.rejected


def test_learn_agnostic_mode_mismatch():
    train, _ = planted_agnostic(2_000, 3, 0.05, "agnostic_random", seed=623)
    cfg = AgnosticConfig(epsilon=0.3, delta=0.05, mode="gaussian", seed=RngSeed(624))
    with pytest.raises(ModeMismatchError):
        learn_agnostic(train, train, cfg, tilted_gaussian_target(0.5, 3))


def test_learn_agnostic_gaussian_small_run():
    train, w_star = planted_agnostic(30_000, 3, 0.05, "agnostic_random", seed=625)
    hold, _ = planted_agnostic(10_000, 3, 0.05, "agnostic_random", seed=626)
    cfg = AgnosticConfig(epsilon=0.5, delta=0.05, mode="gaussian", seed=RngSeed(627))
    res = learn_agnostic(train, hold, cfg, TARGET)
    assert not res.rejected
    assert res.empirical_error <= 0.30
    assert res.analytic_excess_bound == pytest.approx(4.0 * min(2.0 * res.sigma_used, math.pi / 4))
    assert res.sigma_used in (0.5, 1.0)
    res2 = learn_agnostic(train, hold, cfg, TARGET)
    assert res.to_json_dict() == res2.to_json_dict()


def test_learn_agnostic_slc_fixed_k_runs():
    train, w_star = planted_agnostic(30_000, 3, 0.02, "agnostic_random", seed=628)
    hold, _ = planted_agnostic(10_000, 3, 0.02, "agnostic_random", seed=629)
    cfg = AgnosticConfig(epsilon=0.6, delta=0.05, mode="slc_fixed_k", k=2, seed=RngSeed(630))
    res = learn_agnostic(train, hold, cfg, TARGET)
    assert not res.rejected
    assert res.analytic_excess_bound is not None and res.analytic_excess_bound > 0
    assert res.empirical_error <= 0.30


def test_learn_agnostic_auto_k_sweeps_even_degrees():
    train, _ = planted_agnostic(30_000, 3, 0.02, "agnostic_random", seed=631)
    hold, _ = planted_agnostic(10_000, 3, 0.02, "agnostic_random", seed=632)
    cfg = AgnosticConfig(epsilon=0.6, delta=0.05, mode="slc_auto_k", seed=RngSeed(633))
    res = learn_agnostic(train, hold, cfg, TARGET)
    assert not res.rejected
    # d=3: ceil(ln(3)^2) = 2, so only the always-on degree-2 test runs
    assert len([r for r in res.tester_reports if r.checks[0].name.startswith("moment_")]) == 1


def test_learn_agnostic_auto_k_runs_degrees_2_and_4_at_d6(monkeypatch):
    # d=6: ceil(ln(6)^2) = 4, so t1 runs at degrees 2 and 4.  Uniform
    # coordinates of unit variance match the Gaussian at degree 2 but have
    # E x^4 = 1.8, not 3, so the run rejects at degree 4 before any PSGD.
    def no_psgd(*args, **kwargs):
        raise AssertionError("PSGD ran after a failed moment test")

    monkeypatch.setattr(pipeline, "psgd_candidates", no_psgd)
    X = np.random.default_rng(634).uniform(-math.sqrt(3.0), math.sqrt(3.0), (50_000, 6))
    train = LabeledDataset(X, np.ones(len(X)))
    cfg = AgnosticConfig(epsilon=0.6, delta=0.05, mode="slc_auto_k", seed=RngSeed(635))
    res = learn_agnostic(train, train, cfg, TARGET)
    assert res.rejected and res.candidates_examined == 0
    degrees = [{sum(int(p) for p in c.name.split("_")[1:]) for c in r.checks} for r in res.tester_reports]
    assert degrees == [{2}, {4}]
    assert [r.accepted for r in res.tester_reports] == [True, False]


@pytest.mark.slow
def test_learn_massart_noiseless_monte_carlo():
    ok = 0
    for s in range(20):
        train, w_star = planted_massart(100_000, 4, eta=0.0, seed=8000 + s)
        hold, _ = planted_massart(30_000, 4, eta=0.0, seed=8500 + s)
        cfg = MassartConfig(eta=0.0, epsilon=0.1, delta=0.05, seed=RngSeed(8900 + s))
        res = learn_massart(train, hold, cfg, TARGET)
        ok += (not res.rejected) and res.empirical_error <= 0.02
    assert ok >= 18


@pytest.mark.slow
def test_learn_agnostic_noiseless_monte_carlo():
    target = standard_gaussian_target()
    ok = 0
    for s in range(20):
        train, w_star = planted_agnostic(100_000, 4, 0.0, "agnostic_random", seed=7000 + s)
        hold, _ = planted_agnostic(30_000, 4, 0.0, "agnostic_random", seed=7500 + s)
        cfg = AgnosticConfig(epsilon=0.05, delta=0.05, mode="gaussian", seed=RngSeed(7900 + s))
        res = learn_agnostic(train, hold, cfg, target)
        ok += (not res.rejected) and res.empirical_error <= 0.02
    assert ok >= 18


def test_learn_result_invariants():
    from halflearn.pipeline import LearnResult

    with pytest.raises(ValueError):
        LearnResult(rejected=True, sigma_used=0.1, candidates_examined=0, tester_reports=(),
                    hypothesis=project_to_sphere([1.0, 0.0]), empirical_error=0.0)
    with pytest.raises(ValueError):
        LearnResult(rejected=False, sigma_used=0.1, candidates_examined=0, tester_reports=())
