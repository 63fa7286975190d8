import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halflearn.core import LabeledDataset, RngSeed, project_to_sphere
from halflearn.datagen import MarginalSpec, NoiseSpec, apply_noise, sample_marginal
from halflearn.errors import EmptyCandidateListError, ModeMismatchError, SizeLimitError
from halflearn import pipeline, testers
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
    assert len(pool) % 2 == 0 and len(pool) > 2
    for w in pool:
        assert w.negated() in pool
    # only the selected orientation is vetted
    assert res.candidates_examined == 1 and res.hypothesis in pool


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
        moment=gaussian_moment,
        sample=lambda n, d, rng: rng.standard_normal((n, d)),
    )


def test_learn_massart_rejects_at_first_failing_orientation():
    train, _ = planted_massart(30_000, 3, eta=0.1, seed=618)
    hold, _ = planted_massart(5_000, 3, eta=0.1, seed=619)
    cfg = MassartConfig(eta=0.1, epsilon=0.5, delta=0.05, seed=RngSeed(620))
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
    calibration = RngSeed(636).child(7)  # a learner calibrates on its seed's stream 7
    want_t1 = moment_tester(train, 2, TesterConfig(delta=0.01, calibration_seed=calibration), TARGET)
    # the threshold rank differs between delta 0.05 and 0.01, so the reports do too
    assert want_t1 != moment_tester(train, 2, TesterConfig(calibration_seed=calibration), TARGET)

    psgd, band, strip = pl.psgd_candidates, pl.band_moment_tester, pl.strip_tester
    widths = []  # (sigma, #distinct candidates) per PSGD run

    def psgd_spy(S, params, pcfg):
        cl = psgd(S, params, pcfg)
        widths.append((params.sigma, len({w.coords.tobytes() for w in cl.candidates})))
        return cl

    vet_cfgs = []

    def spy(S, w, sigma, tau, tcfg, target):
        vet_cfgs.append(tcfg)
        return band(S, w, sigma, tau, tcfg, target)

    monkeypatch.setattr(pl, "psgd_candidates", psgd_spy)
    monkeypatch.setattr(pl, "band_moment_tester", spy)
    res = pl.learn_massart(train, hold, MassartConfig(eta=0.1, epsilon=0.5, delta=0.01, seed=RngSeed(636)), TARGET)
    assert not res.rejected
    assert res.tester_reports[0] == want_t1
    [(_, n_cands)] = widths
    assert len(vet_cfgs) == 2 and {(c.delta, c.calibration_inflation) for c in vet_cfgs} == {
        (0.01 * (1.0 / (8.0 * n_cands)), 1.5 * 1.6)
    }

    # agnostic: the vetting calls of the returned orientation spend delta / (8
    # * #distinct candidates at its width * #grid); t4 runs in gaussian mode
    # only, with the same budget, at theta = min(C4 sigma, pi/4)
    calls = []  # (tester, sigma or theta, cfg)

    def vet_spy(S, w, sigma, tau, tcfg, target):
        calls.append(("t3", sigma, tcfg))
        return band(S, w, sigma, tau, tcfg, target)

    def strip_spy(S, w, theta, tcfg):
        calls.append(("t4", theta, tcfg))
        return strip(S, w, theta, tcfg)

    monkeypatch.setattr(pl, "band_moment_tester", vet_spy)
    monkeypatch.setattr(pl, "strip_tester", strip_spy)
    for mode, k, opt, eps, seed, grid in (("gaussian", None, 0.05, 0.5, 625, pl._arithmetic_grid(0.5)),
                                          ("slc_fixed_k", 2, 0.02, 0.6, 628, pl.sigma_grid_agnostic(0.6, 2))):
        widths.clear()
        calls.clear()
        a_train, _ = planted_agnostic(30_000, 3, opt, "agnostic_random", seed=seed)
        a_hold, _ = planted_agnostic(10_000, 3, opt, "agnostic_random", seed=seed + 1)
        cfg = AgnosticConfig(epsilon=eps, delta=0.01, mode=mode, k=k, seed=RngSeed(seed + 2))
        res = pl.learn_agnostic(a_train, a_hold, cfg, TARGET)
        assert not res.rejected and [sigma for sigma, _ in widths] == grid
        sigma, n = res.sigma_used, dict(widths)[res.sigma_used]
        for _, _, tcfg in calls:
            assert (tcfg.delta, tcfg.calibration_inflation) == (0.01 * (1.0 / (8.0 * n * len(grid))), 1.5 * 1.6)
        t4 = [("t4", min(pl.C4 * sigma, math.pi / 4.0))] if mode == "gaussian" else []
        assert [call[:2] for call in calls] == [("t3", sigma / 2.0), ("t3", sigma / 6.0), *t4]
        assert res.candidates_examined == 1

    # a t1 reject reports the Massart width, and 0.0 for the agnostic grid
    aniso = _aniso_train()
    res = pl.learn_massart(aniso, aniso, MassartConfig(eta=0.1, epsilon=0.5, delta=0.01, seed=RngSeed(638)), TARGET)
    assert res.rejected and res.candidates_examined == 0
    assert res.sigma_used == min(pl.C_SIGMA * 0.5**1.5 * (1.0 - 2.0 * 0.1), 1.0)
    cfg = AgnosticConfig(epsilon=0.3, delta=0.01, mode="gaussian", seed=RngSeed(637))
    res = pl.learn_agnostic(aniso, aniso, cfg, TARGET)
    assert res.rejected and res.candidates_examined == 0 and res.sigma_used == 0.0
    want_t1 = moment_tester(aniso, 2, TesterConfig(delta=0.01, calibration_seed=RngSeed(637).child(7)), TARGET)
    assert res.tester_reports == (want_t1,)


def _spy_pool(monkeypatch):
    """Record each PSGD run's (sigma, candidates) and the pool handed to the selection."""
    runs, pool = [], []
    psgd, select = pipeline.psgd_candidates, pipeline.select_best_candidate

    def psgd_spy(S, params, pcfg):
        cl = psgd(S, params, pcfg)
        runs.append((params.sigma, list(cl.candidates)))
        return cl

    def select_spy(S, candidates):
        pool.extend(candidates)
        return select(S, candidates)

    monkeypatch.setattr(pipeline, "psgd_candidates", psgd_spy)
    monkeypatch.setattr(pipeline, "select_best_candidate", select_spy)
    return runs, pool


def test_learn_agnostic_vets_only_the_holdout_argmin(monkeypatch):
    runs, pool = _spy_pool(monkeypatch)
    train, _ = planted_agnostic(30_000, 3, 0.05, "agnostic_random", seed=625)
    hold, _ = planted_agnostic(10_000, 3, 0.05, "agnostic_random", seed=626)
    cfg = AgnosticConfig(epsilon=0.5, delta=0.05, mode="gaussian", seed=RngSeed(627))
    res = learn_agnostic(train, hold, cfg, TARGET)
    assert not res.rejected and res.candidates_examined == 1

    # the pool is every distinct candidate of every width, then its negation
    distinct = [(sigma, list({w.coords.tobytes(): w for w in cands}.values())) for sigma, cands in runs]
    assert pool == [h for _, cands in distinct for w in cands for h in (w, w.negated())]
    # the hypothesis is the holdout argmin over the whole pool, first index on ties
    errs = [empirical_error(hold, h) for h in pool]
    assert res.hypothesis == pool[errs.index(min(errs))] and res.empirical_error == min(errs)

    # after t1, the reports are t3 on the generating candidate w at sigma/2
    # and sigma/6, then t4 on h, all with the vetting config of h's width
    sigma = res.sigma_used
    cands = dict(distinct)[sigma]
    w = next(c for c in cands if res.hypothesis in (c, c.negated()))
    tcfg = TesterConfig(calibration_inflation=1.5 * pipeline.PER_CANDIDATE_INFLATION,
                        delta=0.05 * (1.0 / (8.0 * len(cands) * len(runs))),
                        calibration_seed=RngSeed(627).child(7))
    want = (
        testers.band_moment_tester(train, w, sigma / 2.0, pipeline.C2, tcfg, TARGET),
        testers.band_moment_tester(train, w, sigma / 6.0, pipeline.C2, tcfg, TARGET),
        testers.strip_tester(train, res.hypothesis, min(pipeline.C4 * sigma, math.pi / 4.0), tcfg),
    )
    assert res.tester_reports[0].checks[0].name.startswith("moment_")
    assert res.tester_reports[1:] == want


def test_learn_accepts_when_only_an_orientation_it_does_not_return_would_fail(monkeypatch):
    train, _ = planted_massart(40_000, 4, eta=0.1, seed=612)
    hold, _ = planted_massart(10_000, 4, eta=0.1, seed=613)
    cfg = MassartConfig(eta=0.1, epsilon=0.3, delta=0.05, seed=RngSeed(614))
    honest = learn_massart(train, hold, cfg, TARGET)
    assert not honest.rejected
    h = honest.hypothesis

    # a t3 that rejects every band but those of h and -h
    band, vetted = pipeline.band_moment_tester, []
    fail = testers.TesterReport(False, (testers.TesterCheck("spy", 1.0, 0.0, False),), 0)

    def spy(S, w, sigma, tau, tcfg, target):
        vetted.append(w)
        return band(S, w, sigma, tau, tcfg, target) if w in (h, h.negated()) else fail

    _, pool = _spy_pool(monkeypatch)
    monkeypatch.setattr(pipeline, "band_moment_tester", spy)
    res = learn_massart(train, hold, cfg, TARGET)
    # the pool opens with PSGD's random start, which the spy fails, and
    # vetting every orientation would have rejected there
    assert pool[0] not in (h, h.negated())
    assert res.to_json_dict() == honest.to_json_dict()
    assert len(vetted) == 2 and all(w in (h, h.negated()) for w in vetted)


@given(
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
    st.floats(0.3, 0.9),
    st.floats(1.0, 1.15),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
@example(d=3, seed=277638934, sigma=0.5586284528574792, stretch=1.0, strips=False)  # see the last remark
def test_vetting_a_candidate_or_its_negation_gives_the_same_verdicts(d, seed, sigma, stretch, strips):
    # _vet band-tests the orientation's generating PSGD candidate, so a
    # candidate and its negation get the same band reports.  Vetting -w as the
    # candidate, in the frame diag(-1, I) H(w) that maps -w to e1, must then
    # give w's band reports bit for bit and the same verdicts, for either
    # orientation.  -w's own Householder frame H(-w) differs from that one on
    # the hyperplane w-perp, so its in-band moments, and near a threshold its
    # verdicts, can differ from w's: in the example pinned above w's sigma/6
    # band fails and -w's, in H(-w), passes.
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((8_000, d))
    X[:, -1] *= stretch  # one coordinate stretched by up to 15 %: some bands fail, others pass
    train = LabeledDataset(X, np.ones(8_000))
    w = project_to_sphere(rng.standard_normal(d))
    flip = np.ones(d)
    flip[0] = -1.0
    # rows are multiplied on the right, so x @ (H flip) is the frame diag(-1, I) H x
    reflected = testers.rotation_to_first_axis(w) * flip
    own_frame = testers.rotation_to_first_axis
    frame = lambda u: reflected if u == w.negated() else own_frame(u)
    tcfg = TesterConfig()
    theta = min(2.0 * sigma, math.pi / 4.0) if strips else None
    runs = []
    for cand in (w, w.negated()):
        verdicts = {}
        with (
            mock.patch.object(testers, "rotation_to_first_axis", frame),
            mock.patch.object(testers, "_CALIBRATION_REPS", 50),
        ):
            for h in (cand, cand.negated()):
                reports = []
                ok = pipeline._vet(train, pipeline._Orientation(h, cand, sigma, tcfg, theta), TARGET, reports)
                bands = [r for r in reports if r.checks[0].name.startswith("band_mass")]
                verdicts[h.coords.tobytes()] = (ok, [r.accepted for r in reports], bands)
        runs.append(verdicts)
    assert runs[0] == runs[1]


def test_learn_agnostic_rejects_student_t_at_degree_4():
    # t(3) has no fourth moment, and the mean of x^2 fluctuates at the
    # stable-law rate n^{-1/3}, above the Gaussian null's n^{-1/2}: the
    # calibrated thresholds reject it at the degree-2 moments already
    root = RngSeed(640)
    w = project_to_sphere([1.0, 0, 0, 0])
    X = sample_marginal(MarginalSpec("student_t", 4, dof=3.0), 100_000, root.child(0))
    train = apply_noise(X, NoiseSpec("agnostic_random", w, opt=0.05), root.child(1))
    hold, _ = planted_agnostic(5_000, 4, 0.05, "agnostic_random", seed=622)
    res = learn_agnostic(train, hold, AgnosticConfig(
        epsilon=0.3, delta=0.05, mode="slc_fixed_k", k=4, seed=root.child(2)), TARGET)
    assert res.rejected and len(res.tester_reports) == 1  # t1 rejects, nothing is vetted
    failing = [c for c in res.tester_reports[0].checks if not c.passed]
    assert failing and all(sum(int(p) for p in c.name.split("_")[1:]) == 2 for c in failing)


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
