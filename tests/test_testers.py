import inspect
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from halflearn.core import LabeledDataset, RngSeed, exponent_tuples, project_to_sphere
from halflearn import testers
from halflearn.datagen import MarginalSpec, sample_marginal
from halflearn.errors import (
    InsufficientBandSamplesError,
    NotSymmetricError,
    OddDegreeError,
    SizeLimitError,
    ThetaOutOfRangeError,
)
from halflearn.testers import (
    GAUSSIAN_K1,
    GAUSSIAN_K2,
    TesterCheck,
    TesterConfig,
    TesterReport,
    angle_to_error_bound,
    band_mass_tester,
    band_moment_tester,
    gaussian_moment,
    moment_tester,
    operator_norm_symmetric,
    rotation_to_first_axis,
    standard_gaussian_target,
    strip_tester,
    tilted_gaussian_target,
    _monomial_means,
    truncated_normal_even_moment,
)

from conftest import child_env, gaussian_dataset, random_unit

TARGET = standard_gaussian_target()
CFG = TesterConfig()


# ---------------------------------------------------------------------------
# moments machinery


def test_gaussian_moment_examples():
    assert gaussian_moment((2, 0)) == 1.0
    assert gaussian_moment((1, 1)) == 0.0
    assert gaussian_moment((4,)) == 3.0
    assert gaussian_moment((2, 4, 6)) == 1 * 3 * 15


def test_gaussian_moment_monte_carlo_cross_check():
    rng = np.random.default_rng(100)
    x = rng.standard_normal(1_000_000)
    est = float((x**4).mean())
    se = float((x**4).std() / 1000.0)
    assert abs(gaussian_moment((4,)) - est) <= 3 * se


def test_truncated_normal_moments_against_quadrature():
    # in u = sigma*s the ratio is sigma^j int s^j e^{-(sigma s)^2/2} / int e^{-(sigma s)^2/2}
    # over [0, 1]: both integrands are O(1), so quadrature keeps full relative
    # accuracy even at the Massart band widths (sigma/6 ~ 0.001)
    for sigma in (0.001, 0.01, 0.0417, 0.1, 0.5, 1.0):
        mass = quad(lambda s: math.exp(-0.5 * (sigma * s) ** 2), 0, 1, epsabs=0, epsrel=1e-13)[0]
        for j in (2, 4, 6, 8):
            num = quad(lambda s: s**j * math.exp(-0.5 * (sigma * s) ** 2), 0, 1, epsabs=0, epsrel=1e-13)[0]
            assert truncated_normal_even_moment(j, sigma) == pytest.approx(sigma**j * num / mass, rel=1e-12, abs=0)
        assert truncated_normal_even_moment(0, sigma) == 1.0
        assert truncated_normal_even_moment(3, sigma) == 0.0


def test_lower_gamma_series_against_scipy():
    # the half-integer orders truncated_normal_even_moment uses for j = 2..16
    from scipy.special import gammainc

    for a in np.arange(1.5, 9.0, 1.0):
        for x in np.geomspace(1e-10, 30.0, 121):
            assert testers._lower_gamma_regularized(a, x) == pytest.approx(gammainc(a, x), rel=1e-13, abs=0)
    assert testers._lower_gamma_regularized(2.5, 0.0) == 0.0
    assert testers._lower_gamma_regularized(8.5, 500.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        testers._lower_gamma_regularized(8.5, 501.0)  # the series would overflow


def test_rotation_maps_direction_to_first_axis():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = random_unit(5, rng)
        H = rotation_to_first_axis(w)
        assert np.allclose(H @ w.coords, [1, 0, 0, 0, 0], atol=1e-12)
        assert np.allclose(H @ H.T, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("degrees", [(4,), (1, 2, 3, 4), (2, 5, 8)], ids=["t1", "t3", "power_table"])
def test_monomial_means_against_brute_force(degrees):
    # positive coordinates: no cancellation, so a relative tolerance is sound
    X = np.random.default_rng(105).uniform(0.5, 1.5, (500, 3))
    alphas = [a for k in degrees for a in exponent_tuples(3, k)]
    brute = [np.mean(np.prod(X ** np.array(a), axis=1)) for a in alphas]
    assert _monomial_means(X, alphas) == pytest.approx(brute, rel=1e-12)


def test_monomial_means_ignore_memory_layout():
    # the Gram and power-table paths give the same bits for C-order,
    # Fortran-order and strided-view copies of one matrix
    big = np.random.default_rng(106).standard_normal((6002, 8))
    view = big[::2, 1::2]
    X = np.ascontiguousarray(view)
    for degrees in ((2,), (4,), (6,), (1, 2, 3, 4), (2, 5, 8)):
        alphas = [a for k in degrees for a in exponent_tuples(4, k)]
        ref = _monomial_means(X, alphas)
        assert np.array_equal(_monomial_means(np.asfortranarray(X), alphas), ref)
        assert np.array_equal(_monomial_means(view, alphas), ref)


@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_negated_direction_has_the_same_band_deviations(d, seed, sigma):
    # the frame diag(-1, I) H(w) maps -w to e1; in it the band rows of -w give
    # (-1)^alpha_1 times w's monomial means, bit for bit, and the in-band
    # Gaussian targets vanish for odd alpha_1, so every |emp - tgt| is w's
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2000, d))
    w = random_unit(d, rng)
    assert np.array_equal(np.abs(X @ w.coords) <= sigma, np.abs(X @ w.negated().coords) <= sigma)
    Xb = X[np.abs(X @ w.coords) <= sigma] @ rotation_to_first_axis(w)
    Yb = Xb.copy()
    Yb[:, 0] = -Yb[:, 0]
    alphas = [a for deg in range(1, 5) for a in exponent_tuples(d, deg)]
    emp = _monomial_means(Xb, alphas)
    sign = np.array([(-1.0) ** a[0] for a in alphas])
    assert np.array_equal(_monomial_means(Yb, alphas), sign * emp)
    tgt = np.array([testers._band_gaussian_moment(a, sigma) for a in alphas])
    assert np.array_equal(np.abs(sign * emp - tgt), np.abs(emp - tgt))


# ---------------------------------------------------------------------------
# t1: global moments


def test_t1_accepts_gaussian_single_seed():
    ds = gaussian_dataset(20_000, 3, seed=200)
    rep = moment_tester(ds, 2, CFG, TARGET)
    assert rep.accepted
    assert rep.samples_used == 20_000
    assert len(rep.checks) == 6  # degree-2 multi-indices in d=3


def test_t1_rejects_anisotropic_both_modes():
    ds = sample_marginal(MarginalSpec("aniso_gaussian", 4, scales=(2.0, 1, 1, 1)), 10_000, RngSeed(201))
    rep = moment_tester(ds, 2, CFG, TARGET)
    assert not rep.accepted
    failing = [c for c in rep.checks if not c.passed]
    assert failing[0].name == "moment_2_0_0_0"
    assert failing[0].measured == pytest.approx(3.0, abs=0.3)


def test_t1_odd_degree_and_size_limit():
    ds = gaussian_dataset(100, 3, seed=202)
    with pytest.raises(OddDegreeError):
        moment_tester(ds, 3, CFG, TARGET)
    wide = gaussian_dataset(10, 40, seed=203)
    with pytest.raises(SizeLimitError):
        moment_tester(wide, 6, CFG, TARGET)


def test_t1_verdict_permutation_invariant():
    ds = gaussian_dataset(5_000, 3, seed=204)
    rep = moment_tester(ds, 2, CFG, TARGET)
    perm = np.random.default_rng(0).permutation(ds.n)
    shuffled = LabeledDataset(ds.points[perm], ds.labels[perm])
    rep2 = moment_tester(shuffled, 2, CFG, TARGET)
    assert rep.accepted == rep2.accepted
    assert [c.passed for c in rep.checks] == [c.passed for c in rep2.checks]


def test_t1_custom_target_calibrated(monkeypatch):
    monkeypatch.setattr(testers, "_CALIBRATION_REPS", 200)
    tilt = tilted_gaussian_target(0.5, 3)
    ds = sample_marginal(MarginalSpec("slc_exp_tilt", 3, lam=0.5), 30_000, RngSeed(205))
    rep = moment_tester(ds, 2, CFG, tilt)
    assert rep.accepted
    # gaussian data against the tilt target matches at degree 2 as well
    # (both are isotropic); degree 4 separates them at this sample size
    ds_g = gaussian_dataset(100_000, 3, seed=206)
    rep4 = moment_tester(ds_g, 4, CFG, tilt)
    fourth = next(c for c in rep4.checks if c.name == "moment_4_0_0")
    tilt_fourth = tilt.moment((4, 0, 0))
    # rescaling to unit variance leaves the tilted density with excess kurtosis
    assert tilt_fourth == pytest.approx(3.3946, abs=1e-3)
    assert fourth.measured == pytest.approx(tilt_fourth - 3.0, abs=0.25)
    assert not fourth.passed


# ---------------------------------------------------------------------------
# t2: band mass


def test_t2_accepts_gaussian_and_reports_fraction():
    ds = gaussian_dataset(50_000, 4, seed=210)
    w = random_unit(4, np.random.default_rng(210))
    rep = band_mass_tester(ds, w, 0.5, CFG, TARGET)
    assert rep.accepted
    frac = next(c for c in rep.checks if c.name == "band_mass_fraction")
    assert frac.measured == pytest.approx(math.erf(0.5 / math.sqrt(2)), abs=0.01)
    # accept pins the fraction inside the guaranteed window
    assert GAUSSIAN_K1 * 0.5 / 2 < frac.measured < (GAUSSIAN_K2 + GAUSSIAN_K1 / 2) * 0.5


def test_t2_rejects_hyperplane_mass():
    rng = np.random.default_rng(211)
    X = np.column_stack([np.zeros(5000), rng.standard_normal(5000)])
    ds = LabeledDataset(X, np.ones(5000))
    rep = band_mass_tester(ds, project_to_sphere([1.0, 0.0]), 0.5, CFG, TARGET)
    assert not rep.accepted


def test_t2_rejects_empty_band():
    rng = np.random.default_rng(212)
    X = np.column_stack([10.0 + rng.random(5000), rng.standard_normal(5000)])
    ds = LabeledDataset(X, np.ones(5000))
    rep = band_mass_tester(ds, project_to_sphere([1.0, 0.0]), 0.5, CFG, TARGET)
    assert not rep.accepted
    assert next(c for c in rep.checks if c.name == "band_mass_fraction").measured == 0.0


def test_t2_verdict_permutation_invariant():
    ds = gaussian_dataset(20_000, 3, seed=213)
    w = random_unit(3, np.random.default_rng(213))
    perm = np.random.default_rng(2).permutation(ds.n)
    shuffled = LabeledDataset(ds.points[perm], ds.labels[perm])
    for sigma in (0.05, 0.5):
        rep = band_mass_tester(ds, w, sigma, CFG, TARGET)
        rep2 = band_mass_tester(shuffled, w, sigma, CFG, TARGET)
        assert rep.accepted == rep2.accepted
        assert [(c.name, c.measured, c.passed) for c in rep.checks] == [
            (c.name, c.measured, c.passed) for c in rep2.checks
        ]


# ---------------------------------------------------------------------------
# t3: conditional in-band moments


def test_t3_accepts_gaussian_single_seed():
    ds = gaussian_dataset(200_000, 3, seed=220)
    rep = band_moment_tester(ds, project_to_sphere([1.0, 0, 0]), 0.3, 0.5, CFG, TARGET)
    assert rep.accepted
    # two band checks plus conditional moments of degrees 1..4 in d=3
    assert len(rep.checks) == 2 + (3 + 6 + 10 + 15)


def test_t3_rejects_doubled_coordinate_in_band():
    ds = gaussian_dataset(200_000, 3, seed=221)
    w = project_to_sphere([1.0, 0, 0])
    X = ds.points.copy()
    in_band = np.abs(X @ w.coords) <= 0.3
    X[in_band, 1] *= 2.0
    doctored = LabeledDataset(X, ds.labels)
    rep = band_moment_tester(doctored, w, 0.3, 0.5, CFG, TARGET)
    assert not rep.accepted
    target_020 = next(c for c in rep.checks if c.name == "band_moment_0_2_0")
    # empirical conditional second moment ~4 against target ~1: deviation ~3
    assert not target_020.passed
    assert target_020.measured == pytest.approx(3.0, abs=0.3)


def test_t3_insufficient_band_samples():
    # no row near the hyperplane: the band-mass checks reject before the
    # in-band count is looked at
    rng = np.random.default_rng(222)
    X = np.column_stack([5.0 + rng.random(2000), rng.standard_normal(2000)])
    w = project_to_sphere([1.0, 0.0])
    rep = band_moment_tester(LabeledDataset(X, np.ones(2000)), w, 0.3, 0.5, CFG, TARGET)
    assert not rep.accepted
    assert [c.name for c in rep.checks] == ["band_mass_abs_error", "band_mass_fraction"]
    # about 70 of 300 Gaussian rows fall in the band: t2 passes, too few for t3
    ds = gaussian_dataset(300, 2, seed=222)
    assert band_mass_tester(ds, w, 0.3, CFG, TARGET).accepted
    with pytest.raises(InsufficientBandSamplesError):
        band_moment_tester(ds, w, 0.3, 0.5, CFG, TARGET)


def test_t3_band_mass_rejection_propagates():
    # plenty of in-band samples but twice the band mass: the embedded band
    # check fails and no moment checks are emitted
    rng = np.random.default_rng(223)
    n = 50_000
    X = rng.standard_normal((n, 3))
    X[: n // 2, 0] *= 0.05  # concentrate half the mass near the hyperplane
    ds = LabeledDataset(X, np.ones(n))
    rep = band_moment_tester(ds, project_to_sphere([1.0, 0, 0]), 0.3, 0.5, CFG, TARGET)
    assert not rep.accepted
    assert all(c.name.startswith("band_mass") for c in rep.checks)


def test_t3_verdict_permutation_invariant():
    ds = gaussian_dataset(60_000, 3, seed=224)
    w = project_to_sphere([0.0, 1.0, 0.0])
    rep = band_moment_tester(ds, w, 0.4, 0.5, CFG, TARGET)
    perm = np.random.default_rng(1).permutation(ds.n)
    rep2 = band_moment_tester(LabeledDataset(ds.points[perm], ds.labels[perm]), w, 0.4, 0.5, CFG, TARGET)
    assert rep.accepted == rep2.accepted


def test_band_moment_degree_formula():
    from halflearn.testers import band_moment_degree

    assert band_moment_degree(0.5, cap=8) == 4  # ceil(1/0.25) = 4
    assert band_moment_degree(0.6, cap=8) == 4  # ceil(2.78) = 3, rounded up to even
    assert band_moment_degree(0.05, cap=4) == 4  # ceil(400.0...) capped
    assert band_moment_degree(0.9, cap=8) == 2


def test_t3_custom_target_path(monkeypatch):
    monkeypatch.setattr(testers, "_CALIBRATION_REPS", 100)
    tilt = tilted_gaussian_target(0.5, 3)
    ds = sample_marginal(MarginalSpec("slc_exp_tilt", 3, lam=0.5), 50_000, RngSeed(225))
    w = project_to_sphere([1.0, 0, 0])
    rep = band_moment_tester(ds, w, 0.4, 0.6, CFG, tilt)
    assert rep.accepted
    rep2 = band_moment_tester(ds, w, 0.4, 0.6, CFG, tilt)
    assert rep.to_json_dict() == rep2.to_json_dict()  # cached oracle is deterministic


def test_t3_custom_theory_report_ignores_the_replicate_count(empty_oracle_cache, monkeypatch):
    # a custom target's in-band moments come from a draw of their own, so the
    # replicate count moves the thresholds but neither the targets nor the
    # measured deviations from them
    tilt = tilted_gaussian_target(0.5, 3)
    ds = sample_marginal(MarginalSpec("slc_exp_tilt", 3, lam=0.5), 20_000, RngSeed(228))
    w = project_to_sphere([1.0, 0.5, -0.2])
    runs = []
    for reps in (2, 1000):
        testers.clear_oracle_cache()
        monkeypatch.setattr(testers, "_CALIBRATION_REPS", reps)
        rep = band_moment_tester(ds, w, 0.4, 0.5, CFG, tilt)
        assert len(rep.checks) == 2 + 34
        targets = testers._custom_band_moments(tilt, w, 0.4, _band_alphas(3), CFG.calibration_seed)
        runs.append(([c.measured for c in rep.checks], targets, [c.threshold for c in rep.checks[2:]]))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] != runs[1][2]


# ---------------------------------------------------------------------------
# calibration oracles


def _band_alphas(d: int) -> list[tuple[int, ...]]:
    return [a for deg in range(1, 5) for a in exponent_tuples(d, deg)]


def gaussian_band_quantiles(d, sigma, m, alphas, cfg):
    """The Gaussian t3 call of the null-quantile oracle, with the key and seed
    stream band_moment_tester builds."""
    N = len(alphas)
    key = ("t3", "standard_gaussian", d, N, float(sigma), m)
    stream = (3, d, N, int(np.float64(sigma).view(np.uint64)), m)
    moment = lambda a: testers._band_gaussian_moment(a, sigma)
    sample = lambda size, rng: testers._sample_gaussian_band_rotated(size, d, sigma, rng)
    return testers._null_quantiles(key, stream, m, alphas, moment, sample, cfg)


@pytest.fixture()
def empty_oracle_cache():
    testers.clear_oracle_cache()
    yield
    testers.clear_oracle_cache()


@pytest.mark.parametrize(
    "case", [("t1", 2), ("t1", 4), ("band", 0.05), ("band", 0.5)], ids=["t1_k2", "t1_k4", "band_0.05", "band_0.5"]
)
def test_null_variances_against_brute_force(case):
    kind, param = case
    d, n = 3, 1_000_000
    rng = np.random.default_rng(106)
    if kind == "t1":
        alphas = list(exponent_tuples(d, param))
        moment = gaussian_moment
        X = rng.standard_normal((n, d))
    else:
        alphas = _band_alphas(d)
        moment = lambda a: testers._band_gaussian_moment(a, param)
        X = testers._sample_gaussian_band_rotated(n, d, param, rng)
    var = testers._null_variance(moment, alphas)
    powers = [[X[:, i] ** e for e in range(5)] for i in range(d)]
    for a, v in zip(alphas, var):
        y = np.prod([powers[i][e] for i, e in enumerate(a)], axis=0)
        # the sample variance of n rows has standard error sqrt((mu4 - var^2)/n),
        # with mu4 = E[(y - mu)^4] expanded in raw moments of the null law
        mu = moment(a)
        raw = [moment(tuple(p * e for e in a)) for p in (2, 3, 4)]
        mu4 = raw[2] - 4 * mu * raw[1] + 6 * mu**2 * raw[0] - 3 * mu**4
        se = math.sqrt((mu4 - v * v) / n)
        assert v > 0
        assert abs(float(np.var(y)) - v) <= 6 * se, (a, float(np.var(y)), v, se)


def test_clt_cutoff_matches_sampled_thresholds(monkeypatch, empty_oracle_cache):
    # At the cutoff the closed-form thresholds agree with the row-sampling ones
    # degree by degree (median ratio over 10 calibration seeds x the degree's
    # monomials); at a twentieth of it the skew of degree-4 band monomials
    # makes the sampled maxima visibly larger, which is why small in-band
    # counts keep sampling.  sigma = 0.0417 is the narrowest agnostic band.
    d, sigma = 4, 0.0417
    alphas = _band_alphas(d)
    degrees = np.array([sum(a) for a in alphas])
    cutoff = testers._CLT_MIN

    def ratios(m: int) -> np.ndarray:
        out = []
        for seed in range(1, 11):
            cfg = TesterConfig(calibration_seed=RngSeed(seed))
            q = {}
            for path, clt_min in (("closed", m), ("sampled", m + 1)):
                monkeypatch.setattr(testers, "_CLT_MIN", clt_min)
                q[path] = gaussian_band_quantiles(d, sigma, m, alphas, cfg)
                testers.clear_oracle_cache()
            out.append(q["closed"] / q["sampled"])
        return np.array(out)

    at_cutoff = ratios(cutoff)
    for deg in range(1, 5):
        assert 0.95 <= np.median(at_cutoff[:, degrees == deg]) <= 1.05, deg
    assert np.median(ratios(cutoff // 20)[:, degrees == 4]) < 0.95


def oracle_outputs() -> list[str]:
    """Hex bytes of the t1 and Gaussian t3 quantiles on both sides of the
    cutoff, and of custom-target t3 deviations and thresholds on both sides."""
    cfg = testers.TesterConfig()
    target = testers.standard_gaussian_target()
    t1 = list(exponent_tuples(3, 4))
    t3 = [a for deg in range(1, 5) for a in exponent_tuples(3, deg)]
    out = []
    for n in (500, 20_000):
        key, stream = ("t1", target.label, 3, 4, n), (1, testers._label_tag(target.label), 3, 4, n)
        moment = target.moment
        sample = lambda size, rng: target.sample(size, 3, rng)
        out.append(testers._null_quantiles(key, stream, n, t1, moment, sample, cfg))
    for m in (testers._bucket_count(500), testers._bucket_count(9_000)):
        out.append(gaussian_band_quantiles(3, 0.3, m, t3, cfg))
    tilt = testers.tilted_gaussian_target(0.5, 3)
    w = project_to_sphere([1.0, 0.5, -0.2])
    from unittest import mock

    for n in (2_100, 12_000):  # about 500 and 2 800 in-band rows: sampled and CLT quantiles
        X = tilt.sample(n, 3, np.random.default_rng(n))
        with mock.patch.object(testers, "_CALIBRATION_REPS", 20):
            rep = testers.band_moment_tester(LabeledDataset(X, np.ones(n)), w, 0.3, 0.5, cfg, tilt)
        out.append(np.array([(c.measured, c.threshold) for c in rep.checks]))
    return [q.tobytes().hex() for q in out]


def test_null_quantiles_identical_in_fresh_process(empty_oracle_cache):
    # the oracle outputs are a pure function of their arguments and the
    # calibration seed: a fresh process running the same code agrees bit for bit
    script = "\n".join([
        "import numpy as np",
        "from halflearn import testers",
        "from halflearn.core import LabeledDataset, exponent_tuples, project_to_sphere",
        inspect.getsource(gaussian_band_quantiles),
        inspect.getsource(oracle_outputs),
        "print(' '.join(oracle_outputs()))",
    ])
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=600, env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == oracle_outputs()


# ---------------------------------------------------------------------------
# t4: strip profile


def test_t4_accepts_gaussian_single_seed():
    ds = gaussian_dataset(200_000, 4, seed=230)
    rep = strip_tester(ds, random_unit(4, np.random.default_rng(230)), 0.1, CFG)
    assert rep.accepted
    names = [c.name for c in rep.checks]
    assert "strip_mass_0" in names and "tail_mass" in names


def test_t4_rejects_hyperplane_concentration():
    rng = np.random.default_rng(231)
    X = np.column_stack([np.zeros(20_000), rng.standard_normal((20_000, 3))])
    ds = LabeledDataset(X, np.ones(20_000))
    rep = strip_tester(ds, project_to_sphere([1.0, 0, 0, 0]), 0.1, CFG)
    assert not rep.accepted
    zero_strip = next(c for c in rep.checks if c.name == "strip_mass_0")
    assert zero_strip.measured == 1.0 and not zero_strip.passed


def test_t4_rejects_inflated_strip_covariance():
    ds = gaussian_dataset(200_000, 4, seed=232)
    w = project_to_sphere([1.0, 0, 0, 0])
    X = ds.points.copy()
    theta = 0.1
    in_strip = (X @ w.coords >= 0.0) & (X @ w.coords < theta)
    X[np.ix_(in_strip, [1, 2, 3])] *= 2.0
    rep = strip_tester(LabeledDataset(X, ds.labels), w, theta, CFG)
    assert not rep.accepted
    cov0 = next(c for c in rep.checks if c.name == "strip_cov_0")
    assert cov0.measured == pytest.approx(3.0, abs=0.3)


def test_t4_verdict_permutation_invariant():
    # inflated covariance in one strip, so the report mixes passing and failing checks
    ds = gaussian_dataset(100_000, 4, seed=233)
    w = project_to_sphere([1.0, 0, 0, 0])
    X = ds.points.copy()
    X[np.ix_((X[:, 0] >= 0.0) & (X[:, 0] < 0.1), [1, 2, 3])] *= 2.0
    perm = np.random.default_rng(3).permutation(ds.n)
    for theta in (0.1, 0.5):
        rep = strip_tester(LabeledDataset(X, ds.labels), w, theta, CFG)
        rep2 = strip_tester(LabeledDataset(X[perm], ds.labels[perm]), w, theta, CFG)
        assert rep.accepted == rep2.accepted
        assert [(c.name, c.passed) for c in rep.checks] == [(c.name, c.passed) for c in rep2.checks]
    assert not rep.accepted


def test_t4_strip_covariances_against_brute_force():
    ds = gaussian_dataset(200_000, 4, seed=234)
    for theta, seed in ((0.1, 234), (0.5, 235), (math.pi / 4.0, 236)):
        w = random_unit(4, np.random.default_rng(seed))
        H = rotation_to_first_axis(w)
        k_max = math.ceil(math.sqrt(2.0 * math.log(1.0 / theta)) / theta)
        idx = np.floor(ds.points @ w.coords / theta).astype(np.int64)
        ref = {}
        for i in range(-k_max, k_max + 1):
            count = int(np.count_nonzero(idx == i))
            if count >= testers._min_strip_count(4):
                Z = (ds.points[idx == i] @ H)[:, 1:]
                ref[f"strip_cov_{i}"] = operator_norm_symmetric(Z.T @ Z / count - np.eye(3))
        got = {c.name: c.measured for c in strip_tester(ds, w, theta, CFG).checks if c.name.startswith("strip_cov")}
        assert len(ref) >= 3 and got.keys() == ref.keys()
        # the same rows in the same order give the same bits; an unordered
        # grouping of a strip's rows would move the last digits
        for name, dev in ref.items():
            assert got[name] == dev, name


def test_t4_theta_range():
    ds = gaussian_dataset(100, 3, seed=233)
    with pytest.raises(ThetaOutOfRangeError):
        strip_tester(ds, project_to_sphere([1.0, 0, 0]), 1.0, CFG)


@pytest.mark.slow
def test_band_testers_reject_their_constructions_in_all_seeds():
    # soundness-by-construction: the documented deviants reject in 20/20 seeds
    w = project_to_sphere([1.0, 0, 0])
    t2_rejects = t3_rejects = 0
    for s in range(20):
        rng = np.random.default_rng(250 + s)
        hyper = LabeledDataset(
            np.column_stack([np.zeros(5000), rng.standard_normal((5000, 2))]), np.ones(5000)
        )
        t2_rejects += not band_mass_tester(hyper, w, 0.5, CFG, TARGET).accepted

        ds = gaussian_dataset(200_000, 3, seed=270 + s)
        X = ds.points.copy()
        in_band = np.abs(X @ w.coords) <= 0.3
        X[in_band, 1] *= 2.0
        t3_rejects += not band_moment_tester(LabeledDataset(X, ds.labels), w, 0.3, 0.5, CFG, TARGET).accepted
    assert t2_rejects == 20
    assert t3_rejects == 20


# ---------------------------------------------------------------------------
# operator norm


def test_operator_norm_examples():
    assert operator_norm_symmetric(np.eye(3)) == pytest.approx(1.0, abs=1e-10)
    assert operator_norm_symmetric(np.diag([2.0, -5.0, 1.0])) == pytest.approx(5.0, abs=1e-8)
    assert operator_norm_symmetric(np.zeros((4, 4))) == 0.0


def test_operator_norm_random_vs_dense_solver():
    rng = np.random.default_rng(240)
    for _ in range(25):
        A = rng.standard_normal((6, 6))
        M = (A + A.T) / 2
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(M))))
        assert operator_norm_symmetric(M) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.slow
def test_operator_norm_exhaustive_small_integer_matrices():
    vals = range(-2, 3)
    for a, b, c in itertools.product(vals, repeat=3):
        M = np.array([[a, b], [b, c]], dtype=float)
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(M))))
        assert abs(operator_norm_symmetric(M) - oracle) <= 1e-8
    rng = np.random.default_rng(0)
    combos = list(itertools.product(vals, repeat=6))
    for a, b, c, d, e, f in combos:
        M = np.array([[a, b, c], [b, d, e], [c, e, f]], dtype=float)
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(M))))
        assert abs(operator_norm_symmetric(M) - oracle) <= 1e-8


def test_operator_norm_not_symmetric():
    for M, error in (
        (np.array([[0.0, 1.0], [0.0, 0.0]]), NotSymmetricError),
        (np.ones((2, 3)), NotSymmetricError),
        (np.ones(3), NotSymmetricError),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), ValueError),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), ValueError),
    ):
        with pytest.raises(error):
            operator_norm_symmetric(M)


# ---------------------------------------------------------------------------
# angle-to-error bound


def test_angle_to_error_bound_vanishes_with_theta():
    _, bound = angle_to_error_bound(1e-6, 2, 1.0, 1.0)
    assert bound < 1e-3


def test_angle_to_error_bound_near_grid_minimum():
    theta, k, c1, c3 = 0.1, 2, 1.0, 1.0
    sigma_opt, bound = angle_to_error_bound(theta, k, c1, c3)
    grid = np.linspace(1e-4, 1.0, 10_000)
    amp = (c1 * k) ** (k / 2) * math.tan(theta) ** k
    objective = c3 * grid + amp / grid**k
    grid_min = float(objective.min())
    assert bound >= grid_min - 1e-12
    # the term-balancing sigma sits within (1+1/k) k^{1/(k+1)} / 2 of the true
    # minimum; for k=2 that ratio is ~1.0583
    ratio_cap = 2.0 / ((1 + 1 / k) * k ** (1 / (k + 1)))
    assert bound <= grid_min * ratio_cap * (1 + 1e-6)
    assert bound == pytest.approx(grid_min * ratio_cap, rel=1e-3)


def test_angle_to_error_bound_monotone():
    b1 = angle_to_error_bound(0.1, 2, 1.0, 1.0)[1]
    b2 = angle_to_error_bound(0.2, 2, 1.0, 1.0)[1]
    assert b2 > b1


def test_angle_to_error_bound_theta_scaling():
    # Theta(sqrt(k) theta^{1-1/(k+1)}): ratio across theta matches the exponent
    for k in (2, 4):
        b1 = angle_to_error_bound(0.01, k, 1.0, 1.0)[1]
        b2 = angle_to_error_bound(0.02, k, 1.0, 1.0)[1]
        assert b2 / b1 == pytest.approx(2 ** (1 - 1 / (k + 1)), rel=0.02)


# ---------------------------------------------------------------------------
# reports and targets


def test_report_conjunction_invariant():
    good = TesterCheck("a", 0.0, 1.0, True)
    bad = TesterCheck("b", 2.0, 1.0, False)
    rep = TesterReport(False, (good, bad), 10)
    assert rep.to_json_dict()["accepted"] is False
    with pytest.raises(ValueError):
        TesterReport(True, (good, bad), 10)


def test_target_spot_check_rejects_bad_band_oracle():
    with pytest.raises(ValueError):
        # oracle claims far more band mass than [K1, K2] allows
        from halflearn.testers import TargetMarginal

        TargetMarginal(
            kind="custom",
            band_prob_oracle=lambda s: min(3.0 * s, 1.0),
            k1=GAUSSIAN_K1,
            k2=GAUSSIAN_K2,
            label="bad",
            moment=lambda a: 0.0,
            sample=lambda n, d, rng: rng.standard_normal((n, d)),
        )


def test_tilted_target_construction():
    tilt = tilted_gaussian_target(1.0, 3)
    assert tilt.moment((2, 0, 0)) == pytest.approx(1.0, abs=1e-9)
    assert tilt.moment((1, 0, 0)) == 0.0
    assert tilt.moment((4, 0, 0)) > 3.0  # excess kurtosis after rescaling
    assert 0 < tilt.k1 <= tilt.k2
