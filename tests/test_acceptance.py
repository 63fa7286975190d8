"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The Monte-Carlo criteria use fixed seed bases and
take several minutes in total.
"""

import json
import math

import jsonschema
import numpy as np
import pytest

from halflearn.core import LabeledDataset, RngSeed, angle_between, project_to_sphere
from halflearn.datagen import (
    MarginalSpec,
    NoiseSpec,
    apply_noise,
    brute_force_opt_2d,
    sample_marginal,
)
from halflearn.pipeline import (
    AgnosticConfig,
    MassartConfig,
    empirical_error,
    learn_agnostic,
    learn_massart,
)
from halflearn.schemas import LEARN_RESULT_SCHEMA, TESTER_REPORT_SCHEMA
from halflearn.surrogate import (
    SurrogateParams,
    empirical_surrogate_gradient,
    empirical_surrogate_loss,
    ramp_derivative,
    ramp_value,
)
from halflearn.testers import (
    TesterConfig,
    band_mass_tester,
    band_moment_tester,
    moment_tester,
    standard_gaussian_target,
    strip_tester,
)

from conftest import fd_directional_derivative, planted_agnostic, planted_massart, random_unit
from test_cli import run_cli

TARGET = standard_gaussian_target()
pytestmark = pytest.mark.acceptance


def _emit(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_ramp_exactness():
    worst = 0.0
    for sigma in (0.05, 0.3, 1.0):
        p = SurrogateParams(sigma)
        worst = max(
            worst,
            abs(ramp_value(sigma / 6, p) - 2.0 / 3.0),
            abs(ramp_value(sigma / 2, p) - 1.0),
            abs(ramp_derivative(sigma / 6, p) - 1.0 / sigma),
            abs(ramp_derivative(sigma / 2, p)),
        )
    _emit("criterion 1: ramp exactness", worst <= 1e-10, f"max deviation {worst:.2e}")


def test_criterion_2_gradient_matches_finite_differences():
    p = SurrogateParams(0.3)
    knots = np.array([0.3 / 6, 0.3 / 2])
    worst = 0.0
    for inst in range(20):
        rng = np.random.default_rng(9100 + inst)
        X = rng.standard_normal((200, 5))
        y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
        S = LabeledDataset(X, y)
        while True:
            w = project_to_sphere(rng.standard_normal(5))
            margins = np.abs(X @ w.coords)
            if np.min(np.abs(margins[:, None] - knots[None, :])) > 1e-7:
                break
        g = empirical_surrogate_gradient(S, w, p)
        fd_vals, an_vals = [], []
        for _ in range(10):
            u = rng.standard_normal(5)
            u -= (u @ w.coords) * w.coords
            u /= np.linalg.norm(u)
            fd_vals.append(fd_directional_derivative(S, w, p, u, h=1e-5))
            an_vals.append(float(g @ u))
        fd_vals, an_vals = np.array(fd_vals), np.array(an_vals)
        rel = float(np.linalg.norm(fd_vals - an_vals) / np.linalg.norm(an_vals))
        worst = max(worst, rel)
    _emit(
        "criterion 2: gradient vs finite differences",
        worst <= 1e-6,
        f"worst relative error {worst:.2e} over 20 instances x 10 directions",
    )


def test_criterion_3_tester_completeness():
    cfg = TesterConfig()
    counts = {"t1": 0, "t2": 0, "t3": 0, "t4": 0}
    for s in range(20):
        rng = np.random.default_rng(3000 + s)
        ds_small = sample_marginal(MarginalSpec("standard_gaussian", 4), 50_000, RngSeed(3100 + s))
        counts["t1"] += moment_tester(ds_small, 2, cfg, TARGET).accepted
        counts["t2"] += band_mass_tester(ds_small, random_unit(4, rng), 0.3, TARGET).accepted
        ds_mid = sample_marginal(MarginalSpec("standard_gaussian", 4), 200_000, RngSeed(3200 + s))
        counts["t3"] += band_moment_tester(ds_mid, random_unit(4, rng), 0.3, 0.5, cfg, TARGET).accepted
        ds_big = sample_marginal(MarginalSpec("standard_gaussian", 4), 1_000_000, RngSeed(3300 + s))
        counts["t4"] += strip_tester(ds_big, random_unit(4, rng), 0.1).accepted
    ok = all(v >= 19 for v in counts.values())
    _emit("criterion 3: tester completeness", ok, f"accept counts over 20 seeds: {counts}")


def test_criterion_4_tester_soundness():
    cfg = TesterConfig()
    aniso_rejects = 0
    for s in range(20):
        ds = sample_marginal(
            MarginalSpec("aniso_gaussian", 4, scales=(2.0, 1.0, 1.0, 1.0)), 10_000, RngSeed(4000 + s)
        )
        aniso_rejects += not moment_tester(ds, 2, cfg, TARGET).accepted
    t_rejects = 0
    for s in range(20):
        ds = sample_marginal(MarginalSpec("student_t", 4, dof=3.0), 100_000, RngSeed(4100 + s))
        t_rejects += not moment_tester(ds, 4, cfg, TARGET).accepted
    strip_rejects = 0
    w = project_to_sphere([1.0, 0, 0, 0])
    theta = 0.1
    for s in range(20):
        ds = sample_marginal(MarginalSpec("standard_gaussian", 4), 200_000, RngSeed(4200 + s))
        X = ds.points.copy()
        margins = X @ w.coords
        in_strip = (margins >= 0.0) & (margins < theta)
        X[np.ix_(in_strip, [1, 2, 3])] *= 2.0
        strip_rejects += not strip_tester(LabeledDataset(X, ds.labels), w, theta).accepted
    ok = aniso_rejects == 20 and t_rejects >= 19 and strip_rejects == 20
    _emit(
        "criterion 4: tester soundness",
        ok,
        f"aniso {aniso_rejects}/20, student-t(3) {t_rejects}/20, inflated strip {strip_rejects}/20",
    )


def test_criterion_5_massart_end_to_end():
    successes = 0
    details = []
    for s in range(20):
        train, w_star = planted_massart(200_000, 4, eta=0.3, seed=5000 + s)
        hold, _ = planted_massart(50_000, 4, eta=0.3, seed=5500 + s)
        cfg = MassartConfig(eta=0.3, epsilon=0.1, delta=0.05, seed=RngSeed(5900 + s))
        res = learn_massart(train, hold, cfg, TARGET)
        if res.rejected:
            details.append((s, "rejected"))
            continue
        opt_hold = empirical_error(hold, w_star)
        excess = res.empirical_error - opt_hold
        if excess <= 0.1:
            successes += 1
        else:
            details.append((s, f"excess {excess:.3f}"))
    _emit(
        "criterion 5: Massart end-to-end",
        successes >= 18,
        f"{successes}/20 seeds within opt+0.1; failures: {details}",
    )


@pytest.mark.parametrize("noise_kind", ["agnostic_random", "agnostic_boundary"])
def test_criterion_6_agnostic_end_to_end(noise_kind):
    opt = 0.05
    successes = 0
    details = []
    for s in range(20):
        train, w_star = planted_agnostic(200_000, 4, opt, noise_kind, seed=6000 + s)
        hold, _ = planted_agnostic(50_000, 4, opt, noise_kind, seed=6500 + s)
        cfg = AgnosticConfig(epsilon=0.05, delta=0.05, mode="gaussian", seed=RngSeed(6900 + s))
        res = learn_agnostic(train, hold, cfg, TARGET)
        if res.rejected:
            details.append((s, "rejected"))
            continue
        if res.empirical_error <= 10 * opt + 0.05:
            successes += 1
        else:
            details.append((s, f"error {res.empirical_error:.3f}"))
    _emit(
        f"criterion 6: agnostic end-to-end ({noise_kind})",
        successes >= 18,
        f"{successes}/20 seeds within 10*opt+eps; failures: {details}",
    )


def test_criterion_7_two_dimensional_oracle():
    # exactness of the sweep against a dense angular grid
    grid_matches = 0
    for s in range(50):
        root = RngSeed(7100 + s)
        w = project_to_sphere(root.generator(1).standard_normal(2))
        X = sample_marginal(MarginalSpec("standard_gaussian", 2), 200, root.child(0))
        S = apply_noise(X, NoiseSpec("massart_constant", w, eta=0.2), root.child(1))
        opt, _ = brute_force_opt_2d(S)
        phis = np.linspace(0.0, 2 * np.pi, 100_000, endpoint=False)
        W = np.column_stack([np.cos(phis), np.sin(phis)])
        preds = np.where(W @ S.points.T >= 0, 1.0, -1.0)
        grid_opt = float(np.mean(preds != S.labels, axis=1).min())
        grid_matches += opt == grid_opt
    pipeline_ok = 0
    details = []
    for s in range(20):
        train, w_star = planted_massart(5_000, 2, eta=0.2, seed=7200 + s)
        hold, _ = planted_massart(5_000, 2, eta=0.2, seed=7600 + s)
        cfg = MassartConfig(eta=0.2, epsilon=0.85, delta=0.05, seed=RngSeed(7900 + s))
        res = learn_massart(train, hold, cfg, TARGET)
        if res.rejected:
            details.append((s, "rejected"))
            continue
        _, w_opt = brute_force_opt_2d(train)
        gap = res.empirical_error - empirical_error(hold, w_opt)
        if gap <= 0.05:
            pipeline_ok += 1
        else:
            details.append((s, f"gap {gap:.3f}"))
    ok = grid_matches == 50 and pipeline_ok >= 18
    _emit(
        "criterion 7: 2-D oracle equivalence",
        ok,
        f"sweep==grid on {grid_matches}/50 instances; pipeline within 0.05 on {pipeline_ok}/20; {details}",
    )


def test_criterion_8_angle_to_disagreement():
    rng = np.random.default_rng(8800)
    ok = True
    details = []
    for theta in (0.05, 0.1, 0.2):
        w_star = random_unit(4, rng)
        u = rng.standard_normal(4)
        u -= (u @ w_star.coords) * w_star.coords
        u /= np.linalg.norm(u)
        w = project_to_sphere(math.cos(theta) * w_star.coords + math.sin(theta) * u)
        assert abs(angle_between(w, w_star) - theta) < 1e-12
        X = rng.standard_normal((1_000_000, 4))
        disagree = float(np.mean(np.sign(X @ w.coords) != np.sign(X @ w_star.coords)))
        expected = theta / math.pi
        se = math.sqrt(expected * (1 - expected) / 1_000_000)
        ok &= abs(disagree - expected) <= 3 * se and disagree <= 4 * theta
        details.append(f"theta={theta}: {disagree:.5f} vs {expected:.5f} (3se={3 * se:.5f})")
    _emit("criterion 8: angle-to-disagreement calibration", ok, "; ".join(details))


def test_criterion_9_cli_determinism_and_schemas(tmp_path):
    issues = []

    def byte_identical(args, out_path):
        r1 = run_cli(*args)
        first = out_path.read_bytes()
        r2 = run_cli(*args)
        if r1.returncode != r2.returncode:
            issues.append(f"exit codes differ for {args[0]}")
        if out_path.read_bytes() != first:
            issues.append(f"{out_path.name} differs between runs")
        return r1.returncode

    train, hold, planted = tmp_path / "tr.csv", tmp_path / "ho.csv", tmp_path / "w.json"
    gen_args = ("gen", "--marginal", "gaussian", "--d", 3, "--n", 20_000, "--noise",
                "massart-const", "--eta", 0.2, "--planted", "random", "--planted-out", planted,
                "--seed", 81, "--out", train)
    assert byte_identical(gen_args, train) == 0
    assert run_cli("gen", "--marginal", "gaussian", "--d", 3, "--n", 8_000, "--noise",
                   "massart-const", "--eta", 0.2, "--planted", planted, "--seed", 82,
                   "--out", hold).returncode == 0

    rep = tmp_path / "rep.json"
    for tester_args in (
        ("test", "--tester", "t1", "--data", train, "--k", 2, "--seed", 83, "--out", rep),
        ("test", "--tester", "t2", "--data", train, "--w", "1,0,0", "--sigma", 0.5, "--out", rep),
        ("test", "--tester", "t3", "--data", train, "--w", "1,0,0", "--sigma", 0.4, "--tau", 0.5,
         "--seed", 83, "--out", rep),
        ("test", "--tester", "t4", "--data", train, "--w", "1,0,0", "--theta", 0.2, "--out", rep),
    ):
        code = byte_identical(tester_args, rep)
        if code not in (0, 3):
            issues.append(f"tester exit code {code}")
        jsonschema.validate(json.loads(rep.read_text()), TESTER_REPORT_SCHEMA)

    learned = tmp_path / "learn.json"
    learn_args = ("learn", "--mode", "massart", "--train", train, "--holdout", hold, "--eta", 0.2,
                  "--epsilon", 0.75, "--seed", 84, "--out", learned)
    code = byte_identical(learn_args, learned)
    payload = json.loads(learned.read_text())
    jsonschema.validate(payload, LEARN_RESULT_SCHEMA)
    if code != (3 if payload["rejected"] else 0):
        issues.append("learn exit code disagrees with payload")

    agn = tmp_path / "agn.json"
    agn_args = ("learn", "--mode", "agnostic", "--submode", "gaussian", "--train", train,
                "--holdout", hold, "--epsilon", 0.5, "--seed", 85, "--out", agn)
    byte_identical(agn_args, agn)
    jsonschema.validate(json.loads(agn.read_text()), LEARN_RESULT_SCHEMA)

    metrics = tmp_path / "metrics.json"
    eval_args = ("eval", "--hypothesis", planted, "--data", hold, "--planted", planted,
                 "--out", metrics)
    if byte_identical(eval_args, metrics) != 0:
        issues.append("eval failed")

    _emit("criterion 9: CLI determinism and schemas", not issues, f"issues: {issues or 'none'}")
