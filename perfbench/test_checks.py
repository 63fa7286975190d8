"""Each output check of the benchmark passes a correct output and fails a
deliberately wrong one.  Run with: python3 -m pytest perfbench -q"""

import json
import math

import numpy as np
import pytest

import checks
import inputs

D = 4
N = 4000


@pytest.fixture()
def planted():
    rng = inputs.job_rng(7, 99, 0)
    w = inputs.unit_vector(rng, D)
    X = inputs.sample_points(rng, "gaussian", N, D)
    y = inputs.planted_labels(rng, X, w, "agnostic-random", opt=0.05)
    return X, y, w


def learn_payload(X, y, h):
    return {"rejected": False, "hypothesis": list(map(float, h)), "empirical_error": inputs.zero_one_error(X, y, h),
            "tester_reports": [{"accepted": True, "checks": [{"name": "t", "passed": True}]}]}


def rejected_payload():
    return {"rejected": True, "tester_reports": [{"accepted": False, "checks": [{"name": "t1", "passed": False}]}]}


def learn_check(payload, X, y, w, **kw):
    args = {"gaussian": True, "epsilon": 0.1, "criterion": "massart", "rc": 0, **kw}
    return checks.check_learn(payload, X, y, inputs.zero_one_error(X, y, w), **args)


def test_learn_accepts_planted_hypothesis(planted):
    X, y, w = planted
    assert learn_check(learn_payload(X, y, w), X, y, w) == []


def test_learn_fails_negated_hypothesis(planted):
    X, y, w = planted
    payload = learn_payload(X, y, w)
    payload["hypothesis"] = list(map(float, -w))
    fails = learn_check(payload, X, y, w)
    assert any("!= reported empirical_error" in f for f in fails)
    assert any("exceeds" in f for f in fails)


def test_learn_fails_non_unit_hypothesis(planted):
    X, y, w = planted
    payload = learn_payload(X, y, 1.001 * w)
    assert any("norm" in f for f in learn_check(payload, X, y, w))


def test_learn_fails_exit_code_disagreeing_with_verdict(planted):
    X, y, w = planted
    assert any("exit code" in f for f in learn_check(learn_payload(X, y, w), X, y, w, rc=3))
    assert any("exit code" in f for f in learn_check(learn_payload(X, y, w), X, y, w, rc=2))


def test_rejected_gaussian_run_fails(planted):
    X, y, w = planted
    assert any("Gaussian" in f for f in learn_check(rejected_payload(), X, y, w, rc=3))


def test_rejected_non_gaussian_run_needs_a_failing_check(planted):
    X, y, w = planted
    assert learn_check(rejected_payload(), X, y, w, rc=3, gaussian=False) == []
    silent = rejected_payload()
    silent["tester_reports"][-1]["checks"][0]["passed"] = True
    assert any("without a failing check" in f for f in learn_check(silent, X, y, w, rc=3, gaussian=False))


def test_agnostic_bound_is_ten_opt_plus_epsilon(planted):
    X, y, w = planted
    payload = learn_payload(X, y, -w)  # error about 0.95, far above 10 * 0.05 + 0.1
    assert any("agnostic holdout error" in f for f in learn_check(payload, X, y, w, criterion="agnostic"))


def test_eval_matches_and_fails_negated_hypothesis(planted):
    X, y, w = planted
    err = inputs.zero_one_error(X, y, w)
    good = {"empirical_error": err, "planted_error": err, "angle_to_planted": 0.0}
    assert checks.check_eval(good, X, y, w, w) == []
    # acos of a cosine one ulp below 1, as halflearn reports for w against itself
    assert checks.check_eval({**good, "angle_to_planted": 1.4901161193847656e-08}, X, y, w, w) == []
    fails = checks.check_eval(good, X, y, -w, w)
    assert any("empirical_error" in f for f in fails)
    assert any("angle_to_planted" in f for f in fails)


def test_flipped_label_in_csv_fails(planted, tmp_path):
    X, y, w = planted
    path = tmp_path / "data.csv"
    inputs.write_csv(path, X, y)
    header, X2, y2 = inputs.read_csv(path)
    assert np.array_equal(X2, X) and np.array_equal(y2, y)
    assert checks.check_dataset(header, X2, y2, N, D) == []
    assert checks.check_planted_error(inputs.zero_one_error(X2, y2, w), N, "agnostic-random", 0.05) == []
    err = inputs.zero_one_error(X, y, w)
    ev = {"empirical_error": err, "planted_error": err, "angle_to_planted": 0.0}
    lines = path.read_text().splitlines()
    label, rest = lines[1].split(",", 1)
    lines[1] = f"{-int(label)},{rest}"
    path.write_text("\n".join(lines) + "\n")
    header, X3, y3 = inputs.read_csv(path)
    assert checks.check_planted_error(inputs.zero_one_error(X3, y3, w), N, "agnostic-random", 0.05)
    assert checks.check_eval(ev, X3, y3, w, w)


def test_dataset_fails_header_shape_and_labels(planted):
    X, y, _ = planted
    assert checks.check_dataset("y,x1,x2,x3", X, y, N, D)
    assert checks.check_dataset("y,x1,x2,x3,x4", X[:-1], y[:-1], N, D)
    bad = y.copy()
    bad[0] = 0.0
    assert any("labels" in f for f in checks.check_dataset("y,x1,x2,x3,x4", X, bad, N, D))


def test_moments_fail_when_shifted(planted):
    X, _, _ = planted
    assert checks.check_moments(X, [0.0] * D, [1.0] * D) == []
    assert any("x2 mean" in f for f in checks.check_moments(X + [0.0, 0.2, 0.0, 0.0], [0.0] * D, [1.0] * D))
    assert any("x1 second moment" in f for f in checks.check_moments(X * [1.2, 1, 1, 1], [0.0] * D, [1.0] * D))


def test_massart_planted_error_within_binomial_error():
    assert checks.check_planted_error(0.2, 200_000, "massart-const", 0.2) == []
    assert checks.check_planted_error(0.2 + 6 * math.sqrt(0.16 / 200_000), 200_000, "massart-const", 0.2)


def test_warm_result_differing_from_cold_fails(planted):
    X, y, w = planted
    cold = learn_payload(X, y, w)
    warm = json.loads(json.dumps(cold))
    assert checks.check_same(cold, warm, "results") == []
    warm["tester_reports"][0]["checks"][0]["passed"] = False
    assert checks.check_same(cold, warm, "results") == ["results differ"]


def test_regenerated_bytes_must_match():
    assert checks.check_same(b"y,x1\n1,0.5\n", b"y,x1\n1,0.5\n", "bytes") == []
    assert checks.check_same(b"y,x1\n1,0.5\n", b"y,x1\n-1,0.5\n", "bytes")
