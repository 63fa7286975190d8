import json
import re
import subprocess
import sys

import jsonschema
import pytest

from halflearn.schemas import (
    EVAL_METRICS_SCHEMA,
    LEARN_RESULT_SCHEMA,
    MANIFEST_SCHEMA,
    TESTER_REPORT_SCHEMA,
)

from conftest import child_env, gaussian_dataset, planted_massart


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "halflearn.cli", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=600,
        env=child_env(),
    )


def assert_flag_error(err, flag, argv):
    """A flag that was given is named as unread; one that was not, as required."""
    if flag in argv:
        assert re.fullmatch(rf"halflearn: {flag} is read only with --\S+ \S+\n", err), err
    else:
        assert re.fullmatch(rf"halflearn: (--\S+ \S+ )+requires {flag}\n", err), err


def gen_gaussian(tmp_path, name="g.csv", n=20_000, d=4, seed=5, extra=()):
    out = tmp_path / name
    res = run_cli("gen", "--marginal", "gaussian", "--d", d, "--n", n, "--seed", seed, "--out", out, *extra)
    assert res.returncode == 0, res.stderr
    return out


def test_gen_format_and_determinism(tmp_path):
    out = tmp_path / "a.csv"
    args = (
        "gen", "--marginal", "gaussian", "--d", 4, "--n", 1000,
        "--noise", "massart-const", "--eta", 0.2, "--planted", "random",
        "--seed", 7, "--out", out,
    )
    assert run_cli(*args).returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "y,x1,x2,x3,x4"
    assert len(lines) == 1001
    assert all(line.split(",")[0] in ("1", "-1") for line in lines[1:])
    first = out.read_bytes()
    assert run_cli(*args).returncode == 0
    assert out.read_bytes() == first  # byte-identical rerun
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    jsonschema.validate(manifest, MANIFEST_SCHEMA)
    assert manifest["command"] == "gen" and manifest["seed"] == 7
    assert len(manifest["config"]["planted_coords"]) == 4


def test_gen_rejects_bad_eta(tmp_path):
    out = tmp_path / "bad.csv"
    res = run_cli(
        "gen", "--marginal", "gaussian", "--d", 3, "--n", 100,
        "--noise", "massart-const", "--eta", 0.6, "--planted", "random",
        "--seed", 1, "--out", out,
    )
    assert res.returncode == 2
    assert res.stderr.strip()
    assert not out.exists()  # no partial files on failure


@pytest.mark.parametrize("noise, flag", [("massart-const", "--eta"), ("massart-boundary", "--eta"),
                                         ("agnostic-random", "--opt"), ("agnostic-boundary", "--opt")])
def test_gen_noise_needs_its_level_flag(tmp_path, capsys, noise, flag):
    from halflearn.cli import main

    out = tmp_path / "n.csv"
    width = ["--width", "0.5"] if noise == "massart-boundary" else []
    argv = ["gen", "--marginal", "gaussian", "--d", "3", "--n", "200", "--noise", noise, *width,
            "--planted", "random", "--seed", "4", "--out", str(out)]
    assert main(argv) == 2  # a missing level must not mean noise-free labels
    assert f"--noise {noise} requires {flag}" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, flag, "0"]) == 0  # an explicit zero level is still valid


@pytest.mark.parametrize("gen_flags, flag", [
    (("gaussian", "--scales", "2,1,1"), "--scales"),
    (("aniso", "--scales", "2,1,1", "--dof", "5"), "--dof"),
    (("student-t", "--dof", "5", "--lambda", "0.8"), "--lambda"),  # its dest is tilt_lambda
    (("slc-tilt", "--lambda", "0.8", "--mixture-params", "{}"), "--mixture-params"),
    (("gaussian", "--noise", "massart-const", "--eta", "0.2", "--width", "0.5", "--planted", "random"), "--width"),
    (("gaussian", "--noise", "agnostic-random", "--opt", "0.1", "--eta", "0.2", "--planted", "random"), "--eta"),
    (("gaussian", "--noise", "massart-boundary", "--eta", "0.2", "--width", "0.5", "--opt", "0.1",
      "--planted", "random"), "--opt"),
    (("gaussian", "--eta", "0"), "--eta"),  # an explicit zero is still set
    (("gaussian", "--planted", "random"), "--planted"),
    (("gaussian", "--planted-out", "w.json"), "--planted-out"),
    (("planar-mixture", "--mixture-params", '{"weights": [1], "means": [[0, 0]], "scales": [1]}', "--noise",
      "massart-boundary", "--eta", "0.2", "--width", "0.5", "--planted", "random", "--planted-out", "w.json"),
     None),
    # a flag that is read but missing
    (("gaussian", "--noise", "massart-boundary", "--eta", "0.2", "--planted", "random"), "--width"),
    (("aniso",), "--scales"),
    (("planar-mixture",), "--mixture-params"),
    (("gaussian", "--noise", "agnostic-random", "--opt", "0.1"), "--planted"),
    (("gaussian", "--noise", "none"), None),  # the default, given explicitly
])
def test_gen_rejects_flags_its_marginal_or_noise_does_not_read(tmp_path, capsys, monkeypatch, gen_flags, flag):
    from halflearn.cli import main

    monkeypatch.chdir(tmp_path)
    marginal, *rest = gen_flags
    argv = ["gen", "--marginal", marginal, "--d", "3", "--n", "200", *rest, "--seed", "4", "--out", "g.csv"]
    if flag is None:  # every flag is read: the control
        assert main(argv) == 0
        assert (tmp_path / "g.csv").is_file()
        assert (tmp_path / "w.json").is_file() == ("--planted-out" in argv)
        return
    assert main(argv) == 2
    assert_flag_error(capsys.readouterr().err, flag, argv)
    assert sorted(p.name for p in tmp_path.iterdir()) == []  # nothing sampled or written


@pytest.mark.parametrize("params", [
    "nope",  # not JSON
    "{}",
    '{"weights": 1, "means": [[0, 0]], "scales": [1]}',
    "[1]",
    '{"weights": [1], "means": [0], "scales": [1]}',
    '{"weights": ["1"], "means": [[0, 0]], "scales": [1]}',
    '{"weights": [1], "means": [[0, 0, 0]], "scales": [1]}',  # not a pair
])
def test_gen_rejects_malformed_mixture_params(tmp_path, capsys, monkeypatch, params):
    from halflearn.cli import main

    monkeypatch.chdir(tmp_path)
    argv = ["gen", "--marginal", "planar-mixture", "--mixture-params", params, "--d", "3", "--n", "200",
            "--seed", "4", "--out", "g.csv"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("halflearn: --mixture-params")
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.parametrize("scales", ["a,1,1", "2,,1", "2;1;1"])
def test_gen_rejects_unparsable_scales(tmp_path, capsys, monkeypatch, scales):
    from halflearn.cli import main

    monkeypatch.chdir(tmp_path)
    argv = ["gen", "--marginal", "aniso", "--scales", scales, "--d", "3", "--n", "200", "--seed", "4",
            "--out", "g.csv"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"halflearn: --scales must be a comma list of numbers, not {scales!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ("test", "--tester", "t1", "--k", "2", "--data", "missing.csv"),
    ("learn", "--mode", "agnostic", "--submode", "slc-fixed-k", "--k", "2", "--epsilon", "0.3",
     "--train", "missing.csv", "--holdout", "missing.csv"),
])
@pytest.mark.parametrize("target", ["tilt:x", "tilt:", "tilt:-0.5", "tilt:nan", "tilt:inf", "foo", "gaussian:1"])
def test_bad_target_is_a_usage_error_before_any_file_is_read(tmp_path, capsys, monkeypatch, command, target):
    from halflearn.cli import main

    monkeypatch.chdir(tmp_path)
    assert main([*command, "--target", target, "--seed", "1", "--out", "r.json"]) == 2
    assert capsys.readouterr().err == (
        f"halflearn: --target must be gaussian or tilt:<lambda> with a finite lambda >= 0, not {target!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == []


# flags that every choice of their command reads, so no table row names them
_READ_BY_ALL = {"gen": {"--noise"}, "test": set(), "learn": {"--delta", "--target"},
                "eval": {"--planted", "--oracle-2d"}}


def test_every_optional_flag_is_a_table_row_or_read_by_all():
    from halflearn.cli import _READS, _build_parser

    _, commands = _build_parser()
    for command, parser in commands.items():
        actions = {a.option_strings[-1]: a for a in parser._actions if a.option_strings and a.dest != "help"}
        optional = {flag for flag, a in actions.items() if not a.required}
        rows = _READS.get(command, ())
        assert optional == {row[0] for row in rows} | _READ_BY_ALL[command], command
        for flag, reads_on, required in rows:
            assert flag not in _READ_BY_ALL[command]
            # a flag that defaults to None is required wherever it is read
            assert required == (actions[flag].default is None and flag != "--planted-out"), flag
            for option, values in reads_on.items():
                assert set(values) <= set(actions[option].choices), (flag, option)


def test_t1_accept_and_reject(tmp_path):
    good = gen_gaussian(tmp_path)
    rep_path = tmp_path / "rep.json"
    res = run_cli("test", "--tester", "t1", "--data", good, "--k", 2, "--seed", 3, "--out", rep_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(rep_path.read_text())
    jsonschema.validate(report, TESTER_REPORT_SCHEMA)
    assert report["accepted"] is True

    bad = tmp_path / "aniso.csv"
    assert run_cli(
        "gen", "--marginal", "aniso", "--d", 4, "--n", 10000, "--scales", "2,1,1,1",
        "--seed", 4, "--out", bad,
    ).returncode == 0
    res = run_cli("test", "--tester", "t1", "--data", bad, "--k", 2, "--seed", 3, "--out", rep_path)
    assert res.returncode == 3
    report = json.loads(rep_path.read_text())
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing and failing[0]["name"] == "moment_2_0_0_0"


def test_t1_missing_k_is_usage_error(tmp_path):
    good = gen_gaussian(tmp_path)
    res = run_cli("test", "--tester", "t1", "--data", good, "--seed", 3, "--out", tmp_path / "r.json")
    assert res.returncode == 2


def test_t2_t3_t4_run_and_validate(tmp_path):
    good = gen_gaussian(tmp_path, n=30_000)
    w = "1,0,0,0"
    rep = tmp_path / "rep.json"
    assert run_cli("test", "--tester", "t2", "--data", good, "--w", w, "--sigma", 0.5,
                   "--out", rep).returncode == 0
    jsonschema.validate(json.loads(rep.read_text()), TESTER_REPORT_SCHEMA)
    assert run_cli("test", "--tester", "t3", "--data", good, "--w", w, "--sigma", 0.3,
                   "--tau", 0.5, "--seed", 3, "--out", rep).returncode == 0
    first = rep.read_bytes()
    assert run_cli("test", "--tester", "t3", "--data", good, "--w", w, "--sigma", 0.3,
                   "--tau", 0.5, "--seed", 3, "--out", rep).returncode == 0
    assert rep.read_bytes() == first  # calibrated thresholds are seed-deterministic
    jsonschema.validate(json.loads(rep.read_text()), TESTER_REPORT_SCHEMA)
    assert run_cli("test", "--tester", "t4", "--data", good, "--w", w, "--theta", 0.2,
                   "--out", rep).returncode == 0
    jsonschema.validate(json.loads(rep.read_text()), TESTER_REPORT_SCHEMA)
    manifest = json.loads((tmp_path / "rep.json.manifest.json").read_text())
    jsonschema.validate(manifest, MANIFEST_SCHEMA)
    assert manifest["seed"] is None  # t4 draws nothing


def test_learn_massart_cli(tmp_path):
    train = tmp_path / "train.csv"
    hold = tmp_path / "hold.csv"
    planted = tmp_path / "w.json"
    common = ("--marginal", "gaussian", "--d", 3, "--noise", "massart-const", "--eta", 0.2)
    assert run_cli("gen", *common, "--n", 20_000, "--planted", "random", "--planted-out", planted,
                   "--seed", 11, "--out", train).returncode == 0
    w_coords = json.loads(planted.read_text())["coords"]
    assert run_cli("gen", *common, "--n", 8_000, "--planted", planted, "--seed", 12,
                   "--out", hold).returncode == 0
    res_path = tmp_path / "learn.json"
    args = ("learn", "--mode", "massart", "--train", train, "--holdout", hold,
            "--eta", 0.2, "--epsilon", 0.75, "--seed", 13, "--out", res_path)
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res_path.read_text())
    jsonschema.validate(payload, LEARN_RESULT_SCHEMA)
    assert payload["rejected"] is False
    first = res_path.read_bytes()
    assert run_cli(*args).returncode == 0
    assert res_path.read_bytes() == first

    # eval round-trip with the planted direction
    metrics_path = tmp_path / "metrics.json"
    hyp = tmp_path / "hyp.json"
    hyp.write_text(json.dumps({"coords": payload["hypothesis"]}))
    assert run_cli("eval", "--hypothesis", hyp, "--data", hold, "--planted", planted,
                   "--out", metrics_path).returncode == 0
    metrics = json.loads(metrics_path.read_text())
    jsonschema.validate(metrics, EVAL_METRICS_SCHEMA)
    assert metrics["empirical_error"] == payload["empirical_error"]
    assert metrics["angle_to_planted"] < 0.6


def test_learn_massart_cli_rejects_aniso(tmp_path):
    train = tmp_path / "train.csv"
    hold = tmp_path / "hold.csv"
    assert run_cli("gen", "--marginal", "aniso", "--d", 3, "--scales", "2,1,1", "--n", 20_000,
                   "--noise", "massart-const", "--eta", 0.2, "--planted", "random",
                   "--seed", 14, "--out", train).returncode == 0
    assert run_cli("gen", "--marginal", "gaussian", "--d", 3, "--n", 5_000,
                   "--seed", 15, "--out", hold).returncode == 0
    res_path = tmp_path / "learn.json"
    res = run_cli("learn", "--mode", "massart", "--train", train, "--holdout", hold,
                  "--eta", 0.2, "--epsilon", 0.75, "--seed", 16, "--out", res_path)
    assert res.returncode == 3
    payload = json.loads(res_path.read_text())
    jsonschema.validate(payload, LEARN_RESULT_SCHEMA)
    assert payload["rejected"] is True
    assert any(not c["passed"] for r in payload["tester_reports"] for c in r["checks"])


def test_learn_agnostic_cli_and_mode_mismatch(tmp_path):
    train = tmp_path / "train.csv"
    hold = tmp_path / "hold.csv"
    common = ("--marginal", "gaussian", "--d", 3, "--noise", "agnostic-random", "--opt", 0.05,
              "--planted", "random")
    assert run_cli("gen", *common, "--n", 20_000, "--seed", 21, "--out", train).returncode == 0
    assert run_cli("gen", *common, "--n", 8_000, "--seed", 22, "--out", hold).returncode == 0
    res_path = tmp_path / "agn.json"
    res = run_cli("learn", "--mode", "agnostic", "--submode", "gaussian", "--train", train,
                  "--holdout", hold, "--epsilon", 0.5, "--seed", 23, "--out", res_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res_path.read_text())
    jsonschema.validate(payload, LEARN_RESULT_SCHEMA)
    assert payload["rejected"] is False
    assert "analytic_excess_bound" in payload

    res = run_cli("learn", "--mode", "agnostic", "--submode", "gaussian", "--train", train,
                  "--holdout", hold, "--epsilon", 0.5, "--target", "tilt:0.5",
                  "--seed", 23, "--out", tmp_path / "mm.json")
    assert res.returncode == 2  # gaussian submode with a custom target

    res = run_cli("learn", "--mode", "agnostic", "--train", train, "--holdout", hold,
                  "--epsilon", 0.5, "--seed", 23, "--out", tmp_path / "mm.json")
    assert res.returncode == 2  # missing --submode


@pytest.mark.parametrize("mode_flags", [("--mode", "massart", "--eta", "0.1"),
                                        ("--mode", "agnostic", "--submode", "gaussian")],
                         ids=["massart", "agnostic-gaussian"])
def test_cli_and_library_learn_give_the_same_payload(tmp_path, mode_flags):
    # one seed is one run: the command line calibrates as the library does
    from halflearn import pipeline, testers
    from halflearn.core import RngSeed
    from halflearn.datagen import read_dataset_csv, write_dataset_csv

    paths = {name: str(tmp_path / f"{name}.csv") for name in ("train", "hold")}
    write_dataset_csv(planted_massart(20_000, 3, eta=0.1, seed=70)[0], paths["train"])
    write_dataset_csv(planted_massart(5_000, 3, eta=0.1, seed=71)[0], paths["hold"])
    out = tmp_path / "learn.json"
    res = run_cli("learn", *mode_flags, "--train", paths["train"], "--holdout", paths["hold"],
                  "--epsilon", 0.5, "--seed", 72, "--out", out)
    assert res.returncode in (0, 3), res.stderr

    if mode_flags[1] == "massart":
        cfg, learn = pipeline.MassartConfig(0.1, 0.5, 0.05, RngSeed(72)), pipeline.learn_massart
    else:
        cfg, learn = pipeline.AgnosticConfig(0.5, 0.05, "gaussian", RngSeed(72)), pipeline.learn_agnostic
    train, hold = (read_dataset_csv(p) for p in paths.values())
    result = learn(train, hold, cfg, testers.standard_gaussian_target())
    assert out.read_text() == json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"


def test_t2_and_t4_payloads_equal_direct_calls(tmp_path):
    # t2 reads (S, w, sigma, target) and t4 reads (S, w, theta), and neither a TesterConfig
    from halflearn import testers
    from halflearn.core import project_to_sphere
    from halflearn.datagen import read_dataset_csv, write_dataset_csv

    data = str(tmp_path / "d.csv")
    write_dataset_csv(gaussian_dataset(30_000, 3, seed=41), data)
    ds, w = read_dataset_csv(data), project_to_sphere([1.0, 2.0, -0.5])
    for flags, report in (
        (("t2", "--sigma", 0.3), testers.band_mass_tester(ds, w, 0.3, testers.standard_gaussian_target())),
        (("t4", "--theta", 0.2), testers.strip_tester(ds, w, 0.2)),
    ):
        out = tmp_path / "r.json"
        res = run_cli("test", "--tester", *flags, "--data", data, "--w", "1,2,-0.5", "--out", out)
        assert res.returncode == (0 if report.accepted else 3), res.stderr
        assert out.read_text() == json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("mode_flags, flag", [
    (("--mode", "agnostic", "--submode", "gaussian", "--eta", "0.1"), "--eta"),
    (("--mode", "massart", "--eta", "0.1", "--submode", "gaussian"), "--submode"),
    (("--mode", "massart", "--eta", "0.1", "--k", "4"), "--k"),
    (("--mode", "agnostic", "--submode", "slc-auto-k", "--k", "4"), "--k"),
    (("--mode", "agnostic", "--submode", "gaussian", "--k", "2"), "--k"),
    # every mode reads --delta
    (("--mode", "massart", "--eta", "0.1", "--delta", "0.9"), None),
    (("--mode", "agnostic", "--submode", "gaussian", "--delta", "0.9"), None),
    (("--mode", "agnostic", "--submode", "slc-fixed-k"), "--k"),  # read but missing
    (("--mode", "massart"), "--eta"),
    # the defaults, given explicitly
    (("--mode", "massart", "--eta", "0.1", "--delta", "0.05"), None),
    (("--mode", "agnostic", "--submode", "gaussian", "--delta", "0.05", "--target", "gaussian"), None),
    # a bad value, where flag holds the message: it is reported before any file is read
    (("--mode", "massart", "--eta", "0.7"), "ValueError: eta must lie in [0, 0.5)"),
    (("--mode", "massart", "--eta", "0.1", "--delta", "1.5"), "ValueError: need epsilon > 0 and delta in (0, 1)"),
    (("--mode", "agnostic", "--submode", "gaussian", "--epsilon", "1.5"),
     "ValueError: need epsilon in (0,1) and delta in (0,1)"),
    (("--mode", "agnostic", "--submode", "slc-auto-k", "--seed", "-1"),
     "ValueError: seed must be a 64-bit unsigned integer"),
])
def test_learn_rejects_flags_its_mode_does_not_read(tmp_path, capsys, mode_flags, flag):
    from halflearn.cli import main

    out = tmp_path / "r.json"
    # the flags are checked before the (here missing) data files are read;
    # mode_flags come last, so a row's --epsilon or --seed overrides these
    argv = ["learn", "--train", str(tmp_path / "t.csv"), "--holdout", str(tmp_path / "h.csv"),
            "--epsilon", "0.5", "--seed", "1", *mode_flags, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    if flag is None:
        assert err == f"halflearn: [Errno 2] No such file or directory: {str(tmp_path / 't.csv')!r}\n"
    elif flag.startswith("--"):
        assert_flag_error(err, flag, argv)
    else:
        assert err == f"halflearn: {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("tester_flags, flag", [
    (("t2", "--w", "1,0,0", "--sigma", "0.5", "--k", "2"), "--k"),
    (("t1", "--k", "2", "--w", "1,0,0"), "--w"),
    (("t4", "--w", "1,0,0", "--theta", "0.2", "--sigma", "0.5"), "--sigma"),
    (("t2", "--w", "1,0,0", "--sigma", "0.5", "--tau", "0.5"), "--tau"),
    (("t3", "--w", "1,0,0", "--sigma", "0.5", "--tau", "0.5", "--theta", "0.2"), "--theta"),
    (("t4", "--w", "1,0,0", "--theta", "0.2", "--target", "tilt:0.5"), "--target"),  # t4 tests N(0, I) only
    (("t4", "--w", "1,0,0", "--theta", "0.2", "--target", "gaussian"), None),  # the default is read by all
    # t1 and t3 read --delta; band_mass_tester and strip_tester take no TesterConfig
    (("t1", "--k", "2", "--delta", "0.9"), None),
    (("t2", "--w", "1,0,0", "--sigma", "0.5", "--delta", "0.9"), "--delta"),
    (("t3", "--w", "1,0,0", "--sigma", "0.5", "--tau", "0.5", "--delta", "0.9"), None),
    (("t4", "--w", "1,0,0", "--theta", "0.2", "--delta", "0.9"), "--delta"),
    # a flag that is read but missing
    (("t4", "--w", "1,0,0"), "--theta"),
    (("t2", "--sigma", "0.5"), "--w"),
    (("t3", "--w", "1,0,0", "--sigma", "0.5"), "--tau"),
    (("t1",), "--k"),
    # the defaults, given explicitly
    (("t4", "--w", "1,0,0", "--theta", "0.2", "--delta", "0.05"), None),
    (("t1", "--k", "2", "--delta", "0.05"), None),
    # t2 and t4 draw nothing, so they read no --seed
    (("t2", "--w", "1,0,0", "--sigma", "0.5", "--seed", "3"), "--seed"),
    # a bad value, where flag holds the message: it is reported before any file is read
    (("t1", "--k", "2", "--delta", "1.5"), "ValueError: delta must lie in (0, 1)"),
    (("t3", "--w", "1,0,0", "--sigma", "0.5", "--tau", "0.5", "--seed", "-1"),
     "ValueError: seed must be a 64-bit unsigned integer"),
])
def test_test_rejects_flags_its_tester_does_not_read(tmp_path, capsys, tester_flags, flag):
    from halflearn.cli import main

    out = tmp_path / "r.json"
    # the flags are checked before the (here missing) data file is read; t1
    # and t3 get a --seed unless the row gives one
    seed = ("--seed", "1") if tester_flags[0] in ("t1", "t3") and "--seed" not in tester_flags else ()
    argv = ["test", "--tester", *tester_flags, "--data", str(tmp_path / "d.csv"), *seed, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    if flag is None:
        assert "is read only with" not in err and "d.csv" in err
    elif flag.startswith("--"):
        assert_flag_error(err, flag, argv)
    else:
        assert err == f"halflearn: {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, value", [
    (("test", "--tester", "t1", "--k", "2", "--data", "d.csv"), "calibrated"),
    (("learn", "--mode", "massart", "--eta", "0.1", "--epsilon", "0.5", "--train", "t.csv", "--holdout", "h.csv"),
     "theory"),
])
def test_slack_mode_is_not_a_flag(tmp_path, capsys, monkeypatch, command, value):
    # every t1 and t3 threshold is calibrated; the flag is refused before any file is read
    from halflearn.cli import main

    monkeypatch.chdir(tmp_path)
    assert main([*command, "--slack-mode", value, "--seed", "1", "--out", "r.json"]) == 2
    assert capsys.readouterr().err == f"halflearn: unrecognized arguments: --slack-mode {value}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == []


_VECTOR_COMMANDS = {
    "--hypothesis": ("eval", "--hypothesis", "v.json", "--data", "d.csv", "--out", "m.json"),
    "--planted": ("eval", "--hypothesis", "1,0,0", "--planted", "v.json", "--data", "d.csv", "--out", "m.json"),
    "--w": ("test", "--tester", "t4", "--w", "v.json", "--theta", "0.2", "--data", "d.csv", "--out", "m.json"),
}


@pytest.mark.parametrize("flag, content, message", [
    # a rejected learn result has no hypothesis
    ("--hypothesis", {"rejected": True, "hypothesis": None}, 'v.json holds no "coords" or "hypothesis" vector'),
    ("--w", {"rejected": True, "hypothesis": None}, 'v.json holds no "coords" or "hypothesis" vector'),
    ("--planted", {"coords": [1, "a", 0]},
     "v.json does not hold a vector of numbers: could not convert string to float: 'a'"),
    ("--hypothesis", [1, 0], "vector has dimension (2,), dataset has d=3"),
    ("--w", None, "cannot parse vector '1,a,0'"),
    # bytes are written as they are
    ("--hypothesis", b"not json", "v.json is not JSON: Expecting value: line 1 column 1 (char 0)"),
    ("--w", [0, 0, 0], "vector has numerically zero norm"),
], ids=["rejected-hypothesis", "rejected-w", "not-a-number", "dimension", "comma-list", "not-json", "zero"])
def test_vector_errors_name_their_flag(tmp_path, capsys, monkeypatch, flag, content, message):
    from halflearn.cli import main
    from halflearn.datagen import write_dataset_csv

    monkeypatch.chdir(tmp_path)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main pins them; this restores them afterwards
    write_dataset_csv(gaussian_dataset(200, 3, seed=40), "d.csv")
    argv = _VECTOR_COMMANDS[flag]
    if content is None:
        argv = tuple("1,a,0" if a == "v.json" else a for a in argv)
    elif isinstance(content, bytes):
        (tmp_path / "v.json").write_bytes(content)
    else:
        (tmp_path / "v.json").write_text(json.dumps(content))
    assert main(list(argv)) == 2
    assert capsys.readouterr().err == f"halflearn: {flag}: {message}\n"
    assert not (tmp_path / "m.json").exists()


def test_eval_oracle_2d(tmp_path):
    data = tmp_path / "d2.csv"
    planted = tmp_path / "w2.json"
    assert run_cli("gen", "--marginal", "gaussian", "--d", 2, "--n", 4_000,
                   "--noise", "massart-const", "--eta", 0.15, "--planted", "random",
                   "--planted-out", planted, "--seed", 31, "--out", data).returncode == 0
    metrics_path = tmp_path / "m.json"
    assert run_cli("eval", "--hypothesis", planted, "--data", data, "--oracle-2d",
                   "--out", metrics_path).returncode == 0
    metrics = json.loads(metrics_path.read_text())
    jsonschema.validate(metrics, EVAL_METRICS_SCHEMA)
    assert metrics["opt_2d"] <= metrics["empirical_error"]
    assert abs(metrics["excess_error"] - (metrics["empirical_error"] - metrics["opt_2d"])) <= 1e-12

    # oracle demands d=2
    d4 = gen_gaussian(tmp_path, name="d4.csv", n=500)
    res = run_cli("eval", "--hypothesis", "1,0,0,0", "--data", d4, "--oracle-2d",
                  "--out", tmp_path / "m2.json")
    assert res.returncode == 2


def test_unknown_tester_and_missing_file(tmp_path):
    res = run_cli("test", "--tester", "t9", "--data", "nope.csv", "--seed", 1, "--out", "r.json")
    assert res.returncode == 2
    res = run_cli("test", "--tester", "t1", "--data", tmp_path / "missing.csv", "--k", 2,
                  "--seed", 1, "--out", tmp_path / "r.json")
    assert res.returncode == 2


_FRESH_CLI_PROBE = """
import json, os, sys
import halflearn.cli as cli
imported = {m: m in sys.modules for m in ("numpy", "scipy", "orjson")}
rc = cli.main(["eval", "--hypothesis", sys.argv[1], "--data", sys.argv[2], "--out", sys.argv[3]])
print(json.dumps({"imported": imported, "rc": rc, "scipy_after": "scipy" in sys.modules,
                  "orjson_after": "orjson" in sys.modules,
                  "env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                         "MKL_NUM_THREADS")}}))
"""


def test_cli_import_is_light_and_pins_blas_threads(tmp_path):
    # Written by hand so the probe process is the first to load numpy.
    data = tmp_path / "d.csv"
    data.write_text("y,x1,x2\n1,1.0,0.5\n-1,-1.0,0.25\n1,-0.5,2.0\n", encoding="utf-8")
    hyp = tmp_path / "w.json"
    hyp.write_text('{"coords": [1.0, 0.0]}', encoding="utf-8")
    env = child_env(drop=("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    res = subprocess.run([sys.executable, "-c", _FRESH_CLI_PROBE, str(hyp), str(data), str(tmp_path / "e.json")],
                         capture_output=True, text=True, timeout=120, env=env)
    assert res.returncode == 0, res.stderr
    probe = json.loads(res.stdout)
    assert probe["imported"] == {"numpy": False, "scipy": False, "orjson": False}
    assert probe["rc"] == 0
    assert probe["env"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    assert not probe["scipy_after"]
    assert probe["orjson_after"]  # the CSV has no twin, so its rows were parsed
    assert json.loads((tmp_path / "e.json").read_text())["empirical_error"] == pytest.approx(1 / 3)


_GAUSSIAN_PATH_PROBE = """
import json, sys
import halflearn.cli as cli
tmp = sys.argv[1]
gen = ["gen", "--marginal", "gaussian", "--d", "3", "--noise", "agnostic-random", "--opt", "0.05"]
rcs = [
    cli.main([*gen, "--n", "40000", "--planted", "random", "--planted-out", tmp + "/w.json", "--seed", "41",
              "--out", tmp + "/train.csv"]),
    cli.main([*gen, "--n", "10000", "--planted", tmp + "/w.json", "--seed", "42", "--out", tmp + "/hold.csv"]),
    cli.main(["learn", "--mode", "agnostic", "--submode", "gaussian", "--train", tmp + "/train.csv",
              "--holdout", tmp + "/hold.csv", "--epsilon", "0.5", "--seed", "43", "--out", tmp + "/learn.json"]),
    cli.main(["test", "--tester", "t3", "--data", tmp + "/train.csv", "--w", "1,0,0", "--sigma", "0.3",
              "--tau", "0.5", "--seed", "44", "--out", tmp + "/t3.json"]),
]
scipy_after_gaussian = "scipy" in sys.modules
rcs.append(cli.main(["test", "--tester", "t1", "--k", "2", "--data", tmp + "/train.csv", "--target", "tilt:0.5",
                     "--seed", "45", "--out", tmp + "/tilt.json"]))
print(json.dumps({"rcs": rcs, "scipy_after_gaussian": scipy_after_gaussian, "orjson": "orjson" in sys.modules,
                  "scipy_after_tilt": "scipy" in sys.modules}))
"""


def test_gaussian_learn_and_t3_load_no_scipy(tmp_path):
    # Every in-band count stays at or above testers._CLT_MIN, so t3 calibrates
    # in closed form; only the tilt target's quadrature then needs scipy.
    res = subprocess.run([sys.executable, "-c", _GAUSSIAN_PATH_PROBE, str(tmp_path)],
                         capture_output=True, text=True, timeout=300, env=child_env())
    assert res.returncode == 0, res.stderr
    probe = json.loads(res.stdout)
    assert probe["rcs"] == [0, 0, 0, 0, 0], res.stderr
    assert not probe["scipy_after_gaussian"]
    assert probe["scipy_after_tilt"]
    assert not probe["orjson"]  # gen's CSVs are read through their twins
    assert json.loads((tmp_path / "learn.json").read_text())["rejected"] is False
    assert len(json.loads((tmp_path / "t3.json").read_text())["checks"]) > 2  # t2 and then the moments


def test_readers_write_no_twin(tmp_path):
    # Hand-written inputs, as a user brings them: learn, test and eval read
    # them without leaving anything beside them.
    from halflearn.core import RngSeed, project_to_sphere
    from halflearn.datagen import MarginalSpec, NoiseSpec, apply_noise, sample_marginal

    w = project_to_sphere([1.0, 0.0, 0.0])
    for name, n, seed in (("train.csv", 20_000, 51), ("hold.csv", 8_000, 52)):
        X = sample_marginal(MarginalSpec("standard_gaussian", 3), n, RngSeed(seed))
        S = apply_noise(X, NoiseSpec("agnostic_random", w, opt=0.05), RngSeed(seed + 10))
        rows = (f"{int(y)}," + ",".join(map(repr, x)) for y, x in zip(S.labels.tolist(), S.points.tolist()))
        (tmp_path / name).write_text("y,x1,x2,x3\n" + "\n".join(rows) + "\n", encoding="utf-8")
    train, hold = tmp_path / "train.csv", tmp_path / "hold.csv"
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("learn", "--mode", "agnostic", "--submode", "gaussian", "--train", train, "--holdout", hold,
                   "--epsilon", 0.5, "--seed", 53, "--out", out / "learn.json").returncode == 0
    assert run_cli("test", "--tester", "t1", "--k", 2, "--data", train, "--seed", 54,
                   "--out", out / "t1.json").returncode == 0
    assert run_cli("eval", "--hypothesis", out / "learn.json", "--data", hold,
                   "--out", out / "eval.json").returncode == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hold.csv", "out", "train.csv"]


def test_gen_succeeds_when_the_twin_cannot_be_written(tmp_path):
    args = ("gen", "--marginal", "gaussian", "--d", 3, "--n", 2_000, "--noise", "massart-const", "--eta", 0.2,
            "--planted", "random", "--seed", 55)
    free, blocked = tmp_path / "free.csv", tmp_path / "blocked.csv"
    assert run_cli(*args, "--out", free).returncode == 0
    assert (tmp_path / "free.csv.twin").is_file()
    (tmp_path / "blocked.csv.twin").mkdir()  # os.replace cannot put a file there, even as root
    res = run_cli(*args, "--out", blocked)
    assert res.returncode == 0, res.stderr
    assert blocked.read_bytes() == free.read_bytes()
    assert (tmp_path / "blocked.csv.twin").is_dir()
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_payloads_do_not_depend_on_the_twin(tmp_path):
    common = ("--marginal", "gaussian", "--d", 3, "--noise", "agnostic-random", "--opt", 0.05)
    train, hold, planted = tmp_path / "train.csv", tmp_path / "hold.csv", tmp_path / "w.json"
    assert run_cli("gen", *common, "--n", 20_000, "--planted", "random", "--planted-out", planted,
                   "--seed", 61, "--out", train).returncode == 0
    assert run_cli("gen", *common, "--n", 8_000, "--planted", planted, "--seed", 62, "--out", hold).returncode == 0
    twins = [tmp_path / "train.csv.twin", tmp_path / "hold.csv.twin"]
    assert all(t.is_file() for t in twins)

    def payloads():
        learn, ev = tmp_path / "learn.json", tmp_path / "eval.json"
        assert run_cli("learn", "--mode", "agnostic", "--submode", "gaussian", "--train", train, "--holdout", hold,
                       "--epsilon", 0.5, "--seed", 63, "--out", learn).returncode == 0
        assert run_cli("eval", "--hypothesis", learn, "--data", hold, "--planted", planted,
                       "--out", ev).returncode == 0
        return learn.read_bytes(), ev.read_bytes()

    with_twins = payloads()
    for t in twins:
        t.unlink()
    assert payloads() == with_twins
