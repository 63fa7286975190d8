"""The experiment scripts run end to end on small inputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, n_rows", [
    ("learner_experiment.py", ("--mode", "massart", "--levels", "0.3", "--seeds", "1"), 1),
    # one row per adversary: uniform and boundary-concentrated flips
    ("learner_experiment.py", ("--mode", "agnostic", "--epsilon", "0.25", "--levels", "0.05", "--seeds", "1"), 2),
    # seven anisotropy scales and six strip inflations
    ("tester_power.py", ("--seeds", "1", "--n", "5000"), 13),
])
def test_experiment_script_writes_rows(tmp_path, script, args, n_rows):
    out = tmp_path / "out.json"
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
        capture_output=True, text=True, timeout=600, env=child_env(), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == n_rows
    for row in rows:
        if "accept_rate" in row:
            assert 0.0 <= row["accept_rate"] <= 1.0
        else:
            assert row["accepted"] + row["rejected"] == 1
