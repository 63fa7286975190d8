#!/usr/bin/env python3
"""Layered benchmark of halflearn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a halflearn checkout; it uses the package under
src/ and installs nothing.  The workload's inputs are drawn from --seed.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 they are the per-layer ones, taken from spans recorded
around halflearn's public functions.  README.md in this directory describes
the workloads, the metrics and the checks.
"""

import time

_SCRIPT_START = time.perf_counter()

import os  # noqa: E402

# One process does the work; BLAS and OpenMP get one thread, here and in
# every CLI process started below.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
RUN_LIMIT_S = 170.0  # every run ends within 180 s of its start

D = 4
N_TRAIN, N_HOLD = 200_000, 50_000

# agnostic_cli: Gaussian agnostic-random data at acceptance-suite scale.  At
# epsilon 0.25 the ramp-width grid has 4 points and one cold learn process
# takes about half a minute.
AGNOSTIC_OPT, AGNOSTIC_EPS = 0.05, 0.25

# massart_sweep: (marginal, noise, noise parameters), replayed every round.
# The student-t job's inputs come from a fixed seed.  Whether the testers
# reject a t(5) sample at t1, reject it while vetting, or accept it varies from
# sample to sample, and each path costs a different time; a fixed sample keeps
# the path, and so op_s and holdout_error, the same in every run.
MASSART_EPS = 0.1
FIXED_STUDENT_T_SEED = 0
MASSART_JOBS = (
    ("gaussian", "massart-const", {"eta": 0.1}),
    ("gaussian", "massart-const", {"eta": 0.3}),
    ("gaussian", "massart-boundary", {"eta": 0.3, "width": 0.5}),
    ("student-t", "massart-const", {"eta": 0.1}),
)

# gen_eval_cli: (marginal flags, noise, level, coordinate means, second moments)
_MIX = {"weights": [0.5, 0.5], "means": [[-1.0, 0.0], [1.0, 0.0]], "scales": [0.5, 0.5]}
GEN_N = 200_000
GEN_JOBS = (
    (["--marginal", "gaussian"], "massart-const", 0.2, [0.0] * D, [1.0] * D),
    (["--marginal", "slc-tilt", "--lambda", "0.8"], "agnostic-random", 0.1, [0.0] * D, [1.0] * D),
    (["--marginal", "student-t", "--dof", "5"], "massart-const", 0.1, [0.0] * D, [1.0] * D),
    (["--marginal", "planar-mixture", "--mixture-params", json.dumps(_MIX)], "agnostic-random", 0.05,
     [0.0] * D, [1.25, 0.25, 1.0, 1.0]),
)

WORKLOAD_TAGS = {"agnostic_cli": 1, "massart_sweep": 2, "gen_eval_cli": 3}


def process_start() -> float:
    """perf_counter() reading at the moment this process started.

    Taken from /proc so interpreter start-up counts as set-up; falls back to
    the first statement of this script where /proc is unavailable."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return _SCRIPT_START
    now = time.perf_counter()
    return now - age if 0.0 <= age < 60.0 else _SCRIPT_START


class Bench:
    """State of one run: counters, failures, the work directory and the tracer."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.seed, self.seconds = seed, seconds
        self.tag = WORKLOAD_TAGS[workload]
        self.tracer = Tracer() if trace else None
        self.start = process_start()
        self.deadline = time.monotonic() - (time.perf_counter() - self.start) + RUN_LIMIT_S
        self.work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_s = 0.0
        self.op_s: dict[tuple[str, int], list[float]] = {}  # wall times of each operation of a round
        self.rss_mb: list[float] = []  # peak RSS of each timed CLI process
        self.errors: list[float] = []  # holdout error of each evaluated hypothesis
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}

    def expect(self, failures: list[str], where: str) -> None:
        for msg in failures:
            self.failures.append(f"{where}: {msg}")
            print(f"check failed: {where}: {msg}", file=sys.stderr)

    def end_setup(self) -> None:
        self.setup_s = time.perf_counter() - self.start

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def cli(self, argv: list[str], *, cold_repeat: bool = False) -> tuple[int, float, float]:
        """Run one halflearn command; return (exit code, wall seconds, peak RSS in MB).

        Untraced, each command is its own process, as a user runs it.  Traced,
        it runs in this process through halflearn.cli.main with the
        calibration cache emptied first, as in a fresh process; with
        cold_repeat the same command then runs once more on the warm cache,
        for testers.calibration_s."""
        self.attempted += 1
        if self.tracer is not None:
            from halflearn import cli, testers

            testers.clear_oracle_cache()
            t0 = time.perf_counter()
            rc = self._traced_main(cli, argv)
            wall = time.perf_counter() - t0
            if cold_repeat:
                self.tracer.phase = "repeat"
                self._traced_main(cli, argv)
                self.tracer.phase = "main"
            return rc, wall, 0.0
        cmd = [sys.executable, "-m", "halflearn.cli", *argv]
        with open(self.work / "cli.stderr", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(max(self.time_left(), 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def _traced_main(self, cli, argv: list[str]) -> int:
        with self.tracer.span("cli.main"):
            try:
                return cli.main(argv)
            except Exception as exc:  # what a separate process would die of
                print(f"halflearn {argv[0]} raised {exc!r}", file=sys.stderr)
                return 1

    def install_tracer(self) -> None:
        from halflearn import datagen, optimizer, pipeline, testers

        self.tracer.install({"datagen": datagen, "optimizer": optimizer, "pipeline": pipeline, "testers": testers})

    def ok(self, rc: int, allowed=(0,)) -> bool:
        """Count a command that ended with an unexpected exit code as failed."""
        if rc in allowed:
            return True
        self.failed += 1
        print(f"operation failed with exit code {rc}; see {self.work / 'cli.stderr'}", file=sys.stderr)
        return False

    def record(self, kind: str, job: int, wall: float, rss_mb: float | None = None) -> None:
        self.op_s.setdefault((kind, job), []).append(wall)
        if rss_mb is not None:
            self.rss_mb.append(rss_mb)

    def rounds_done(self, t_start: float) -> bool:
        return time.perf_counter() - t_start >= self.seconds


def agnostic_cli(b: Bench) -> None:
    rng = inputs.job_rng(b.seed, b.tag, 0)
    w = inputs.unit_vector(rng, D)
    X_train = inputs.sample_points(rng, "gaussian", N_TRAIN, D)
    y_train = inputs.planted_labels(rng, X_train, w, "agnostic-random", opt=AGNOSTIC_OPT)
    X_hold = inputs.sample_points(rng, "gaussian", N_HOLD, D)
    y_hold = inputs.planted_labels(rng, X_hold, w, "agnostic-random", opt=AGNOSTIC_OPT)
    inputs.write_csv(b.work / "train.csv", X_train, y_train)
    inputs.write_csv(b.work / "holdout.csv", X_hold, y_hold)
    planted_error = inputs.zero_one_error(X_hold, y_hold, w)
    (b.work / "planted.json").write_text(json.dumps({"coords": w.tolist()}), encoding="utf-8")
    train, holdout, planted = (str(b.work / f) for f in ("train.csv", "holdout.csv", "planted.json"))
    result, evaluation = str(b.work / "result.json"), str(b.work / "eval.json")
    learn_argv = ["learn", "--mode", "agnostic", "--submode", "gaussian", "--train", train, "--holdout", holdout,
                  "--epsilon", str(AGNOSTIC_EPS), "--seed", str(inputs.program_seed(b.seed, b.tag, 0)),
                  "--out", result]
    b.end_setup()

    t_start = time.perf_counter()
    while True:
        rc, wall, mb = b.cli(learn_argv, cold_repeat=True)
        if b.ok(rc, (0, 3)):
            b.record("learn", 0, wall, mb)
            payload = json.loads(Path(result).read_text(encoding="utf-8"))
            b.expect(checks.check_learn(payload, X_hold, y_hold, planted_error, gaussian=True,
                                        epsilon=AGNOSTIC_EPS, criterion="agnostic", rc=rc), "learn")
            if not payload["rejected"]:
                b.errors.append(inputs.zero_one_error(X_hold, y_hold, payload["hypothesis"]))
                rc, wall, mb = b.cli(["eval", "--hypothesis", result, "--data", holdout, "--planted", planted,
                                      "--out", evaluation])
                if b.ok(rc):
                    b.record("eval", 0, wall, mb)
                    ev = json.loads(Path(evaluation).read_text(encoding="utf-8"))
                    b.expect(checks.check_eval(ev, X_hold, y_hold, payload["hypothesis"], w), "eval")
        if b.rounds_done(t_start):
            break


def massart_sweep(b: Bench) -> None:
    from halflearn import pipeline, testers
    from halflearn.core import LabeledDataset, RngSeed

    target = testers.standard_gaussian_target()
    jobs = []
    for j, (marginal, noise, params) in enumerate(MASSART_JOBS):
        job_seed = FIXED_STUDENT_T_SEED if marginal == "student-t" else b.seed
        rng = inputs.job_rng(job_seed, b.tag, j)
        w = inputs.unit_vector(rng, D)
        data = []
        for n in (N_TRAIN, N_HOLD):
            X = inputs.sample_points(rng, marginal, n, D)
            data.append((X, inputs.planted_labels(rng, X, w, noise, **params)))
        (X_tr, y_tr), (X_ho, y_ho) = data
        cfg = pipeline.MassartConfig(eta=params["eta"], epsilon=MASSART_EPS, delta=0.05,
                                     seed=RngSeed(inputs.program_seed(job_seed, b.tag, j)))
        jobs.append({"name": f"{marginal}/{noise}/{params}", "train": LabeledDataset(X_tr, y_tr),
                     "holdout": LabeledDataset(X_ho, y_ho), "X_ho": X_ho, "y_ho": y_ho, "cfg": cfg,
                     "planted_error": inputs.zero_one_error(X_ho, y_ho, w), "gaussian": marginal == "gaussian"})
    # Untimed pass that fills the calibration cache; its results are the
    # reference every warm call must reproduce.
    for job in jobs:
        job["cold"] = pipeline.learn_massart(job["train"], job["holdout"], job["cfg"], target).to_json_dict()
    b.end_setup()
    if b.tracer is not None:
        b.install_tracer()

    t_start = time.perf_counter()
    while True:
        for j, job in enumerate(jobs):
            b.attempted += 1
            t0 = time.perf_counter()
            try:
                result = pipeline.learn_massart(job["train"], job["holdout"], job["cfg"], target)
            except Exception as exc:  # a crash is a failed operation, reported and counted
                b.failed += 1
                print(f"learn_massart {job['name']} raised {exc!r}", file=sys.stderr)
                continue
            b.record("learn", j, time.perf_counter() - t0)
            if b.tracer is not None:
                b.tracer.phase = "repeat"
                pipeline.learn_massart(job["train"], job["holdout"], job["cfg"], target)
                b.tracer.phase = "main"
            payload = result.to_json_dict()
            b.expect(checks.check_learn(payload, job["X_ho"], job["y_ho"], job["planted_error"],
                                        gaussian=job["gaussian"], epsilon=MASSART_EPS, criterion="massart"),
                     job["name"])
            b.expect(checks.check_same(job["cold"], payload, "cold and warm-cache results"), job["name"])
            if not payload["rejected"]:
                b.errors.append(inputs.zero_one_error(job["X_ho"], job["y_ho"], payload["hypothesis"]))
        if b.rounds_done(t_start):
            break
    b.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def gen_eval_cli(b: Bench) -> None:
    b.end_setup()

    def gen(j: int, out: Path, planted_out: Path) -> tuple[int, float, float]:
        flags, noise, level = GEN_JOBS[j][:3]
        return b.cli(["gen", *flags, "--d", str(D), "--n", str(GEN_N), "--noise", noise,
                      "--eta" if noise.startswith("massart") else "--opt", str(level),
                      "--planted", "random", "--planted-out", str(planted_out),
                      "--seed", str(inputs.program_seed(b.seed, b.tag, j)), "--out", str(out)])

    t_start = time.perf_counter()
    while True:
        for j, (_, noise, level, means, second) in enumerate(GEN_JOBS):
            data, planted_file, evaluation = (b.work / f"gen{j}{s}" for s in (".csv", ".w.json", ".eval.json"))
            rc, wall, mb = gen(j, data, planted_file)
            if not b.ok(rc):
                continue
            b.record("gen", j, wall, mb)
            header, X, y = inputs.read_csv(data)
            w = json.loads(planted_file.read_text(encoding="utf-8"))["coords"]
            where = f"gen {GEN_JOBS[j][0][1]}"
            b.expect(checks.check_dataset(header, X, y, GEN_N, D), where)
            b.expect(checks.check_moments(X, means, second), where)
            planted_error = inputs.zero_one_error(X, y, w)
            b.errors.append(planted_error)
            b.expect(checks.check_planted_error(planted_error, GEN_N, noise, level), where)
            rc, wall, mb = b.cli(["eval", "--hypothesis", str(planted_file), "--data", str(data),
                                  "--planted", str(planted_file), "--out", str(evaluation)])
            if b.ok(rc):
                b.record("eval", j, wall, mb)
                ev = json.loads(evaluation.read_text(encoding="utf-8"))
                b.expect(checks.check_eval(ev, X, y, w, w), f"eval {GEN_JOBS[j][0][1]}")
        if b.rounds_done(t_start):
            break
    # Determinism, untimed: one dataset per run is generated again with the same flags.
    j = b.seed % len(GEN_JOBS)
    again = b.work / "again.csv"
    rc, _, _ = gen(j, again, b.work / "again.w.json")
    if rc == 0:
        b.expect(checks.check_same((b.work / f"gen{j}.csv").read_bytes(), again.read_bytes(),
                                   "bytes of two datasets generated with the same flags"), "gen determinism")
    else:
        b.expect([f"regeneration exited with {rc}"], "gen determinism")


WORKLOADS = {"agnostic_cli": agnostic_cli, "massart_sweep": massart_sweep, "gen_eval_cli": gen_eval_cli}

END_TO_END = (("op_s", "s"), ("holdout_error", "fraction"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def end_to_end(b: Bench) -> dict[str, float]:
    # The median over rounds of each operation damps a slow spell of the
    # machine that covers one round.
    op_s = mean([float(np.median(times)) for times in b.op_s.values()])
    return {"op_s": op_s, "holdout_error": mean(b.errors), "peak_rss_mb": max(b.rss_mb, default=0.0),
            "setup_s": b.setup_s}


def by_kind(b: Bench) -> dict[str, float]:
    kinds: dict[str, list[float]] = {}
    for (kind, _), times in b.op_s.items():
        kinds.setdefault(kind, []).extend(times)
    return {kind: mean(times) for kind, times in kinds.items()}


def import_seconds(env: dict, repeats: int = 3) -> float:
    """Median wall time of a process that starts and imports halflearn.cli."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import halflearn.cli"], cwd=ROOT, env=env, check=True,
                       timeout=60)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("need --seed >= 0 and --seconds >= 1")
    if not (SRC / "halflearn" / "__init__.py").is_file():
        print(f"perfbench: no halflearn sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    b = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    b.work.mkdir(parents=True, exist_ok=True)
    try:
        if b.tracer is not None and args.workload != "massart_sweep":  # massart_sweep traces after set-up
            b.install_tracer()
        WORKLOADS[args.workload](b)
        if b.tracer is not None:
            b.tracer.uninstall()
            layers = b.tracer.layer_metrics()
            layers["cli.import_s"] = import_seconds(b.env)
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
            b.tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json.gz")
        else:
            values = end_to_end(b)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(b.work, ignore_errors=True)
    report = {"correct": not b.failures, "attempted": b.attempted, "failed": b.failed, "metrics": metrics}
    # Beside the report, the result file keeps the time of each kind of
    # operation and every failed check.
    detail = {"report": report, "op_s_by_kind": by_kind(b), "rounds": max(map(len, b.op_s.values()), default=0),
              "failures": b.failures}
    result_file = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(f"op_s by kind: {json.dumps(detail['op_s_by_kind'])}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
