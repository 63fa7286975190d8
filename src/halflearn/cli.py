"""Command-line surface: gen / test / learn / eval.

Exit codes: 0 = accept, 3 = tester reject, 2 = usage or I/O error.  Every
command that draws random numbers (gen, learn, and test with t1 or t3)
requires an explicit --seed; repeated runs with identical flags and inputs
produce byte-identical dataset and report payloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REJECT = 3

_ARTIFACT_VERSION = "0.1.0"
_NOISES = ("massart-const", "massart-boundary", "agnostic-random", "agnostic-boundary")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one-line diagnostic, exit 2
        raise UsageExit(message)


class UsageExit(Exception):
    pass


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and each command's own parser, by name."""
    p = _Parser(prog="halflearn", description="Tester-learners for noisy halfspaces.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--marginal", required=True,
                   choices=["gaussian", "aniso", "student-t", "slc-tilt", "planar-mixture"])
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--scales", type=str, default=None, help="comma list for aniso")
    g.add_argument("--dof", type=float, default=None, help="degrees of freedom for student-t")
    g.add_argument("--lambda", dest="tilt_lambda", type=float, default=None, help="tilt for slc-tilt")
    g.add_argument("--mixture-params", type=str, default=None,
                   help='JSON {"weights":[...],"means":[[x,y],...],"scales":[...]}')
    g.add_argument("--noise", default="none", choices=["none", *_NOISES])
    g.add_argument("--eta", type=float, default=None)
    g.add_argument("--opt", type=float, default=None)
    g.add_argument("--width", type=float, default=None)
    g.add_argument("--planted", type=str, default=None, help="'random' or a JSON vector file")
    g.add_argument("--planted-out", type=str, default=None)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)

    t = sub.add_parser("test", help="run one tester on a dataset file")
    t.add_argument("--tester", required=True, choices=["t1", "t2", "t3", "t4"])
    t.add_argument("--data", required=True)
    t.add_argument("--k", type=int, default=None)
    t.add_argument("--w", type=str, default=None, help="JSON vector file or comma list")
    t.add_argument("--sigma", type=float, default=None)
    t.add_argument("--tau", type=float, default=None)
    t.add_argument("--theta", type=float, default=None)
    t.add_argument("--delta", type=float, default=0.05)
    t.add_argument("--target", default="gaussian", help="gaussian or tilt:<lambda>")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", required=True)

    l = sub.add_parser("learn", help="run a tester-learner")
    l.add_argument("--mode", required=True, choices=["massart", "agnostic"])
    l.add_argument("--train", required=True)
    l.add_argument("--holdout", required=True)
    l.add_argument("--eta", type=float, default=None)
    l.add_argument("--epsilon", type=float, required=True)
    l.add_argument("--delta", type=float, default=0.05)
    l.add_argument("--submode", default=None, choices=["gaussian", "slc-fixed-k", "slc-auto-k"])
    l.add_argument("--k", type=int, default=None)
    l.add_argument("--target", default="gaussian", help="gaussian or tilt:<lambda>")
    l.add_argument("--seed", type=int, required=True)
    l.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="evaluate a hypothesis on a dataset")
    e.add_argument("--hypothesis", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--planted", type=str, default=None)
    e.add_argument("--oracle-2d", action="store_true")
    e.add_argument("--out", required=True)
    return p, sub.choices


def _read_vector(text_or_path: str, d: int, flag: str):
    """The unit vector a flag names: a JSON file (a list, or an object with a
    "coords" or "hypothesis" list) or a comma list."""
    import numpy as np

    if os.path.exists(text_or_path):
        with open(text_or_path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
                raise UsageExit(f"{flag}: {text_or_path} is not JSON: {exc}") from exc
        if isinstance(obj, dict):
            obj = obj.get("coords", obj.get("hypothesis"))
            if obj is None:  # a rejected learn result has a null hypothesis
                raise UsageExit(f'{flag}: {text_or_path} holds no "coords" or "hypothesis" vector')
        try:
            vec = np.asarray(obj, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise UsageExit(f"{flag}: {text_or_path} does not hold a vector of numbers: {exc}") from exc
    else:
        try:
            vec = np.asarray([float(v) for v in text_or_path.split(",")])
        except ValueError as exc:
            raise UsageExit(f"{flag}: cannot parse vector {text_or_path!r}") from exc
    if vec.shape != (d,):
        raise UsageExit(f"{flag}: vector has dimension {vec.shape}, dataset has d={d}")
    from .core import project_to_sphere
    from .errors import ZeroVectorError

    try:
        return project_to_sphere(vec)
    except (ZeroVectorError, ValueError) as exc:  # a zero or non-finite vector
        raise UsageExit(f"{flag}: {exc}") from exc


def _target_lambda(spec: str) -> float | None:
    """The tilt of a --target spec, None for the Gaussian; checked before any
    file is read, as the target itself needs the data's d."""
    if spec == "gaussian":
        return None
    name, _, lam = spec.partition(":")
    try:
        value = float(lam) if name == "tilt" else math.nan
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise UsageExit(f"--target must be gaussian or tilt:<lambda> with a finite lambda >= 0, not {spec!r}")
    return value


def _make_target(spec: str, d: int):
    from . import testers

    lam = _target_lambda(spec)
    return testers.standard_gaussian_target() if lam is None else testers.tilted_gaussian_target(lam, d)


# Which flags each choice reads, one row per flag: (flag, conditions, required).
# The flag is read only where every condition (option: its reading values)
# holds, and set away from its default anywhere else it is a usage error.  A
# required flag must be given wherever it is read; a flag whose default is None
# is required there, --planted-out alone excepted.  Flags that no row names are
# read by every choice of their command.
_READS = {
    "gen": (
        ("--scales", {"--marginal": ("aniso",)}, True),
        ("--dof", {"--marginal": ("student-t",)}, True),
        ("--lambda", {"--marginal": ("slc-tilt",)}, True),
        ("--mixture-params", {"--marginal": ("planar-mixture",)}, True),
        ("--eta", {"--noise": _NOISES[:2]}, True),
        ("--opt", {"--noise": _NOISES[2:]}, True),
        ("--width", {"--noise": ("massart-boundary",)}, True),
        ("--planted", {"--noise": _NOISES}, True),
        ("--planted-out", {"--noise": _NOISES}, False),
    ),
    # strip_tester tests N(0, I) only, and neither band_mass_tester nor
    # strip_tester takes a TesterConfig, so t2 and t4 read no --delta or --seed
    "test": (
        ("--k", {"--tester": ("t1",)}, True),
        ("--w", {"--tester": ("t2", "t3", "t4")}, True),
        ("--sigma", {"--tester": ("t2", "t3")}, True),
        ("--tau", {"--tester": ("t3",)}, True),
        ("--theta", {"--tester": ("t4",)}, True),
        ("--target", {"--tester": ("t1", "t2", "t3")}, False),
        ("--delta", {"--tester": ("t1", "t3")}, False),
        ("--seed", {"--tester": ("t1", "t3")}, True),
    ),
    "learn": (
        ("--eta", {"--mode": ("massart",)}, True),
        ("--submode", {"--mode": ("agnostic",)}, True),
        ("--k", {"--submode": ("slc-fixed-k",)}, True),
    ),
}


def _dest(flag: str) -> str:
    return "tilt_lambda" if flag == "--lambda" else flag[2:].replace("-", "_")


def _check_flags(args, parser: argparse.ArgumentParser) -> None:
    """Exit 2 naming a flag set away from its default where the chosen options
    do not read it, and then a required flag missing where they do; ``parser``
    is the command's own, which holds the defaults."""
    value = lambda flag: getattr(args, _dest(flag))
    rows = _READS.get(args.command, ())
    for flag, reads_on, _ in rows:
        if value(flag) != parser.get_default(_dest(flag)):
            for option, values in reads_on.items():
                if value(option) not in values:
                    raise UsageExit(f"{flag} is read only with {option} {'/'.join(values)}")
    for flag, reads_on, required in rows:
        if required and value(flag) is None and all(value(o) in v for o, v in reads_on.items()):
            raise UsageExit(" ".join(f"{o} {value(o)}" for o in reads_on) + f" requires {flag}")


def _number_list(obj) -> bool:
    return isinstance(obj, list) and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)


def _mixture_params(text: str):
    from .datagen import PlanarMixtureParams

    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageExit(f"--mixture-params is not JSON: {exc}") from exc
    if not (isinstance(raw, dict) and _number_list(raw.get("weights")) and _number_list(raw.get("scales"))
            and isinstance(raw.get("means"), list) and all(_number_list(m) for m in raw["means"])):
        raise UsageExit('--mixture-params must be {"weights": [...], "means": [[x, y], ...], "scales": [...]}')
    try:
        return PlanarMixtureParams(tuple(raw["weights"]), tuple(map(tuple, raw["means"])), tuple(raw["scales"]))
    except ValueError as exc:
        raise UsageExit(f"--mixture-params: {exc}") from exc


def _write_json(path: str, obj: dict) -> None:
    data = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)


def _manifest(path: str, command: str, config: dict, seed: int, start: float) -> None:
    _write_json(
        path + ".manifest.json",
        {
            "command": command,
            "config": config,
            "seed": seed,
            "artifact_version": _ARTIFACT_VERSION,
            "timestamps": {
                "start": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(start)),
                "end": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            },
        },
    )


def _cmd_gen(args) -> int:
    from . import datagen
    from .core import RngSeed, project_to_sphere

    seed = RngSeed(args.seed)
    kind = {
        "gaussian": "standard_gaussian",
        "aniso": "aniso_gaussian",
        "student-t": "student_t",
        "slc-tilt": "slc_exp_tilt",
        "planar-mixture": "planar_mixture",
    }[args.marginal]
    try:
        scales = tuple(float(v) for v in args.scales.split(",")) if args.scales else None
    except ValueError as exc:
        raise UsageExit(f"--scales must be a comma list of numbers, not {args.scales!r}") from exc
    mixture = _mixture_params(args.mixture_params) if args.mixture_params else None
    try:
        spec = datagen.MarginalSpec(kind=kind, d=args.d, scales=scales, dof=args.dof,
                                    lam=args.tilt_lambda, mixture=mixture)
    except ValueError as exc:
        raise UsageExit(str(exc)) from exc
    ds = datagen.sample_marginal(spec, args.n, seed)

    planted_coords = None
    if args.noise != "none":
        if args.planted == "random":
            rng = seed.generator(99)
            planted = project_to_sphere(rng.standard_normal(args.d))
        else:
            planted = _read_vector(args.planted, args.d, "--planted")
        planted_coords = [float(v) for v in planted.coords]
        nkind = args.noise.replace("-", "_").replace("massart_const", "massart_constant")
        try:
            nspec = datagen.NoiseSpec(
                kind=nkind,
                planted=planted,
                eta=args.eta or 0.0,
                opt=args.opt or 0.0,
                width=args.width or 0.0,
            )
        except ValueError as exc:
            raise UsageExit(str(exc)) from exc
        ds = datagen.apply_noise(ds, nspec, seed)
        if args.planted_out:
            _write_json(args.planted_out, {"coords": planted_coords})

    datagen.write_dataset_csv(ds, args.out)
    args.planted_coords = planted_coords  # recorded in the manifest
    return EXIT_OK


def _cmd_test(args) -> int:
    from . import testers
    from .core import RngSeed
    from .datagen import read_dataset_csv

    # built before the data is read, so a bad value is reported first; t2
    # and t4 take no TesterConfig
    cfg = None
    if args.tester in ("t1", "t3"):
        cfg = testers.TesterConfig(delta=args.delta, calibration_seed=RngSeed(args.seed))
    ds = read_dataset_csv(args.data)
    target = _make_target(args.target, ds.d)
    if args.tester == "t1":
        report = testers.moment_tester(ds, args.k, cfg, target)
    else:
        w = _read_vector(args.w, ds.d, "--w")
        if args.tester == "t2":
            report = testers.band_mass_tester(ds, w, args.sigma, target)
        elif args.tester == "t3":
            report = testers.band_moment_tester(ds, w, args.sigma, args.tau, cfg, target)
        else:
            report = testers.strip_tester(ds, w, args.theta)
    _write_json(args.out, report.to_json_dict())
    return EXIT_OK if report.accepted else EXIT_REJECT


def _cmd_learn(args) -> int:
    from . import pipeline
    from .core import RngSeed
    from .datagen import read_dataset_csv

    # built before the data is read, so a bad value is reported first
    seed = RngSeed(args.seed)
    if args.mode == "massart":
        cfg = pipeline.MassartConfig(eta=args.eta, epsilon=args.epsilon, delta=args.delta, seed=seed)
        learn = pipeline.learn_massart
    else:
        mode = args.submode.replace("-", "_")
        cfg = pipeline.AgnosticConfig(epsilon=args.epsilon, delta=args.delta, mode=mode, seed=seed, k=args.k)
        learn = pipeline.learn_agnostic
    train = read_dataset_csv(args.train)
    holdout = read_dataset_csv(args.holdout)
    result = learn(train, holdout, cfg, _make_target(args.target, train.d))
    _write_json(args.out, result.to_json_dict())
    return EXIT_REJECT if result.rejected else EXIT_OK


def _cmd_eval(args) -> int:
    from . import datagen
    from .core import angle_between, empirical_error

    ds = datagen.read_dataset_csv(args.data)
    w = _read_vector(args.hypothesis, ds.d, "--hypothesis")
    metrics: dict = {"empirical_error": empirical_error(ds, w)}
    if args.planted:
        planted = _read_vector(args.planted, ds.d, "--planted")
        metrics["angle_to_planted"] = angle_between(w, planted)
        metrics["planted_error"] = empirical_error(ds, planted)
    if args.oracle_2d:
        if ds.d != 2:
            raise UsageExit(f"--oracle-2d needs a 2-dimensional dataset, not d={ds.d}")
        opt, w_opt = datagen.brute_force_opt_2d(ds)
        metrics["opt_2d"] = opt
        metrics["w_opt"] = [float(v) for v in w_opt.coords]
        metrics["excess_error"] = metrics["empirical_error"] - opt
    _write_json(args.out, metrics)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_flags(args, commands[args.command])
        if args.command in ("test", "learn"):
            _target_lambda(args.target)
    except UsageExit as exc:
        print(f"halflearn: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Keep BLAS reductions single-threaded so results do not depend on the core
    # count.  It takes effect because numpy loads only once a command runs.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    start = time.time()
    try:
        run = {"gen": _cmd_gen, "test": _cmd_test, "learn": _cmd_learn, "eval": _cmd_eval}[args.command]
        code = run(args)
        if args.command != "eval":  # the full flag map, and gen's planted_coords
            config = {k: v for k, v in vars(args).items() if k != "command"}
            _manifest(args.out, args.command, config, args.seed, start)
        return code
    except (UsageExit, OSError) as exc:
        print(f"halflearn: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # domain errors (dimension, mode, validation)
        from .errors import HalflearnError

        if isinstance(exc, (HalflearnError, ValueError)):
            print(f"halflearn: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        raise


if __name__ == "__main__":
    sys.exit(main())
