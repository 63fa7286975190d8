"""Command-line surface: gen / test / learn / eval.

Exit codes: 0 = accept, 3 = tester reject, 2 = usage or I/O error.  Every
stochastic command requires an explicit --seed; repeated runs with identical
flags and inputs produce byte-identical dataset and report payloads.
"""

from __future__ import annotations

import argparse
import json
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


def _build_parser() -> _Parser:
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
    t.add_argument("--slack-mode", default="calibrated", choices=["theory", "calibrated"])
    t.add_argument("--delta", type=float, default=0.05)
    t.add_argument("--target", default="gaussian", help="gaussian or tilt:<lambda>")
    t.add_argument("--seed", type=int, required=True)
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
    l.add_argument("--slack-mode", default="calibrated", choices=["theory", "calibrated"])
    l.add_argument("--target", default="gaussian", help="gaussian or tilt:<lambda>")
    l.add_argument("--seed", type=int, required=True)
    l.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="evaluate a hypothesis on a dataset")
    e.add_argument("--hypothesis", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--planted", type=str, default=None)
    e.add_argument("--oracle-2d", action="store_true")
    e.add_argument("--out", required=True)
    return p


def _read_vector(text_or_path: str, d: int):
    import numpy as np

    if os.path.exists(text_or_path):
        with open(text_or_path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if isinstance(obj, dict):
            obj = obj.get("coords", obj.get("hypothesis"))
        vec = np.asarray(obj, dtype=np.float64)
    else:
        try:
            vec = np.asarray([float(v) for v in text_or_path.split(",")])
        except ValueError as exc:
            raise UsageExit(f"cannot parse vector {text_or_path!r}") from exc
    if vec.shape != (d,):
        raise UsageExit(f"vector has dimension {vec.shape}, dataset has d={d}")
    from .core import project_to_sphere

    return project_to_sphere(vec)


def _make_target(name: str, d: int):
    from . import testers

    if name == "gaussian":
        return testers.standard_gaussian_target()
    if name.startswith("tilt:"):
        return testers.tilted_gaussian_target(float(name.split(":", 1)[1]), d)
    raise UsageExit(f"unknown target {name!r}")


# flags whose argparse dest is not the flag's name with dashes as underscores
_FLAG_DEST = {"--lambda": "tilt_lambda"}


def _reject_unread_flags(args, readers: dict[str, tuple[str, tuple[str, ...], object]]) -> None:
    """Exit 2 naming a flag set away from its default that the chosen --option
    does not read; ``readers`` maps a flag to (option, its reading values, default)."""
    for flag, (opt, values, default) in readers.items():
        dest = _FLAG_DEST.get(flag, flag[2:].replace("-", "_"))
        if getattr(args, dest) != default and getattr(args, opt) not in values:
            raise UsageExit(f"{flag} is read only with --{opt} {'/'.join(values)}")


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
    start = time.time()
    _reject_unread_flags(args, {
        "--scales": ("marginal", ("aniso",), None),
        "--dof": ("marginal", ("student-t",), None),
        "--lambda": ("marginal", ("slc-tilt",), None),
        "--mixture-params": ("marginal", ("planar-mixture",), None),
        "--width": ("noise", ("massart-boundary",), None),
        "--eta": ("noise", _NOISES[:2], None),
        "--opt": ("noise", _NOISES[2:], None),
        "--planted": ("noise", _NOISES, None),
        "--planted-out": ("noise", _NOISES, None),
    })
    from . import datagen
    from .core import RngSeed, project_to_sphere

    for prefix, flag, value in (("massart", "--eta", args.eta), ("agnostic", "--opt", args.opt)):
        if args.noise.startswith(prefix) and value is None:
            raise UsageExit(f"--noise {args.noise} requires {flag}")
    seed = RngSeed(args.seed)
    kind = {
        "gaussian": "standard_gaussian",
        "aniso": "aniso_gaussian",
        "student-t": "student_t",
        "slc-tilt": "slc_exp_tilt",
        "planar-mixture": "planar_mixture",
    }[args.marginal]
    scales = tuple(float(v) for v in args.scales.split(",")) if args.scales else None
    mixture = None
    if args.mixture_params:
        raw = json.loads(args.mixture_params)
        mixture = datagen.PlanarMixtureParams(
            tuple(raw["weights"]), tuple(tuple(m) for m in raw["means"]), tuple(raw["scales"])
        )
    try:
        spec = datagen.MarginalSpec(kind=kind, d=args.d, scales=scales, dof=args.dof,
                                    lam=args.tilt_lambda, mixture=mixture)
    except ValueError as exc:
        raise UsageExit(str(exc)) from exc
    ds = datagen.sample_marginal(spec, args.n, seed)

    planted_coords = None
    if args.noise != "none":
        if args.planted is None:
            raise UsageExit("--noise requires --planted (random or a vector file)")
        if args.planted == "random":
            rng = seed.generator(99)
            planted = project_to_sphere(rng.standard_normal(args.d))
        else:
            planted = _read_vector(args.planted, args.d)
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
    config = {k: v for k, v in vars(args).items() if k != "command"}
    config["planted_coords"] = planted_coords
    _manifest(args.out, "gen", config, args.seed, start)
    return EXIT_OK


def _cmd_test(args) -> int:
    start = time.time()
    from . import testers
    from .core import RngSeed
    from .datagen import read_dataset_csv

    # strip_tester tests N(0, I) only, so t4 reads no --target
    _reject_unread_flags(args, {
        "--k": ("tester", ("t1",), None),
        "--w": ("tester", ("t2", "t3", "t4"), None),
        "--sigma": ("tester", ("t2", "t3"), None),
        "--tau": ("tester", ("t3",), None),
        "--theta": ("tester", ("t4",), None),
        "--target": ("tester", ("t1", "t2", "t3"), "gaussian"),
    })
    ds = read_dataset_csv(args.data)
    cfg = testers.TesterConfig(
        slack_mode=args.slack_mode, delta=args.delta, calibration_seed=RngSeed(args.seed)
    )
    target = _make_target(args.target, ds.d)
    name = args.tester
    if name == "t1":
        if args.k is None:
            raise UsageExit("t1 requires --k")
        report = testers.moment_tester(ds, args.k, cfg, target)
    elif name == "t2":
        if args.w is None or args.sigma is None:
            raise UsageExit("t2 requires --w and --sigma")
        report = testers.band_mass_tester(ds, _read_vector(args.w, ds.d), args.sigma, cfg, target)
    elif name == "t3":
        if args.w is None or args.sigma is None or args.tau is None:
            raise UsageExit("t3 requires --w, --sigma and --tau")
        report = testers.band_moment_tester(
            ds, _read_vector(args.w, ds.d), args.sigma, args.tau, cfg, target
        )
    else:
        if args.w is None or args.theta is None:
            raise UsageExit("t4 requires --w and --theta")
        report = testers.strip_tester(ds, _read_vector(args.w, ds.d), args.theta, cfg)
    _write_json(args.out, report.to_json_dict())
    config = {k: v for k, v in vars(args).items() if k != "command"}
    _manifest(args.out, "test", config, args.seed, start)
    return EXIT_OK if report.accepted else EXIT_REJECT


def _cmd_learn(args) -> int:
    start = time.time()
    from . import pipeline, testers
    from .core import RngSeed
    from .datagen import read_dataset_csv

    _reject_unread_flags(args, {"--eta": ("mode", ("massart",), None), "--submode": ("mode", ("agnostic",), None),
                                "--k": ("submode", ("slc-fixed-k",), None)})
    train = read_dataset_csv(args.train)
    holdout = read_dataset_csv(args.holdout)
    seed = RngSeed(args.seed)
    tcfg = testers.TesterConfig(slack_mode=args.slack_mode, calibration_seed=seed.child(7))
    target = _make_target(args.target, train.d)
    if args.mode == "massart":
        if args.eta is None:
            raise UsageExit("massart mode requires --eta")
        cfg = pipeline.MassartConfig(
            eta=args.eta, epsilon=args.epsilon, delta=args.delta, seed=seed, tester_cfg=tcfg
        )
        result = pipeline.learn_massart(train, holdout, cfg, target)
    else:
        if args.submode is None:
            raise UsageExit("agnostic mode requires --submode")
        acfg = pipeline.AgnosticConfig(
            epsilon=args.epsilon,
            delta=args.delta,
            mode=args.submode.replace("-", "_"),
            seed=seed,
            k=args.k,
            tester_cfg=tcfg,
        )
        result = pipeline.learn_agnostic(train, holdout, acfg, target)
    _write_json(args.out, result.to_json_dict())
    config = {k: v for k, v in vars(args).items() if k != "command"}
    _manifest(args.out, "learn", config, args.seed, start)
    return EXIT_REJECT if result.rejected else EXIT_OK


def _cmd_eval(args) -> int:
    from . import datagen
    from .core import angle_between, empirical_error

    ds = datagen.read_dataset_csv(args.data)
    w = _read_vector(args.hypothesis, ds.d)
    metrics: dict = {"empirical_error": empirical_error(ds, w)}
    if args.planted:
        planted = _read_vector(args.planted, ds.d)
        metrics["angle_to_planted"] = angle_between(w, planted)
        metrics["planted_error"] = empirical_error(ds, planted)
    if args.oracle_2d:
        if ds.d != 2:
            raise UsageExit("--oracle-2d requires a 2-dimensional dataset")
        opt, w_opt = datagen.brute_force_opt_2d(ds)
        metrics["opt_2d"] = opt
        metrics["w_opt"] = [float(v) for v in w_opt.coords]
        metrics["excess_error"] = metrics["empirical_error"] - opt
    _write_json(args.out, metrics)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageExit as exc:
        print(f"halflearn: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Keep BLAS reductions single-threaded so results do not depend on the core
    # count.  It takes effect because numpy loads only once a command runs.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "test":
            return _cmd_test(args)
        if args.command == "learn":
            return _cmd_learn(args)
        return _cmd_eval(args)
    except (UsageExit, OSError, json.JSONDecodeError) as exc:
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
