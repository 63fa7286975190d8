import os
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads, so results and timings do
# not depend on the machine's core count.  An explicit setting wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from halflearn.core import LabeledDataset, RngSeed, UnitVector, project_to_sphere  # noqa: E402
from halflearn.datagen import MarginalSpec, NoiseSpec, apply_noise, sample_marginal  # noqa: E402
from halflearn.surrogate import SurrogateParams, empirical_surrogate_loss  # noqa: E402

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env(drop: tuple[str, ...] = ()) -> dict[str, str]:
    """Environment for a child Python process: this one's without the names in
    ``drop``, with the package source first on PYTHONPATH, so a child started
    with ``python -m halflearn.cli`` or ``-c "import halflearn"`` finds the
    package in a checkout without an install."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def gaussian_target():
    from halflearn.testers import standard_gaussian_target

    return standard_gaussian_target()


def gaussian_dataset(n: int, d: int, seed: int) -> LabeledDataset:
    return sample_marginal(MarginalSpec("standard_gaussian", d), n, RngSeed(seed))


def planted_massart(n: int, d: int, eta: float, seed: int, w_star: UnitVector | None = None):
    """Gaussian marginal, labels from a planted direction, constant Massart flips."""
    root = RngSeed(seed)
    if w_star is None:
        coords = np.zeros(d)
        coords[0] = 1.0
        w_star = project_to_sphere(coords)
    X = sample_marginal(MarginalSpec("standard_gaussian", d), n, root.child(0))
    ds = apply_noise(X, NoiseSpec("massart_constant", w_star, eta=eta), root.child(1))
    return ds, w_star


def planted_agnostic(n: int, d: int, opt: float, kind: str, seed: int, w_star: UnitVector | None = None):
    root = RngSeed(seed)
    if w_star is None:
        coords = np.zeros(d)
        coords[0] = 1.0
        w_star = project_to_sphere(coords)
    X = sample_marginal(MarginalSpec("standard_gaussian", d), n, root.child(0))
    ds = apply_noise(X, NoiseSpec(kind, w_star, opt=opt), root.child(1))
    return ds, w_star


def random_unit(d: int, rng: np.random.Generator) -> UnitVector:
    v = rng.standard_normal(d)
    return project_to_sphere(v)


def fd_directional_derivative(S, w: UnitVector, p: SurrogateParams, u: np.ndarray, h: float = 1e-5) -> float:
    """Central finite difference of the surrogate loss along tangent u at w."""
    f_plus = empirical_surrogate_loss(S, project_to_sphere(w.coords + h * u), p)
    f_minus = empirical_surrogate_loss(S, project_to_sphere(w.coords - h * u), p)
    return (f_plus - f_minus) / (2.0 * h)
