"""Tester-learners for origin-centered halfspaces under Massart and adversarial
label noise, with statistical certification of the marginal distribution.

The public names load their submodule on first access (PEP 562), so importing
the package, or ``halflearn.cli``, imports neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_EXPORTS = {
    "core": (
        "LabeledDataset",
        "RngSeed",
        "UnitVector",
        "angle_between",
        "empirical_error",
        "project_to_sphere",
    ),
    "datagen": (
        "MarginalSpec",
        "NoiseSpec",
        "PlanarMixtureParams",
        "apply_noise",
        "brute_force_opt_2d",
        "read_dataset_csv",
        "sample_marginal",
        "write_dataset_csv",
    ),
    "optimizer": ("CandidateList", "PsgdConfig", "full_gradient_norm", "psgd_candidates"),
    "pipeline": (
        "AgnosticConfig",
        "LearnResult",
        "MassartConfig",
        "learn_agnostic",
        "learn_massart",
        "select_best_candidate",
        "sigma_grid_agnostic",
    ),
    "surrogate": (
        "SurrogateParams",
        "empirical_surrogate_gradient",
        "empirical_surrogate_loss",
        "ramp_derivative",
        "ramp_value",
    ),
    "testers": (
        "TargetMarginal",
        "TesterConfig",
        "TesterReport",
        "angle_to_error_bound",
        "band_mass_tester",
        "band_moment_tester",
        "gaussian_moment",
        "moment_tester",
        "operator_norm_symmetric",
        "standard_gaussian_target",
        "strip_tester",
        "tilted_gaussian_target",
    ),
}

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
