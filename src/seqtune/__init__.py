"""Sequential surrogate-model-based optimization and algorithm tuning.

Each public name loads its submodule on first use (PEP 562), so
``import seqtune`` loads no model code; a run loads only its model's module.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "bundle": ("CorruptBundleError", "archive_lines", "load_bundle", "save_bundle"),
    "design": ("ParamSpace", "make_lhd", "make_uniform"),
    "engine": ("SpotConfig", "SpotResult", "InfeasibleBudgetError", "spot", "spot_loop",
               "apply_duplicate_policy"),
    "forest": ("ForestFit", "fit_forest"),
    "kriging": ("KrigingFit", "fit_kriging", "predict_kriging"),
    "objectives": ("SannParams", "SannResult", "TuningProblem", "DEFAULT_SANN_SCENARIO",
                   "fun_branin", "fun_branin_factor", "fun_cubic", "fun_sphere",
                   "get_objective", "make_sann_objective", "metropolis_accept",
                   "sann_minimize", "sann2spot"),
    "ocba": ("ocba_allocate",),
    "optimizers": ("OptResult", "optim_lhd", "optim_local_bounded"),
    "rsm": ("RSMFit", "DescentPath", "RankDeficiencyError", "fit_rsm", "descent_path"),
    "stack": ("StackFit", "fit_stack"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    """Import the submodule that defines `name`, or that `name` is, and bind it here."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SOURCE[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
