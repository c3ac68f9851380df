"""Sequential surrogate-model-based optimization and algorithm tuning."""

from .bundle import CorruptBundleError, archive_lines, load_bundle, save_bundle
from .design import ParamSpace, make_lhd, make_uniform
from .engine import (
    SpotConfig,
    SpotResult,
    InfeasibleBudgetError,
    spot,
    spot_loop,
    apply_duplicate_policy,
)
from .forest import ForestFit, fit_forest
from .kriging import KrigingFit, fit_kriging, predict_kriging
from .objectives import (
    SannParams,
    SannResult,
    TuningProblem,
    DEFAULT_SANN_SCENARIO,
    fun_branin,
    fun_branin_factor,
    fun_cubic,
    fun_sphere,
    get_objective,
    make_sann_objective,
    metropolis_accept,
    sann_minimize,
    sann2spot,
)
from .ocba import ocba_allocate
from .optimizers import OptResult, optim_lhd, optim_local_bounded
from .rsm import (
    RSMFit,
    DescentPath,
    RankDeficiencyError,
    fit_rsm,
    descent_path,
)
from .stack import StackFit, fit_stack

__version__ = "0.1.0"

__all__ = [
    "CorruptBundleError",
    "archive_lines",
    "load_bundle",
    "save_bundle",
    "SannParams",
    "SannResult",
    "TuningProblem",
    "DEFAULT_SANN_SCENARIO",
    "fun_branin",
    "fun_branin_factor",
    "fun_cubic",
    "fun_sphere",
    "get_objective",
    "make_sann_objective",
    "metropolis_accept",
    "sann_minimize",
    "sann2spot",
    "RankDeficiencyError",
    "ParamSpace",
    "make_lhd",
    "make_uniform",
    "SpotConfig",
    "SpotResult",
    "InfeasibleBudgetError",
    "spot",
    "spot_loop",
    "apply_duplicate_policy",
    "ForestFit",
    "fit_forest",
    "KrigingFit",
    "fit_kriging",
    "predict_kriging",
    "ocba_allocate",
    "OptResult",
    "optim_lhd",
    "optim_local_bounded",
    "RSMFit",
    "DescentPath",
    "fit_rsm",
    "descent_path",
    "StackFit",
    "fit_stack",
]
