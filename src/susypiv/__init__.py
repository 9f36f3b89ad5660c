"""Complex first-order SUSY partner potentials of the harmonic oscillator and
the three associated families of complex Painleve IV solutions, with
finite-difference residual verification throughout.
"""

import importlib

from .errors import (
    AllPointsExcluded,
    BadFamily,
    DegreeTooLarge,
    EvaluationFailed,
    LevelAnnihilated,
    NoConvergence,
    NotNormalizable,
    PoleArgument,
    PoleParameter,
    SingularPoint,
    SusypivError,
)
from .grid import Grid
from .oscillator import (
    eigenfunction,
    eigenfunction_derivative,
    energy,
)
from .painleve import (
    FAMILIES,
    b_of_a,
    extremal_energy,
    extremal_state_grid,
    family_grid_eval,
    piv_parameters,
    piv_residual_sum,
    piv_residual_terms,
)
from .seed import (
    SeedEvaluation,
    TransformParams,
    locate_real_zeros,
    real_case_lambda,
    seed_eval,
    seed_eval_grid,
    seed_u,
)
from .susy import (
    new_state,
    normalize,
    partner_eigenfunction,
    level_annihilated,
    partner_potential,
    spectrum,
    spectrum_degenerate,
)

__version__ = "0.1.0"

# No data command calls these two modules, so they load on first access of
# one of their names (PEP 562); with no bytecode cache, compiling them would
# lengthen every start.
_LAZY = {
    "kummer_m": "kummer",
    "kummer_m_derivative": "kummer",
    "kummer_oracle": "kummer",
    "BENCHMARK_PARAMS": "verify",
    "THRESHOLDS": "verify",
    "ResidualReport": "verify",
    "fd_derivative": "verify",
    "residual_report": "verify",
    "threshold_for": "verify",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *_LAZY])
