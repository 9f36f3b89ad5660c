"""Complex first-order SUSY partner potentials of the harmonic oscillator and
the three associated families of complex Painleve IV solutions, with
finite-difference residual verification throughout.
"""

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
from .kummer import (
    kummer_m,
    kummer_m_derivative,
    kummer_oracle,
)
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
from .verify import (
    BENCHMARK_PARAMS,
    THRESHOLDS,
    ResidualReport,
    fd_derivative,
    residual_report,
    threshold_for,
)

__version__ = "0.1.0"
