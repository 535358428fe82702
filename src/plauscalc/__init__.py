"""Exact plausibility calculus.

Extended probability as exact rational functions of one infinitesimal,
plausibility kernels with a property-based axiom checker, the constructive
embedding of a kernel into an ordered field, credal families with
componentwise robustness operations, and bodies of evidence with both
Dempster and robust combination.
"""

from .epsnum import (
    EPS,
    EpsRational,
    InfiniteValueError,
    ONE,
    ZERO,
    const,
)
from .parser import EpsSyntaxError, parse_eps_expr
from .kernels import (
    ArchimedeanResult,
    AxiomReport,
    BoolKernel,
    BrokenNegationKernel,
    DomainError,
    EpsKernel,
    Kernel,
    KERNELS,
    RatKernel,
    SeparabilityResult,
    UndefinedSumError,
    archimedean_check,
    check_axioms,
    get_kernel,
    separability_check,
)
from .refinement import (
    ExclusivityError,
    Model,
    RefinementError,
    ScenarioUndefinedError,
    TWO_PATH_LAWS,
    two_path_eval,
)
from .embedding import (
    Diff,
    Embedding,
    FieldElem,
    Frac,
    verify_embedding,
)
from .credal import (
    ComparisonResult,
    CredalSet,
    Decomposition,
    ExtDist,
    Frame,
    ImpossibleEventError,
    IncompatibleCredalError,
    PlausVector,
    combine_laplace,
    condition,
    decompose,
    envelopes,
    event_plausibility,
    more_plausible,
)
from .evidence import (
    GelmanReport,
    MassFunction,
    SelectionBudgetError,
    TotalConflictError,
    bel_pl,
    dempster_combine,
    mass_to_credal,
    run_gelman,
)
from .scenario import Query, Scenario, ScenarioError, load_scenario, run_queries

__version__ = "0.1.0"
