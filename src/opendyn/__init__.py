"""Compositional open dynamical systems over three doctrines.

Finite deterministic machines, finite Markov machines with exact rational
weights, and expression-defined ODE systems all share one wiring discipline:
lenses rewire interfaces, tensor places systems side by side. Steady states
and periodic orbits form families over chart sets, lenses induce spans
(matrices of sets) between those chart sets, and `check_matrix_theorem`
verifies that wiring commutes with collecting behaviors. A chart set is a
`ProductSet`, never listed unless its labels are asked for; an orbit family
holds only the charts that carry orbits, and a lens span is the k-th tensor
power of its one-step span (`tensor_spans`). The theorem reads these public objects alone, and `steady` and
`matrix` stream the same walk's rows and the same span's matrix rows.
"""

from .errors import (
    BoundaryError,
    ExprEvalError,
    ExprSyntaxError,
    FileAccessError,
    IntegrationError,
    OpendynError,
    ValidationError,
)
from .finset import (
    Family,
    FamilyMatch,
    FinMap,
    FinSet,
    ProductSet,
    Span,
    apply_span_to_family,
    compose_spans,
    families_isomorphic,
    identity_span,
    join_labels,
    product_finset,
    span_to_matrix,
    tensor_spans,
)
from .expr import (
    BinOp,
    Call,
    Expr,
    Num,
    Neg,
    Var,
    compile_table,
    evaluate,
    free_vars,
    parse,
    substitute,
    to_text,
)
from .deterministic import (
    DetChart,
    DetInterface,
    DetLens,
    DetSquare,
    DetSystem,
    Machine,
    SquareResult,
    chart_hom_set,
    check_matrix_theorem,
    check_square,
    check_system_morphism,
    compose_charts,
    compose_lens_system,
    compose_lenses,
    identity_chart,
    identity_lens,
    lens_matrix,
    lens_to_span,
    paste_horizontal,
    paste_vertical,
    periodic_orbit_span,
    periodic_orbits,
    representable_span,
    run_word,
    simulate_system,
    steady_span,
    tensor_systems,
    walking_cycle,
)
from .stochastic import (
    Dist,
    StochSystem,
    compose_lens_stoch,
    dirac_steady_span,
    embed_det,
    simulate_stoch,
    step_dist,
    tensor_stoch,
)
from .ode import (
    FunctorialityResult,
    OdeLens,
    OdeSystem,
    ParamSignal,
    ResidualResult,
    Trajectory,
    check_residual,
    check_solve_functoriality,
    compose_lens_ode,
    compose_ode_lenses,
    eval_field,
    eval_readout,
    identity_ode_lens,
    rk4_solve,
    tensor_ode,
)
from .laws import (
    SuiteResult,
    lens_law_suite,
    matrix_suite,
    mutate_square,
    ode_functoriality_suite,
    random_injective_chart,
    random_interface,
    random_lens,
    random_map,
    random_square,
    random_square_from,
    random_system,
    square_suite,
)
from .project import (
    ProjectFile,
    doctrine_of,
    load_project,
    project_from_obj,
    project_to_obj,
    save_project,
)

__version__ = "0.1.0"
