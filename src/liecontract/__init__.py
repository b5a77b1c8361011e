"""Exact-arithmetic toolkit for chain-and-pairing nilpotent Lie algebras.

Construct the families, realize their diagonal contractions symbolically,
compute certifying invariants (series, derivations, characteristic sequence,
weight systems), and verify completeness of the solvable torus extensions.
"""

from .algebra import (
    CharacteristicSequence,
    JacobiReport,
    JacobiViolationError,
    LieAlgebra,
    MalformedAlgebraError,
    MaurerCartanForm,
    NotNilpotentError,
    SeriesReport,
    betti1,
    bracket_subspaces,
    center,
    centralizer,
    characteristic_sequence,
    check_jacobi,
    derivations,
    derived_series,
    derived_subalgebra,
    from_json_dict,
    from_maurer_cartan,
    has_abelian_direct_factor,
    is_derivation,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    to_json_dict,
)
from .completeness import (
    CompletenessCertificate,
    build_r_m,
    diagonal_rank,
    is_complete,
    max_torus,
    semidirect_product,
    weight_system,
)
from .contraction import (
    DivergentLimitError,
    NecessaryConditionsReport,
    ParametricLaw,
    check_redundancy,
    heisenberg_exponents,
    limit_law,
    necessary_conditions,
    scale_law,
    solve_exponents,
)
from .exactlin import (
    DimensionError,
    LinearSolveError,
    Matrix,
    Subspace,
    nullspace_of_rows,
    rank,
    solve,
)
from .families import (
    FamilySpec,
    InvalidFamilyError,
    all_q_lists,
    make_abelian,
    make_g_m,
    make_g_m_q,
    make_heisenberg_plus_abelian,
    make_model_filiform,
)

__version__ = "0.1.0"
