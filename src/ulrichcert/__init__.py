"""Exact-arithmetic non-existence certificates for low-rank Ulrich bundles
on Veronese embeddings of complete intersections."""

from .certify import (
    Certificate,
    certify_complete_intersection,
    certify_veronese,
    chi_integrality_check,
    prime_power_screen,
    reduce_to_dim4,
    replay,
    replay_matches,
)
from .errors import (
    DivisibilityError,
    InternalContradiction,
    OutOfTheoremScope,
    SymmetryError,
    VerificationFailure,
)
from .euler import ChiProfile, chi_ci, chi_proj, chi_subvariety, chi_ulrich, subvariety_chi_poly
from .exactcore import ExactScalar, SparsePoly, binom, binom_int, parse_scalar, scalar_str
from .invariants import (
    UlrichNumerics,
    c1_coeff,
    c2_bundle_coeff,
    c2_tangent_coeff,
    canonical_coeff,
    rank2_numerics,
    rank3_numerics,
    subvariety_degree,
    subvariety_degree_chern,
)
from .identities import (
    check_closed_forms,
    check_coefficient_table,
    check_gap_identities,
    check_gap_positivity,
    check_s4_tables,
    check_structure,
    deg_poly_r3,
    gap_poly,
    kh_poly_r3,
    ksq_poly_r3,
    c2_poly_r3,
    noether_chi_r2,
    noether_chi_r3,
)
from .symmetric import (
    BasisExpr,
    divide_all_vars,
    expand_m,
    from_basis,
    partitions_of,
    partitions_up_to,
    specialize_ones,
    to_basis,
)

__version__ = "0.1.0"
