"""Exact divisor-class calculator on moduli of stable n-pointed genus-g curves.

Evaluates the pullbacks of the universal theta divisors (degrees 0 and
g-1) under weighted point sections, re-derives them from test-curve
intersection numbers by exact linear algebra, computes the class of the
effective-divisor locus in one pass, checked against the theta pullback
less its vanishing ledger, and expands the double ramification cycle
formally in degree g.  All arithmetic is exact rational; no floating point
anywhere.
"""

from .basis import (
    DELTA_IRR,
    LAMBDA1,
    BoundaryIndex,
    DivisorClass,
    Generator,
    K,
    basis_generators,
    canonicalize_boundary,
    delta,
    enumerate_boundary,
    generator_label,
    k_to_psi,
    parse_generator_label,
    psi_in_k_basis,
    psi_to_k,
    relabel_class,
)
from .curves import (
    ELLIPTIC_TAIL,
    IRREDUCIBLE_NODE,
    IntersectionMatrix,
    TestCurve,
    boundary_curve,
    build_matrix,
    curve_label,
    enumerate_test_curves,
    intersect,
    pair,
    point_curve,
)
from .drcycle import FormalCycle, dr_expansion, evaluate, restrict_to_compact_type
from .solve import SingularMatrixError, certify_basis, reconstruct_T, reconstruct_Theta
from .theta import (
    CorrectionLedger,
    CorrectionTerm,
    class_D_direct,
    class_D_from_theta,
    class_T,
    class_Theta,
    correction_ledger,
    plus_set,
    theta_intersection,
    weight_sum,
)

__version__ = "0.1.0"
