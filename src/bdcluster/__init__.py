"""Exact cluster structures attached to minimal Belavin-Drinfeld data.

The package builds, for GL(n) or SL(n) and a pair of simple roots
(alpha, beta), the cluster seed whose Poisson structure is the Sklyanin
bracket of the corresponding classical r-matrix, together with its
quiver and exchange matrix, and verifies the defining properties
(log-canonicity, compatibility, rank, regularity of one-step exchanges)
in exact rational arithmetic.
"""

from .polyring import (
    PolyRing,
    Poly,
    DivisionByZero,
    NotDivisible,
    ExponentOverflow,
)
from .polymat import (
    NotSquare,
    IndexOutOfRange,
    IndexNotSpecial,
    determinant,
    build_M,
    build_Mtilde,
    col_replace,
    row_replace,
)
from .bdseed import (
    BDTriple,
    InvalidRoot,
    EqualRoots,
    normalize_triple,
    Cluster,
    standard_cluster,
    initial_cluster,
)
from .quiver import (
    Quiver,
    ExchangeMatrix,
    FrozenDirection,
    NotLaurentPolynomial,
    standard_quiver,
    bd_quiver,
    to_exchange_matrix,
    mutate_matrix,
    matrix_rank,
    Seed,
    make_seed,
    mutate_seed,
)
from .poisson import (
    NotLogCanonical,
    build_r0,
    RPlusOperator,
    r_plus_operator,
    r_plus,
    build_r_tensor,
    r_plus_oracle,
    verify_cybe,
    sklyanin_bracket,
    poisson_coefficient,
)
from .verify import VerificationReport, Fault, run_checks

__all__ = [
    "PolyRing",
    "Poly",
    "DivisionByZero",
    "NotDivisible",
    "ExponentOverflow",
    "NotSquare",
    "IndexOutOfRange",
    "IndexNotSpecial",
    "determinant",
    "build_M",
    "build_Mtilde",
    "col_replace",
    "row_replace",
    "BDTriple",
    "InvalidRoot",
    "EqualRoots",
    "normalize_triple",
    "Cluster",
    "standard_cluster",
    "initial_cluster",
    "Quiver",
    "ExchangeMatrix",
    "FrozenDirection",
    "NotLaurentPolynomial",
    "standard_quiver",
    "bd_quiver",
    "to_exchange_matrix",
    "mutate_matrix",
    "matrix_rank",
    "Seed",
    "make_seed",
    "mutate_seed",
    "NotLogCanonical",
    "build_r0",
    "RPlusOperator",
    "r_plus_operator",
    "r_plus",
    "build_r_tensor",
    "r_plus_oracle",
    "verify_cybe",
    "sklyanin_bracket",
    "poisson_coefficient",
    "VerificationReport",
    "Fault",
    "run_checks",
]
