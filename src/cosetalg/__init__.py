"""Exact double-coset algebras of symmetric groups with respect to Young subgroups.

Coset matrices, brute-force permutation oracles, exact structure constants,
the deformation-ring universal algebra, braid-relation checks, two-block
hypergeometric closed forms, and the graded/Poisson degeneration.
"""

from .algebra import (
    AlgebraElement,
    AssociativityReport,
    commutator,
    multiply,
    product_table,
    structure_constant,
    verify_associativity,
)
from .braid import (
    BraidReport,
    RelationCheck,
    check_relations,
    r_element,
    scaled_r_element,
)
from .cosets import (
    CosetMatrix,
    Margins,
    OffDiagonalType,
    coset_size,
    embed_offdiagonal,
    enumerate_coset_matrices,
    strip_diagonal,
)
from .epsring import EpsPolynomial, EpsRingElement, bracket
from .errors import (
    BruteForceLimitExceeded,
    CosetAlgError,
    HypergeometricParameterError,
    MarginOverflow,
    PoleAtSpecialization,
)
from .nu2 import f43_terminating, phi_matrix, s_closed_form, s_eq3, s_oracle, s_sum
from .oracle import (
    classify,
    compose,
    oracle_structure_constant,
)
from .poisson import (
    GradedElement,
    graded_multiply,
    poisson_bracket,
    poisson_bracket_via_ring,
)
from .universal import (
    UniversalElement,
    candidate_outputs,
    specialize_constant,
    universal_multiply,
    universal_product,
    universal_structure_constant,
)

__version__ = "0.1.0"
