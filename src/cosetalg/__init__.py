"""Exact double-coset algebras of symmetric groups with respect to Young subgroups.

Coset matrices, brute-force permutation oracles, exact structure constants,
the deformation-ring universal algebra, braid-relation checks, two-block
hypergeometric closed forms, and the graded/Poisson degeneration.

The public names below, and the submodules, load on first use: ``import
cosetalg`` imports none of the submodules, so a process pays only for the
layers it touches.  A name is looked up in its module on every access and is
never stored here, so ``cosetalg.<name>`` always is ``cosetalg.<module>.<name>``.
"""

import sys
from importlib import import_module

_EXPORTS = {
    "algebra": (
        "AlgebraElement", "AssociativityReport", "commutator", "multiply", "product_table",
        "structure_constant", "verify_associativity",
    ),
    "braid": ("BraidReport", "RelationCheck", "check_relations", "r_element", "scaled_r_element"),
    "cosets": (
        "CosetMatrix", "Margins", "OffDiagonalType", "coset_size", "embed_offdiagonal",
        "enumerate_coset_matrices", "strip_diagonal",
    ),
    "epsring": ("EpsPolynomial", "EpsRingElement", "bracket"),
    "errors": (
        "BruteForceLimitExceeded", "CosetAlgError", "HypergeometricParameterError",
        "MarginOverflow", "PoleAtSpecialization",
    ),
    "nu2": ("f43_terminating", "phi_matrix", "s_closed_form", "s_eq3", "s_oracle", "s_sum"),
    "oracle": ("classify", "compose", "oracle_structure_constant"),
    "poisson": ("GradedElement", "graded_multiply", "poisson_bracket", "poisson_bracket_via_ring"),
    "universal": (
        "UniversalElement", "candidate_outputs", "specialize_constant", "universal_multiply",
        "universal_product", "universal_structure_constant",
    ),
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "combination")

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        # callers may import names inside hot loops: skip importlib once loaded
        return getattr(sys.modules.get(module) or import_module(module), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
