"""Cocycle extensions of elliptic curves by the unit group of a field.

The package builds the extension group attached to a pair of auxiliary
curve points, checks its group laws against independent formulas, extracts
the pairing hidden in its scalar multiplication, and demonstrates that
discrete logarithms in the extension reduce to the two factor groups while
every operation costs strictly more.
"""

from .bench import BenchInvariantError, BenchReport, BenchRow, run_benchmark
from .curve import Curve, Point, SupportCollisionError, eval_line_fraction
from .dlp import (
    DlpSolution,
    NoSolutionError,
    Step,
    bsgs,
    pohlig_hellman,
    solve_extension_dlp,
)
from .field import ExtField, FieldElement, PrimeField, count_mults
from .groups import (
    ExtElement,
    ExtensionGroup,
    MultiplicativeGroup,
    ZeroCocycle,
    element_order,
    sample_admissible_triples,
    sample_operable_triples,
    verify_cocycle,
    verify_group_axioms,
)
from .jacobian import (
    GenJacParams,
    Modulus,
    ModulusCocycle,
    load_params,
    make_toy_params,
    pairing_order,
    params_from_text,
    params_to_text,
    reduce_pairing_value,
    tate_by_miller,
    tate_from_group_law,
)
from .numbertheory import Factorization, crt, factorize, is_prime

__version__ = "0.1.0"
