"""Exact arithmetic for Markov triples and their geometry.

Everything numerical is decided over arbitrary-precision integers,
fractions.Fraction, or sign-exact quadratic surds; floating point appears
only in human-readable previews.
"""

from .capacity import (
    Capacity,
    QuadraticValue,
    compare,
    convergence_trace,
    lagrange_number,
    limit_point,
    surd_identity_check,
    width,
    width_as_surd,
)
from .errors import VerificationError
from .lattice import (
    LatticePolygon,
    RationalPoint,
    UnimodularMap,
    ViannaTriangle,
    central_point,
    check_alg_lemma,
    inscribed_right_triangle,
    lattice_width,
    shear_normalize,
    vianna_triangle,
    width_along,
)
from .markov import (
    MarkovTriple,
    MarkovWalk,
    MutationKind,
    apex_for,
    apex_of_number,
    chains,
    enumerate_triples,
    essential_subtree,
    is_markov,
    markov_numbers,
    markov_prefix,
    mutate,
    uniqueness_check,
    wedge,
)
from .oeis import BFile, cross_check, load_bfile, parse_bfile
from .ordering import (
    IrregularityRecord,
    SpectrumRow,
    alternating_order,
    check_nn_inequality,
    find_irregularities,
    ordered_prefix_complete_above,
    spectrum_rows,
    verify_chain_inequalities,
    verify_swap_pattern,
)

__version__ = "0.1.0"
