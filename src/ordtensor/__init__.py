"""Schreier families, repeated-averages weights, ordinal-indexed function
spaces, and finite-scale tensor-norm verification."""

from .ordinal import OMEGA, ONE, ZERO, Ordinal, compare, omega_pow, parse_ordinal
from .schreier import (
    Base,
    Conv,
    decompose,
    family_str,
    is_maximal,
    member,
    parse_family,
    split_blocks,
)
from .weights import Weight, avg, avg2, p_weight, q_weight, verify_perm
from .trees import build_tree, cantor_scheme, rank_finite
from .space import AtomicMeasure, CantorScheme, Iv, StepFunction, rademacher
from .tensor import eps_norm, pi_norm, weak_1_norm_pi

__version__ = "0.1.0"
