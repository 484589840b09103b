"""Exact coefficient arithmetic and the multivariate polynomial engine."""

from .cyclo import Cyclo, cyclotomic_polynomial, euler_phi
from .poly import MultiPoly, drl_key
from .groebner import (
    PolyIdeal,
    buchberger,
    jacobian_ideal,
    reduce_full,
)
from .cone import ConeResult, exact_lp_cone_membership
from . import linalg

__all__ = [
    "Cyclo",
    "cyclotomic_polynomial",
    "euler_phi",
    "MultiPoly",
    "drl_key",
    "PolyIdeal",
    "buchberger",
    "jacobian_ideal",
    "reduce_full",
    "ConeResult",
    "exact_lp_cone_membership",
    "linalg",
]
