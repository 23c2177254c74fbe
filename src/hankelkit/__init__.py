"""hankelkit: exact workbench for coordinate-section degenerations of Hankel matrices."""

from .polyring import (
    QQ,
    DEGREVLEX,
    LEX,
    BlockOrder,
    MonomialOrder,
    Polynomial,
    PrimeField,
    Rationals,
    parse_polynomial,
)
from .symmatrix import HankelSpec, SymMatrix, hankel, hankel_square, phi_endomorphism
from .groebner import GBBudget, GroebnerBasis, Ideal, buchberger

__version__ = "0.1.0"
ENGINE_VERSION = f"hankelkit/{__version__}"

__all__ = [
    "QQ",
    "DEGREVLEX",
    "LEX",
    "BlockOrder",
    "MonomialOrder",
    "Polynomial",
    "PrimeField",
    "Rationals",
    "parse_polynomial",
    "HankelSpec",
    "SymMatrix",
    "hankel",
    "hankel_square",
    "phi_endomorphism",
    "GBBudget",
    "GroebnerBasis",
    "Ideal",
    "buchberger",
    "ENGINE_VERSION",
]
