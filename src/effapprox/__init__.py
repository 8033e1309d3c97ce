"""Sublevel-set approximation of weakly efficient sets via SOS certificates."""

from .poly import Polynomial, MonomialBasis, basis
from .sdp import SdpProblem, SdpSolution, SdpStatus, solve

__all__ = [
    "Polynomial",
    "MonomialBasis",
    "basis",
    "SdpProblem",
    "SdpSolution",
    "SdpStatus",
    "solve",
]

__version__ = "0.1.0"
