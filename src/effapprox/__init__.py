"""Sublevel-set approximation of weakly efficient sets via SOS certificates."""

from .poly import Polynomial
from .sdp import SdpProblem, SdpSolution, SdpStatus, solve

__all__ = [
    "Polynomial",
    "SdpProblem",
    "SdpSolution",
    "SdpStatus",
    "solve",
]

__version__ = "0.1.0"
