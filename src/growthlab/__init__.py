"""Numerical laboratory for boundary-measure-driven growth on the disk.

Spectral calculus on the circle, trace-field sampling, multiplicative
chaos, Loewner-Kufarev flows, the growth generator with its invariance
equation and Dirichlet form, and square-root-diffusion dynamics, with all
identities verified to quadrature precision or by seeded, gated Monte
Carlo.
"""

from .fields import CouplingParams
from .gmc import CircleMeasure
from .spectral import BoundaryField

__all__ = ["BoundaryField", "CircleMeasure", "CouplingParams"]
