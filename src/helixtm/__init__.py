"""Quantum states, currents, and toroidal moments on toroidal helices.

The package namespace holds the few names a session starts from; every
other name is imported from its module (``helixtm.geometry``,
``helixtm.quadrature``, ``helixtm.linalg``, ``helixtm.spectrum``,
``helixtm.observables``, ``helixtm.cli``).
"""

from .geometry import HelixShape
from .observables import toroidal_moment
from .spectrum import SpectrumConfig, make_basis, solve_states

__version__ = "0.1.0"
