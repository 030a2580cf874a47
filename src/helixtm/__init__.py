"""Quantum states, currents, and toroidal moments on toroidal helices."""

from .geometry import (
    DegenerateFrame,
    FrenetData,
    HelixShape,
    InvalidTubePoint,
    MetricTensors,
    TubePoint,
    arc_length,
    curvature,
    curvature_components,
    curvature_potential,
    frenet_frame,
    metric_at,
    position,
    speed,
    speed_derivatives,
    torsion,
    velocity,
)
from .linalg import (
    EigenDecomposition,
    HermitianMatrix,
    HermiticityViolation,
    NoConvergence,
    eigen_decompose,
    fix_phase,
)
from .observables import (
    CurrentProfile,
    MomentResult,
    ThermalSpec,
    classical_moment_closed,
    classical_moment_numeric,
    current,
    free_particle_current,
    sample_current_profile,
    sample_current_profiles,
    thermal_average,
    toroidal_moment,
    toroidal_moments,
)
from .quadrature import (
    QuadratureNotConverged,
    QuadratureResult,
    QuadratureSpec,
    integrate_periodic,
)
from .spectrum import (
    BlochBasis,
    EigenState,
    SpectrumConfig,
    basis_wavefunction,
    build_hamiltonian,
    build_hamiltonians,
    hamiltonian_element,
    make_basis,
    solve_branches,
    solve_states,
)

__version__ = "0.1.0"
