"""Stochastic coadjoint motion driven through momentum maps.

Lie algebra arithmetic from structure constants, action charts with
cotangent-lift momentum maps, reproducible Brownian grids, Stratonovich and
Ito integrators for the phase-space / mixed / collective dynamics, the
process generator with its Kolmogorov solvers, and diagnostics for the
conservation and convergence properties the equations promise.
"""

from .algebra import (
    LieAlgebraSpec,
    ad_star,
    bracket,
    builtin,
    jacobi_residual,
)
from .actions import (
    ActionChart,
    PhaseState,
    builtin_chart,
    equivariance_residual,
    momentum_map,
)
from .diagnostics import empirical_order, observable_series, strong_error
from .dynamics import (
    QuadraticLagrangian,
    ReducedHamiltonian,
    casimir,
    hamel_system,
    lie_poisson_system,
    linear_potential,
    momentum_pairing_field,
    phase_space_system,
    quadratic_potential,
    reconstruct_momentum,
    zero_potential,
)
from .fields import (
    CanonicalBracket,
    HamelBracket,
    LiePoissonBracket,
    ScalarField,
    double_bracket,
)
from .integrators import (
    IntegrationDiverged,
    SdeSystem,
    Trajectory,
    euler_ito_step,
    heun_stratonovich_step,
    integrate,
    write_trajectory_csv,
)
from .kolmogorov import (
    DensityGrid,
    GeneratorSpec,
    GridGeometry,
    adjoint_apply,
    backward_solve,
    forward_solve,
    generator_apply,
    hamel_generator,
    lie_poisson_generator,
    mc_expectation,
)
from .noise import (
    BrownianGrid,
    NoiseSpec,
    coarsen,
    sample_grid,
    time_grid,
)

__version__ = "0.1.0"
