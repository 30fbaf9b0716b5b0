"""seaqm: exact series solutions for screened Coulomb and anharmonic spectra.

The package solves the logarithmic (Riccati) form of the eigenvalue problem
order by order in the coupling with exact rational arithmetic, assembles
excited states through ladders of factorization operators, resums the
truncated series with Pade approximants, and cross-validates everything
against an independent Lagrange-mesh eigensolver.
"""

__version__ = "0.1.0"

from .engine import (
    Anharmonic,
    ChainSolution,
    GenericPerturbed,
    Hulthen,
    LeadingSuperpotential,
    Rung,
    riccati_residual,
    solve_chain,
)
from .exact import LaurentPoly, bernoulli_minus
from .oracle import MeshSpec, anharmonic_numeric, hulthen_numeric, mesh_eigenvalues
from .resummation import (
    CriticalResult,
    PadeApproximant,
    critical_lambda,
    pade,
    pade_eval,
    reconstruct_energy,
)
from .spectra import (
    ClosedFormL0,
    EnergySeries,
    anharmonic_energy_series,
    evaluate_truncated,
    hulthen_energy_series,
    hulthen_l0_state,
)
from .states import (
    StateRep,
    apply_creation,
    build_eigenstate,
    build_G,
    count_nodes,
    edge_state,
    evaluate_state,
    hamiltonian_residual,
    normalize,
)

__all__ = [
    "__version__",
    "Anharmonic",
    "ChainSolution",
    "ClosedFormL0",
    "CriticalResult",
    "EnergySeries",
    "GenericPerturbed",
    "Hulthen",
    "LaurentPoly",
    "LeadingSuperpotential",
    "MeshSpec",
    "PadeApproximant",
    "Rung",
    "StateRep",
    "anharmonic_energy_series",
    "anharmonic_numeric",
    "apply_creation",
    "bernoulli_minus",
    "build_G",
    "build_eigenstate",
    "count_nodes",
    "critical_lambda",
    "edge_state",
    "evaluate_state",
    "evaluate_truncated",
    "hamiltonian_residual",
    "hulthen_energy_series",
    "hulthen_l0_state",
    "hulthen_numeric",
    "mesh_eigenvalues",
    "normalize",
    "pade",
    "pade_eval",
    "reconstruct_energy",
    "riccati_residual",
    "solve_chain",
]
