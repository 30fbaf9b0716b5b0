"""Independent finite-difference eigensolver used to validate series results.

The Hamiltonian ``-d^2/dx^2 + v(x)`` is discretized with the standard
three-point stencil and Dirichlet ends; eigenvalues come from Sturm-sequence
bisection on the tridiagonal matrix (LAPACK ``stebz``), followed by Richardson
extrapolation over grids N and 2N under the h^2 error model.  The screened
Coulomb potential is used in its exact transcendental form here, not its
coupling expansion, which is what makes this solver an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import GridTooCoarse

__all__ = [
    "GridSpec",
    "fd_eigenvalues",
    "fd_eigenvalues_with_error",
    "hulthen_numeric",
    "anharmonic_numeric",
    "default_hulthen_grid",
    "default_anharmonic_grid",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid for the finite-difference Hamiltonian."""

    x_min: float
    x_max: float
    points: int

    def __post_init__(self):
        if self.points < 3:
            raise ValueError("need at least 3 grid points")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")


def _tridiagonal_eigenvalues(
    potential: Callable[[np.ndarray], np.ndarray], grid: GridSpec, count: int
) -> np.ndarray:
    x, h = np.linspace(grid.x_min, grid.x_max, grid.points + 1, retstep=True)
    interior = x[1:-1]
    with np.errstate(over="ignore", divide="ignore"):
        v = np.asarray(potential(interior), dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential must be finite on the interior grid nodes")
    d = 2.0 / h**2 + v
    e = np.full(len(interior) - 1, -1.0 / h**2)
    return eigh_tridiagonal(
        d, e, eigvals_only=True, select="i", select_range=(0, count - 1), lapack_driver="stebz"
    )


def fd_eigenvalues_with_error(
    potential: Callable[[np.ndarray], np.ndarray], grid: GridSpec, count: int
) -> tuple[list[float], list[float]]:
    """Richardson-extrapolated eigenvalues plus a residual-error estimate.

    The estimate is the change of the extrapolated value when the grid pair
    is doubled from (N/2, N) to (N, 2N), i.e. the size of the h^4 tail the
    h^2 model does not remove.
    """
    half = _tridiagonal_eigenvalues(
        potential, GridSpec(grid.x_min, grid.x_max, max(grid.points // 2, 3)), count
    )
    base = _tridiagonal_eigenvalues(potential, grid, count)
    fine = _tridiagonal_eigenvalues(
        potential, GridSpec(grid.x_min, grid.x_max, 2 * grid.points), count
    )
    coarse_pair = (4.0 * base - half) / 3.0
    fine_pair = (4.0 * fine - base) / 3.0
    return list(fine_pair), list(np.abs(fine_pair - coarse_pair))


def fd_eigenvalues(
    potential: Callable[[np.ndarray], np.ndarray], grid: GridSpec, count: int
) -> list[float]:
    """Lowest `count` eigenvalues of -d^2/dx^2 + v with Dirichlet ends.

    Raises GridTooCoarse when the extrapolated value still moves by more than
    1e-6 relative under grid doubling.
    """
    values, changes = fd_eigenvalues_with_error(potential, grid, count)
    for val, chg in zip(values, changes):
        if chg > 1e-6 * max(abs(val), 1e-12):
            raise GridTooCoarse(
                f"extrapolated change {chg:.2e} exceeds 1e-6 relative at eigenvalue {val:.6g}"
            )
    return values


def default_hulthen_grid(n: int, lam: float, lam_c_estimate: float | None = None) -> GridSpec:
    """Radial domain sized to hold near-critical, delocalizing states."""
    est = lam_c_estimate if lam_c_estimate is not None else 2.0 / n**2
    stretch = 1.0 / max(1.0 - lam / est, 0.05)
    x_max = max(200.0, 40.0 * n**2 * stretch)
    return GridSpec(0.0, x_max, 8000)


def default_anharmonic_grid() -> GridSpec:
    return GridSpec(-15.0, 15.0, 8000)


def hulthen_numeric(
    l: int, lam: float, count: int, grid: GridSpec | None = None
) -> list[float]:
    """Eigenvalues of the full screened Coulomb radial Hamiltonian,
    ``l(l+1)/x^2 - 2*lam/(e^(lam*x) - 1)``, sorted ascending."""
    if lam <= 0:
        raise ValueError("lam must be positive (use the Coulomb limit separately)")
    if grid is None:
        grid = default_hulthen_grid(l + count, lam)
    if grid.x_min != 0.0:
        raise ValueError("radial problems start at x = 0")

    def v(x: np.ndarray) -> np.ndarray:
        return l * (l + 1) / x**2 - 2.0 * lam / np.expm1(lam * x)

    return fd_eigenvalues(v, grid, count)


def anharmonic_numeric(lam: float, count: int, grid: GridSpec | None = None) -> list[float]:
    """Eigenvalues of ``x^2 + lam*x^4`` on a symmetric Dirichlet domain."""
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if grid is None:
        grid = default_anharmonic_grid()
    return fd_eigenvalues(lambda x: x**2 + lam * x**4, grid, count)

