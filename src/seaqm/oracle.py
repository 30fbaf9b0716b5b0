"""Independent Lagrange-mesh eigensolver used to validate series results.

The Hamiltonian ``-d^2/dx^2 + v(x)`` is taken on a Lagrange mesh (D. Baye,
"The Lagrange-mesh method", Phys. Rep. 565 (2015) 1-107): the regularized
Laguerre mesh for radial problems, the Hermite mesh on the full line.  The
mesh points x_i are scaled to h*x_i so that the outermost one sits at the
domain edge, and numpy's ``eigvalsh`` diagonalizes ``T/h^2 + diag(v(h*x_i))``.
The change of each eigenvalue from N to 2N points is its error estimate.  The
screened Coulomb potential is used in its exact transcendental form here, not
its coupling expansion, which is what makes this solver an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridTooCoarse

__all__ = ["MeshSpec", "mesh_eigenvalues", "hulthen_numeric", "anharmonic_numeric",
           "default_hulthen_mesh", "default_anharmonic_mesh"]


@dataclass(frozen=True)
class MeshSpec:
    """A Lagrange mesh of `size` points over [0, x_max] (radial) or
    [-x_max, x_max] (full line); it is solved at `size` and 2*`size` points."""

    x_max: float
    radial: bool
    size: int = 60

    def __post_init__(self):
        if self.size < 2 or not (math.isfinite(self.x_max) and self.x_max > 0):
            raise ValueError(f"need size >= 2 and a positive finite x_max, got {self.size} and {self.x_max}")


def _kinetic(size: int, radial: bool) -> tuple[np.ndarray, np.ndarray]:
    """Mesh points x_i, the zeros of L_N (radial) or H_N taken as eigenvalues
    of the polynomials' Jacobi matrix, and -d^2/dx^2 on them at unit scale."""
    k = np.arange(size)
    diag, off = (2.0 * k + 1, k[1:].astype(float)) if radial else (np.zeros(size), np.sqrt(k[1:] / 2.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    sign = 1.0 - 2.0 * ((k[:, None] + k) % 2)
    gap = x[:, None] - x + np.eye(size)  # the diagonal is overwritten below
    if radial:
        t = sign * (x[:, None] + x) / (np.sqrt(np.outer(x, x)) * gap**2)
        t[k, k] = -(x**2 - 2.0 * (2 * size + 1) * x - 4.0) / (12.0 * x**2)
    else:
        t = sign * (2.0 / gap**2 - 0.5)
        t[k, k] = (4.0 * size - 1.0 - 2.0 * x**2) / 6.0
    return x, t


def _lowest(potential: Callable[[np.ndarray], np.ndarray], mesh: MeshSpec, size: int, count: int):
    x, t = _kinetic(size, mesh.radial)
    h = mesh.x_max / x[-1]
    with np.errstate(over="ignore", divide="ignore"):
        v = np.asarray(potential(h * x), dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential must be finite on every mesh point")
    return np.linalg.eigvalsh(t / h**2 + np.diag(v))[:count]


def mesh_eigenvalues(potential: Callable[[np.ndarray], np.ndarray], mesh: MeshSpec,
                     count: int) -> tuple[list[float], list[float]]:
    """Lowest `count` eigenvalues of -d^2/dx^2 + v at 2N mesh points, and
    each one's change from N points as its error estimate.

    Raises GridTooCoarse when an eigenvalue still moves by more than 1e-6
    relative under mesh doubling.
    """
    if not 1 <= count <= mesh.size:
        raise ValueError(f"count must be between 1 and the mesh size {mesh.size}, got {count}")
    base, fine = (_lowest(potential, mesh, size, count) for size in (mesh.size, 2 * mesh.size))
    changes = np.abs(fine - base)
    for val, chg in zip(fine, changes):
        if chg > 1e-6 * max(abs(val), 1e-12):
            raise GridTooCoarse(
                f"mesh-doubling change {chg:.2e} exceeds 1e-6 relative at eigenvalue {val:.6g}")
    return list(fine), list(changes)


def default_hulthen_mesh(n: int, lam: float, lam_c_estimate: float | None = None) -> MeshSpec:
    """Radial domain sized to hold near-critical, delocalizing states."""
    est = lam_c_estimate if lam_c_estimate is not None else 2.0 / n**2
    stretch = 1.0 / max(1.0 - lam / est, 0.05)
    return MeshSpec(max(200.0, 40.0 * n**2 * stretch), radial=True)


def default_anharmonic_mesh() -> MeshSpec:
    return MeshSpec(8.0, radial=False)


def hulthen_numeric(l: int, lam: float, count: int, mesh: MeshSpec | None = None) -> list[float]:
    """Eigenvalues of the full screened Coulomb radial Hamiltonian,
    ``l(l+1)/x^2 - 2*lam/(e^(lam*x) - 1)``, sorted ascending."""
    for name, value, low in (("l", l, 0), ("count", count, 1)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be positive and finite (use the Coulomb limit separately), got {lam}")
    mesh = mesh or default_hulthen_mesh(l + count, lam)
    if not mesh.radial:
        raise ValueError("radial problems need a radial mesh")
    return mesh_eigenvalues(lambda x: l * (l + 1) / x**2 - 2.0 * lam / np.expm1(lam * x), mesh, count)[0]


def anharmonic_numeric(lam: float, count: int, mesh: MeshSpec | None = None) -> list[float]:
    """Eigenvalues of ``x^2 + lam*x^4`` on the full line."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be non-negative and finite, got {lam}")
    mesh = mesh or default_anharmonic_mesh()
    if mesh.radial:
        raise ValueError("the anharmonic oscillator needs a full-line mesh")
    return mesh_eigenvalues(lambda x: x**2 + lam * x**4, mesh, count)[0]
