"""Exception hierarchy for the seaqm package."""

from __future__ import annotations


class SeaError(Exception):
    """Base class for all seaqm errors."""


class NonIntegrableTerm(SeaError):
    """Antiderivative requested for a Laurent polynomial with an x^-1 term."""


class OrderExceeded(SeaError):
    """A series was addressed beyond its truncation order."""


class ChainIncomplete(SeaError):
    """A chain operation needs rungs or orders that are not solved yet."""


class InvalidLeading(SeaError):
    """A leading superpotential fails the order-zero Riccati identity."""


class UnsolvableOrder(SeaError):
    """The triangular system for one expansion order is singular."""


class ResidualNonzero(SeaError):
    """A rung is not the solution of the Riccati identity: a solved rung that
    fails its exact check (an internal failure), or a loaded chain document's
    rung that differs from the one solved from its family."""


class RungOrderViolation(SeaError):
    """A creation operator was applied from a rung at or above the state's rung."""


class DomainError(SeaError):
    """Wavefunction evaluation requested at a point where it is singular."""


class NonNormalizable(SeaError):
    """The normalization integrand never decays below the tail cutoff."""


class SingularPadeSystem(SeaError):
    """The Hankel system defining a Pade denominator is singular."""


class PoleProximity(SeaError):
    """A Pade approximant was evaluated too close to a denominator zero."""


class NoSignChange(SeaError):
    """A Pade numerator has no root in (0, 2): the resummed level never reaches zero there."""


class GridTooCoarse(SeaError):
    """Oracle eigenvalues still moved by more than 1e-6 relative under mesh doubling."""
