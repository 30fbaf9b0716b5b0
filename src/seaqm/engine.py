"""Cascade solver for superpotential and energy series.

The eigenvalue problem ``-u'' + v(x, lam) u = eps(lam) u`` is recast through
the logarithmic substitution ``W = -(ln u)'`` as the Riccati identity

    W^2 - W' = v - eps.

Expanding ``W``, ``v`` and ``eps`` in powers of the coupling ``lam`` turns the
identity into a cascade: the order-0 equation is solved in closed form by a
Coulomb-type (``c + p/x``) or oscillator-type (``c + om*x``) leading term
``w_0``, and each order k >= 1 is ``2 w_0 w_k - w_k' = rhs_k - eps_k``, with

    rhs_k = v_k - B_k,      B_k = sum_{m+n=k, m,n>=1} w_m w_n.

Row x^beta of it is one three-term recurrence for all problem families,
``2om*w_(beta-1) + 2c*w_beta + (2p-beta-1)*w_(beta+1) = rhs_(k,beta)``, with
``-eps_k`` in row 0; the back-substitution solves it from the top exponent
down for the pivot the leading shape sets: w_beta if Coulomb-type,
w_(beta-1) if oscillator-type.

Excited levels come from a ladder of partner problems: rung r+1 has potential
``v_{r+1} = v_r + 2 W_r'`` order by order, and shares its spectrum with rung r
except for the lowest state removed at each step.  Every solved rung is
verified against the exact Riccati identity before a chain is returned.

Each order of a rung is solved on integers end to end.  The partner potential
``v_{r,k}`` and the right-hand side ``v_k - B_k`` are integer combinations of
the dense forms of ``exact`` (integer numerators over one denominator); the
back-substitution scales every row by one integer, so the whole order lies
over one denominator, and one gcd reduces it to the canonical ``w_k``.  Only
the energy coefficient is formed as a single ``Fraction``.  The residual check
takes from this path only each ``B_k``, formed once on the final
w_1..w_(k-1); it forms ``2 w_0 w_k``, ``w_k'``, ``v_k`` (from the rung's own
tuple) and ``eps_k`` itself.  A loaded chain's check forms every product afresh.

Every problem family (``Hulthen``, ``GenericPerturbed`` and its quartic case
``Anharmonic``) is a ``ProblemFamily``, which owns the ladder: ``radial``
(x > 0) for a Coulomb-type leading term, ``base_potential(k)`` with its order 0
taken from the leading term, and ``rung_leading(r)``, the closed-form order-0
term of rung r.  A family supplies only what differs between problems: its
``name``, the pole parameter ``b`` a chain records, its ``leading`` term,
``potential_term(k)``, the order-k coefficient (k >= 1) of the rung-0
potential; ``rung_of(n, l, r)`` and ``labels(r)``, which check a level's labels
and map them to the ladder depth and back; and ``to_json()`` /
``from_json()``.

The public surface is those families (with ``LeadingSuperpotential``), the
solved ``Rung`` and ``ChainSolution``, ``solve_chain`` and
``riccati_residual``.  ``ChainSolution.loads`` verifies what it loads: the
rungs must be complete, hold only exponents a solved rung can hold (rung 0's
order 1 must have the top term its potential forces), and each pass the same
exact residual check as a solved one.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm
from typing import Sequence

from .errors import (
    ChainIncomplete,
    InvalidLeading,
    ResidualNonzero,
    UnsolvableOrder,
)
from .exact import (
    LaurentPoly,
    _DENSE_ZERO,
    _Dense,
    _dense_combine,
    _dense_derivative,
    _dense_mul,
    _dense_poly,
    _dense_reduced,
    _dense_sum,
    bernoulli_minus,
    rational_to_str,
)

__all__ = [
    "LeadingSuperpotential",
    "Hulthen",
    "Anharmonic",
    "GenericPerturbed",
    "ProblemFamily",
    "Rung",
    "ChainSolution",
    "riccati_residual",
    "solve_chain",
]


@dataclass(frozen=True)
class LeadingSuperpotential:
    """Closed-form order-0 superpotential ``pole/x + constant + linear*x``.

    Exactly one of the two shapes must hold: Coulomb-type (pole != 0,
    linear == 0) or oscillator-type (pole == 0, linear != 0).
    """

    pole: Fraction
    constant: Fraction
    linear: Fraction
    leading_energy: Fraction

    def __post_init__(self):
        for name, value in vars(self).items():
            object.__setattr__(self, name, Fraction(value))
        coulomb = self.pole != 0 and self.linear == 0
        oscillator = self.pole == 0 and self.linear != 0
        if not (coulomb or oscillator):
            raise InvalidLeading(
                "leading superpotential must be Coulomb-type (pole != 0, linear == 0) "
                "or oscillator-type (pole == 0, linear != 0)"
            )

    @property
    def is_coulomb(self) -> bool:
        return self.pole != 0

    @cached_property
    def _row_constants(self) -> tuple[int, int, int, int, int, int]:
        """`_back_substitute`'s integers, formed once per leading term: the
        pivot shift s (row beta solves w_(beta-s)), L, the pivot P, 2c*L,
        2p*L*P^s and L*P^s (a w_(beta+1) solved two rows up has one more P)."""
        two_w, two_c, two_p = 2 * self.linear, 2 * self.constant, 2 * self.pole
        L = lcm(two_w.denominator, two_c.denominator, two_p.denominator)
        s, P = (1, int(two_w * L)) if two_w else (0, int(two_c * L))
        return s, L, P, int(two_c * L), int(two_p * L) * P**s, L * P**s

    def as_poly(self) -> LaurentPoly:
        return LaurentPoly({-1: self.pole, 0: self.constant, 1: self.linear})

    def order_zero_potential(self) -> LaurentPoly:
        """The potential this leading term solves: w^2 - w' + eps."""
        w = self.as_poly()
        return w * w - w.derivative() + LaurentPoly.constant(self.leading_energy)


_LEADING_KEYS = ("pole", "constant", "linear", "leadingEnergy")  # JSON names of its fields, in order


def _field(obj: object, key: str, convert=lambda v: v):
    """`convert(obj[key])` of a chain document; a ValueError that names `key` when
    `obj` is not a JSON object, lacks `key`, or holds what `convert` cannot parse."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object with the field {key!r}, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    try:
        return convert(obj[key])
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


class ProblemFamily:
    """The partner ladder every problem family shares, built on its `leading`
    term and its coupling terms `potential_term(k)` (see the module notes)."""

    name: str
    b: int
    leading: LeadingSuperpotential

    @property
    def radial(self) -> bool:
        return self.leading.is_coulomb

    def potential_term(self, k: int) -> LaurentPoly:
        """Order k >= 1 of the rung-0 potential."""
        raise NotImplementedError

    def base_potential(self, k: int) -> LaurentPoly:
        """Order k of the rung-0 potential."""
        return self.leading.order_zero_potential() if k == 0 else self.potential_term(k)

    def rung_leading(self, r: int) -> LeadingSuperpotential:
        """The order-0 term of rung r in closed form; `_checked` verifies it as
        the order-0 row of the Riccati identity.  The partner rule at order 0
        moves a Coulomb-type pole p down by 1 per rung and keeps pole*constant:
        pole p - r, constant c_r = c*p/(p - r), energy E + c^2 - c_r^2.  An
        oscillator-type term keeps its shape; its energy climbs by 2*linear per rung."""
        if r < 0:
            raise InvalidLeading("rung index must be non-negative")
        lead = self.leading
        if not lead.is_coulomb:
            return replace(lead, leading_energy=lead.leading_energy + 2 * r * lead.linear)
        p = lead.pole
        if p.denominator == 1 and 1 <= p <= r:
            raise InvalidLeading(f"pole reaches 0 at rung {p}; ladder terminates")
        c_r = lead.constant * p / (p - r)
        return LeadingSuperpotential(p - r, c_r, 0, lead.leading_energy + lead.constant**2 - c_r**2)


@dataclass(frozen=True)
class Hulthen(ProblemFamily):
    """Screened Coulomb problem at angular momentum l (radial, x > 0)."""

    l: int
    leading: LeadingSuperpotential = field(init=False, repr=False, compare=False)

    name = "hulthen"

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("angular momentum must be non-negative")
        b = self.b
        lead = LeadingSuperpotential(-b, Fraction(1, b), linear=0, leading_energy=Fraction(-1, b * b))
        object.__setattr__(self, "leading", lead)

    @property
    def b(self) -> int:
        return self.l + 1

    def potential_term(self, k: int) -> LaurentPoly:
        return LaurentPoly({k - 1: Fraction(-2 * bernoulli_minus(k), factorial(k))})

    def rung_of(self, n: int | None = None, l: int | None = None, r: int | None = None) -> int:
        if n is None:
            raise ValueError("screened Coulomb states need the label n")
        l = self.l if l is None else l
        if l != self.l:
            raise ValueError(f"label l={l} disagrees with family l={self.l}")
        if not 0 <= l <= n - 1:
            raise ValueError(f"need 0 <= l <= n-1, got l={l}, n={n}")
        return n - 1 - l

    def labels(self, r: int) -> dict[str, int]:
        return {"n": self.b + r, "l": self.l}

    def to_json(self) -> dict:
        return {"name": self.name, "l": self.l}

    @classmethod
    def from_json(cls, obj: dict, w1: dict[int, Fraction] | None = None) -> "Hulthen":
        family = cls(_field(obj, "l", int))
        _order_one_checked(family.leading, dict(family.potential_term(1).items()), w1)
        return family


@dataclass(frozen=True)
class GenericPerturbed(ProblemFamily):
    """A solvable leading problem plus a polynomial perturbation at order lam.

    ``v_0(x, lam) = (w00^2 - w00' + eps00) + lam * perturbation(x)``.  Levels
    are labelled by their rung r; a Coulomb-type leading term makes the
    problem radial.
    """

    leading: LeadingSuperpotential
    perturbation: LaurentPoly

    name = "generic"
    b = 0

    def __post_init__(self):
        mn = self.perturbation.min_exponent
        if mn is not None and mn < 0:
            raise ValueError("perturbation must be a pure polynomial (min exponent >= 0)")

    def potential_term(self, k: int) -> LaurentPoly:
        return self.perturbation if k == 1 else LaurentPoly.zero()

    def rung_of(self, n: int | None = None, l: int | None = None, r: int | None = None) -> int:
        if r is None:
            raise ValueError(f"{self.name} states need the label r")
        if r < 0:
            raise ValueError(f"need r >= 0, got r={r}")
        return r

    def labels(self, r: int) -> dict[str, int]:
        return {"r": r}

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "leading": dict(zip(_LEADING_KEYS, map(rational_to_str, astuple(self.leading)))),
            "perturbation": self.perturbation.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict, w1: dict[int, Fraction] | None = None) -> "GenericPerturbed":
        """`w1`: rung 0's order 1 of a chain document (`_order_one`).  The
        perturbation's keys must lie in 0..(top key of w1) + 1, and its top
        term must force w1's (`_order_one_checked`), both checked before the
        perturbation is built."""
        lead = _field(obj, "leading")
        leading = LeadingSuperpotential(
            *(_field(lead, key, Fraction) for key in _LEADING_KEYS)
        )
        top = None if w1 is None else 1 + max([0, *w1])
        bounded = lambda p: _keys_within(p, 0, top, "order 1 of the potential")
        terms = _field(obj, "perturbation", lambda p: {int(e): Fraction(c) for e, c in bounded(p).items()})
        _order_one_checked(leading, terms, w1)
        return cls(leading, LaurentPoly(terms))


@dataclass(frozen=True)
class Anharmonic(GenericPerturbed):
    """Quartic perturbation lam*x^4 of the harmonic oscillator on the full line."""

    leading: LeadingSuperpotential = field(
        default=LeadingSuperpotential(pole=0, constant=0, linear=1, leading_energy=1), init=False
    )
    perturbation: LaurentPoly = field(default=LaurentPoly.monomial(4), init=False)

    name = "anharmonic"

    def to_json(self) -> dict:
        return {"name": self.name}

    @classmethod
    def from_json(cls, obj: dict, w1: dict[int, Fraction] | None = None) -> "Anharmonic":
        family = cls()
        _order_one_checked(family.leading, dict(family.potential_term(1).items()), w1)
        return family


_FAMILIES = {cls.name: cls for cls in (Hulthen, Anharmonic, GenericPerturbed)}


@dataclass(frozen=True)
class Rung:
    """One solved partner problem: superpotential, energy and potential series."""

    index: int
    leading: LeadingSuperpotential
    w: tuple[LaurentPoly, ...]
    energy: tuple[Fraction, ...]
    potential: tuple[LaurentPoly, ...]

    @property
    def order(self) -> int:
        return len(self.w) - 1


@dataclass(frozen=True)
class ChainSolution:
    """A fully solved partner ladder for one problem, truncated at order K."""

    family: ProblemFamily
    r_max: int
    K: int
    rungs: tuple[Rung, ...]

    def rung(self, r: int) -> Rung:
        if not 0 <= r <= self.r_max:
            raise ChainIncomplete(f"rung {r} outside solved range 0..{self.r_max}")
        return self.rungs[r]

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "family": self.family.to_json(),
            "b": self.family.b,
            "rMax": self.r_max,
            "K": self.K,
            "rungs": [
                {
                    "r": rung.index,
                    "energy": [rational_to_str(e) for e in rung.energy],
                    "superpotential": [p.to_json() for p in rung.w],
                }
                for rung in self.rungs
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChainSolution":
        """The chain `obj` describes, verified: ValueError for a malformed or
        incomplete ladder, ResidualNonzero for a rung that is not a solution."""
        family_obj = _field(obj, "family")
        name = _field(family_obj, "name", str)
        if name not in _FAMILIES:
            raise ValueError(f"unknown family name {name!r}")
        b, K, r_max = (_field(obj, key, int) for key in ("b", "K", "rMax"))
        entries = _field(obj, "rungs", list)
        found = [_field(entry, "r", int) for entry in entries]
        if K < 0 or r_max < 0 or found != list(range(r_max + 1)):
            raise ValueError(f"need K >= 0 and rungs 0..rMax in order; got K={K}, rungs {found}")
        # bound every key before any polynomial is built
        w1 = _field(entries[0], "superpotential", _order_one) if K else None
        family = _FAMILIES[name].from_json(family_obj, w1)
        if b != family.b:
            raise ValueError(f"chain b={b} disagrees with the family's b={family.b}")
        for r, entry in enumerate(entries):
            _field(entry, "superpotential", lambda ps: _exponents_bounded(ps, r, family))
        rungs: list[Rung] = []
        for r, entry in enumerate(entries):
            w = _field(entry, "superpotential", lambda ps: tuple(map(LaurentPoly.from_json, ps)))
            energy = _field(entry, "energy", lambda es: tuple(map(Fraction, es)))
            if not len(w) == len(energy) == K + 1:
                raise ValueError(f"rung {r} must hold orders 0..{K}")
            lead = family.rung_leading(r)
            if w[0] != lead.as_poly():
                raise ValueError(f"rung {r} order-0 superpotential is not the family's leading term")
            v = _rung_potentials(family, r, K, rungs)
            rungs.append(_checked(Rung(r, lead, w, energy, v)))
        return cls(family, r_max, K, tuple(rungs))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "ChainSolution":
        return cls.from_json(json.loads(text))


def _keys_within(p: dict, lo: int, hi: int | None, what: str) -> dict:
    """`p` of a chain document, once its exponent keys lie in lo..hi (hi None: any)."""
    bad = [e for e in p if hi is not None and not lo <= int(e) <= hi]
    if bad:
        raise ValueError(f"{what} holds the exponent {bad[0]}, outside {lo}..{hi}")
    return p


def _order_one(ps: list) -> dict[int, Fraction]:
    """Order 1 of rung 0's orders `ps` in a chain document as exponent ->
    coefficient, not built into a polynomial ({} if `ps` has no order 1)."""
    return {int(e): Fraction(c) for p in ps[1:2] for e, c in p.items()}


def _order_one_checked(
    leading: LeadingSuperpotential, v1: dict[int, Fraction], w1: dict[int, Fraction] | None
) -> None:
    """ValueError unless w1, rung 0's order 1 in a chain document (None: the
    chain has no order 1), has the top term that the top term v x^T of v_1
    forces.  B_1 = 0, so order 1 is 2 w_0 w_1 - w_1' = v_1 - eps_1, whose row
    x^T reads 2c a = v for the top term a x^T of w_1 under a Coulomb-type
    w_0, and 2om a = v for the top term a x^(T-1) under an oscillator-type
    one; a constant v_1 is eps_1 and forces w_1 = 0.  Both are read from the
    documents' terms, before either polynomial is built."""
    if w1 is None:
        return
    coulomb = leading.is_coulomb
    pivot = 2 * (leading.constant if coulomb else leading.linear)
    if not pivot:
        raise ValueError("a Coulomb-type leading term with zero constant part has no order-1 solution")
    top = _top_term(v1)
    forced = None if top is None or top[0] < 1 else (top[0] if coulomb else top[0] - 1, top[1] / pivot)
    found = _top_term(w1)
    if found != forced:
        term = lambda t: "none (w_1 = 0)" if t is None else f"{rational_to_str(t[1])}*x^{t[0]}"
        raise ValueError(
            f"rung 0 order 1 has the top term {term(found)}, "
            f"but order 1 of the potential forces {term(forced)}"
        )


def _top_term(terms: dict[int, Fraction]) -> tuple[int, Fraction] | None:
    """The nonzero term of highest exponent, as (exponent, coefficient); None if there is none."""
    return max(((e, c) for e, c in terms.items() if c), default=None)


def _exponents_bounded(ps: list, r: int, family: ProblemFamily) -> list:
    """`ps`, rung r's orders in a chain document, once every key of w_0 lies
    in -1..1 and every key of w_k (k >= 1) in 0..k*D, D = max(1, ceil(top
    v_j / j) for j <= k): top(w_k) <= max(top v_k, top w_m + top w_(k-m)),
    and a partner adds only 2 w'."""
    D = 1
    for k, p in enumerate(ps):
        if k:
            D = max(D, -(-(family.potential_term(k).max_exponent or 0) // k))
        _keys_within(p, *((0, k * D) if k else (-1, 1)), f"rung {r} order {k}")
    return ps


def _self_convolution(w: Sequence[LaurentPoly], k: int) -> list[tuple[int, _Dense]]:
    """Weighted integer-kernel terms of ``B_k = sum_{m+n=k, m,n>=1} w_m w_n``,
    each distinct product formed once: ``2 w_m w_{k-m}`` for m < k/2 plus the
    middle square."""
    terms = [(2, _dense_mul(w[m]._dense, w[k - m]._dense)) for m in range(1, (k + 1) // 2)]
    if k % 2 == 0 and k >= 2:
        mid = w[k // 2]._dense
        terms.append((1, _dense_mul(mid, mid)))
    return terms


def _back_substitute(
    leading: LeadingSuperpotential, rhs: tuple[int, Sequence[int], int]
) -> tuple[LaurentPoly, Fraction]:
    """Solve the row recurrence (module notes) on the numerators N_beta of
    ``rhs`` over ``den``, each row times L, the lcm of the denominators of
    2om, 2c and 2p, so that its pivot P (2c*L or 2om*L) is an integer."""
    lo, nums, den = rhs
    nonzero = [i for i, n in enumerate(nums) if n]
    if nonzero and lo + nonzero[0] < 0:
        raise UnsolvableOrder(f"inhomogeneity has a pole (min exponent {lo + nonzero[0]})")
    s, L, P, C, B, LPs = leading._row_constants
    if not P:
        raise UnsolvableOrder("Coulomb-type leading term with zero constant part")
    top = lo + nonzero[-1] if nonzero else 0
    N = [0] * lo + list(nums[max(-lo, 0) :]) + [0]  # N[beta] of x^beta; N[0] of a zero rhs
    # u[j+1]: w_j * den * P^(top-beta+1), solved at row beta = j + s.  A row's
    # unsolved unknowns are still 0, so subtracting its whole left side leaves
    # P times the pivot (its 2om term is 0 or the pivot)
    u = [0] * (top + 3)
    scale = L  # L * P^(top-beta)
    for beta in range(top, -1, -1):
        u[beta + 1 - s] = scale * N[beta] - C * u[beta + 1] - (B - (beta + 1) * LPs) * u[beta + 2]
        scale *= P
    # row 0's pivot slot holds L*eps over den * P^top; bring w over it too
    out, power = [], 1
    for n in u[2 - s : top + 2 - s]:
        out.append(n * power)
        power *= P
    return _dense_poly(_dense_reduced(1 - s, out, den * power)), Fraction(u[1 - s], L * den * power)


def riccati_residual(
    w: Sequence[LaurentPoly], v: Sequence[LaurentPoly], eps: Sequence[Fraction], K: int, *, B=None
) -> list[LaurentPoly]:
    """Order-by-order residual ``C_k - w_k' - v_k + eps_k`` with C the
    self-convolution of w, through order K; identically zero for a valid
    solution.  The series are any sequences indexed by order, such as a rung's
    own tuples.

    ``C_0 = w_0^2`` and ``C_k = B_k + 2 w_0 w_k``.  `B`, indexed by order,
    holds the solver's ``B_k`` (module notes); without it each ``B_k`` is
    formed afresh from w.  ``2 w_0 w_k``, ``w_k'``, ``v_k`` and ``eps_k``
    are always formed here, so every order is an exact zero test.
    """
    if B is None:
        B = [_dense_combine(_self_convolution(w, k)) for k in range(K + 1)]
    w0 = w[0]._dense
    return [
        _dense_sum(
            [
                (1, B[k]),
                (2 if k else 1, _dense_mul(w0, w[k]._dense)),
                (-1, _dense_derivative(w[k]._dense)),
                (-1, v[k]._dense),
                (1, (0, (eps[k].numerator,), eps[k].denominator)),
            ]
        )
        for k in range(K + 1)
    ]


def solve_chain(family: ProblemFamily, r_max: int, K: int) -> ChainSolution:
    """Solve rungs 0..r_max of the partner ladder through order K.

    Every rung is checked against the exact Riccati identity before the chain
    is returned; a failure raises ResidualNonzero.
    """
    if r_max < 0 or K < 0:
        raise ValueError("r_max and K must be non-negative")
    return _solve_chain_cached(family, r_max, K)


def _rung_potentials(
    family: ProblemFamily, r: int, K: int, below: Sequence[Rung]
) -> tuple[LaurentPoly, ...]:
    """Orders 0..K of the rung-r potential: the family's coupling expansion at
    r = 0, the partner rule ``v_r = v_{r-1} + 2 w_{r-1}'`` on rung r-1 of
    `below` above that."""
    if r == 0:
        return tuple(family.base_potential(k) for k in range(K + 1))
    prev = below[r - 1]
    return tuple(
        _dense_sum([(1, v._dense), (2, _dense_derivative(w._dense))])
        for v, w in zip(prev.potential, prev.w)
    )


def _checked(rung: Rung, B=None) -> Rung:
    """`rung`, once it satisfies the exact Riccati identity at every order
    (`B` as in `riccati_residual`); ResidualNonzero otherwise."""
    residuals = riccati_residual(rung.w, rung.potential, rung.energy, rung.order, B=B)
    bad = [k for k, res in enumerate(residuals) if res]
    if bad:
        raise ResidualNonzero(f"rung {rung.index} violates the Riccati identity at orders {bad}")
    return rung


@lru_cache(maxsize=256)
def _solve_chain_cached(family: ProblemFamily, r_max: int, K: int) -> ChainSolution:
    # Chains extend their one-rung-shorter prefix, so ladders of different
    # depths over the same family share all common rungs through the cache.
    below = _solve_chain_cached(family, r_max - 1, K).rungs if r_max > 0 else ()
    rung = _solve_rung(family, r_max, K, below)
    return ChainSolution(family, r_max, K, below + (rung,))


def _solve_rung(family: ProblemFamily, r: int, K: int, below: tuple[Rung, ...]) -> Rung:
    lead = family.rung_leading(r)
    v = _rung_potentials(family, r, K, below)
    w = [lead.as_poly()]
    energy = [lead.leading_energy]
    B = [_DENSE_ZERO]  # B_0; every B_k is kept for the rung's check
    for k in range(1, K + 1):
        B.append(_dense_combine(_self_convolution(w, k)))
        w_k, eps_k = _back_substitute(lead, _dense_combine([(1, v[k]._dense), (-1, B[k])]))
        w.append(w_k)
        energy.append(eps_k)
    return _checked(Rung(r, lead, tuple(w), tuple(energy), v), B)
