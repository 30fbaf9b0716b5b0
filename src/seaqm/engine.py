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

``solve_chain`` caches one chain: the ladder being extended.  Asking for rung
r+1 of the same family at the same K adds one rung to it; another family,
another K or a shallower prefix is solved again.  So a caller that reads
several rungs walks one ladder at a time, in rung order, and a process holds
one ladder in memory, however many it has solved.

Each order of a rung is solved on integers end to end.  ``B_k`` is one call
of the product kernel ``exact._dense_dot``, which forms each product as one
big-integer product of packed w_m (for the anharmonic oscillator on stride 2:
every w_k is odd), each w_m packed once per slot width in the rung; the
partner potential ``v_{r,k}`` and the right-hand side ``v_k - B_k`` are
integer combinations of the dense forms of ``exact`` (integer numerators over
one denominator); the back-substitution scales every row by one integer, so
the whole order lies over one denominator, and one gcd reduces it to the
canonical ``w_k``.  Only the energy coefficient is formed as a single
``Fraction``.  The residual check
takes from this path only each ``B_k``, formed once on the final
w_1..w_(k-1); it forms ``2 w_0 w_k`` (on the same kernel), ``w_k'``, ``v_k``
(from the rung's own tuple) and ``eps_k`` itself.

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
``riccati_residual``.  ``ChainSolution.loads`` verifies what it loads by
solving it again: once the orders below it are fixed, each order of a rung has
exactly one polynomial solution, so a chain document is valid exactly when it
equals the chain solved from its family, ``K`` and ``rMax``.  The solver
compares each coefficient as soon as its row solves it and stops at the first
that differs.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm
from operator import index
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
    _dense_combine,
    _dense_derivative,
    _dense_dot,
    _dense_poly,
    _dense_reduced,
    _dense_sum,
    _terms_from_json,
    bernoulli_minus,
    rational_from_str,
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
_Order = tuple[dict[int, Fraction], Fraction]  # a chain document's order k: (w_k's nonzero terms, eps_k)


def _field(obj: object, key: str, convert=lambda v: v):
    """`convert(obj[key])` of a chain document; a ValueError that names `key` when
    `obj` is not a JSON object, lacks `key`, or holds what `convert` cannot parse.
    A document's rationals are strings in `rational_to_str`'s grammar, read by
    `rational_from_str`; any other number, such as the float Python's `json`
    reads from ``Infinity`` or ``1e400``, is refused."""
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
    def from_json(cls, obj: dict) -> "Hulthen":
        return cls(_field(obj, "l", index))


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
    def from_json(cls, obj: dict, order_one: _Order | None = None) -> "GenericPerturbed":
        """`order_one`: rung 0's order 1 of a chain document, None if it has
        none.  The perturbation's sparse terms are checked before it is built,
        which stores every exponent up to its top: no pole, and (B_1 = 0)
        equal to v_1 = 2 w_0 w_1 - w_1' + eps_1 (`_order_one_potential`)."""
        lead = _field(obj, "leading")
        leading = LeadingSuperpotential(*(_field(lead, key, rational_from_str) for key in _LEADING_KEYS))
        terms = _field(obj, "perturbation", _terms_from_json)
        if min(terms, default=0) < 0:
            raise ValueError("perturbation must be a pure polynomial (min exponent >= 0)")
        if order_one is not None and terms != _order_one_potential(leading, *order_one):
            raise ResidualNonzero("rung 0 violates the Riccati identity at orders [1]")
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
    def from_json(cls, obj: dict) -> "Anharmonic":
        return cls()


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
        """The chain `obj` describes, verified by solving it again
        (`_solve_rung`): ValueError for a malformed ladder, a family without
        such a chain (InvalidLeading or UnsolvableOrder of the solver) or a
        w_0 that is not the family's leading term; ResidualNonzero at the
        first order that differs.  The chain cache is neither read nor filled."""
        family_obj = _field(obj, "family")
        name = _field(family_obj, "name", str)
        if name not in _FAMILIES:
            raise ValueError(f"unknown family name {name!r}")
        b, K, r_max = (_field(obj, key, index) for key in ("b", "K", "rMax"))
        entries = _field(obj, "rungs", list)
        found = [_field(entry, "r", index) for entry in entries]
        if K < 0 or r_max < 0 or found != list(range(r_max + 1)):
            raise ValueError(f"need K >= 0 and rungs 0..rMax in order; got K={K}, rungs {found}")
        docs = [_orders(entry, r, K) for r, entry in enumerate(entries)]
        family_cls = _FAMILIES[name]
        try:
            if family_cls is GenericPerturbed:  # its document holds the potential order 1 fixes
                family = family_cls.from_json(family_obj, docs[0][1] if K else None)
            else:
                family = family_cls.from_json(family_obj)
            if b != family.b:
                raise ValueError(f"chain b={b} disagrees with the family's b={family.b}")
            rungs: tuple[Rung, ...] = ()
            for r, doc in enumerate(docs):
                rungs += (_solve_rung(family, r, K, rungs, doc),)
        except (InvalidLeading, UnsolvableOrder) as exc:
            raise ValueError(f"the family has no chain through rung {r_max}, order {K}: {exc}") from None
        return cls(family, r_max, K, rungs)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "ChainSolution":
        return cls.from_json(json.loads(text))


def _orders(entry: dict, r: int, K: int) -> list[_Order]:
    """Rung r's orders 0..K in a chain document."""
    w = _field(entry, "superpotential", lambda ps: [_terms_from_json(p) for p in ps])
    energy = _field(entry, "energy", lambda es: [rational_from_str(e) for e in es])
    if not len(w) == len(energy) == K + 1:
        raise ValueError(f"rung {r} must hold orders 0..{K}")
    return list(zip(w, energy))


def _order_one_potential(
    leading: LeadingSuperpotential, w1: dict[int, Fraction], eps1: Fraction
) -> dict[int, Fraction]:
    """2 w_0 w_1 - w_1' + eps_1 on sparse terms, w_0 = `leading`: each term
    a x^e of w_1 adds 2om*a x^(e+1) + 2c*a x^e + (2p - e)*a x^(e-1)."""
    v = {0: eps1}
    for e, a in w1.items():
        for x, c in ((e + 1, 2 * leading.linear), (e, 2 * leading.constant), (e - 1, 2 * leading.pole - e)):
            v[x] = v.get(x, 0) + c * a
    return {e: c for e, c in v.items() if c}


def _self_convolution(w: Sequence[LaurentPoly], k: int) -> list[tuple[int, LaurentPoly, LaurentPoly]]:
    """`_dense_dot` terms of ``B_k = sum_{m+n=k, m,n>=1} w_m w_n``, each
    distinct product once: ``2 w_m w_{k-m}`` for m < k/2 plus the middle
    square."""
    terms = [(2, w[m], w[k - m]) for m in range(1, (k + 1) // 2)]
    if k % 2 == 0 and k >= 2:
        terms.append((1, w[k // 2], w[k // 2]))
    return terms


def _back_substitute(
    leading: LeadingSuperpotential, rhs: tuple[int, Sequence[int], int], doc: _Order | None = None
) -> tuple[LaurentPoly, Fraction] | None:
    """Solve the row recurrence (module notes) on the numerators N_beta of
    ``rhs`` over ``den``, each row times L, the lcm of the denominators of
    2om, 2c and 2p, so that its pivot P (2c*L or 2om*L) is an integer.

    With `doc`, a chain document's order, each coefficient is compared as
    soon as its row solves it, top row first, and None is returned at the
    first that differs: a refusal costs the rows the document matched."""
    lo, nums, den = rhs
    nonzero = [i for i, n in enumerate(nums) if n]
    if nonzero and lo + nonzero[0] < 0:
        raise UnsolvableOrder(f"inhomogeneity has a pole (min exponent {lo + nonzero[0]})")
    s, L, P, C, B, LPs = leading._row_constants
    if not P:
        raise UnsolvableOrder("Coulomb-type leading term with zero constant part")
    top = lo + nonzero[-1] if nonzero else 0
    if doc is not None and any(not 1 - s <= j <= top - s for j in doc[0]):  # rows solve w_(1-s)..w_(top-s)
        return None
    N = [0] * lo + list(nums[max(-lo, 0) :]) + [0]  # N[beta] of x^beta; N[0] of a zero rhs
    # u[j+1]: w_j * den * P^(top-beta+1), solved at row beta = j + s; row 0's
    # slot u[1-s] is eps * den * L*P^top.  A row's unsolved unknowns are
    # still 0, so subtracting its whole left side leaves P times the pivot
    # (its 2om term is 0 or the pivot)
    u = [0] * (top + 3)
    scale = L  # L * P^(top-beta)
    for beta in range(top, -1, -1):
        u[beta + 1 - s] = n = scale * N[beta] - C * u[beta + 1] - (B - (beta + 1) * LPs) * u[beta + 2]
        if doc is not None:
            a, m, f = (doc[0].get(beta - s, 0), L, P) if beta else (doc[1], 1, 1)
            if n * m * a.denominator != a.numerator * den * f * scale:
                return None
        scale *= P
    # bring w over eps's denominator den * P^top
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
        B = [_dense_dot(_self_convolution(w, k)) for k in range(K + 1)]
    return [
        _dense_sum(
            [
                (1, B[k]),
                (1, _dense_dot([(2 if k else 1, w[0], w[k])])),
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


def _rung_potential(family: ProblemFamily, r: int, k: int, below: Sequence[Rung]) -> LaurentPoly:
    """Order k of the rung-r potential: the family's coupling expansion at
    r = 0, the partner rule ``v_r = v_{r-1} + 2 w_{r-1}'`` on rung r-1 of
    `below` above that."""
    if r == 0:
        return family.base_potential(k)
    prev = below[r - 1]
    return _dense_sum([(1, prev.potential[k]._dense), (2, _dense_derivative(prev.w[k]._dense))])


def _checked(rung: Rung, B=None) -> Rung:
    """`rung`, once it satisfies the exact Riccati identity at every order
    (`B` as in `riccati_residual`); ResidualNonzero otherwise."""
    residuals = riccati_residual(rung.w, rung.potential, rung.energy, rung.order, B=B)
    bad = [k for k, res in enumerate(residuals) if res]
    if bad:
        raise ResidualNonzero(f"rung {rung.index} violates the Riccati identity at orders {bad}")
    return rung


@lru_cache(maxsize=1)
def _solve_chain_cached(family: ProblemFamily, r_max: int, K: int) -> ChainSolution:
    # The cache holds the ladder being extended.  A chain reads only its
    # one-rung-shorter prefix, which the call below has just stored, so a
    # ladder asked for in rung order solves each rung once; another family,
    # another K or a shallower prefix is solved again.
    below = _solve_chain_cached(family, r_max - 1, K).rungs if r_max > 0 else ()
    rung = _solve_rung(family, r_max, K, below)
    return ChainSolution(family, r_max, K, below + (rung,))


def _solve_rung(
    family: ProblemFamily, r: int, K: int, below: tuple[Rung, ...], doc: Sequence[_Order] | None = None
) -> Rung:
    """Rung r through order K on the rungs `below` it, checked.

    With `doc`, a chain document's orders 0..K of rung r (`_orders`), each
    coefficient of order k is compared as soon as `_back_substitute` solves
    it, and order k's potential is formed only once the orders below have
    matched.  They fix order k's Riccati identity, which then has exactly one
    polynomial solution, so the first coefficient that differs refuses the
    document: ValueError if w_0 is not the family's leading term,
    ResidualNonzero naming the order otherwise.
    """
    lead = family.rung_leading(r)
    w = [lead.as_poly()]
    energy = [lead.leading_energy]
    if doc is not None and doc[0][0] != dict(w[0].items()):
        raise ValueError(f"rung {r} order-0 superpotential is not the family's leading term")
    differs = f"rung {r} differs at orders [{{}}] from the one polynomial solution of the Riccati identity"
    if doc is not None and doc[0][1] != energy[0]:
        raise ResidualNonzero(differs.format(0))
    v = [_rung_potential(family, r, 0, below)]
    B = [_DENSE_ZERO]  # B_0; every B_k is kept for the rung's check
    packs: dict = {}  # the packed w_m, shared by the orders of this rung
    for k in range(1, K + 1):
        v.append(_rung_potential(family, r, k, below))
        B.append(_dense_dot(_self_convolution(w, k), packs))
        rhs = _dense_combine([(1, v[k]._dense), (-1, B[k])])
        solved = _back_substitute(lead, rhs) if doc is None else _back_substitute(lead, rhs, doc[k])
        if solved is None:
            raise ResidualNonzero(differs.format(k))
        w.append(solved[0])
        energy.append(solved[1])
    return _checked(Rung(r, lead, tuple(w), tuple(energy), tuple(v)), B)
