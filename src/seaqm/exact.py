"""Exact arithmetic substrate: rationals, sparse Laurent polynomials, truncated
series in the expansion parameter, and Bernoulli numbers.

All coefficient arithmetic in this package is carried out over arbitrary
precision rationals (``fractions.Fraction``); floating point enters only at
evaluation time.  Laurent polynomials are stored sparsely as an exponent ->
coefficient mapping because negative exponents and widely varying degrees
coexist (centrifugal ``1/x**2`` terms next to degree ~2k polynomials).

The solver's hot sums of products (the ``B_k`` convolution and the Riccati
residual) run on an integer kernel instead: each polynomial's dense form, a
lowest exponent with a tuple of integer numerators over one common
denominator, is built once per instance, products are convolutions of
integer tuples, and a sum of terms is combined over the lcm of their
denominators and turned back into a canonical ``LaurentPoly`` once.

Values are immutable after construction and safe to share across threads; the
internal caches are the Bernoulli table (a ``functools.lru_cache``) and each
polynomial's hash, dense form and float terms, computed on first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, lcm
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import NonIntegrableTerm, OrderExceeded

Rational = Fraction
RationalLike = Union[Fraction, int]

__all__ = [
    "Rational",
    "LaurentPoly",
    "LambdaSeries",
    "bernoulli_minus",
    "horner",
    "rational_to_str",
]


def rational_to_str(q: Rational) -> str:
    """Serialize a rational as ``"p/q"`` (or ``"p"`` when the denominator is 1)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def horner(coeffs: Sequence[float | Fraction], t: float) -> float:
    """Float value of sum_k coeffs[k] * t**k by Horner's rule, top coefficient
    first: the one float evaluator of coupling series (and of the l = 0 eta)."""
    val = 0.0
    for c in reversed(coeffs):
        val = val * t + float(c)
    return val


class LaurentPoly:
    """A sparse Laurent polynomial in one variable over the rationals.

    Exponents are integers and may be negative.  The representation is
    canonical: zero coefficients are never stored, so equality is entry-wise.
    Instances are immutable and hashable.
    """

    __slots__ = ("_terms", "_hash", "_dense", "_floats")

    def __init__(self, terms: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[int, Fraction] = {}
        for exp, coeff in items:
            c = Fraction(coeff)
            if c:
                clean[int(exp)] = c
        self._terms = clean
        self._hash: int | None = None
        self._dense: _Dense | None = None
        self._floats: tuple[tuple[int, float], ...] | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def constant(cls, c: RationalLike) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exponent: int, coeff: RationalLike = 1) -> "LaurentPoly":
        return cls({exponent: coeff})

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def min_exponent(self) -> int | None:
        """Smallest exponent with a nonzero coefficient, None for the zero polynomial."""
        return min(self._terms) if self._terms else None

    @property
    def max_exponent(self) -> int | None:
        return max(self._terms) if self._terms else None

    def coeff(self, exponent: int) -> Fraction:
        return self._terms.get(exponent, Fraction(0))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Terms in ascending exponent order."""
        return iter(sorted(self._terms.items()))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- algebra -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return _wrap(out)

    def __neg__(self) -> "LaurentPoly":
        return _wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            out: dict[int, Fraction] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = e1 + e2
                    s = out.get(e, Fraction(0)) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            return _wrap(out)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return _wrap({e: c * v for e, v in self._terms.items()}) if c else LaurentPoly()
        return NotImplemented

    def __rmul__(self, other: RationalLike) -> "LaurentPoly":
        return self.__mul__(other)

    def derivative(self) -> "LaurentPoly":
        """Term-wise d/dx; the constant term drops."""
        return _wrap({e - 1: c * e for e, c in self._terms.items() if e != 0})

    def antiderivative(self) -> "LaurentPoly":
        """Term-wise antiderivative with integration constant 0.

        Raises NonIntegrableTerm for an x^-1 term, whose antiderivative
        (a logarithm) leaves the Laurent-polynomial ring.
        """
        if -1 in self._terms:
            raise NonIntegrableTerm("x^-1 term has no Laurent-polynomial antiderivative")
        return _wrap({e + 1: c / (e + 1) for e, c in self._terms.items()})

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x: float) -> float:
        terms = self._floats
        if terms is None:
            terms = self._floats = tuple((e, float(c)) for e, c in self._terms.items())
        return sum(c * x**e for e, c in terms)

    def eval_exact(self, x: Rational) -> Fraction:
        x = Fraction(x)
        return sum((c * x**e for e, c in self._terms.items()), Fraction(0))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict[str, str]:
        """JSON object with decimal exponent strings as keys, "p/q" values."""
        return {str(e): rational_to_str(c) for e, c in sorted(self._terms.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, str]) -> "LaurentPoly":
        return cls({int(e): Fraction(v) for e, v in obj.items()})

    def __repr__(self) -> str:
        if not self._terms:
            return "LaurentPoly(0)"
        parts = [f"{rational_to_str(c)}*x^{e}" for e, c in self.items()]
        return "LaurentPoly(" + " + ".join(parts) + ")"


def _wrap(terms: dict[int, Fraction]) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = terms
    p._hash = None
    p._dense = None
    p._floats = None
    return p


# -- integer kernel -----------------------------------------------------------

_Dense = tuple[int, tuple[int, ...], int]
"""(lowest exponent e, numerators n_i, common denominator d) for sum_i n_i/d * x^(e+i)."""

_DENSE_ZERO: _Dense = (0, (), 1)


def _dense(p: LaurentPoly) -> _Dense:
    """The dense integer form of p, built on first use and kept on the instance."""
    d = p._dense
    if d is None:
        terms = p._terms
        if not terms:
            d = _DENSE_ZERO
        else:
            lo = min(terms)
            den = lcm(*(c.denominator for c in terms.values()))
            nums = [0] * (max(terms) - lo + 1)
            for e, c in terms.items():
                nums[e - lo] = c.numerator * (den // c.denominator)
            d = (lo, tuple(nums), den)
        p._dense = d
    return d


def _dense_mul(a: _Dense, b: _Dense) -> _Dense:
    """Exact product of two dense forms (schoolbook convolution of the numerators)."""
    alo, an, ad = a
    blo, bn, bd = b
    if not an or not bn:
        return _DENSE_ZERO
    nb = len(bn)
    out = [0] * (len(an) + nb - 1)
    for i, x in enumerate(an):
        if x:
            out[i : i + nb] = map(add, out[i : i + nb], map(mul, repeat(x), bn))
    return (alo + blo, tuple(out), ad * bd)


def _dense_derivative(a: _Dense) -> _Dense:
    """Term-wise d/dx of a dense form (the constant's numerator becomes 0)."""
    lo, nums, den = a
    return (lo - 1, tuple(n * (lo + i) for i, n in enumerate(nums)), den)


def _dense_sum(terms: Iterable[tuple[int, _Dense]]) -> LaurentPoly:
    """The canonical LaurentPoly of sum_j c_j * a_j for integer weights c_j,
    combined over the lcm of the terms' denominators."""
    terms = [(c, a) for c, a in terms if c and a[1]]
    if not terms:
        return LaurentPoly()
    den = lcm(*(a[2] for _, a in terms))
    lo = min(a[0] for _, a in terms)
    acc = [0] * (max(a[0] + len(a[1]) for _, a in terms) - lo)
    for c, (alo, nums, aden) in terms:
        i = alo - lo
        acc[i : i + len(nums)] = map(
            add, acc[i : i + len(nums)], map(mul, repeat(c * (den // aden)), nums)
        )
    return _wrap({lo + i: Fraction(n, den) for i, n in enumerate(acc) if n})


Payload = Union[LaurentPoly, Fraction]


class LambdaSeries:
    """A series truncated at order K in the expansion parameter.

    ``coeffs[k]`` is the order-k payload, either a LaurentPoly (superpotentials,
    potentials, prefactors) or a rational (energies).  The length is exactly
    K + 1; binary operations truncate to the smaller of the two orders.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[Payload]):
        if not coeffs:
            raise ValueError("a LambdaSeries holds at least the order-0 payload")
        self._coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Payload, ...]:
        return self._coeffs

    def __getitem__(self, k: int) -> Payload:
        if not 0 <= k <= self.order:
            raise OrderExceeded(f"order {k} outside 0..{self.order}")
        return self._coeffs[k]

    def __iter__(self) -> Iterator[Payload]:
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LambdaSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __repr__(self) -> str:
        return f"LambdaSeries(order={self.order})"

    def truncated(self, K: int) -> "LambdaSeries":
        if K > self.order:
            raise OrderExceeded(f"cannot extend order {self.order} to {K}")
        return LambdaSeries(self._coeffs[: K + 1])

    # Polynomial-payload helpers used by the chain and state machinery.

    def map(self, fn) -> "LambdaSeries":
        return LambdaSeries([fn(c) for c in self._coeffs])

    def derivative(self) -> "LambdaSeries":
        return self.map(lambda p: p.derivative())

    def __add__(self, other: "LambdaSeries") -> "LambdaSeries":
        K = min(self.order, other.order)
        return LambdaSeries([self._coeffs[k] + other._coeffs[k] for k in range(K + 1)])

    def __mul__(self, other: "LambdaSeries") -> "LambdaSeries":
        """Cauchy product truncated at the smaller order."""
        K = min(self.order, other.order)
        out = []
        for k in range(K + 1):
            acc = self._coeffs[0] * other._coeffs[k]
            for m in range(1, k + 1):
                acc = acc + self._coeffs[m] * other._coeffs[k - m]
            out.append(acc)
        return LambdaSeries(out)

    def scale(self, c: RationalLike) -> "LambdaSeries":
        return self.map(lambda p: p * Fraction(c))


@lru_cache(maxsize=None)
def bernoulli_minus(k: int) -> Fraction:
    """Bernoulli number B_k in the minus convention (B_1 = -1/2).

    Computed from the explicit double sum
        B_k = sum_{n=0..k} sum_{m=0..n} (-1)^m C(n, m) m^k / (n + 1),
    with results cached.
    """
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    total = Fraction(0)
    for n in range(k + 1):
        inner = 0
        for m in range(n + 1):
            inner += (-1) ** m * comb(n, m) * m**k
        total += Fraction(inner, n + 1)
    return total
