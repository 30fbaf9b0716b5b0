"""Exact arithmetic substrate: rationals, sparse Laurent polynomials, the one
float evaluator, and Bernoulli numbers.

All coefficient arithmetic in this package is carried out over arbitrary
precision rationals (``fractions.Fraction``); floating point enters only at
evaluation time.  Laurent polynomials are stored sparsely as an exponent ->
coefficient mapping because negative exponents and widely varying degrees
coexist (centrifugal ``1/x**2`` terms next to degree ~2k polynomials).

The solver's hot sums of products (the ``B_k`` convolution, the right-hand
side of each order, the partner potentials and the Riccati residual) run on an
integer kernel instead: each polynomial's dense form, a lowest exponent with a
tuple of integer numerators over one common denominator, is built once per
instance, products are convolutions of integer tuples, and a sum of terms is
combined over the lcm of their denominators (``_dense_combine``) and turned
back into a canonical ``LaurentPoly`` once.

Values are immutable after construction and safe to share across threads; the
internal caches are the Bernoulli table (a ``functools.lru_cache``) and each
polynomial's dense form, built on first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat
from math import comb, gcd, lcm
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NonIntegrableTerm

__all__ = [
    "LaurentPoly",
    "bernoulli_minus",
    "horner",
    "rational_to_str",
]


def rational_to_str(q: Fraction) -> str:
    """Serialize a rational as ``"p/q"`` (or ``"p"`` when the denominator is 1)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def horner(coeffs: Sequence, t):
    """Float value of sum_k coeffs[k] * t**k by Horner's rule, top coefficient
    first: the one float evaluator.  `t` and each coefficient may be NumPy
    arrays, stepped elementwise in the same order (no fused multiply-add), so
    bit for bit with floats; a `Fraction` enters as ``float(c)``."""
    val = 0.0
    for c in reversed(coeffs):
        val = val * t + (float(c) if type(c) is Fraction else c)
    return val


class LaurentPoly:
    """A sparse Laurent polynomial in one variable over the rationals.

    Exponents are integers and may be negative.  The representation is
    canonical: zero coefficients are never stored, so equality is entry-wise.
    Instances are immutable and hashable.
    """

    __slots__ = ("_terms", "_dense")

    def __init__(self, terms: Mapping[int, Fraction | int] | Iterable[tuple[int, Fraction | int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[int, Fraction] = {}
        for exp, coeff in items:
            c = Fraction(coeff)
            if c:
                clean[int(exp)] = c
        self._terms = clean
        self._dense: _Dense | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def constant(cls, c: Fraction | int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exponent: int, coeff: Fraction | int = 1) -> "LaurentPoly":
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
        return hash(frozenset(self._terms.items()))

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

    def __mul__(self, other: "LaurentPoly | Fraction | int") -> "LaurentPoly":
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

    def __rmul__(self, other: Fraction | int) -> "LaurentPoly":
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

    @property
    def float_terms(self) -> tuple[tuple[int, float], ...]:
        """(exponent, float coefficient) pairs in insertion order, converted on
        each read: a state's tables read them once per polynomial."""
        return tuple((e, float(c)) for e, c in self._terms.items())

    def __call__(self, x: float) -> float:
        """Float value at x.  The float sum runs left to right over the terms in
        insertion order (not `sum`, which compensates from Python 3.12 on), so
        two equal polynomials built in different term orders can differ in the
        last bits."""
        return reduce(add, (c * x**e for e, c in self.float_terms), 0)

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
    p._dense = None
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


def _dense_combine(terms: Iterable[tuple[int, _Dense]]) -> tuple[int, list[int], int]:
    """sum_j c_j * a_j for integer weights c_j, as integer numerators over the
    lcm of the terms' denominators: not reduced, and zero numerators may stand
    at either end."""
    terms = [(c, a) for c, a in terms if c and a[1]]
    if not terms:
        return (0, [], 1)
    den = lcm(*(a[2] for _, a in terms))
    lo = min(a[0] for _, a in terms)
    acc = [0] * (max(a[0] + len(a[1]) for _, a in terms) - lo)
    for c, (alo, nums, aden) in terms:
        i = alo - lo
        acc[i : i + len(nums)] = map(
            add, acc[i : i + len(nums)], map(mul, repeat(c * (den // aden)), nums)
        )
    return (lo, acc, den)


def _dense_sum(terms: Iterable[tuple[int, _Dense]]) -> LaurentPoly:
    """The canonical LaurentPoly of sum_j c_j * a_j for integer weights c_j."""
    return _dense_poly(_dense_reduced(*_dense_combine(terms)))


def _dense_reduced(lo: int, nums: Sequence[int], den: int) -> _Dense:
    """The canonical dense form of sum_i nums[i]/den * x^(lo+i) (den != 0):
    zero ends trimmed, and numerators and denominator divided by their one gcd,
    which leaves exactly the lcm of the reduced coefficients' denominators."""
    first = next((i for i, n in enumerate(nums) if n), None)
    if first is None:
        return _DENSE_ZERO
    end = len(nums) - next(i for i, n in enumerate(reversed(nums)) if n)
    nums = nums[first:end]
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    return (lo + first, tuple(n // g for n in nums), den // g)


def _dense_poly(d: _Dense) -> LaurentPoly:
    """The LaurentPoly of a canonical dense form, its terms inserted top
    exponent first and the dense form kept on the instance."""
    lo, nums, den = d
    p = _wrap({lo + i: Fraction(nums[i], den) for i in range(len(nums) - 1, -1, -1) if nums[i]})
    p._dense = d
    return p


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
