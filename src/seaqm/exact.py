"""Exact arithmetic substrate: rationals, Laurent polynomials, the one float
evaluator, and Bernoulli numbers.

All coefficient arithmetic in this package is carried out over arbitrary
precision rationals; floating point enters only at evaluation time.  A Laurent
polynomial has one representation, its canonical dense integer form: a lowest
exponent (negative exponents and widely varying degrees coexist, centrifugal
``1/x**2`` terms next to degree ~2k polynomials) with a tuple of integer
numerators over one common denominator.  It has one arithmetic, the integer
kernel, with one product: ``_dense_dot`` forms a weighted sum of products,
such as the solver's ``B_k`` convolution, an order of a state's prefactor or a
single product, by Kronecker substitution.  Each operand is packed into a
big integer, one slot per term on the exponent stride the operands and
products share (2 for the odd superpotential coefficients of the anharmonic
oscillator, so their zero terms cost nothing), each product is one
big-integer product, and the sum is unpacked once; the solver keeps each
w_m's packing across the orders of a rung while the slot width holds.  A
weighted sum of dense forms, such as right-hand sides, partner potentials and
Riccati residual, is combined over the lcm of their denominators
(``_dense_combine``).  Either is reduced to canonical form once, so a
polynomial's float value depends only on the polynomial, not on how it was
built.

Values are immutable after construction and safe to share across threads.
The internal caches are the Bernoulli table (a ``functools.lru_cache``), which
the Bernoulli recurrence reads for every smaller index, and each polynomial's
`_shape`, the two numbers ``_dense_dot`` reads of an operand, kept from its
first product.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, count, repeat
from math import comb, gcd, lcm
from operator import add, index, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NonIntegrableTerm

__all__ = [
    "LaurentPoly",
    "bernoulli_minus",
    "horner",
    "rational_from_str",
    "rational_to_str",
]


def rational_to_str(q: Fraction) -> str:
    """Serialize a rational as ``"p/q"`` (or ``"p"`` when the denominator is 1)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_INTEGER = re.compile(r"-?[0-9]+")  # an exponent, as `LaurentPoly.to_json` writes it
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # a coefficient, as rational_to_str writes it


def rational_from_str(text: str) -> Fraction:
    """The inverse of `rational_to_str`: ``"p"`` or ``"p/q"`` in decimal digits
    with q != 0, a ValueError for anything else.  Its cost is linear in the
    text; ``Fraction(str)`` also reads decimal exponents, and expands
    ``"1e10000000"`` exactly."""
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    q = int(match[2] or 1) if match else 0
    if not q:
        raise ValueError(f"expected 'p' or 'p/q' with integers p and q != 0, got {text!r:.40}")
    return Fraction(int(match[1]), q)


def _terms_from_json(obj: Mapping[str, str]) -> dict[int, Fraction]:
    """The nonzero terms, exponent -> coefficient, of a polynomial's JSON
    object (`LaurentPoly.to_json`): decimal integer keys and
    `rational_from_str` values, a ValueError otherwise."""
    terms = {}
    for e, c in obj.items():
        if not (isinstance(e, str) and _INTEGER.fullmatch(e)):
            raise ValueError(f"expected a decimal integer exponent, got {e!r:.40}")
        terms[int(e)] = rational_from_str(c)
    return {e: c for e, c in terms.items() if c}


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
    """A Laurent polynomial in one variable over the rationals.

    Exponents are integers and may be negative.  The one representation is
    the canonical dense integer form ``(lo, nums, den)``: sum_i nums[i]/den *
    x^(lo+i), with nonzero end numerators and den > 0 the lcm of the reduced
    coefficients' denominators (the zero polynomial is ``(0, (), 1)``), so
    equality and hashing compare that tuple.  Dense storage means far-apart
    exponents cost their gap: ``{0: 1, 10**6: 1}`` holds a million numerators;
    nothing in this package builds such a polynomial.  Instances are
    immutable and hashable.
    """

    __slots__ = ("_dense", "_stride_bits")

    def __init__(self, terms: Mapping[int, Fraction | int] = {}):  # never mutated
        # operator.index: a float exponent is a TypeError, never truncated
        fracs = [(index(e), Fraction(c)) for e, c in terms.items()]
        self._dense: _Dense = _dense_reduced(
            *_dense_combine((1, (e, (c.numerator,), c.denominator)) for e, c in fracs)
        )

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
        return not self._dense[1]

    @property
    def min_exponent(self) -> int | None:
        """Smallest exponent with a nonzero coefficient, None for the zero polynomial."""
        lo, nums, _ = self._dense
        return lo if nums else None

    @property
    def max_exponent(self) -> int | None:
        lo, nums, _ = self._dense
        return lo + len(nums) - 1 if nums else None

    def coeff(self, exponent: int) -> Fraction:
        lo, nums, den = self._dense
        i = exponent - lo
        return Fraction(nums[i], den) if 0 <= i < len(nums) else Fraction(0)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Terms in ascending exponent order."""
        lo, nums, den = self._dense
        return ((lo + i, Fraction(n, den)) for i, n in enumerate(nums) if n)

    def __len__(self) -> int:
        """The number of nonzero terms."""
        nums = self._dense[1]
        return len(nums) - nums.count(0)

    def __bool__(self) -> bool:
        return bool(self._dense[1])

    @property
    def _shape(self) -> tuple[int, int]:
        """What `_dense_dot` reads of an operand: the gcd of the nonzero
        terms' offsets from the lowest exponent, and the bit length of the
        largest |numerator|.  Found on first use and kept."""
        try:
            return self._stride_bits
        except AttributeError:
            nums = self._dense[1]
            self._stride_bits = (gcd(*compress(count(), nums)), max(map(int.bit_length, nums), default=0))
            return self._stride_bits

    # -- algebra -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._dense == other._dense
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._dense)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _dense_sum([(1, self._dense), (1, other._dense)])

    def __neg__(self) -> "LaurentPoly":
        lo, nums, den = self._dense
        return _dense_poly((lo, tuple(-n for n in nums), den))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _dense_sum([(1, self._dense), (-1, other._dense)])

    def __mul__(self, other: "LaurentPoly | Fraction | int") -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return _dense_poly(_dense_reduced(*_dense_dot([(1, self, other)])))
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            lo, nums, den = self._dense
            return _dense_poly(_dense_reduced(lo, [n * c.numerator for n in nums], den * c.denominator))
        return NotImplemented

    def __rmul__(self, other: Fraction | int) -> "LaurentPoly":
        return self.__mul__(other)

    def derivative(self) -> "LaurentPoly":
        """Term-wise d/dx; the constant term drops."""
        return _dense_poly(_dense_reduced(*_dense_derivative(self._dense)))

    def antiderivative(self) -> "LaurentPoly":
        """Term-wise antiderivative with integration constant 0.

        Raises NonIntegrableTerm for an x^-1 term, whose antiderivative
        (a logarithm) leaves the Laurent-polynomial ring.
        """
        if self.coeff(-1):
            raise NonIntegrableTerm("x^-1 term has no Laurent-polynomial antiderivative")
        return LaurentPoly({e + 1: c / (e + 1) for e, c in self.items()})

    # -- evaluation ----------------------------------------------------------

    @property
    def float_terms(self) -> tuple[tuple[int, float], ...]:
        """(exponent, float coefficient) pairs of the nonzero terms, top
        exponent first, converted on each read: a state's tables read them
        once per polynomial.  Each float is ``n / den``, which Python rounds
        correctly, so it equals ``float(self.coeff(e))``."""
        lo, nums, den = self._dense
        return tuple((lo + i, nums[i] / den) for i in range(len(nums) - 1, -1, -1) if nums[i])

    def __call__(self, x: float) -> float:
        """Float value at x: the float sum runs left to right over `float_terms`
        (not `sum`, which compensates from Python 3.12 on)."""
        return reduce(add, (c * x**e for e, c in self.float_terms), 0)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict[str, str]:
        """JSON object with decimal exponent strings as keys, "p/q" values."""
        return {str(e): rational_to_str(c) for e, c in self.items()}

    @classmethod
    def from_json(cls, obj: Mapping[str, str]) -> "LaurentPoly":
        return cls(_terms_from_json(obj))

    def __repr__(self) -> str:
        if not self:
            return "LaurentPoly(0)"
        parts = [f"{rational_to_str(c)}*x^{e}" for e, c in self.items()]
        return "LaurentPoly(" + " + ".join(parts) + ")"


# -- integer kernel -----------------------------------------------------------

_Dense = tuple[int, tuple[int, ...], int]
"""(lowest exponent e, numerators n_i, common denominator d) for sum_i n_i/d * x^(e+i)."""

_DENSE_ZERO: _Dense = (0, (), 1)


def _dense_dot(
    terms: Iterable[tuple[int, LaurentPoly, LaurentPoly]], packs: dict | None = None
) -> tuple[int, list[int], int]:
    """sum_j c_j * a_j * b_j for integer weights c_j, as integer numerators over
    the lcm of the products' denominators: not reduced, and zero numerators may
    stand at either end (as `_dense_combine`).  The one exact product.

    Kronecker substitution on the exponent stride s, the gcd of every
    operand's nonzero-term offsets and of the products' lowest exponents
    relative to the lowest: each distinct operand is packed as
    sum_i n_(s*i) * 2^(N*i), each term is one big-integer product shifted into
    place in a running sum, and the sum is unpacked once into signed N-bit
    digits.  A digit sums at most min(slots of a, slots of b) products per
    term, each below 2^(bits of |weight| + bits of max|a| + bits of max|b|),
    so an N of that bound plus bits(term count) + 2 holds every digit below
    2^(N-2) and the unpacking is exact.

    N is rounded up to whole 64-bit words, so calls on growing operands often
    share it: `packs`, a dict a caller keeps across calls (the solver keeps
    one per rung), maps id(operand) to its last packing, which is reused
    while s and N are unchanged, and to the operand itself, so that no other
    object takes that id while the dict lives."""
    terms = [t for t in terms if t[0] and t[1]._dense[1] and t[2]._dense[1]]
    if not terms:
        return (0, [], 1)
    ops = {id(p): p for _, a, b in terms for p in (a, b)}
    los = [a._dense[0] + b._dense[0] for _, a, b in terms]
    lo = min(los)
    s = gcd(*[e - lo for e in los], *[p._shape[0] for p in ops.values()]) or 1
    den = lcm(*[a._dense[2] * b._dense[2] for _, a, b in terms])
    bound = slots = 0
    for j, (c, a, b) in enumerate(terms):
        (alo, an, ad), (blo, bn, bd) = a._dense, b._dense
        c *= den // (ad * bd)
        la, lb = (len(an) - 1) // s + 1, (len(bn) - 1) // s + 1
        bound = max(bound, c.bit_length() + a._shape[1] + b._shape[1] + min(la, lb).bit_length())
        shift = (alo + blo - lo) // s
        slots = max(slots, shift + la + lb - 1)
        terms[j] = (c, id(a), id(b), shift)
    width = (bound + len(terms).bit_length() + 65) // 64 * 8  # bytes per slot: N = 8 * width
    N, half = 8 * width, 1 << (8 * width - 1)
    packs = {} if packs is None else packs
    for k, p in ops.items():
        if packs.get(k, (None,))[0] != (s, N):
            packs[k] = ((s, N), _pack(p._dense[1][::s], N), p)
    total = int.from_bytes(half.to_bytes(width, "little") * slots, "little")  # half in every slot
    for c, ka, kb, shift in terms:
        total += (c * packs[ka][1] * packs[kb][1]) << N * shift
    raw, from_bytes = total.to_bytes(width * slots, "little"), int.from_bytes
    out = [0] * (s * (slots - 1) + 1)
    out[::s] = [from_bytes(raw[i : i + width], "little") - half for i in range(0, width * slots, width)]
    return (lo, out, den)


def _pack(nums: Sequence[int], N: int) -> int:
    """sum_i nums[i] * 2^(N*i)."""
    acc = 0
    for n in reversed(nums):
        acc = (acc << N) + n
    return acc


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
    """The LaurentPoly of a canonical dense form."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._dense = d
    return p


@lru_cache(maxsize=None)
def bernoulli_minus(k: int) -> Fraction:
    """Bernoulli number B_k in the minus convention (B_1 = -1/2).

    Computed from the recurrence sum_{j=0..k} C(k+1, j) B_j = 0 (k >= 1) over
    the cached B_0..B_(k-1), which are asked for in ascending order, so each
    comes from the cache or from cached predecessors and the recursion stays
    one level deep.
    """
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if k == 0:
        return Fraction(1)
    return -sum((comb(k + 1, j) * bernoulli_minus(j) for j in range(k)), Fraction(0)) / (k + 1)
