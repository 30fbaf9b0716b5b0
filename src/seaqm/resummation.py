"""Pade resummation of truncated coupling series.

For exact series (energies, critical couplings) `pade` finds the denominator
exactly (high-order Hankel systems are catastrophically ill-conditioned in
floating point), on rows scaled to integers one by one, with one Bareiss
elimination shared by [m/n] and [m-1/n], run on each independent block of the
rows apart (a series with zero odd terms splits them by parity), and checks
every re-expansion row in integers.  An approximant is held as one integer
form, coprime numerator and denominator coefficients, which root isolation
reads directly.  Only the final evaluation is floating point.  Float-only
series (a wavefunction's coupling series, a row per x) get low-order float
Pades by stacked LU solves, with the same fallback and pole rules row by row.
Critical screening strengths, the zero crossing of the resummed level, are
decided in integers by Descartes' rule of signs, and reported as the mean of
two approximants' roots with the half-difference as the uncertainty.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from operator import add, mul, ne
from typing import Sequence

import numpy as np

from .errors import NoSignChange, PoleProximity, SingularPadeSystem
from .exact import horner, rational_to_str
from .spectra import hulthen_energy_series

__all__ = [
    "PadeApproximant",
    "pade",
    "pade_eval",
    "reexpand",
    "pade_with_fallback",
    "float_pade_block",
    "CriticalResult",
    "default_pade_pair",
    "critical_lambda",
    "reconstruct_energy",
]


@dataclass(frozen=True)
class PadeApproximant:
    """Rational approximant [m/n] with exact coefficients.

    Held as one integer form: the value is p(x)/q(x) for integer coefficient
    tuples p (m + 1 terms) and q (n + 1 terms), constant term first, with one
    gcd of 1 over all of them and q[0] > 0, so each approximant has exactly
    one form.  `numerator` and `denominator` are its Fraction views with the
    denominator's constant term normalized to 1; the Taylor re-expansion
    matches the source series through order m + n.
    """

    m: int
    n: int
    p: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self):
        if len(self.p) != self.m + 1 or len(self.q) != self.n + 1:
            raise ValueError("coefficient lengths must be m+1 and n+1")
        if self.q[0] <= 0:
            raise ValueError("denominator constant term must be positive")
        if gcd(*self.p, *self.q) != 1:
            raise ValueError("numerator and denominator coefficients must have gcd 1")

    @cached_property
    def numerator(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.q[0]) for c in self.p)

    @cached_property
    def denominator(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.q[0]) for c in self.q)

    @cached_property
    def float_coefficients(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Numerator and denominator coefficients as floats, converted once:
        each a correctly rounded integer quotient, as float() of its Fraction."""
        q0 = self.q[0]
        return tuple(c / q0 for c in self.p), tuple(c / q0 for c in self.q)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "numerator": [rational_to_str(c) for c in self.numerator],
            "denominator": [rational_to_str(c) for c in self.denominator],
        }


def _check_orders(count: int, m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise ValueError("orders must be non-negative")
    if count < m + n + 1:
        raise ValueError(f"[{m}/{n}] needs {m + n + 1} coefficients, got {count}")


def _row(a: list[int], t: int, n: int) -> list[int]:
    """Row t of the Pade system, sum_j c_{t-j} q_j = 0 (j = 0..n), from the
    integer series a padded with n zeros in front, scaled to coprime integers
    on its own."""
    row = a[t : t + n + 1][::-1]
    g = gcd(*row) or 1
    return [x // g for x in row]


def _eliminate(rows: list[list[int]], width: int) -> list[tuple[int, list[int]]]:
    """Integer kernel basis of `rows` by fraction-free (Bareiss) echelon form with
    column pivoting, on columns divided by their content: one Cramer vector per
    free column, mapped back to the original columns, as (free column, vector)
    pairs.  With no rows, the unit vectors."""
    g = [gcd(*col) or 1 for col in zip(*rows)] or [1] * width
    L = lcm(*g)
    M = [[a // gj for a, gj in zip(row, g)] for row in rows]
    pivots, det = [], 1
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        pivot, top = M[r][col], M[r]
        for i in range(r + 1, len(M)):
            f, row = M[i][col], M[i]
            M[i] = [(pivot * row[j] - f * top[j]) // det for j in range(width)]
        det = pivot
        pivots.append(col)
    basis = []
    for free in (j for j in range(width) if j not in pivots):
        x = [0] * width
        x[free] = det
        for i, p in reversed(list(enumerate(pivots))):
            x[p] = -sum(map(mul, M[i][p + 1 :], x[p + 1 :])) // M[i][p]
        basis.append((free, [xj * (L // gj) for xj, gj in zip(x, g)]))
    return basis


def _kernel(rows: list[list[int]], width: int) -> list[list[int]]:
    """Integer kernel basis of `rows`, one vector per free column in column
    order, eliminated block by block: the columns that rows' nonzero entries
    join (union-find) form independent blocks, each eliminated on its own rows
    by `_eliminate`.  Each vector is a multiple of the one that eliminating
    all rows at once gives, as a block's free columns are those of the whole."""
    root = list(range(width))

    def find(j: int) -> int:
        while root[j] != j:
            root[j] = j = root[root[j]]
        return j

    touched = [[j for j, a in enumerate(row) if a] for row in rows]
    for cols in touched:
        for j in cols[1:]:
            root[find(j)] = find(cols[0])
    blocks: dict[int, list[int]] = {}
    for j in range(width):
        blocks.setdefault(find(j), []).append(j)
    basis = {}
    for r, cols in blocks.items():
        block = [[row[j] for j in cols] for row, t in zip(rows, touched) if t and find(t[0]) == r]
        for free, x in _eliminate(block, len(cols)):
            basis[cols[free]] = v = [0] * width
            for j, a in zip(cols, x):
                v[j] = a
    return [basis[j] for j in sorted(basis)]


# process-local memo of the last elimination's kernel by n and values: callers build [m/n], then [m-1/n]
_KERNELS: dict[tuple, list[list[int]]] = {}


def pade(series: Sequence[Fraction], m: int, n: int) -> PadeApproximant:
    """Exact [m/n] approximant of a truncated series.

    Needs at least m + n + 1 coefficients.  Raises SingularPadeSystem when the
    Hankel system for the denominator has no unique solution (callers may
    retry with a smaller n).  The kernel K1, K2 of the integer rows m+1..m+n
    but one end and the row e left out give Y = (e.K2) K1 - (e.K1) K2, singular
    exactly when Y_0 = 0.  A call takes the kernel of its rows but the top one
    if [m+1/n] left it, else stores that of its rows but the bottom one: [m/n]
    then [m-1/n] eliminate once.  Every row gets the integer re-expansion check.
    """
    _check_orders(len(series), m, n)
    coeffs = [c if type(c) is Fraction else Fraction(c) for c in series[: m + n + 1]]
    D = lcm(*(c.denominator for c in coeffs))
    a = [c.numerator * (D // c.denominator) for c in coeffs]
    Y = [1]
    if n:
        padded, ratios = [0] * n + a, [(0, 1)] * n + [c.as_integer_ratio() for c in coeffs]
        key = lambda lo, hi: (n, *ratios[lo : hi + n + 1])
        t, basis = m + 1, _KERNELS.pop(key(m + 2, m + n), None)
        if basis is None:
            t, basis = m + n, _kernel([_row(padded, s, n) for s in range(m + 1, m + n)], n + 1)
            _KERNELS.clear()
            _KERNELS[key(m + 1, m + n - 1)] = basis
        e = _row(padded, t, n)
        K1, K2, *rank_deficient = basis  # a third vector: singular, and Y_0 = 0 then too
        d1, d2 = sum(map(mul, e, K1)), sum(map(mul, e, K2))
        Y = [d2 * a - d1 * b for a, b in zip(K1, K2)]
        if rank_deficient or Y[0] == 0:
            raise SingularPadeSystem(f"[{m}/{n}] denominator system is singular")
        g = gcd(*Y)
        Y = [y // g for y in Y]
    conv = [0] * (m + n + 1)
    for j, y in enumerate(Y):  # one shifted, scaled copy of the series per nonzero y
        if y:
            conv[j:] = map(add, conv[j:], [y * x for x in a[: m + n + 1 - j]])
    # with q = D Y the re-expansion matches the series through m + n exactly
    # when every convolution term past the numerator vanishes
    if any(conv[m + 1 :]):
        raise SingularPadeSystem(f"[{m}/{n}] re-expansion check failed")
    q = [D * y for y in Y]
    g = gcd(*conv[: m + 1], *q) * (1 if q[0] > 0 else -1)
    return PadeApproximant(m, n, tuple(c // g for c in conv[: m + 1]), tuple(y // g for y in q))


def reexpand(P: PadeApproximant, order: int) -> list[Fraction]:
    """Exact Taylor coefficients of the approximant through `order`."""
    out: list[Fraction] = []
    for k in range(order + 1):
        p_k = P.numerator[k] if k <= P.m else Fraction(0)
        s = p_k
        for j in range(1, min(k, P.n) + 1):
            s -= P.denominator[j] * out[k - j]
        out.append(s)  # denominator constant term is 1
    return out


def _near_pole(num, den):
    """The pole rule |den| < 1e-12 max(1, |num|), on floats or elementwise on
    arrays; a NaN numerator counts as 1, as in Python's max."""
    return (abs(den) < 1e-12) | (abs(den) < 1e-12 * abs(num))


def pade_eval(P: PadeApproximant, lam: float) -> float:
    """Floating Horner evaluation; raises PoleProximity near a denominator zero."""
    num, den = horner(P.float_coefficients[0], lam), horner(P.float_coefficients[1], lam)
    if _near_pole(num, den):
        raise PoleProximity(f"denominator {den:.3e} too small at lam={lam}")
    return num / den


def pade_with_fallback(series: Sequence[Fraction], m: int, n: int) -> PadeApproximant:
    """Build [m/n], stepping n down on singular Hankel systems.

    Degenerate inputs (polynomial series, repeated blocks) land on the largest
    solvable denominator order, ultimately [m/0] which is the polynomial
    itself.
    """
    for nn in range(n, -1, -1):
        try:
            return pade(series, m, nn)
        except SingularPadeSystem:
            continue
    raise SingularPadeSystem(f"no solvable approximant at or below [{m}/{n}]")


def _float_pade_rows(series, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Float [m/n] approximants of the rows of `series`: numerators and
    denominators (constant term 1, zero past the row's order).  Per order from n
    down, the open rows take one stacked LU solve; an all-zero system is singular,
    and a non-finite one, or each of a stack that raised, is solved alone.  As in
    `pade_with_fallback`, a singular system or a non-finite solution steps a row
    down, ending at [m/0], the truncated series itself."""
    c = np.asarray(series, dtype=float)
    _check_orders(c.shape[1], m, n)
    c, rows = c[:, : m + n + 1], len(c)
    q, order = np.eye(1, n + 1).repeat(rows, 0), np.zeros(rows, dtype=int)
    todo = np.flatnonzero(c.any(axis=1))  # an all-zero row's systems are all singular
    padded = np.concatenate((np.zeros((rows, 1)), c), axis=1)
    for nn in range(n, 0, -1):
        if not todo.size:
            break
        i, j = np.ogrid[1 : nn + 1, 1 : nn + 1]  # row i, column j reads c[m + i - j], 0 below c[0]
        A, b = padded[todo][:, np.maximum(m + i - j + 1, 0)], -c[todo, m + 1 : m + nn + 1]
        nonzero = A.any(axis=(1, 2))
        stacked = nonzero & np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
        alone, sol = nonzero & ~stacked, np.full(b.shape, np.nan)
        try:  # b as an explicit column: numpy 1.x and 2.x broadcast it alike
            sol[stacked] = np.linalg.solve(A[stacked], b[stacked, :, None])[..., 0]
        except np.linalg.LinAlgError:
            alone = nonzero
        for r in np.flatnonzero(alone):
            with suppress(np.linalg.LinAlgError):  # a singular system stays NaN
                sol[r] = np.linalg.solve(A[r], b[r])
        done = np.isfinite(sol).all(axis=1)
        q[todo[done], 1 : nn + 1], order[todo[done]], todo = sol[done], nn, todo[~done]
    p = [np.convolve(q[r, : k + 1], c[r, : m + 1])[: m + 1] if k else c[r, : m + 1]
         for r, k in enumerate(order)]  # row by row: a Toeplitz product rounds differently
    return np.array(p).reshape(rows, m + 1), q


def float_pade_block(series, m: int, n: int, lam: float) -> tuple[list[float], list[PoleProximity | None]]:
    """Values at a finite lam of the float [m/n] approximants of the rows of
    `series`, and per row the PoleProximity of the `pade_eval` rule or None;
    each value is bit-identical to the row's own."""
    p, q = _float_pade_rows(series, m, n)
    with np.errstate(all="ignore"):
        num, den = horner(p.T, lam), horner(q.T, lam)
        poles, vals = _near_pole(num, den).tolist(), (num / den).tolist()
    return vals, [PoleProximity(f"denominator {d:.3e} too small at lam={lam}") if pole else None
                  for pole, d in zip(poles, den.tolist())]


@dataclass(frozen=True)
class CriticalResult:
    """A located critical coupling with the approximant-pair uncertainty."""

    n: int
    l: int
    lambda_c: float
    uncertainty: float
    pade_used: str
    notes: tuple[str, ...] = ()
    approximants: tuple[PadeApproximant, ...] = ()


_BITS = 57  # dyadic digits of a root on (0, 1), half the coupling: 2^-56 in lambda


def _scaled(p: Sequence[int], a: int, k: int) -> list[int]:
    """2^(kd) p(a x / 2^k) for p of degree d, constant term first."""
    return [c * a**i << k * (len(p) - 1 - i) for i, c in enumerate(p)]


def _at(p: list[int], a: int, k: int) -> int:
    """2^(kd) p(a / 2^k), of the sign of p there, by Horner's rule in integers."""
    acc = 0
    for i, c in enumerate(reversed(p)):
        acc = acc * a + (c << k * i)
    return acc


def _shift(p: list[int]) -> list[int]:
    """p(x + 1), by d passes of prefix sums over the coefficients from the top."""
    p = p[::-1]
    for k in range(len(p), 1, -1):
        p[:k] = accumulate(p[:k])
    return p[::-1]


def _leftmost_root(p: list[int]) -> tuple[int, int, int] | None:
    """Leftmost root in (0, 1) of an integer p (constant term first, p(0) != 0)
    as (lo, hi, k): it lies in [lo / 2^k, hi / 2^k], with lo == hi for an exact
    dyadic root and else hi = lo + 1 at k = _BITS; None when p has none there.
    Vincent-Collins-Akritas bisection, left half first: the node of
    (c / 2^k, (c + 1) / 2^k) holds q = 2^(kd) p((x + c) / 2^k) on (0, 1) and is
    dropped at Descartes bound 0 (the sign changes of (x + 1)^d q(1 / (x + 1))),
    narrowed by exact sign bisection at bound 1, and halved above that, its right
    half shifted only when popped, where a zero constant term is a root at the
    split.  A node still bounding two or more roots at k = _BITS (a double root
    off the dyadics, or a cluster) is returned as it stands."""
    todo = [(p, 0, 0, False)]
    while todo:
        q, c, k, right = todo.pop()
        if right and not (q := _shift(q))[0]:
            return c, c, k
        signs = [x > 0 for x in _shift(q[::-1]) if x]
        bound = sum(map(ne, signs, signs[1:]))
        if bound == 1:
            s = _at(p, c, k) > 0
            while k < _BITS:
                c, k = 2 * c + 1, k + 1  # the midpoint, left end of the right half
                if not (mid := _at(p, c, k)):
                    return c, c, k
                c -= (mid > 0) != s  # a sign change in the left half: take it
        if bound and k == _BITS:
            return c, c + 1, k
        if bound:
            q = _scaled(q, 1, 1)
            todo += [(q, 2 * c + 1, k + 1, True), (q, 2 * c, k + 1, False)]
    return None


def _track_root(series: Sequence[Fraction], m: int, n: int) -> tuple[float, PadeApproximant, list[str]]:
    """Critical coupling of one approximant, in integers: the leftmost root of
    its numerator N in (0, 2), read on N(2x) (N(0), the zero-coupling level, is
    not 0).  A denominator root in (0, hi], hi the root's upper bound, is a pole
    before the root and steps n down; a pole past the root is expected."""
    notes, nn = [], n
    while True:
        P = pade_with_fallback(series, m, nn)
        root = _leftmost_root(_scaled(P.p, 2, 0))
        if root is None:
            raise NoSignChange(f"the [{P.m}/{P.n}] numerator has no root in (0, 2)"
                               + "".join(f" ({note})" for note in notes))
        lo, hi, k = root
        lam = (lo + hi) / (1 << k)  # the bracket's midpoint on the coupling scale
        D = _scaled(P.q, hi, k - 1)  # D(hi x), whose sum has D(hi)'s sign
        if sum(D) and _leftmost_root(D) is None:
            return lam, P, notes
        notes.append(f"[{P.m}/{P.n}] denominator zero at or below the root {lam:.6g}; reduced n")
        nn = P.n - 1


def default_pade_pair(K: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The Pade pair of a series through order K when none is given: [m/m-1]
    and [m-1/m-1] with m = (K + 1) // 2, at least [1/0] and [0/0].  The two
    share all Hankel rows but one, so `pade` eliminates once for both."""
    m = max((K + 1) // 2, 1)
    return (m, m - 1), (m - 1, m - 1)


def critical_lambda(
    n: int,
    l: int,
    series_order: int = 30,
    pade_pair: tuple[tuple[int, int], tuple[int, int]] | None = None,
) -> CriticalResult:
    """Critical screening strength of level (n, l): the coupling at which the
    resummed energy crosses zero, by the pair of `default_pade_pair(series_order)`
    unless `pade_pair` is given.

    Returns the mean of the two approximants' roots with half their difference
    as the uncertainty.  Levels whose series terminates at the quadratic (the
    l = 0 closed form) are solved exactly from the quadratic instead.  A [0/n]
    order (the default pair below series order 3) is a ValueError.
    """
    pade_pair = pade_pair or default_pade_pair(series_order)
    for orders in pade_pair:
        _check_orders(series_order + 1, *orders)
        if orders[0] == 0:
            raise ValueError(f"[0/{orders[1]}] has a constant numerator, which never crosses zero: "
                             "a critical coupling needs m >= 1 in both orders")
    series = c = hulthen_energy_series(n, l, series_order).coeffs
    if len(c) > 2 and not any(c[3:]) and c[2] and c[1] * c[1] == 4 * c[0] * c[2]:
        # closed quadratic c0 + c1 x + c2 x^2, with discriminant 0 at these levels
        return CriticalResult(n, l, float(-c[1] / (2 * c[2])), 0.0, "closed-form quadratic",
                              ("series terminates at k=2",))
    (root0, P0, notes0), (root1, P1, notes1) = (_track_root(series, *o) for o in pade_pair)
    return CriticalResult(n, l, 0.5 * (root0 + root1), 0.5 * abs(root0 - root1),
                          f"[{P0.m}/{P0.n}] [{P1.m}/{P1.n}]", tuple(notes0 + notes1), (P0, P1))


def reconstruct_energy(
    coeffs: Sequence[Fraction], lams: Sequence[float], pair: tuple[tuple[int, int], tuple[int, int]]
) -> list[tuple[float, float]]:
    """Resummed values of an exact series at each coupling of `lams`: the value
    of the pair's first approximant, with the absolute difference from the
    second's as the uncertainty.  Both are built once, by `pade_with_fallback`."""
    first, second = (pade_with_fallback(coeffs, m, n) for m, n in pair)
    return [(v := pade_eval(first, lam), abs(v - pade_eval(second, lam))) for lam in lams]
