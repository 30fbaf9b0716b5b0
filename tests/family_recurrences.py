"""Family-specific recurrence relations, implemented independently of the
generic triangular solver, for use as test oracles.

Polynomials are plain ``{exponent: Fraction}`` dicts here so the oracle does
not depend on the package's arithmetic classes; ``dict_add``, ``dict_mul``
and ``dict_derivative`` are the reference for ``LaurentPoly``'s integer
kernel.  Bernoulli numbers come from
the Akiyama-Tanigawa scheme, a different algorithm from the package's double
sum.

Two readings are fixed relative to the commonly tabulated recurrences (both
were cross-checked against the exact Riccati identity and numerically against
the finite-difference eigensolver):
  * the constant inhomogeneity enters the screened Coulomb energy row as
    h_1 * delta_{k,1} (i.e. +1), which is what reproduces eps_1 = 1;
  * the lower-rung sum in the anharmonic descending row carries the same
    (alpha + 1) factor as the rung's own term, as dictated by the partner
    rule v_r = v_{r-1} + 2 W_{r-1}'.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

F = Fraction


def bernoulli_at(n: int) -> Fraction:
    """B_0..B_n by Akiyama-Tanigawa (minus convention), return B_n."""
    a = [F(0)] * (n + 1)
    out = F(0)
    for m in range(n + 1):
        a[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out = a[0]
    return -out if n == 1 else out  # AT yields B_1 = +1/2; flip to minus convention


def plain(p) -> dict:
    """A polynomial's nonzero terms as a plain ``{exponent: Fraction}`` dict."""
    return dict(p.items())


def dict_add(a: dict, b: dict, scale: Fraction | int = 1) -> dict:
    """a + scale * b."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + scale * c
    return {e: c for e, c in out.items() if c}


def dict_mul(a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dict_derivative(a: dict) -> dict:
    return {e - 1: e * c for e, c in a.items() if e}


def _conv_excluding_zero(w: list[dict], k: int) -> dict:
    acc: dict[int, Fraction] = {}
    for m in range(1, k):
        for e1, c1 in w[m].items():
            for e2, c2 in w[k - m].items():
                acc[e1 + e2] = acc.get(e1 + e2, F(0)) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def hulthen_rung(b: int, r: int, K: int, lower_w: list[list[dict]]) -> tuple[list[dict], list[Fraction]]:
    """Orders 0..K of screened Coulomb rung r via the descending-alpha rules.

    ``lower_w[q][k]`` are the already-solved superpotential coefficient dicts
    of rungs q < r.
    """
    br = b + r
    h = [-2 * bernoulli_at(k) for k in range(K + 1)]
    w: list[dict] = [{-1: F(-br), 0: F(1, br)}]
    eps: list[Fraction] = [F(-1, br * br)]
    for k in range(1, K + 1):
        B = _conv_excluding_zero(w, k)
        wk: dict[int, Fraction] = {}
        if k >= 2:
            wk[k - 1] = F(br, 2) * F(h[k], factorial(k))
            for alpha in range(k - 2, 1, -1):
                low = sum(q[k].get(alpha + 1, F(0)) for q in lower_w)
                wk[alpha] = F(br, 2) * (
                    (2 * br + alpha + 1) * wk.get(alpha + 1, F(0))
                    + 2 * (alpha + 1) * low
                    - B.get(alpha, F(0))
                )
            if k >= 3:
                low2 = sum(q[k].get(2, F(0)) for q in lower_w)
                wk[1] = br * ((br + 1) * wk.get(2, F(0)) + 2 * low2)
        wk = {a: c for a, c in wk.items() if c}
        low1 = sum(q[k].get(1, F(0)) for q in lower_w)
        e = (2 * br + 1) * wk.get(1, F(0)) + 2 * low1
        if k == 1:
            e += h[1]  # the constant potential term lands in the energy row
        w.append(wk)
        eps.append(e)
    return w, eps


def anharmonic_rung(r: int, K: int, lower_w: list[list[dict]]) -> tuple[list[dict], list[Fraction]]:
    """Orders 0..K of anharmonic rung r, seeded at k = 0, 1."""
    w: list[dict] = [{1: F(1)}]
    eps: list[Fraction] = [F(2 * r + 1)]
    if K >= 1:
        w.append({1: F(3, 4) * (2 * r + 1), 3: F(1, 2)})
        eps.append(F(3, 2) * (F(r * r + r) + F(1, 2)))
    for k in range(2, K + 1):
        B = _conv_excluding_zero(w, k)
        wk: dict[int, Fraction] = {2 * k + 1: -F(1, 2) * B.get(2 * k + 2, F(0))}
        for alpha in range(2 * k, 1, -2):
            low = sum(q[k].get(alpha + 1, F(0)) for q in lower_w)
            wk[alpha - 1] = (alpha + 1) * low + F(1, 2) * (
                (alpha + 1) * wk.get(alpha + 1, F(0)) - B.get(alpha, F(0))
            )
        wk = {a: c for a, c in wk.items() if c}
        low1 = sum(q[k].get(1, F(0)) for q in lower_w)
        w.append(wk)
        eps.append(wk.get(1, F(0)) + 2 * low1)
    return w, eps


def hulthen_ladder(l: int, r_max: int, K: int) -> list[tuple[list[dict], list[Fraction]]]:
    rungs = []
    lower: list[list[dict]] = []
    for r in range(r_max + 1):
        w, eps = hulthen_rung(l + 1, r, K, lower)
        rungs.append((w, eps))
        lower.append(w)
    return rungs


def anharmonic_ladder(r_max: int, K: int) -> list[tuple[list[dict], list[Fraction]]]:
    rungs = []
    lower: list[list[dict]] = []
    for r in range(r_max + 1):
        w, eps = anharmonic_rung(r, K, lower)
        rungs.append((w, eps))
        lower.append(w)
    return rungs
