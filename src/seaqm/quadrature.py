"""QUADPACK's adaptive quadrature QAGS, ported line for line to Python floats.

`qags` is `dqagse` with the routines it calls: `dqk21` (the 21-point
Gauss-Kronrod rule), `dqpsrt` (the list of intervals ordered by error
estimate) and `dqelg` (Wynn's epsilon algorithm, which extrapolates the
sequence of interval sums).  Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, *QUADPACK*, Springer 1983.

The port keeps QUADPACK's decimal constants, its 1-based interval lists and
the operation order of every floating-point expression, so on the same
integrand values it returns the same bits as the Fortran `dqagse` on a
finite interval (the tests compare the two).  Python floats raise
where C would not only on division by zero and on an overflowing ``**``; the
one unguarded QUADPACK division goes through `_quotient`, and no ``**`` here
can overflow.

The integrand is a panel function: ``panel(xs)`` returns the integrand at
xs, first the 21 abscissae of one Kronrod rule, then per bisection the 42 of
both halves, left first (`dqagse` evaluates both before it decides anything),
each rule's in the order `dqk21` evaluates them (the centre, then the pairs
``centre -/+ h*xgk(j)`` for j = 2, 4, ..., 10, then for j = 1, 3, ..., 9).  An
evaluator that fills the values in that order raises the same first error as
a pointwise integrand would.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from operator import add
from typing import Callable, Sequence

__all__ = ["qags"]

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_LIMEXP = 50  # dqelg: the epsilon table holds at most _LIMEXP + 2 elements

# dqk21's abscissae xgk and weights wgk of the 21-point Kronrod rule, and the
# weights wg of the embedded 10-point Gauss rule (whose abscissae are xgk(2),
# xgk(4), ..., xgk(10)); index i here is QUADPACK's i + 1.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# The abscissa pairs in dqk21's evaluation order: the Gauss nodes, then the
# Kronrod-only nodes.  Pair m sits at panel slots 2m + 1 and 2m + 2.
_PAIRS = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_SLOT = tuple(2 * _PAIRS.index(j) + 1 for j in range(10))


def _nodes(a: float, b: float) -> list[float]:
    """The 21 abscissae of the Kronrod rule on [a, b], in dqk21's order."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    xs = [centr]
    for j in _PAIRS:
        absc = hlgth * _XGK[j]
        xs += (centr - absc, centr + absc)
    return xs


def _dqk21(f: Sequence[float], a: float, b: float):
    """(result, abserr, resabs, resasc) of the 21-point rule on [a, b] from f at `_nodes(a, b)`."""
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fc = f[0]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in range(5):
        fval1, fval2 = f[2 * j + 1], f[2 * j + 2]
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[2 * j + 1] * fsum
        resabs = resabs + _WGK[2 * j + 1] * (abs(fval1) + abs(fval2))
    for j in range(5):
        fval1, fval2 = f[2 * j + 11], f[2 * j + 12]
        fsum = fval1 + fval2
        resk = resk + _WGK[2 * j] * fsum
        resabs = resabs + _WGK[2 * j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        s = _SLOT[j]
        resasc = resasc + _WGK[j] * (abs(f[s] - reskh) + abs(f[s + 1] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # |resk - resg| is at most a few times resasc / hlgth: no overflow
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(limit: int, last: int, maxerr: int, elist: list[float], iord: list[int], nrmax: int):
    """Keep iord(1..) ordered by decreasing error after a bisection; return
    the next interval to bisect (maxerr), its error and nrmax."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # a bisection that raised the error: start the insertion higher up
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only as many intervals as can still be bisected are kept in order
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax top down, then errmin bottom up
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab: list[float], res3la: list[float], nres: int):
    """One step of the epsilon algorithm on epstab(1..n); return the new n,
    the extrapolated value, its error estimate and the call count nres."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two elements very close, or irregular behaviour: cut the table at i
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _quotient(p: float, q: float) -> float:
    """p / q with IEEE semantics at q = 0."""
    if q != 0.0:
        return p / q
    if p == 0.0 or math.isnan(p):
        return math.nan
    return math.copysign(math.inf, p) * math.copysign(1.0, q)


def qags(
    panel: Callable[[list[float]], Sequence[float]],
    a: float,
    b: float,
    epsabs: float = 1.49e-8,
    epsrel: float = 1.49e-8,
    limit: int = 50,
) -> tuple[float, float, int, int, int]:
    """Integrate over [a, b] to max(epsabs, epsrel * |integral|) with QUADPACK
    `dqagse`; `panel(xs)` gives the integrand at xs, called `last` times (21
    abscissae, then 42 per bisection; see the module docstring).

    Returns (result, abserr, neval, ier, last), as `dqagse` does: ier is 0 on
    success; 1 the limit of `limit` subintervals was reached; 2 roundoff
    prevents the tolerance; 3 bad integrand behaviour at some point; 4
    roundoff in the extrapolation table; 5 the integral is probably divergent
    or slowly convergent; 6 invalid input (limit < 1, or epsabs <= 0 with
    epsrel below max(50 * epsilon, 5e-29)).  `last` is the number of
    subintervals used and neval = 42 * last - 21 the number of integrand
    values.  Errors raised by `panel` propagate.
    """
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28)):
        return 0.0, 0.0, 0, 6, 0
    alist, blist, rlist, elist = ([0.0] * (limit + 1) for _ in range(4))
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    ier = 0
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ierro = 0
    result, abserr, defabs, resabs = _dqk21(panel(_nodes(a, b)), a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier, last

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    summed = False  # dqagse's label 115: the result is the sum over the intervals
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        f = panel(_nodes(a1, b1) + _nodes(a2, b2))  # both halves, in one call
        area1, error1, resabs, defab1 = _dqk21(f[:21], a1, b1)
        area2, error2, resabs, defab2 = _dqk21(f[21:], a2, b2)

        # improve the approximations to the integral and error; count roundoff
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the two halves, the one with the larger error at maxerr
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: first bisect the
            # larger intervals, in order of their errors, while there are any
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # prepare to bisect the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # dqagse's labels 100 to 115: keep the extrapolated result, or sum the intervals
    summed = summed or abserr == _OFLOW
    test_divergence = not summed
    if not summed and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        else:
            summed = abserr > errsum
        test_divergence = not summed and area != 0.0
    if test_divergence and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        ratio = _quotient(result, area)
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    if summed:
        result = reduce(add, rlist[1 : last + 1], 0.0)  # left to right, no compensated sum
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, 42 * last - 21, ier, last
