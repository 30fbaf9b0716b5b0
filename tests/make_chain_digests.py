"""Golden digests of solved chains: SHA-256 of `ChainSolution.dumps()`.

`tests/test_engine.py` solves the chains below and compares their digests
with `tests/data/chain_digests.json`, so any change of the exact solver that
moves a single rational in a superpotential or energy coefficient fails.
Regenerate the file (only when a change of the chains is intended) from the
repository root with

    PYTHONPATH=src python3 tests/make_chain_digests.py
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from seaqm.engine import Anharmonic, GenericPerturbed, Hulthen, LeadingSuperpotential, solve_chain
from seaqm.exact import LaurentPoly

DIGEST_FILE = Path(__file__).parent / "data" / "chain_digests.json"


def golden_chains() -> dict[str, tuple]:
    """Label -> (family, r_max, K) of every digested chain."""
    coulomb = LeadingSuperpotential(
        pole=Fraction(-1), constant=Fraction(1), linear=Fraction(0), leading_energy=Fraction(-1)
    )
    generic = GenericPerturbed(coulomb, LaurentPoly({1: Fraction(1), 2: Fraction(-1, 3)}))
    chains = {f"hulthen l={l} r<=4 K=30": (Hulthen(l), 4, 30) for l in range(5)}
    chains["anharmonic r<=4 K=41"] = (Anharmonic(), 4, 41)
    chains["generic coulomb x-x^2/3 r<=2 K=12"] = (generic, 2, 12)
    oscillator = LeadingSuperpotential(pole=0, constant=Fraction(1, 2), linear=1, leading_energy=Fraction(3, 4))
    chains["generic oscillator c=1/2 x^3 r<=2 K=12"] = (GenericPerturbed(oscillator, LaurentPoly.monomial(3)), 2, 12)
    half_pole = LeadingSuperpotential(pole=Fraction(-3, 2), constant=1, linear=0, leading_energy=-1)
    chains["generic coulomb p=-3/2 x r<=2 K=12"] = (GenericPerturbed(half_pole, LaurentPoly.monomial(1)), 2, 12)
    return chains


def chain_digest(family, r_max: int, K: int) -> str:
    return hashlib.sha256(solve_chain(family, r_max, K).dumps().encode()).hexdigest()


def main() -> None:
    digests = {label: chain_digest(*spec) for label, spec in golden_chains().items()}
    DIGEST_FILE.write_text(json.dumps(digests, indent=2) + "\n")


if __name__ == "__main__":
    main()
