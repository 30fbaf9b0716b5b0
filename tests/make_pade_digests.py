"""Golden digests of exact Pade approximants: SHA-256 of the sorted JSON of
`PadeApproximant.to_json()`.

`tests/test_resummation.py` rebuilds the approximants below and compares their
digests with `tests/data/pade_digests.json`, so any change of the exact Pade
build that moves a single rational coefficient fails.  The approximants are
every one `critical_lambda(n, l)` keeps for n <= 9 (spurious-pole retries
included) and the [21/20] and [20/20] `pade_with_fallback` builds of the
anharmonic r = 0, 1 energy series at K = 41.  Regenerate the file (only when
a change of the approximants is intended) from the repository root with

    PYTHONPATH=src python3 tests/make_pade_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from seaqm.resummation import PadeApproximant, critical_lambda, pade_with_fallback
from seaqm.spectra import anharmonic_energy_series

DIGEST_FILE = Path(__file__).parent / "data" / "pade_digests.json"


def pade_digest(P: PadeApproximant) -> str:
    return hashlib.sha256(json.dumps(P.to_json(), sort_keys=True).encode()).hexdigest()


def golden_pade_digests() -> dict[str, str]:
    """Label -> digest of every golden approximant."""
    # one l-ladder at a time, n ascending (the chain cache holds one ladder);
    # the labels are listed n outer
    kept = {(n, l): critical_lambda(n, l).approximants for l in range(9) for n in range(l + 1, 10)}
    digests = {}
    for n, l in sorted(kept):
        for i, P in enumerate(kept[n, l]):
            digests[f"critical n={n} l={l} #{i} [{P.m}/{P.n}]"] = pade_digest(P)
    for r in (0, 1):
        coeffs = anharmonic_energy_series(r, 41).coeffs
        for m, n in ((21, 20), (20, 20)):
            digests[f"anharmonic r={r} K=41 [{m}/{n}]"] = pade_digest(pade_with_fallback(coeffs, m, n))
    return digests


def main() -> None:
    DIGEST_FILE.write_text(json.dumps(golden_pade_digests(), indent=2) + "\n")


if __name__ == "__main__":
    main()
