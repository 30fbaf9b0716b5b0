"""The benchmark's workloads: lists of `seaqm` command lines.

Each workload is a fixed list of README commands.  Only `wavefunctions`
adds cases the seed draws, from short lists; the other workloads run the
same commands whatever the seed.  Every case that can be drawn has reference
outputs and exactness digests recorded in `reference/` (see record.py), so a
drawn case is checked like a fixed one.
"""

from __future__ import annotations

import random

WORKLOADS = ("critical-table", "energy-curve", "wavefunctions", "validate")

# README `critical --nmax 9`: 45 Hulthen rungs at K=30 and 72 tracked roots.
CRITICAL = ["critical", "--nmax", "9"]

# README energy curves: 82 exact [21/20]/[20/20] builds on one K=41 chain,
# and the (2,1) screened Coulomb curve.
ENERGY_README = [
    ["energy", "anharmonic", "--r", "0", "--K", "5", "--K-list", "3,4,5",
     "--lambda-range", "0:0.2:41", "--pade", "21/20,20/20"],
    ["energy", "hulthen", "--n", "2", "--l", "1", "--K", "14", "--K-list", "6,10,14",
     "--lambda-range", "0:0.36:37"],
]

WAVE_README = [
    ["wavefunction", "anharmonic", "--r", "0", "--K", "12", "--lambda", "3.0",
     "--pade", "5/5", "--x-range=-5:5:201"],
    # Fails at the seed (exit 3, "integrand overflows before decaying"): the
    # truncated K=10 exponent runs away near lambda_c(2,1).  It stays exactly
    # as the README writes it and is counted as a failed operation.
    ["wavefunction", "hulthen", "--n", "2", "--l", "1", "--K", "10", "--lambda", "0.3"],
]
# Plain (non-resummed) evaluation of two excited screened Coulomb states,
# (5,2) and (6,3) at K=14, each at a seed-drawn coupling well below its
# lambda_c.  The states are fixed so that every draw costs about the same.
WAVE_SLOTS = [
    [["wavefunction", "hulthen", "--n", n, "--l", l, "--K", "14", "--lambda", lam] for lam in lams]
    for n, l, lams in [("5", "2", ["0.01", "0.015", "0.02", "0.025", "0.03"]),
                       ("6", "3", ["0.005", "0.0075", "0.01", "0.0125", "0.015"])]
]

VALIDATE = ["validate"]


def operations(workload: str, seed: int) -> list[list[str]]:
    """The command lines of one pass of `workload`; the seed picks the drawn cases."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "critical-table":
        return [CRITICAL]
    if workload == "energy-curve":
        return ENERGY_README
    if workload == "wavefunctions":
        return WAVE_README + [rng.choice(slot) for slot in WAVE_SLOTS]
    if workload == "validate":
        return [VALIDATE]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def every_operation() -> list[list[str]]:
    """All command lines any seed can produce, for recording references."""
    wave_drawn = [op for slot in WAVE_SLOTS for op in slot]
    return [CRITICAL, *ENERGY_README, *WAVE_README, *wave_drawn, VALIDATE]


def out_name(argv: list[str]) -> str:
    return "out.json" if argv[0] == "validate" else "out.csv"


def key(argv: list[str]) -> str:
    """Reference key of an operation: its command line without `--out`."""
    if "--out" in argv:
        i = argv.index("--out")
        argv = argv[:i] + argv[i + 2:]
    return " ".join(argv)
