"""Command-line interface tests (run in-process through main)."""

import hashlib
import json

import pytest

import seaqm.resummation
from seaqm.cli import main


def run(args):
    return main(args)


def read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = json.loads(value)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


# ------------------------------------------------------------------ coeffs --


def test_coeffs_hulthen_2s(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["coeffs", "hulthen", "--n", "2", "--l", "0", "--K", "5", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["k", "coefficient", "exact"]
    assert [r[2] for r in rows] == ["-1/4", "1", "-1", "0", "0", "0"]
    assert meta["command"] == "coeffs"
    assert meta["version"]


def test_coeffs_anharmonic_json(tmp_path):
    out = tmp_path / "c.json"
    assert run(
        ["coeffs", "anharmonic", "--r", "0", "--K", "3", "--format", "json", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["series"]["coeffs"] == ["1", "3/4", "-21/16", "333/64"]


def test_coeffs_trivial_level(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["coeffs", "hulthen", "--n", "1", "--l", "0", "--K", "0", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert [r[2] for r in rows] == ["-1"]


def test_coeffs_with_superpotential_sidecar(tmp_path):
    out = tmp_path / "c.csv"
    assert run(
        ["coeffs", "hulthen", "--n", "2", "--l", "1", "--K", "3",
         "--with-superpotential", "--out", str(out)]
    ) == 0
    side = json.loads((tmp_path / "c.superpotential.json").read_text())
    assert side["chain"]["b"] == 2 and side["chain"]["rMax"] == 0


def test_coeffs_bad_labels_exit_2(capsys):
    assert run(["coeffs", "hulthen", "--n", "2", "--l", "2"]) == 2
    assert "l <= n-1" in capsys.readouterr().err


# ------------------------------------------------------------------ energy --


def test_energy_zero_coupling_rows(tmp_path):
    out = tmp_path / "e.csv"
    assert run(
        ["energy", "hulthen", "--n", "2", "--l", "1", "--K", "6",
         "--lambda-range", "0:0.2:3", "--pade", "8/6,6/6", "--out", str(out)]
    ) == 0
    meta, header, rows = read_csv(out)
    assert header[0] == "lambda" and "pade" in header
    first = rows[0]
    assert float(first[0]) == 0.0
    assert float(first[1]) == -0.25  # Coulomb value at zero coupling
    assert float(first[-2]) == -0.25


def test_energy_csv_json_same_numbers(tmp_path):
    args = ["energy", "anharmonic", "--r", "0", "--K", "5", "--K-list", "3,5",
            "--lambda-range", "0:0.125:2", "--pade", "21/20,20/20"]
    csv_out, json_out = tmp_path / "e.csv", tmp_path / "e.json"
    assert run(args + ["--out", str(csv_out)]) == 0
    assert run(args + ["--format", "json", "--out", str(json_out)]) == 0
    _, header, rows = read_csv(csv_out)
    data = json.loads(json_out.read_text())["data"]
    for row, rec in zip(rows, data):
        for name, cell in zip(header, row):
            assert float(cell) == float(rec[name])


def test_energy_warns_beyond_critical(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert run(
        ["energy", "hulthen", "--n", "1", "--l", "0", "--K", "4",
         "--lambda-range", "0:3:4", "--pade", "2/2,2/1", "--out", str(out)]
    ) == 0
    assert "critical" in capsys.readouterr().err


@pytest.fixture
def pade_builds(monkeypatch):
    """The (m, n) of every exact Pade approximant built while the test runs."""
    builds = []
    pade = seaqm.resummation.pade

    def counting(*args):
        builds.append(args[1:])
        return pade(*args)

    monkeypatch.setattr(seaqm.resummation, "pade", counting)
    return builds


def test_energy_builds_each_approximant_once(pade_builds, capsys):
    # the README anharmonic curve; its CSV digest was recorded before the
    # approximant builds were moved out of the per-lambda loop
    builds = pade_builds
    args = ["energy", "anharmonic", "--r", "0", "--K", "5", "--K-list", "3,4,5",
            "--pade", "21/20,20/20"]
    assert run(args + ["--lambda", "0.1"]) == 0
    single, builds[:] = list(builds), []
    capsys.readouterr()
    assert run(args + ["--lambda-range", "0:0.2:41"]) == 0
    assert builds == single == [(21, 20), (20, 20)]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "21da9cbb8fd182ccf25549573f80a45e03c7ee25573227e643ff339f421ec1f6"
    )


# ---------------------------------------------------------------- critical --


def test_critical_small_table(tmp_path, monkeypatch):
    monkeypatch.setenv("SEA_THREADS", "1")
    out = tmp_path / "t.csv"
    assert run(["critical", "--nmax", "2", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["n", "l", "lambda_c", "uncertainty", "pade_used"]
    table = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    assert table[(1, 0)] == 2.0
    assert table[(2, 0)] == 0.5
    assert abs(table[(2, 1)] - 0.3767388) <= 5e-7


def test_critical_resume_skips_done_cells(tmp_path, monkeypatch):
    monkeypatch.setenv("SEA_THREADS", "1")
    progress = tmp_path / "progress.json"
    sentinel = {"1,0": {"n": 1, "l": 0, "lambda_c": 123.0, "uncertainty": 0.0,
                        "pade_used": "sentinel", "notes": []}}
    progress.write_text(json.dumps(sentinel))
    out = tmp_path / "t.csv"
    assert run(["critical", "--nmax", "1", "--resume", str(progress), "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert float(rows[0][2]) == 123.0  # the resumed cell was not recomputed


# ------------------------------------------------------------ wavefunction --


def test_wavefunction_hydrogen_2p_peak(tmp_path):
    out = tmp_path / "w.csv"
    assert run(
        ["wavefunction", "hulthen", "--n", "2", "--l", "1", "--K", "2",
         "--lambda", "0.0", "--x-range", "0:20:201", "--out", str(out)]
    ) == 0
    meta, header, rows = read_csv(out)
    dens = [(float(r[0]), float(r[4])) for r in rows]
    peak_x = max(dens, key=lambda t: t[1])[0]
    assert peak_x == pytest.approx(4.0, abs=0.2)  # hydrogen 2p radial density peaks at 4
    total = sum(d for _, d in dens) * (dens[1][0] - dens[0][0])
    assert total == pytest.approx(1.0, abs=5e-3)
    assert (tmp_path / "w.meta.json").exists()


def test_wavefunction_single_point_x_range(tmp_path):
    out = tmp_path / "w.csv"
    assert run(
        ["wavefunction", "anharmonic", "--r", "0", "--K", "4", "--lambda", "0",
         "--x-range=-1:1:1", "--out", str(out)]
    ) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 1 and float(rows[0][0]) == -1.0


def test_wavefunction_malformed_x_range_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["wavefunction", "anharmonic", "--r", "0", "--K", "4", "--lambda", "0",
             "--x-range=-1:1"])
    assert exc.value.code == 2


def test_wavefunction_rejects_beyond_critical(tmp_path, capsys):
    assert run(
        ["wavefunction", "hulthen", "--n", "1", "--l", "0", "--K", "2",
         "--lambda", "2.5"]
    ) == 2


def test_wavefunction_compactification_with_coupling(tmp_path):
    # anharmonic ground density contracts toward the origin as the coupling grows
    variances = []
    for lam, pade in [(0.0, None), (1.0, "5/5"), (3.0, "5/5")]:
        out = tmp_path / f"w{lam}.csv"
        args = ["wavefunction", "anharmonic", "--r", "0", "--K", "12",
                "--lambda", str(lam), "--x-range=-6:6:241", "--out", str(out)]
        if pade:
            args += ["--pade", pade]
        assert run(args) == 0
        _, _, rows = read_csv(out)
        xs = [float(r[0]) for r in rows]
        dens = [float(r[4]) for r in rows]
        h = xs[1] - xs[0]
        var = sum(x * x * d for x, d in zip(xs, dens)) * h
        variances.append(var)
    assert variances[0] > variances[1] > variances[2]


def test_wavefunction_computation_failure_exit_3(tmp_path, capsys):
    # runaway truncated exponent: not normalizable, reported as a computation
    # error that names where the density stopped decaying and what to do
    assert run(
        ["wavefunction", "anharmonic", "--r", "0", "--K", "2", "--lambda", "5.0"]
    ) == 3
    assert capsys.readouterr().err == (
        "computation failed: integrand never decays (tail cutoff 1e-16) and overflows at "
        "x = 2.5: the truncated series breaks down before the state decays; resum it "
        "(--pade) or use a smaller lambda\n"
    )
    assert run(
        ["wavefunction", "anharmonic", "--r", "0", "--K", "8", "--lambda", "0.1"]
    ) == 3
    assert capsys.readouterr().err == (
        "computation failed: integrand stops decaying at x = 3.5, at 1.61e-06 of its peak "
        "(tail cutoff 1e-16) and overflows at x = 5.5: the truncated series breaks down "
        "before the state decays; resum it (--pade) or use a smaller lambda\n"
    )


def test_wavefunction_pade_rejects_negative_radial_x_exit_3(capsys):
    assert run(
        ["wavefunction", "hulthen", "--n", "2", "--l", "1", "--K", "10", "--lambda", "0.1",
         "--pade", "5/5", "--x-range=-2:2:3"]
    ) == 3
    assert "radial states are defined for x >= 0" in capsys.readouterr().err


def test_wavefunction_pade_values_pinned(tmp_path):
    # the README coupling resummed pointwise by the float [5/5]; psi and the
    # norm were recorded before, from the exact Pade of the rationalized series
    out = tmp_path / "w.csv"
    assert run(
        ["wavefunction", "anharmonic", "--r", "0", "--K", "12", "--lambda", "3.0",
         "--pade", "5/5", "--x-range=-3:3:7", "--out", str(out)]
    ) == 0
    meta, _, rows = read_csv(out)
    assert meta["norm"] == pytest.approx(0.8826934622218234, rel=1e-10)
    assert meta["pade"] == "5/5"
    psi = {float(r[0]): float(r[1]) for r in rows}
    recorded = {
        -3.0: 0.0005133211965241116,
        -1.0: 0.3675306351984871,
        0.0: 1.0,
        2.0: -0.005475957004554274,
        3.0: 0.0005133211965241116,
    }
    for x, value in recorded.items():
        assert psi[x] == pytest.approx(value, rel=1e-10)


def test_wavefunction_pade_builds_no_exact_approximant(pade_builds, capsys):
    # the README command; the rationalized exact path built 2852 approximants
    assert run(
        ["wavefunction", "anharmonic", "--r", "0", "--K", "12", "--lambda", "3.0",
         "--pade", "5/5", "--x-range=-5:5:201"]
    ) == 0
    assert pade_builds == []


@pytest.mark.parametrize(
    "args, text",
    [
        (["wavefunction", "anharmonic", "--r", "0", "--K", "12", "--lambda", "3.0"], "5/-1"),
        (["wavefunction", "anharmonic", "--r", "0", "--K", "12", "--lambda", "3.0"], "5/5/5"),
        (["wavefunction", "anharmonic", "--r", "0", "--K", "12", "--lambda", "3.0"], "5/5,4/4"),
        (["wavefunction", "anharmonic", "--r", "0", "--K", "12", "--lambda", "3.0"], "five/5"),
        (["energy", "anharmonic", "--r", "0", "--K", "41", "--lambda", "0.1"], "21/20,20/-1"),
        (["energy", "anharmonic", "--r", "0", "--K", "41", "--lambda", "0.1"], "21/20,20/20,19/19"),
        (["energy", "anharmonic", "--r", "0", "--K", "41", "--lambda", "0.1"], "21-20"),
        (["critical", "--nmax", "2"], "-1/4"),
        (["critical", "--nmax", "2"], "15/14,"),
    ],
)
def test_malformed_pade_order_exit_2(args, text, capsys):
    # rejected while parsing, before any chain is solved
    with pytest.raises(SystemExit) as exc:
        run(args + [f"--pade={text}"])
    assert exc.value.code == 2
    assert "argument --pade: expected m/n" in capsys.readouterr().err


# ---------------------------------------------------------------- validate --


def test_validate_coefficients_pass(tmp_path):
    out = tmp_path / "v.json"
    assert run(["validate", "--suite", "coefficients", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    assert doc["suites"][0]["checks"] > 50


def test_validate_negative_control(tmp_path):
    out = tmp_path / "v.json"
    assert run(
        ["validate", "--suite", "coefficients", "--inject-error", "--out", str(out)]
    ) == 1
    doc = json.loads(out.read_text())
    assert doc["status"] == "fail"
    assert doc["suites"][0]["failures"]


def test_validate_table1_subset(tmp_path):
    out = tmp_path / "v.json"
    assert run(["validate", "--suite", "table1", "--nmax", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["suites"][0]["checks"] == 6
    assert doc["status"] == "pass"


def test_critical_parallel_pool(tmp_path, monkeypatch):
    monkeypatch.setenv("SEA_THREADS", "2")
    out = tmp_path / "t.json"
    assert run(
        ["critical", "--nmax", "2", "--format", "json", "--embed-approximants",
         "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    cell = {(rec["n"], rec["l"]): rec for rec in doc["data"]}
    assert abs(cell[(2, 1)]["lambda_c"] - 0.3767388) <= 5e-7
    approx = cell[(2, 1)]["approximants"]
    assert len(approx) == 2 and approx[0]["m"] == 15 and approx[0]["n"] == 14
    assert approx[0]["denominator"][0] == "1"


def test_validate_oracle_suite(tmp_path):
    out = tmp_path / "v.json"
    assert run(["validate", "--suite", "oracle", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    recs = doc["records"]
    assert len(recs) == 4
    for rec in recs:
        assert set(rec) >= {
            "problem", "lambda", "level", "series_value", "pade_value",
            "oracle_value", "abs_diff", "rel_diff", "grid",
        }
        assert rec["rel_diff"] < 1e-4


def test_wavefunction_near_critical_peak_shift(tmp_path):
    # the radial density peak moves to larger radius as the critical
    # screening is approached (delocalization onset)
    peaks = []
    for lam in (0.0, 0.3):
        out = tmp_path / f"w{lam}.csv"
        assert run(
            ["wavefunction", "hulthen", "--n", "2", "--l", "1", "--K", "12",
             "--lambda", str(lam), "--x-range", "0:40:401", "--out", str(out)]
        ) == 0
        _, _, rows = read_csv(out)
        peaks.append(max(((float(r[0]), float(r[4])) for r in rows), key=lambda t: t[1])[0])
    assert peaks[1] > peaks[0] + 0.3
