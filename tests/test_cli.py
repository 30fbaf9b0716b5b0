"""Command-line interface tests (run in-process through main)."""

import hashlib
import json
from fractions import Fraction

import pytest

import seaqm.cli
import seaqm.resummation
import seaqm.states
import seaqm.validation
from seaqm.cli import main
from seaqm.engine import _solve_chain_cached
from seaqm.validation import coefficient_suite
from seaqm.errors import NoSignChange


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


@pytest.mark.parametrize(
    "args",
    [
        ["coeffs", "hulthen", "--n", "2", "--l", "1"],
        ["validate", "--suite", "coefficients"],
    ],
)
def test_unwritable_out_exit_2(args, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert run([*args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: cannot use {out}: No such file or directory\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["validate"], "--out"),
        (["critical", "--nmax", "2"], "--resume"),
        (["critical", "--nmax", "2"], "--out"),
    ],
)
@pytest.mark.parametrize("where", ["missing folder", "folder"])
def test_unusable_path_exit_2_before_any_work(args, flag, where, tmp_path, capsys, monkeypatch):
    def forbidden(*_):
        raise AssertionError("work started before the path was checked")

    monkeypatch.setattr(seaqm.cli, "oracle_suite", forbidden)
    monkeypatch.setattr(seaqm.cli, "_critical_group", forbidden)
    monkeypatch.setenv("SEA_THREADS", "1")
    path = str(tmp_path / "missing" / "p.json") if where == "missing folder" else str(tmp_path)
    assert run([*args, flag, path]) == 2
    reason = "No such file or directory" if where == "missing folder" else "Is a directory"
    assert capsys.readouterr().err == f"error: cannot use {path}: {reason}\n"


def test_coeffs_bad_labels_exit_2(capsys):
    assert run(["coeffs", "hulthen", "--n", "2", "--l", "2"]) == 2
    assert "l <= n-1" in capsys.readouterr().err


def test_energy_negative_K_list_exit_2(capsys):
    args = ["energy", "hulthen", "--n", "2", "--l", "1", "--K", "6", "--K-list=-1,3",
            "--lambda-range", "0:0.1:2"]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert "--K-list order >= 0" in captured.err and not captured.out


def test_energy_lambda_and_range_exclusive_exit_2(capsys):
    # a single coupling and a range together: neither silently wins
    args = ["energy", "hulthen", "--n", "2", "--l", "1", "--K", "4", "--lambda", "0.1",
            "--lambda-range", "0:0.1:2"]
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --lambda-range: not allowed with argument --lambda" in captured.err
    assert not captured.out


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


@pytest.mark.parametrize(
    "level", [["hulthen", "--n", "1", "--l", "0"], ["anharmonic", "--r", "0"]]
)
def test_energy_order_zero_uses_pair_1_0(level, tmp_path):
    # the default pair at K = 0 is [1/0], [0/0], as if given explicitly
    out, explicit = tmp_path / "e.csv", tmp_path / "explicit.csv"
    args = ["energy", *level, "--K", "0", "--lambda", "0.1"]
    assert run(args + ["--out", str(out)]) == 0
    assert run(args + ["--pade", "1/0,0/0", "--out", str(explicit)]) == 0
    meta, _, rows = read_csv(out)
    assert meta["pade_pair"] == [[1, 0], [0, 0]] and meta["order"] == 1
    assert rows == read_csv(explicit)[2]


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


def test_critical_table_holds_one_ladder(tmp_path, monkeypatch):
    # the table walks one l-ladder at a time, n ascending: each of its 45
    # rungs is solved once, and the chain cache ends holding one ladder
    monkeypatch.setenv("SEA_THREADS", "1")
    _solve_chain_cached.cache_clear()
    assert run(["critical", "--nmax", "9", "--out", str(tmp_path / "t.csv")]) == 0
    info = _solve_chain_cached.cache_info()
    assert (info.misses, info.currsize) == (45, 1)


def test_critical_resume_skips_done_cells(tmp_path, monkeypatch):
    monkeypatch.setenv("SEA_THREADS", "1")
    progress = tmp_path / "progress.json"
    sentinel = {"1,0": {"n": 1, "l": 0, "lambda_c": 123.0, "uncertainty": 0.0,
                        "pade_used": "sentinel", "notes": []}}
    parameters = {"K": 30, "pade": "15/14,14/14", "embed_approximants": False}
    progress.write_text(json.dumps({"parameters": parameters, "cells": sentinel}))
    out = tmp_path / "t.csv"
    assert run(["critical", "--nmax", "1", "--resume", str(progress), "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert float(rows[0][2]) == 123.0  # the resumed cell was not recomputed


def test_critical_resume_saves_each_group(tmp_path, monkeypatch):
    # --nmax 2 runs two l-groups: l = 0 with n = 1, 2, then l = 1 with n = 2
    monkeypatch.setenv("SEA_THREADS", "1")
    progress = tmp_path / "progress.json"
    out = tmp_path / "t.csv"
    argv = ["critical", "--nmax", "2", "--resume", str(progress), "--out", str(out)]
    calls, fail_on = [], {(2, 1)}

    def fake(n, l, order, pair):
        calls.append((n, l))
        if (n, l) in fail_on:
            raise NoSignChange("second group fails")
        return seaqm.resummation.CriticalResult(n, l, 10.0 * n + l, 0.0, "fake")

    monkeypatch.setattr("seaqm.cli.critical_lambda", fake)
    assert run(argv) == 3
    assert calls == [(1, 0), (2, 0), (2, 1)]
    assert sorted(json.loads(progress.read_text())["cells"]) == ["1,0", "2,0"]
    assert not progress.with_name("progress.json.tmp").exists()
    calls.clear()
    fail_on.clear()
    assert run(argv) == 0
    assert calls == [(2, 1)]  # only the failed group is computed again
    _, _, rows = read_csv(out)
    assert [float(r[2]) for r in rows] == [10.0, 20.0, 21.0]
    assert sorted(json.loads(progress.read_text())["cells"]) == ["1,0", "2,0", "2,1"]


def test_critical_resume_writes_cells_in_table_order(tmp_path, monkeypatch):
    # with workers, l-groups finish in any order; here the pool hands them back
    # in reverse, and the progress file still lists the cells n outer, l inner
    import concurrent.futures

    handed = []

    def reverse_completion(futures):
        handed.append(len(futures))
        return reversed(list(futures))

    monkeypatch.setenv("SEA_THREADS", "2")
    monkeypatch.setattr(concurrent.futures, "as_completed", reverse_completion)
    progress = tmp_path / "progress.json"
    argv = ["critical", "--nmax", "4", "--resume", str(progress), "--out", str(tmp_path / "t.csv")]
    assert run(argv) == 0
    assert handed == [4]
    table = [f"{n},{l}" for n in range(1, 5) for l in range(n)]
    assert list(json.loads(progress.read_text())["cells"]) == table


def test_critical_resume_rejects_changed_parameters(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SEA_THREADS", "1")
    progress = tmp_path / "progress.json"
    out = tmp_path / "t.csv"
    monkeypatch.setattr(
        "seaqm.cli.critical_lambda",
        lambda n, l, order, pair: seaqm.resummation.CriticalResult(n, l, 1.0, 0.0, "fake"),
    )
    argv = ["critical", "--nmax", "1", "--resume", str(progress), "--out", str(out)]
    assert run(argv + ["--K", "30"]) == 0
    assert json.loads(progress.read_text())["parameters"] == {
        "K": 30, "pade": "15/14,14/14", "embed_approximants": False,
    }
    saved = progress.read_text()
    capsys.readouterr()
    assert run(argv + ["--K", "20"]) == 2
    assert "--K 30, this run has --K 20" in capsys.readouterr().err
    assert run(argv + ["--pade", "10/9,9/9"]) == 2
    assert '--pade "15/14,14/14", this run has --pade "10/9,9/9"' in capsys.readouterr().err
    assert run(argv + ["--format", "json", "--embed-approximants"]) == 2
    assert "--embed-approximants false, this run has --embed-approximants true" in capsys.readouterr().err
    assert progress.read_text() == saved  # a rejected run leaves the file alone
    progress.write_text(json.dumps({"1,0": {"n": 1, "l": 0}}))  # cells without parameters
    assert run(argv) == 2
    assert "holds no run parameters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, problem",
    [
        ("not json", "is not JSON"),
        ('{"parameters": %s, "cells": []}', "holds malformed cells"),
        ('{"parameters": %s, "cells": {"1,0": 5}}', "holds malformed cells"),
    ],
    ids=["not json", "cells a list", "cell not a record"],
)
def test_critical_resume_rejects_malformed_file(text, problem, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SEA_THREADS", "1")
    progress = tmp_path / "progress.json"
    parameters = json.dumps({"K": 30, "pade": "15/14,14/14", "embed_approximants": False})
    progress.write_text(text.replace("%s", parameters))
    assert run(["critical", "--nmax", "1", "--resume", str(progress)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err and str(progress) in err


def test_critical_default_pair_follows_K(tmp_path):
    # the default pair comes from --K: [10/9], [9/9] at K = 20
    out = tmp_path / "t.csv"
    assert run(["critical", "--nmax", "2", "--K", "20", "--out", str(out)]) == 0
    meta, _, rows = read_csv(out)
    assert meta["pade_pair"] == [[10, 9], [9, 9]] and meta["order"] == 20
    assert rows[-1][4] == "[10/9] [9/9]"


def test_critical_explicit_pair_beyond_K_exit_2(capsys):
    assert run(["critical", "--nmax", "2", "--K", "20", "--pade", "15/14,14/14"]) == 2
    assert capsys.readouterr().err == "error: [15/14] needs 30 coefficients, got 21\n"


@pytest.mark.parametrize(
    "argv, order",
    [(["--K", "2"], "[0/0]"), (["--pade", "1/0,0/0"], "[0/0]"), (["--pade", "2/1,0/2"], "[0/2]")],
    ids=["K 2", "pade 1/0,0/0", "pade 2/1,0/2"],
)
def test_critical_constant_numerator_exit_2_before_any_series(argv, order, monkeypatch, capsys):
    # a [0/n] numerator is constant and never crosses zero, so no cell can succeed
    monkeypatch.setenv("SEA_THREADS", "1")
    monkeypatch.setattr(seaqm.resummation, "hulthen_energy_series", None)  # any call raises
    assert run(["critical", "--nmax", "3", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {order} has a constant numerator, which never crosses zero: "
                            "a critical coupling needs m >= 1 in both orders\n")
    assert not captured.out


def test_critical_failure_names_its_cell(monkeypatch, capsys):
    monkeypatch.setenv("SEA_THREADS", "1")

    def fake(n, l, order, pair):
        if (n, l) == (2, 1):
            raise NoSignChange(f"the [{pair[0][0]}/{pair[0][1]}] numerator has no root in (0, 2)")
        return seaqm.resummation.CriticalResult(n, l, 1.0, 0.0, "fake")

    monkeypatch.setattr("seaqm.cli.critical_lambda", fake)
    assert run(["critical", "--nmax", "2"]) == 3
    assert capsys.readouterr().err == (
        "computation failed: lambda_c(2,1) with [15/14] [14/14]: "
        "the [15/14] numerator has no root in (0, 2)\n"
    )
    with pytest.raises(NoSignChange, match=r"^lambda_c\(2,1\) with \[10/9\] \[9/9\]: the \[10/9\] numerator"):
        seaqm.cli._critical_group((1, [2], 20, ((10, 9), (9, 9)), False))


@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_critical_nmax_below_one_exit_2(nmax, capsys):
    assert run(["critical", "--nmax", nmax]) == 2
    captured = capsys.readouterr()
    assert "--nmax >= 1" in captured.err and not captured.out


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
    assert meta["norm"] > 0  # the labels live in the CSV prolog, with no sidecar file
    assert [p.name for p in tmp_path.iterdir()] == ["w.csv"]


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


def test_wavefunction_overflowing_row_exit_3(capsys):
    # normalizable, but far out on this grid the truncated exponent turns
    # around and psi squared overflows: a typed error naming the first such x
    assert run(
        ["wavefunction", "hulthen", "--n", "3", "--l", "0", "--K", "10", "--lambda", "0.05",
         "--x-range=0:3000:301"]
    ) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "computation failed: psi or its square is no longer finite at x = 250 "
        "(psi = -5.14718e+170): the truncated exponent turns around there and psi grows "
        "without bound; end the x range earlier or use a smaller lambda\n"
    )


@pytest.mark.parametrize(
    "args, x",
    [
        # x^2 already leaves double range at the middle sample, 5e199
        (["hulthen", "--n", "2", "--l", "1", "--K", "6", "--lambda", "0.05",
          "--x-range=0:1e200:3"], "5e+199"),
        (["anharmonic", "--r", "0", "--K", "4", "--lambda", "0.2", "--pade", "2/2",
          "--x-range=-1e200:1e200:3"], "-1e+200"),
    ],
)
def test_wavefunction_overflowing_sample_exit_3(args, x, capsys):
    # the state normalizes, then a power at a far sample overflows
    assert run(["wavefunction", *args]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"computation failed: psi or its square is no longer finite at x = {x} ")
    # the overflow is in an intermediate, not in psi: no advice on lambda
    assert captured.err.endswith(
        ": a power of x or exp(-D) leaves double range at that x; end the x range earlier\n"
    )
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args, option",
    [
        (["energy", "hulthen", "--n", "2", "--l", "1", "--K", "4", "--lambda-range", "0:nan:3"],
         "--lambda-range"),
        (["wavefunction", "hulthen", "--n", "2", "--l", "1", "--K", "6", "--lambda", "0.05",
          "--x-range=nan:1:3"], "--x-range"),
        (["wavefunction", "hulthen", "--n", "2", "--l", "1", "--K", "6", "--lambda", "nan"],
         "--lambda"),
        (["energy", "hulthen", "--n", "2", "--l", "1", "--K", "4", "--lambda", "inf"],
         "--lambda"),
        (["wavefunction", "anharmonic", "--r", "0", "--K", "4", "--lambda", "0",
          "--x-range=-inf:1:3"], "--x-range"),
    ],
)
def test_non_finite_number_exit_2(args, option, capsys):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    assert f"argument {option}: expected a finite number" in capsys.readouterr().err


def test_wavefunction_rejects_negative_radial_x_range_exit_2(monkeypatch, capsys):
    # a parameter problem, found before any state is built, pointwise and with --pade
    def unreachable(*args, **kwargs):
        raise AssertionError("the state was built")

    monkeypatch.setattr(seaqm.cli, "build_eigenstate", unreachable)
    for extra in ([], ["--pade", "5/5"]):
        assert run(
            ["wavefunction", "hulthen", "--n", "2", "--l", "1", "--K", "10", "--lambda", "0.1",
             *extra, "--x-range=-2:2:3"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --x-range must lie in x >= 0 for a radial state, got -2\n"


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


def test_wavefunction_pade_norm_failure_names_window_and_qags_outcome(capsys):
    # the pointwise-resummed density is too noisy for QAGS to reach the norm
    assert run(
        ["wavefunction", "anharmonic", "--r", "1", "--K", "20", "--lambda", "1.0", "--pade", "10/10"]
    ) == 3
    assert capsys.readouterr().err == (
        "computation failed: norm quadrature did not converge on [-5.5, 5.5]: QAGS ier 4 "
        "after 186 subintervals, relative error 2.74e-03\n"
    )


def test_wavefunction_pade_order_above_K_exit_2_before_any_work(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("the chain was solved")

    monkeypatch.setattr(seaqm.states, "solve_chain", forbidden)
    assert run(
        ["wavefunction", "anharmonic", "--r", "0", "--K", "30", "--lambda", "1.0", "--pade", "16/16"]
    ) == 2
    assert capsys.readouterr().err == "error: [16/16] needs 33 coefficients, got 31\n"


def test_wavefunction_at_critical_exit_2_before_any_work(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("the chain was solved")

    monkeypatch.setattr(seaqm.states, "solve_chain", forbidden)
    assert run(["wavefunction", "hulthen", "--n", "2", "--l", "1", "--K", "10", "--lambda", "0.38"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: lam=0.38 at or beyond critical 0.376739\n" and not captured.out


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


@pytest.mark.parametrize(
    "args, text",
    [
        (["energy", "anharmonic", "--r", "0", "--K", "4", "--lambda", "0.1"], "2/2"),
        (["energy", "anharmonic", "--r", "0", "--K", "41", "--lambda", "0.1"], "20/20,20/20"),
        (["critical", "--nmax", "2"], "14/14"),
    ],
)
def test_identical_pade_pair_exit_2(args, text, capsys):
    # a single m/m pairs [m/m] with itself: an uncertainty of 0 in every row
    with pytest.raises(SystemExit) as exc:
        run(args + [f"--pade={text}"])
    assert exc.value.code == 2
    assert "the pair would be identical" in capsys.readouterr().err


def test_single_pade_order_pairs_with_square(tmp_path):
    # a single m/n with m != n still pairs [m/n] with [n/n]
    out = tmp_path / "e.json"
    assert run(["energy", "anharmonic", "--r", "0", "--K", "4", "--lambda", "0.1",
                "--pade", "3/1", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["pade_pair"] == [[3, 1], [1, 1]]
    assert doc["data"][0]["uncertainty"] > 0.0
    out = tmp_path / "c.json"
    assert run(["critical", "--nmax", "2", "--pade", "15/14",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["pade_pair"] == [[15, 14], [14, 14]]
    assert doc["data"][-1]["pade_used"] == "[15/14] [14/14]"


# ---------------------------------------------------------------- validate --


def test_validate_coefficients_pass(tmp_path):
    out = tmp_path / "v.json"
    assert run(["validate", "--suite", "coefficients", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    assert doc["suites"][0]["checks"] > 50


def test_validate_negative_control(tmp_path, monkeypatch):
    # one reference coefficient off by 1e-6: the suite reports that check
    # alone, and validate exits 1
    real = seaqm.validation.hulthen_energy_coefficient

    def off(k, n2, L2):
        value = real(k, n2, L2)
        return value + Fraction(1, 10**6) if (k, n2, L2) == (2, 4, 2) else value

    monkeypatch.setattr(seaqm.validation, "hulthen_energy_coefficient", off)
    out = tmp_path / "v.json"
    assert run(["validate", "--suite", "coefficients", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["status"] == "fail"
    assert doc["suites"][0]["failures"] == [
        {"check": "hulthen eps_2(n=2,l=1)", "got": "-5/6", "expected": "-2499997/3000000"}
    ]
    assert "inject_error" not in doc["metadata"]["parameters"]


@pytest.mark.parametrize("suite", ["all", "coefficients", "oracle"])
def test_validate_nmax_outside_table1_exit_2(suite, monkeypatch, tmp_path, capsys):
    # --nmax sizes the table1 suite only; elsewhere it is refused before any suite runs
    def forbidden(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(seaqm.cli, "coefficient_suite", forbidden)
    monkeypatch.setattr(seaqm.cli, "oracle_suite", forbidden)
    out = tmp_path / "v.json"
    assert run(["validate", "--suite", suite, "--nmax", "7", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --nmax sizes the table1 suite only; --suite {suite} does not take it\n"
    )
    assert not out.exists()


def test_validate_metadata_records_nmax_for_table1_only(tmp_path, monkeypatch):
    suite = lambda nmax: {"suite": "table1", "checks": nmax, "failures": []}
    monkeypatch.setattr(seaqm.cli, "table1_suite", suite)
    out = tmp_path / "v.json"
    assert run(["validate", "--suite", "table1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["parameters"]["nmax"] == 3 and doc["suites"][0]["checks"] == 3
    assert run(["validate", "--suite", "coefficients", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["metadata"]["parameters"] == {
        "command": "validate", "out": str(out), "suite": "coefficients"
    }


def test_validate_coefficient_suite_matches_cli(tmp_path):
    out = tmp_path / "v.json"
    assert run(["validate", "--suite", "coefficients", "--out", str(out)]) == 0
    assert coefficient_suite() == json.loads(out.read_text())["suites"][0]


def test_coefficient_suite_inventory():
    # 6 Hulthen levels x orders 0..10, 5 anharmonic levels x orders 0..10, the
    # ground level's A_1..A_3 and the l = 0 tails of n = 1..6, each check once
    names = [check for check, *_ in seaqm.validation._coefficient_checks()]
    hulthen = [f"hulthen eps_{k}(n={n},l={l})" for n, l in [(1, 0), (2, 0), (2, 1), (3, 1), (4, 2), (5, 4)]
               for k in range(11)]
    anharmonic = [f"anharmonic eps_{{{r},{k}}}" for r in range(5) for k in range(11)]
    bridge = [f"bridge A_{k}" for k in (1, 2, 3)]
    tails = [f"l=0 truncation n={n}" for n in range(1, 7)]
    assert names == hulthen + anharmonic + bridge + tails
    assert coefficient_suite() == {"suite": "coefficients", "checks": 130, "failures": []}


def test_validate_has_no_format_option(tmp_path, capsys):
    # the report is always JSON: --format is refused, not silently ignored
    with pytest.raises(SystemExit) as exc:
        run(["validate", "--suite", "coefficients", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    out = tmp_path / "v.json"
    assert run(["validate", "--suite", "coefficients", "--out", str(out)]) == 0
    assert "format" not in json.loads(out.read_text())["metadata"]["parameters"]


@pytest.mark.parametrize("nmax", ["0", "10"])
def test_validate_table1_nmax_outside_table_exit_2(nmax, tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run(["validate", "--suite", "table1", "--nmax", nmax, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1 <= nmax <= 9" in err and nmax in err
    assert not out.exists()


def test_validate_table1_subset(tmp_path):
    out = tmp_path / "v.json"
    assert run(["validate", "--suite", "table1", "--nmax", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["suites"][0]["checks"] == 6
    assert doc["status"] == "pass"


def test_validate_table1_solves_each_rung_once(tmp_path, monkeypatch):
    # the suite walks one l-ladder at a time, so its 45 cells cost 45 rungs,
    # and still reports its checks n outer, l inner
    checks, suite = [], seaqm.validation._suite

    def recording(name, results):
        checks.extend(check for check, *_ in results)
        return suite(name, results)

    monkeypatch.setattr(seaqm.validation, "_suite", recording)
    _solve_chain_cached.cache_clear()
    out = tmp_path / "v.json"
    assert run(["validate", "--suite", "table1", "--nmax", "9", "--out", str(out)]) == 0
    assert _solve_chain_cached.cache_info().misses == 45
    assert checks == [f"lambda_c({n},{l})" for n in range(1, 10) for l in range(n)]
    doc = json.loads(out.read_text())
    assert doc == {
        "metadata": {
            "command": "validate",
            "version": seaqm.__version__,
            "parameters": {"command": "validate", "out": str(out), "suite": "table1", "nmax": 9},
        },
        "suites": [{"suite": "table1", "checks": 45, "failures": []}],
        "records": [],
        "status": "pass",
    }


def test_critical_bad_sea_threads_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("SEA_THREADS", "abc")
    assert run(["critical", "--nmax", "1"]) == 2
    captured = capsys.readouterr()
    assert "SEA_THREADS must be a positive integer, got 'abc'" in captured.err
    assert not captured.out


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_critical_nonpositive_sea_threads_exit_2(threads, monkeypatch, capsys):
    monkeypatch.setenv("SEA_THREADS", threads)
    assert run(["critical", "--nmax", "1"]) == 2
    captured = capsys.readouterr()
    assert f"SEA_THREADS must be a positive integer, got '{threads}'" in captured.err
    assert not captured.out


def test_critical_parallel_pool(tmp_path, monkeypatch):
    monkeypatch.setenv("SEA_THREADS", "2")
    out, progress = tmp_path / "t.json", tmp_path / "progress.json"
    assert run(
        ["critical", "--nmax", "2", "--format", "json", "--embed-approximants",
         "--resume", str(progress), "--out", str(out)]
    ) == 0
    assert sorted(json.loads(progress.read_text())["cells"]) == ["1,0", "2,0", "2,1"]
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
