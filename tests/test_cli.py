"""End-to-end tests for the command-line front end."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmbounds
from qmbounds import bound_builders
from qmbounds.cli import FIG1_COLUMNS, main
from qmbounds.model import (
    holland_burnett_probe,
    interferometer_model,
    model_to_dict,
    phase_damping_model,
    random_model,
    sld_bound,
)
from qmbounds.sdp_core import SDPError


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_import_loads_one_blas():
    # numpy's LAPACK is the only one the package uses; scipy would load a
    # second BLAS with its own thread pool
    src = str(Path(qmbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, qmbounds.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


class TestConfig:
    def test_tol_range_enforced(self, capsys):
        for tol in ("0.1", "0"):
            code, out, err = run(capsys, ["bounds", "--model", "pd", "--tol", tol])
            assert code == 2
            assert out == ""
            assert err == f"error: tol must lie in (0, 1e-2], got {float(tol)!r}\n"

    def test_grid_steps_enforced(self, capsys):
        code, out, err = run(capsys, ["sweep", "--model", "pd", "--grid", "eps=0:0.5:0"])
        assert code == 2
        assert out == ""
        assert err == "error: grid axis 'eps': steps must be >= 1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # unknown bound, then --amps, then --grid syntax, then tol, then steps
            (["sweep", "--bounds", "foo", "--amps", "x", "--tol", "0"], "unknown bound 'foo'"),
            (["sweep", "--amps", "x", "--grid", "eps=x", "--tol", "0"], "bad --amps value 'x'"),
            (["sweep", "--grid", "eps=x", "--tol", "0"], "bad grid spec 'eps=x'"),
            (["sweep", "--grid", "eps=0:0.5:0", "--tol", "0"], "tol must lie in"),
        ],
    )
    def test_first_fault_is_reported(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "argv",
        [["verify-povm", "--builtin", "pd", "--a", "0.5", "--b", "0.5"], ["solve-sdp", "prog.dat-s"]],
    )
    def test_format_only_on_table_commands(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--format", "json"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--model", "pd", "--params", "xy", "--grid", "eps=0.1:0.5:2", "--bounds", "nh"],
            ["fig1", "--steps", "2"],
            ["verify-povm", "--builtin", "pd", "--eps", "0.4", "--a", "0.5", "--b", "0.5"],
            ["solve-sdp", "PROGRAM"],
        ],
    )
    def test_out_file_matches_stdout(self, capsys, tmp_path, argv):
        from qmbounds.bound_builders import build_nh_sdp
        from qmbounds.sdp_core import write_sdpa

        program = tmp_path / "prog.dat-s"
        program.write_text(write_sdpa(build_nh_sdp(phase_damping_model(0.3, params="xy"))[0]))
        argv = [str(program) if a == "PROGRAM" else a for a in argv]
        code, out, _ = run(capsys, argv)
        assert code == 0
        path = tmp_path / "out.txt"
        path.write_text("an older, longer report\n" * 100)  # replaced, not appended to
        code, printed, _ = run(capsys, argv + ["--out", str(path)])
        assert code == 0
        assert printed == ""
        assert path.read_bytes() == out.encode()
        if argv[0] == "solve-sdp":  # the input file is read before it is replaced
            assert run(capsys, argv + ["--out", str(program)])[0] == 0
            assert program.read_bytes() == out.encode()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--model", "pd", "--grid", "eps=0:0.5:2", "--grid", "eps=0:0.5:2",
              "--bounds", "sld"], "grid axis 'eps' is given more than once"),
            (["bounds", "--model", "pd", "--bounds", ","], "--bounds names no bound"),
            (["sweep", "--model", "pd", "--grid", "eps=0:0.5:2", "--bounds", "sld,sld"],
             "bound 'sld' is given more than once"),
            (["bounds", "--model", "pd", "--bounds", "nh, holevo ,holevo"], "bound 'holevo' is given more than once"),
            (["solve-sdp", "prog.dat-s", "--max-iter", "-3"], "--max-iter must be >= 1, got -3"),
            (["solve-sdp", "prog.dat-s", "--max-iter", "0"], "--max-iter must be >= 1, got 0"),
        ],
    )
    def test_rejected_before_running(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_unwritable_out_file_exits_two(self, capsys, tmp_path, monkeypatch):
        solves = []
        solve = bound_builders.solve
        monkeypatch.setattr(bound_builders, "solve", lambda *a, **k: solves.append(a) or solve(*a, **k))
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, ["fig1", "--steps", "2", "--out", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --out file: ")
        assert len(err.splitlines()) == 1
        assert not path.exists()
        assert not solves  # checked before the first solve

    def test_cli_surfaces_config_errors(self, capsys):
        code, _, err = run(
            capsys, ["bounds", "--model", "pd", "--tol", "0.5"]
        )
        assert code == 2
        assert "tol" in err


class TestBoundsCommand:
    def test_dephasing_pair_values(self, capsys):
        code, out, _ = run(
            capsys,
            ["bounds", "--model", "pd", "--eps", "0.5", "--params", "xy"],
        )
        assert code == 0
        rows = {r["bound"]: r for r in csv_rows(out)}
        assert float(rows["nh"]["value"]) == pytest.approx(8 / 3, abs=1e-5)
        assert float(rows["holevo"]["value"]) == pytest.approx(2.0, abs=1e-5)
        assert rows["nh"]["ok"] == "true"
        assert float(rows["nh"]["gap"]) <= 1e-7

    def test_interferometer_closed_form(self, capsys):
        code, out, _ = run(
            capsys,
            ["bounds", "--model", "ifo", "--N", "1", "--a1sq", "0.3",
             "--eta", "0.1"],
        )
        assert code == 0
        rows = {r["bound"]: r for r in csv_rows(out)}
        want = (1 + 3 * 0.1 - 4 * 0.1**3) / (4 * 0.1 * 0.3)
        assert float(rows["holevo"]["value"]) == pytest.approx(want, abs=1e-5)
        assert float(rows["nh"]["value"]) == pytest.approx(want, abs=1e-5)

    def test_holland_burnett_values_match_the_library(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--model", "hb", "--N", "2"])
        assert code == 0
        model = interferometer_model(holland_burnett_probe(2), 0.1)
        want = {
            "sld": sld_bound(model),
            "holevo": bound_builders.holevo_bound(model, tol=1e-9).value,
            "nh": bound_builders.nagaoka_hayashi_bound(model, tol=1e-9).value,
        }
        rows = csv_rows(out)
        assert [r["bound"] for r in rows] == list(want)
        assert all(r["value"] == "%.9g" % want[r["bound"]] and r["ok"] == "true" for r in rows)

    def test_bound_selection(self, capsys):
        code, out, _ = run(
            capsys,
            ["bounds", "--model", "pd", "--eps", "0.3", "--params", "x",
             "--bounds", "nh"],
        )
        assert code == 0
        rows = csv_rows(out)
        assert [r["bound"] for r in rows] == ["nh"]

    def test_json_model_accepted(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(model_to_dict(phase_damping_model(0.5, params="xy")))
        )
        code, out, _ = run(
            capsys, ["bounds", "--model-json", str(path), "--bounds", "nh"]
        )
        assert code == 0
        rows = csv_rows(out)
        assert float(rows[0]["value"]) == pytest.approx(8 / 3, abs=1e-5)

    def test_malformed_json_exits_two_citing_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        data = model_to_dict(phase_damping_model(0.3, params="xy"))
        data["state"][0][0] = "oops"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, ["bounds", "--model-json", str(path)])
        assert code == 2
        assert "state" in err

    @pytest.mark.parametrize(
        "where, message",
        [
            ("state", "field 'state': entry (0, 0) is not finite"),
            ("derivs", "field 'derivs[0]': entry (0, 1) is not finite"),
            ("theta", "theta (nan, 0.0) has non-finite values"),
        ],
    )
    def test_non_finite_model_file_exits_two(self, capsys, tmp_path, where, message):
        data = model_to_dict(phase_damping_model(0.5, params="xy"))
        if where == "state":
            data["state"][0][0] = [float("nan"), 0.0]
        elif where == "derivs":
            data["derivs"][0][0][1] = [float("inf"), 0.0]
        else:
            data["theta"][0] = float("nan")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["bounds", "--model-json", str(path)])
        assert code == 2
        assert out == ""
        assert message in err and "Traceback" not in err

    def test_boolean_theta_exits_two(self, capsys, tmp_path):
        data = model_to_dict(phase_damping_model(0.5, params="xy"))
        data["theta"] = [True, False]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["bounds", "--model-json", str(path)])
        assert code == 2
        assert out == ""
        assert "field 'theta': expected a list of numbers" in err and "Traceback" not in err

    def test_non_finite_amplitude_exits_two(self, capsys):
        code, out, err = run(
            capsys, ["bounds", "--model", "ifo", "--amps", "nan,1", "--eta", "0.5"]
        )
        assert code == 2
        assert out == ""
        assert "state has non-finite entries" in err and "Traceback" not in err

    def test_dependent_derivatives_exit_one_naming_the_bound(self, capsys, tmp_path):
        # four derivatives of a qubit state cannot be linearly independent
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps(model_to_dict(random_model(0, 2, 4))))
        code, _, err = run(
            capsys, ["bounds", "--model-json", str(path), "--bounds", "nh"]
        )
        assert code == 1
        assert "nh: unbiasedness system is rank deficient" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--model", "ifo", "--a1sq", "0.3", "--eta", "1.5"], "eta must lie in (0, 1]"),
            (["--model", "pd", "--eps", "1.5"], "epsilon must lie in [0, 1]"),
            (["--model", "hb", "--N", "3"], "photon number must be even"),
        ],
    )
    def test_out_of_range_model_parameter_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, ["bounds"] + argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_kernel_weight_fails_every_bound_alike(self, capsys):
        # at eta = 1 the eta derivative lives on the empty one-loss block
        code, out, err = run(
            capsys, ["bounds", "--model", "ifo", "--a1sq", "0.3", "--eta", "1.0"]
        )
        assert code == 1
        rows = csv_rows(out)
        assert [r["bound"] for r in rows] == ["sld", "holevo", "nh"]
        assert all(r["value"] == "nan" and r["ok"] == "false" for r in rows)
        lines = err.splitlines()
        assert [line.split(": ", 1)[0] for line in lines] == ["sld", "holevo", "nh"]
        messages = {line.split(": ", 1)[1] for line in lines}
        assert len(messages) == 1
        assert "derivative 1 has weight 3.00e-01 inside the kernel" in messages.pop()
        assert "Traceback" not in err

    def test_unidentifiable_parameters_fail_every_bound(self, capsys):
        # a probe with no photon in the second arm carries no phase information
        code, out, err = run(
            capsys, ["bounds", "--model", "ifo", "--amps", "1,0", "--eta", "0.5"]
        )
        assert code == 1
        rows = csv_rows(out)
        assert [r["bound"] for r in rows] == ["sld", "holevo", "nh"]
        assert all(r["value"] == "nan" and r["ok"] == "false" for r in rows)
        assert "sld: SLD Fisher information is singular" in err
        assert "Traceback" not in err

    def test_unreadable_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["bounds", "--model-json", str(path)])
        assert code == 2
        assert "JSON" in err

    def test_json_format_output(self, capsys):
        code, out, _ = run(
            capsys,
            ["bounds", "--model", "pd", "--eps", "0.3", "--params", "x",
             "--bounds", "sld,nh", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["bound"] == "sld"
        assert rows[1]["value"] == pytest.approx(1.0, abs=1e-5)
        assert "seconds" in rows[1]


class TestSweepCommand:
    def test_rows_sorted_and_exact(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--model", "pd", "--params", "xy",
             "--grid", "eps=0.1:0.5:3", "--bounds", "nh"],
        )
        assert code == 0
        rows = csv_rows(out)
        assert [r["index"] for r in rows] == ["0", "1", "2"]
        for row, eps in zip(rows, (0.1, 0.3, 0.5)):
            assert float(row["eps"]) == pytest.approx(eps)
            assert float(row["value"]) == pytest.approx(
                4 / (2 - eps), abs=1e-5
            )
            assert row["ok"] == "true"

    def test_solver_error_fails_its_row_only(self, capsys, monkeypatch):
        # the second solve raises the Newton factorization error; its row
        # fails with the message, and the rows before and after it are kept
        calls = []
        solve = bound_builders.solve

        def failing(*a, **k):
            calls.append(a)
            if len(calls) == 2:
                raise SDPError("Newton system factorization failed: Schur complement is numerically singular")
            return solve(*a, **k)

        monkeypatch.setattr(bound_builders, "solve", failing)
        code, out, err = run(
            capsys,
            ["sweep", "--model", "pd", "--params", "xy",
             "--grid", "eps=0.1:0.5:3", "--bounds", "nh"],
        )
        assert code == 1
        rows = csv_rows(out)
        assert [(r["index"], r["ok"]) for r in rows] == [("0", "true"), ("1", "false"), ("2", "true")]
        assert rows[1]["value"] == "nan"
        assert float(rows[2]["value"]) == pytest.approx(4 / 1.5, abs=1e-5)
        assert err == "nh: solver failed: Newton system factorization failed: Schur complement is numerically singular\n"

    def test_byte_stable_output(self, tmp_path):
        argv = [
            "sweep", "--model", "pd", "--params", "xy",
            "--grid", "eps=0.1:0.7:4", "--bounds", "holevo,nh",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_of_range_grid_point_exits_two(self, capsys):
        code, out, err = run(
            capsys, ["sweep", "--model", "pd", "--grid", "eps=0:1.2:3"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "epsilon must lie in [0, 1]" in err
        assert "Traceback" not in err

    def test_unknown_axis_rejected(self, capsys):
        code, _, err = run(
            capsys,
            ["sweep", "--model", "pd", "--grid", "eta=0.1:0.5:3"],
        )
        assert code == 2
        assert "eta" in err

    def test_bad_grid_spec_rejected(self, capsys):
        code, _, err = run(
            capsys, ["sweep", "--model", "pd", "--grid", "eps=nope"]
        )
        assert code == 2
        assert "grid" in err


class TestFig1Command:
    def test_small_grid_matches_curves(self, capsys):
        code, out, _ = run(capsys, ["fig1", "--steps", "6"])
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 6
        header = out.strip().splitlines()[0]
        assert header == (
            "eps,prec_h1,prec_nh1,prec_h2,prec_nh2,prec_h3,prec_nh3"
        )
        for row in rows:
            eps = float(row["eps"])
            assert float(row["prec_h1"]) == pytest.approx(1.0, abs=1e-5)
            assert float(row["prec_nh1"]) == pytest.approx(1.0, abs=1e-5)
            assert float(row["prec_h2"]) == pytest.approx(1.0, abs=1e-5)
            assert float(row["prec_nh2"]) == pytest.approx(
                (2 - eps) / 2, abs=1e-5
            )
            assert float(row["prec_h3"]) == pytest.approx(
                3 / (2 + 1 / (1 - eps) ** 2), abs=1e-5
            )
            assert float(row["prec_nh3"]) == pytest.approx(
                3 / (4 / (2 - eps) + 1 / (1 - eps) ** 2), abs=1e-5
            )

    def test_zero_damping_row_is_unity(self, capsys):
        code, out, _ = run(capsys, ["fig1", "--steps", "1",
                                    "--eps-stop", "0"])
        assert code == 0
        row = csv_rows(out)[0]
        for column in ("prec_h1", "prec_nh1", "prec_h2", "prec_nh2",
                       "prec_h3", "prec_nh3"):
            assert float(row[column]) == pytest.approx(1.0, abs=1e-5)

    def test_grid_outside_unit_interval_rejected(self, capsys):
        code, _, err = run(capsys, ["fig1", "--eps-stop", "1.0"])
        assert code == 2
        assert "eps" in err

    def test_failed_bound_leaves_nan_and_keeps_other_rows(self, capsys):
        # NH with three parameters stalls at eps = 0.99; every other cell is written
        code, out, err = run(capsys, ["fig1", "--eps-start", "0.98",
                                      "--eps-stop", "0.99", "--steps", "2"])
        assert code == 1
        rows = csv_rows(out)
        assert [row["eps"] for row in rows] == ["0.98", "0.99"]
        failed = [(row["eps"], col) for row in rows for col in FIG1_COLUMNS
                  if row[col] == "nan"]
        assert failed == [("0.99", "prec_nh3")]
        assert float(rows[0]["prec_nh3"]) == pytest.approx(3 / (4 / 1.02 + 1 / 0.02 ** 2), rel=1e-7)
        assert err.startswith("nh: solver finished with status 'stalled'")

    def test_byte_stable_output(self, tmp_path):
        argv = ["fig1", "--steps", "4", "--eps-stop", "0.6"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerifyPovmCommand:
    def test_dephasing_family_saturates(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify-povm", "--builtin", "pd", "--eps", "0.4",
             "--a", "0.5", "--b", "0.5"],
        )
        assert code == 0
        assert "validity: pass" in out
        deficit = float(out.split("deficit:")[1].strip())
        assert abs(deficit) < 1e-8

    def test_split_variance_approaches_limit(self, capsys):
        values = []
        for delta in ("0.05", "0.005"):
            code, out, _ = run(
                capsys,
                ["verify-povm", "--builtin", "pd", "--eps", "0.4",
                 "--split-delta", delta],
            )
            assert code == 0
            vz = float(
                [ln for ln in out.splitlines()
                 if ln.startswith("variance z")][0].split(":")[1]
            )
            values.append(vz)
        limit = 1 / 0.36
        assert values[1] < values[0]
        assert values[1] == pytest.approx(limit, rel=0.02)

    def test_interferometer_boundary_reports_three_outcomes(self, capsys):
        eta = (0.7 - 0.3) / (2 * 0.7)
        code, out, _ = run(
            capsys,
            ["verify-povm", "--builtin", "ifo", "--a1sq", "0.3",
             "--eta", repr(eta)],
        )
        assert code == 0
        assert "outcomes: 3" in out
        deficit = float(out.split("deficit:")[1].strip())
        assert abs(deficit) < 1e-8

    def test_invalid_povm_file_fails_with_check(self, capsys, tmp_path):
        povm = {
            "outcomes": [
                [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                [[[-0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            ],
            "xi": [[1.0, -1.0]],
        }
        ppath = tmp_path / "povm.json"
        ppath.write_text(json.dumps(povm))
        mpath = tmp_path / "model.json"
        model = phase_damping_model(0.3, params="x")
        data = model_to_dict(model)
        data["dim"] = 2
        data["state"] = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        data["derivs"] = [[[[0.5, 0.0], [0.0, 0.0]],
                          [[0.0, 0.0], [-0.5, 0.0]]]]
        mpath.write_text(json.dumps(data))
        code, out, _ = run(
            capsys,
            ["verify-povm", "--povm-json", str(ppath),
             "--model-json", str(mpath)],
        )
        assert code == 1
        assert "validity: FAIL" in out
        assert "failing check: positivity" in out

    def test_non_finite_outcome_exits_two(self, capsys, tmp_path):
        model = phase_damping_model(0.3, params="x")
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model_to_dict(model)))
        d = model.dim
        eye = [[[float(i == j), 0.0] for j in range(d)] for i in range(d)]
        eye[0][0] = [float("nan"), 0.0]
        zero = [[[0.0, 0.0]] * d for _ in range(d)]
        ppath = tmp_path / "povm.json"
        ppath.write_text(json.dumps({"outcomes": [eye, zero], "xi": [[0.0, 0.0]]}))
        code, out, err = run(
            capsys,
            ["verify-povm", "--povm-json", str(ppath), "--model-json", str(mpath)],
        )
        assert code == 2
        assert out == ""
        assert "field 'outcomes[0]': entry (0, 0) is not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "change, message",
        [
            ("outcome", "bad JSON POVM file: outcome 0 is not Hermitian"),
            ("xi", "bad JSON POVM file: xi has non-finite entries"),
        ],
    )
    def test_povm_file_that_is_not_a_measurement_exits_two(self, capsys, tmp_path, change, message):
        model = phase_damping_model(0.3, params="x")
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model_to_dict(model)))
        d = model.dim
        half = [[[0.5 * (i == j), 0.0] for j in range(d)] for i in range(d)]
        povm = {"outcomes": [half, json.loads(json.dumps(half))], "xi": [[1.0, -1.0]]}
        if change == "outcome":
            # the sum is still the identity, and each outcome's eigenvalues 1/2
            povm["outcomes"][0][0][1] = [0.3, 0.0]
            povm["outcomes"][1][0][1] = [-0.3, 0.0]
        else:
            povm["xi"][0][1] = float("nan")
        ppath = tmp_path / "povm.json"
        ppath.write_text(json.dumps(povm))
        code, out, err = run(
            capsys,
            ["verify-povm", "--povm-json", str(ppath), "--model-json", str(mpath)],
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("a1sq", ["1.5", "-0.2", "nan", "0", "1"])
    def test_out_of_range_split_exits_two(self, capsys, a1sq):
        code, out, err = run(capsys, ["verify-povm", "--builtin", "ifo", "--a1sq", a1sq])
        assert code == 2
        assert out == ""
        assert err == "error: --a1sq must lie in (0, 1)\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--a", "nan", "--b", "0.5"],
            ["--split-delta", "nan"],
            ["--split-delta", "-0.1"],
            ["--a", "0.5", "--b", "0.5", "--split-delta", "nan"],
        ],
    )
    def test_bad_dephasing_amplitude_fails_construction(self, capsys, flags):
        # warnings are errors under pytest, so a RuntimeWarning fails here too
        code, out, err = run(capsys, ["verify-povm", "--builtin", "pd"] + flags)
        assert code == 1
        assert out == ""
        assert err.startswith("measurement construction failed: ")
        assert len(err.splitlines()) == 1

    def test_out_of_range_eta_fails(self, capsys):
        code, _, err = run(
            capsys,
            ["verify-povm", "--builtin", "ifo", "--a1sq", "0.3",
             "--eta", "0.32"],
        )
        assert code == 1
        assert "eigenvalue" in err


class TestSolveSdpCommand:
    def test_solves_dumped_program(self, capsys, tmp_path):
        from qmbounds.bound_builders import build_nh_sdp
        from qmbounds.sdp_core import write_sdpa

        problem, _ = build_nh_sdp(phase_damping_model(0.3, params="xy"))
        path = tmp_path / "prog.dat-s"
        path.write_text(write_sdpa(problem))
        code, out, _ = run(capsys, ["solve-sdp", str(path)])
        assert code == 0
        assert "status: optimal" in out
        assert "certificate: pass" in out
        value = float(out.split("primal objective:")[1].splitlines()[0])
        assert value == pytest.approx(4 / 1.7, abs=1e-6)

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["solve-sdp", str(tmp_path / "nope.dat-s")]
        )
        assert code == 2
        assert "problem file" in err

    def test_undecodable_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "binary.dat-s"
        path.write_bytes(b"\xff\xfe1\n1\n2\n")
        code, out, err = run(capsys, ["solve-sdp", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "problem file" in err
        assert len(err.splitlines()) == 1

    def test_inconsistent_dependent_rows_exit_one(self, capsys, tmp_path):
        # row 2 is twice row 1, but its right-hand side is 3, not 2
        path = tmp_path / "bad.dat-s"
        path.write_text(
            "2\n1\n2\n1.0 3.0\n0 1 1 1 1.0\n0 1 2 2 1.0\n"
            "1 1 1 1 1.0\n2 1 1 1 2.0\n"
        )
        code, out, err = run(capsys, ["solve-sdp", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("solver failure: constraint 1 is linearly dependent")
        assert len(err.splitlines()) == 1
        assert "3.0" in err and "np.float64" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("* scale nan\n1\n1\n2\n1.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n", "line 1: scale 'nan'"),
            ("1\n1\n2\ninf\n0 1 1 1 1.0\n1 1 1 1 1.0\n", "line 4: right-hand-side value"),
            ("1\n1\n2\n1.0\n0 1 1 1 1.0\n1 1 1 1 nan\n", "line 6: entry value 'nan'"),
        ],
    )
    def test_non_finite_number_exits_two(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.dat-s"
        path.write_text(text)
        code, out, err = run(capsys, ["solve-sdp", str(path)])
        assert code == 2
        assert out == ""
        assert message in err and "is not finite" in err
        assert "Traceback" not in err

    def test_written_program_without_rows_is_optimal(self, capsys, tmp_path):
        from qmbounds.sdp_core import make_problem, write_sdpa
        from test_sdp_core import as_entries

        path = tmp_path / "norows.dat-s"
        path.write_text(write_sdpa(make_problem([2], {0: np.eye(2)}, as_entries([]), [])))
        code, out, err = run(capsys, ["solve-sdp", str(path)])
        assert code == 0, err
        assert "status: optimal" in out
        assert "certificate: pass" in out

    def test_program_without_rows_is_optimal(self, capsys, tmp_path):
        # the only row is empty, so deduplication leaves no rows at all
        path = tmp_path / "empty.dat-s"
        path.write_text("1\n1\n2\n0.0\n0 1 1 1 1.0\n0 1 2 2 1.0\n")
        code, out, _ = run(capsys, ["solve-sdp", str(path)])
        assert code == 0
        assert "status: optimal" in out
        assert "certificate: pass" in out
