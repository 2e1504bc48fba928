"""End-to-end tests for the command-line front end."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmbounds
from qmbounds.cli import (
    CliError,
    GridAxis,
    RunConfig,
    main,
)
from qmbounds.model import model_to_dict, phase_damping_model, random_model


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
    def test_tol_range_enforced(self):
        with pytest.raises(CliError, match="tol"):
            RunConfig(command="bounds", tol=0.1)
        with pytest.raises(CliError, match="tol"):
            RunConfig(command="bounds", tol=0.0)

    def test_grid_steps_enforced(self):
        axis = GridAxis(name="eps", start=0.0, stop=0.5, steps=0)
        with pytest.raises(CliError, match="steps"):
            RunConfig(command="sweep", grid=(axis,))

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

    def test_written_program_without_rows_is_optimal(self, capsys, tmp_path):
        from qmbounds.sdp_core import make_problem, write_sdpa

        path = tmp_path / "norows.dat-s"
        path.write_text(write_sdpa(make_problem([2], {0: np.eye(2)}, [], [])))
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
