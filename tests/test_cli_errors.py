"""Command-line argument errors and verify-povm check failures: the exit
code, the output and the one stderr line of each."""
import json

import numpy as np
import pytest

from qmbounds.cli import main
from qmbounds.model import StatisticalModel, model_to_dict


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds"], "no model given; use --model or --model-json"),
        (["bounds", "--model", "ifo"], "model 'ifo' needs --a1sq or --amps"),
        (["sweep", "--grid", "eps=0:0.5:2"], "sweep needs a builtin --model"),
        (["sweep", "--model", "pd"], "sweep needs at least one --grid axis"),
        (["fig1", "--steps", "0"], "steps must be >= 1"),
        (["verify-povm", "--povm-json", "povm.json"], "--povm-json needs --model-json for the model"),
        (["verify-povm", "--builtin", "pd", "--a", "0.5"], "builtin 'pd' needs --a and --b (or --split-delta)"),
        (["verify-povm", "--builtin", "ifo"], "builtin 'ifo' needs --a1sq"),
        (["verify-povm"], "verify-povm needs --builtin {pd,ifo} or --povm-json"),
    ],
)
def test_missing_argument_exits_two(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "scale, xi, check",
    [
        # outcomes that sum to half the identity, with unbiased coefficients
        (0.5, [1.0, -1.0], "completeness"),
        # a complete POVM whose coefficients give the derivative twice over
        (1.0, [2.0, -2.0], "unbiasedness"),
    ],
)
def test_povm_file_failing_a_check_exits_one(capsys, tmp_path, scale, xi, check):
    model = StatisticalModel(
        dim=2, state=0.5 * np.eye(2), derivs=(np.diag([0.5, -0.5]),), theta=(0.0,), labels=("a",),
    )
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model_to_dict(model)))
    outcomes = [[[[scale * (i == j == k), 0.0] for j in range(2)] for i in range(2)] for k in range(2)]
    ppath = tmp_path / "povm.json"
    ppath.write_text(json.dumps({"outcomes": outcomes, "xi": [xi]}))
    code, out, err = run(capsys, ["verify-povm", "--povm-json", str(ppath), "--model-json", str(mpath)])
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "outcomes: 2"
    assert lines[3] == f"validity: {'FAIL' if check == 'completeness' else 'pass'}"
    assert lines[-1] == f"failing check: {check}"
