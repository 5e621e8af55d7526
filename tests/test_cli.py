"""Tests for the command-line interface: formats, exit codes, determinism."""

import json
import shlex
import time
from pathlib import Path

import pytest

from thetadiv.cli import main, verify_mueller


def readme_commands():
    """The ``thetadiv ...`` lines of the sh block under "## Command line"."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("thetadiv ")]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_class_theta_json(capsys):
    code, out, _ = run(
        capsys, "class", "theta", "--g", "3", "--n", "2", "--d", "3,-1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"]["lambda1"] == "-1"
    assert data["coeffs"]["delta_irr"] == "1/8"
    assert data["coeffs"]["K"] == ["6", "0"]


def test_class_T_zero(capsys):
    code, out, _ = run(capsys, "class", "T", "--g", "3", "--n", "1", "--d", "0")
    assert code == 0
    for line in out.strip().splitlines():
        assert line.endswith("= 0")


def test_class_mueller(capsys):
    code, out, _ = run(
        capsys, "class", "mueller", "--g", "3", "--n", "2", "--d", "3,-1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"]["lambda1"] == "-1"
    assert data["coeffs"]["delta_irr"] == "0"


def test_verify_mueller_sweep(capsys):
    code, out, _ = run(
        capsys, "verify", "mueller", "--g", "3", "--n", "2", "--trials", "50", "--seed", "7"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["passed"] == 50 and report["failed"] == 0


def test_verify_rank(capsys):
    code, out, _ = run(capsys, "verify", "rank", "--g", "3", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == report["expected"] == 9
    assert report["det_nonzero"] is True
    assert report["failed_rows"] == []


def test_verify_t_and_theta(capsys):
    for target in ("T", "theta"):
        code, out, _ = run(
            capsys, "verify", target, "--g", "3", "--n", "2", "--trials", "5", "--seed", "1"
        )
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_verify_rejects_nonpositive_trials(capsys):
    for trials in ("0", "-5"):
        code, out, err = run(capsys, "verify", "T", "--g", "3", "--n", "2", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "--trials must be at least 1" in err


def test_byte_identical_output(capsys):
    argv = ["verify", "T", "--g", "3", "--n", "2", "--trials", "3", "--seed", "99"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    argv = ["matrix", "--g", "3", "--n", "2", "--format", "csv"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_degree_validation_exit_code(capsys):
    code, _, err = run(capsys, "class", "T", "--g", "3", "--n", "2", "--d", "1,0")
    assert code == 2
    assert "degree" in err


def test_mueller_needs_negative_weight(capsys):
    code, _, err = run(capsys, "class", "mueller", "--g", "3", "--n", "2", "--d", "1,1")
    assert code == 2
    assert "negative" in err


def test_bad_weight_list(capsys):
    code, _, err = run(capsys, "class", "T", "--g", "3", "--n", "2", "--d", "1,x")
    assert code == 2
    assert "comma-separated" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["class", "bogus", "--g", "3", "--n", "2", "--d", "0,0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_basis_and_curves_listing(capsys):
    code, out, _ = run(capsys, "basis", "--g", "3", "--n", "2", "--format", "json")
    assert code == 0
    labels = json.loads(out)["generators"]
    assert labels[:4] == ["lambda1", "delta_irr", "K1", "K2"]
    assert len(labels) == 9

    code, out, _ = run(capsys, "curves", "--g", "3", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert lines[-1] == "irreducible_node"


def test_matrix_round_trip(capsys):
    code, out, _ = run(capsys, "matrix", "--g", "3", "--n", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == len(data["cols"]) == 5
    assert all(len(row) == 5 for row in data["entries"])


def test_ledger_output(capsys):
    code, out, _ = run(
        capsys, "ledger", "--g", "3", "--n", "2", "--d", "3,-1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["delta_irr_order"] == "1/8"
    assert {(t["h"], tuple(t["P"]), t["mult"]) for t in data["terms"]} == {
        (1, (), 1),
        (2, (), 2),
        (3, (), 3),
    }


def test_dr_output(capsys):
    code, out, _ = run(capsys, "dr", "--g", "3", "--n", "2", "--d", "1,-1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) == 35

    code, out, _ = run(capsys, "dr", "--g", "3", "--n", "2", "--d", "1,-1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "monomial,coefficient"


def test_verify_failure_exit_code_and_report(capsys, monkeypatch):
    import thetadiv.cli as cli

    # sabotage one side of the identity to exercise the failure path
    monkeypatch.setattr(cli, "class_T", lambda g, n, d: cli.class_Theta(g, n, (g - 1,) + (0,) * (n - 1)))
    code, out, _ = run(capsys, "verify", "T", "--g", "3", "--n", "2", "--trials", "4", "--seed", "2")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["failed"] == 4
    assert len(report["failures"]) == 4
    assert all(len(f["d"]) == 2 for f in report["failures"])


def test_mueller_verify_impossible_at_one_marking(capsys):
    # g - 1 >= 0 forces the single weight nonnegative: no admissible vectors
    code, _, err = run(capsys, "verify", "mueller", "--g", "3", "--n", "1")
    assert code == 2
    assert "no admissible weights" in err


def test_leading_negative_weight_with_equals_form(capsys):
    code, out, _ = run(capsys, "class", "T", "--g", "3", "--n", "2", "--d=-1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"]["K"] == ["1/2", "1/2"]


def test_class_json_round_trips_through_schema(capsys):
    from thetadiv.basis import DivisorClass
    from thetadiv.theta import class_Theta

    code, out, _ = run(
        capsys, "class", "theta", "--g", "4", "--n", "2", "--d", "4,-1", "--format", "json"
    )
    assert code == 0
    assert DivisorClass.from_json_dict(json.loads(out)) == class_Theta(4, 2, (4, -1))


def test_oversized_basis_exits_fast(capsys, monkeypatch):
    import thetadiv.basis as basis

    def no_subsets(*args, **kwargs):
        raise AssertionError("enumerated subsets")

    monkeypatch.setattr(basis, "_subsets", no_subsets)
    # (3, 20) is the first n past the cap of 2^20 boundary classes at g = 3
    for g, n in [("3", "40"), ("3", "1000000000"), ("1000000000", "1"), ("3", "20")]:
        for command in ("basis", "curves", "matrix"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, "--g", g, "--n", n)
            assert time.perf_counter() - start < 0.5
            assert code == 2
            assert out == ""
            assert "boundary classes" in err


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_examples(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out


def test_plus_option_is_gone(capsys):
    for argv in (
        ["class", "mueller", "--g", "3", "--n", "2", "--d", "3,-1", "--plus", "nonneg"],
        ["ledger", "--g", "3", "--n", "2", "--d", "3,-1", "--plus", "strict"],
        ["verify", "mueller", "--g", "3", "--n", "2", "--plus", "nonneg"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    assert verify_mueller(3, 2, 3, 7, "nonneg") == verify_mueller(3, 2, 3, 7)
    with pytest.raises(ValueError, match="nonneg"):
        verify_mueller(3, 2, 3, 7, "strict")
