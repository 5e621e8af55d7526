"""Tests for the command-line interface: formats, exit codes, determinism."""

import hashlib
import json
import random
import shlex
import time
from pathlib import Path

import pytest

from thetadiv.cli import main, sample_degree_weights, verify_mueller
from thetadiv.solve import SingularMatrixError


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


@pytest.mark.parametrize(
    "target, name, error",
    [
        ("T", "reconstruct_T", SingularMatrixError("K1")),
        ("theta", "reconstruct_Theta", SingularMatrixError("delta_irr")),
    ],
)
def test_unsolvable_system_is_a_failed_trial(capsys, monkeypatch, target, name, error):
    import thetadiv.cli as cli

    def unsolvable(g, n, d):
        raise error

    monkeypatch.setattr(cli, name, unsolvable)
    code, out, err = run(capsys, "verify", target, "--g", "3", "--n", "2", "--trials", "3", "--seed", "5")
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert (report["ok"], report["passed"], report["failed"]) == (False, 0, 3)
    rng = random.Random(5)
    degree = 0 if target == "T" else 2
    assert report["failures"] == [{"d": list(sample_degree_weights(rng, 2, degree))} for _ in range(3)]


# sha256 of the stdout of `thetadiv matrix`, taken before the pairing table
# was generated row by row
MATRIX_DIGESTS = {
    (3, 2, "pretty"): "5db7c4e57eededb50380ff369e440f66a120960da106055ceae611f7c093b79d",
    (3, 2, "json"): "66b1c9db3f6da0c64bcea21c71f74126b34792aa8b148e45797cbc174812c343",
    (3, 2, "csv"): "5c95a475919969a5f8b0d1ee8a3983b35d6c0c4afbfa754e2fac7347d5fcb649",
    (4, 3, "pretty"): "6f6d0586b235d51d1706847288edad53ce18e40f943589b71756f0b4817e58c6",
    (4, 3, "json"): "623daccc31d7f0040e66c96b1edd636bd0dc1eb7d893b8c58788ae49f3d62603",
    (4, 3, "csv"): "9a3fe907a630fac66c0a7e58b0e1d1d1bc60f6630f9721d4921b51f6101b5aff",
    (5, 4, "pretty"): "2fa4892c5ea575c58960bd34d9ae4abb289f25c8917071f41f6bec6e5ddadd14",
    (5, 4, "json"): "e08a1aaa7e70e147ee485a2eff081b4a542750bb14ce528660667bc330fa8a8e",
    (5, 4, "csv"): "dd7f38e144f815f10b7d1cfc4cbc0d9ba1e0f7ea66a1063dbe1e96ecc78dbc88",
}


@pytest.mark.parametrize("g, n, fmt", sorted(MATRIX_DIGESTS))
def test_matrix_output_bytes(capsys, g, n, fmt):
    code, out, err = run(capsys, "matrix", "--g", str(g), "--n", str(n), "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_DIGESTS[g, n, fmt]


# sha256 of the stdout of `thetadiv dr`, taken before the expansion walked
# multisets of generators
DR_WEIGHTS = {(3, 3): "1,2,-3", (5, 2): "2,-2", (4, 3): "1,-3,2", (3, 4): "1,-2,3,-2"}
DR_DIGESTS = {
    (3, 3, "pretty"): "be15edf899e76aa4ffda75690c2b1a1f966e017f9f7b8fa0809f6f168af2b99c",
    (3, 3, "json"): "25615701cf9d31e122defd6def27d4c18f33fd4e9f6a2b3b7430ec3e47d04ab5",
    (3, 3, "csv"): "6274a26da5e2dacdaaa095961bb1e5d886738c85cac5a7b4a74292501b3d1f45",
    (5, 2, "pretty"): "5f85bfa306fbd923a57a014c277cede104668fb8a10f8429a6ad0cc95ff9f5f8",
    (5, 2, "json"): "22d5591ab408531de4b7ccf410e5c6d634f420e604b7cca6b459b10b1e4d98d0",
    (5, 2, "csv"): "0f03915b5298d7ecf0c3790f34b6cb7a67a0907aaf464ad993efb0891dc2a6e4",
    (4, 3, "pretty"): "8560da6d833af4dbb591560592b36c3bead3d79e160a03fad15562baa13b2355",
    (4, 3, "json"): "8f3706609c2a2562e9d27acb92a446add232041bf3a769f9abc3122720e6f158",
    (4, 3, "csv"): "6a73919758fd108abce76790eb4eb68da5949bb5769b94a3e084bbb58bbbf24d",
    (3, 4, "pretty"): "6182ccca34eec488e50e6e529b9da660e9594365906918fd3aab37ec8641cdf2",
    (3, 4, "json"): "4a831aa74e8e21269aa41d4f60c330787aa182fcb8235aef94754009c1846987",
    (3, 4, "csv"): "c78d507f4b0c582af00c91178efbcfd063758ccb4a4c6c5f9730321cb1e75f2f",
}


@pytest.mark.parametrize("g, n, fmt", sorted(DR_DIGESTS))
def test_dr_output_bytes(capsys, g, n, fmt):
    code, out, err = run(
        capsys, "dr", "--g", str(g), "--n", str(n), "--d", DR_WEIGHTS[g, n], "--format", fmt
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DR_DIGESTS[g, n, fmt]


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
