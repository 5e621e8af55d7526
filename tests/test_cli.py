"""Tests for the command-line interface: formats, exit codes, determinism."""

import argparse
import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import os
import shlex
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import thetadiv
import thetadiv.cli as cli
from thetadiv.basis import DivisorClass, _boundary_label, basis_generators, generator_label
from thetadiv.cli import FORMATS, build_parser, main, sample_degree_weights, verify_mueller
from thetadiv.curves import IntersectionMatrix, build_matrix, curve_label, enumerate_test_curves
from thetadiv.drcycle import dr_expansion, monomial_label, restrict_to_compact_type
from thetadiv.solve import SingularMatrixError
from thetadiv.theta import class_D_direct, class_T, class_Theta, correction_ledger


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


def test_a_verify_sweep_builds_its_basis_table_once(capsys, monkeypatch):
    # every solve of the sweep reads the column index of one table: the
    # rows used to rebuild their (h, P) -> column dict per trial
    from collections import OrderedDict

    import thetadiv.basis as basis

    builds, unwrapped = [], basis._build_basis_table

    def build(g, n):
        builds.append((g, n))
        return unwrapped(g, n)

    monkeypatch.setattr(basis, "_tables", OrderedDict())  # an empty cache
    monkeypatch.setattr(basis, "_build_basis_table", build)
    code, out, _ = run(capsys, "verify", "T", "--g", "5", "--n", "6", "--trials", "10")
    assert code == 0 and json.loads(out)["passed"] == 10
    assert builds == [(5, 6)]


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


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    import thetadiv.cli as cli

    def broken(g, n):
        raise RuntimeError("pivot table corrupted")

    monkeypatch.setattr(cli, "certify_basis", broken)
    code, out, err = run(capsys, "verify", "rank", "--g", "3", "--n", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: pivot table corrupted\n"


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


# sha256 of the stdout of `thetadiv curves`, taken while test curves still
# carried their own kind strings instead of their dual generators
CURVES_DIGESTS = {
    (3, 2, "pretty"): "577749075f13de24a9d10c1af642fbf65396b9c3c61b83a67706a2c7ec6fea13",
    (3, 2, "json"): "c9ea97c720261db9328f63f66a14ae2f99ad5d2ed372da09b776db6fe29d8e76",
    (3, 2, "csv"): "c973ff44f3fb01a0bebc298866e0e41f295924424a9d536208f01484711f89a2",
    (4, 3, "pretty"): "0df2c1a7e6f2847bb15afabe39211ce9d8a1e34d5c718185691ec0f7560578dd",
    (4, 3, "json"): "a39f7c2912c53c30b44015643b03fa640802d07a0c76403f18f22fa6f077cb73",
    (4, 3, "csv"): "f883caea2896a8d01aa813cd8efd8bce226395fb54abeb7e2fa170fa835a50e4",
    (5, 4, "pretty"): "9b30ef77cef555d62bf082f6b81b2a53fbb29867ac3ae712ed1696deeb8a121e",
    (5, 4, "json"): "969244a0d35e86f117ff9d8f0f8eca2963f8e2b8198d0aff19b6273bbe6da80d",
    (5, 4, "csv"): "caff503a1b96bb2bc3340b078969e71ab70c69f1f31923f9bacd9a833f312b57",
}


@pytest.mark.parametrize("g, n, fmt", sorted(CURVES_DIGESTS))
def test_curves_output_bytes(capsys, g, n, fmt):
    code, out, err = run(capsys, "curves", "--g", str(g), "--n", str(n), "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CURVES_DIGESTS[g, n, fmt]


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


# the same at the benchmark's two large sizes, at weights whose
# coefficients repeat most (66 values over 3,876 monomials, 21 over
# 2,925), taken while the expansion made one Fraction a monomial and the
# renderers printed each term
DR_REPEATING_WEIGHTS = {(4, 3): "1,-2,1", (3, 4): "1,-1,1,-1"}
DR_REPEATING_DIGESTS = {
    (4, 3, "pretty"): "5164b325058333487539e5d681c646d8d9cf3597363e29802a9b436cfdd826dc",
    (4, 3, "json"): "92d30fb4a572b19a70e1d77e98b456944afa0884886b2408362d934d5072e8ac",
    (4, 3, "csv"): "84211675dd1b529668308c2ca15cd98cdba3c5c7384936295b771efe2cb256db",
    (3, 4, "pretty"): "f153b3d1112a5810b57508e43c80c223d9d6335e6465841758b6189368750c80",
    (3, 4, "json"): "ee052cfba41f2c5fd6d92deac78f61ac3c2dea0b9cb1996caf260c5cc3716690",
    (3, 4, "csv"): "8d0b495ce026c27ab14b9acf2305591e6dcc1844104e07e0ec2d7dcd0ca95513",
}


def dr_output_digest(capsys, g, n, d, fmt):
    code, out, err = run(capsys, "dr", "--g", str(g), "--n", str(n), "--d", d, "--format", fmt)
    assert (code, err) == (0, "")
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("g, n, fmt", sorted(DR_DIGESTS))
def test_dr_output_bytes(capsys, g, n, fmt):
    assert dr_output_digest(capsys, g, n, DR_WEIGHTS[g, n], fmt) == DR_DIGESTS[g, n, fmt]


@pytest.mark.parametrize("g, n, fmt", sorted(DR_REPEATING_DIGESTS))
def test_dr_output_bytes_where_coefficients_repeat(capsys, g, n, fmt):
    digest = dr_output_digest(capsys, g, n, DR_REPEATING_WEIGHTS[g, n], fmt)
    assert digest == DR_REPEATING_DIGESTS[g, n, fmt]


@st.composite
def dr_commands(draw):
    """(g, n, weights) of total degree 0 with at most 400 monomials."""
    g, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    head = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    d = (*head, -sum(head))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        k = len(restrict_to_compact_type(class_T(g, n, d)).coeffs)
    assume(math.comb(k + g - 1, g) <= 400)
    return g, n, d


@pytest.mark.filterwarnings("ignore::UserWarning")  # genus 1 and 2 warn
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=dr_commands())
def test_dr_formats_carry_the_expansion(case):
    # every format prints each monomial's label and its coefficient as str
    # prints it, in output order: the renderers share each coefficient's text
    g, n, d = case
    want = [(monomial_label(mono), str(c)) for mono, c in dr_expansion(g, n, d).terms.items()]
    out = {}
    for fmt in FORMATS:
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            argv = ["dr", "--g", str(g), "--n", str(n), f"--d={','.join(map(str, d))}"]
            assert main([*argv, "--format", fmt]) == 0
        out[fmt] = buf.getvalue()
    terms = json.loads(out["json"])["terms"]
    # JSON carries factors, not labels: join them as the label does
    labels = ["*".join(lab if e == 1 else f"{lab}^{e}" for lab, e in t["monomial"]) for t in terms]
    assert list(zip(labels, (t["c"] for t in terms))) == want
    rows = list(csv.reader(io.StringIO(out["csv"])))
    assert rows[0] == ["monomial", "coefficient"] and [tuple(r) for r in rows[1:]] == want
    assert [tuple(line.rsplit(": ", 1)) for line in out["pretty"].splitlines()] == want


def format_outputs(argv):
    """stdout of ``main(argv)`` in each format, by format."""
    out = {}
    for fmt in FORMATS:
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            assert main([*argv, "--format", fmt]) == 0
        out[fmt] = buf.getvalue()
    return out


@st.composite
def listing_commands(draw):
    """(command, g, n, weights) for every command but dr and verify, the
    weights of the degree and sign the command needs."""
    command = draw(st.sampled_from(["basis", "curves", "matrix", "class T", "class theta", "class mueller", "ledger"]))
    g = draw(st.integers(3 if command in ("curves", "matrix") else 1, 4))
    n = draw(st.integers(2 if command in ("class mueller", "ledger") else 1, 3))
    head = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    d = (*head, (0 if command == "class T" else g - 1) - sum(head))
    assume(command not in ("class mueller", "ledger") or min(d) < 0)
    return command, g, n, d


@pytest.mark.filterwarnings("ignore::UserWarning")  # genus 1 and 2 warn
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=listing_commands())
def test_formats_carry_the_same_values(case):
    # each format, parsed back, carries the library's values as str prints them
    command, g, n, d = case
    argv = [*command.split(), "--g", str(g), "--n", str(n)]
    if command.startswith("class") or command == "ledger":
        argv.append(f"--d={','.join(map(str, d))}")
    out = format_outputs(argv)
    doc = json.loads(out["json"])
    table = [tuple(row) for row in csv.reader(io.StringIO(out["csv"]))]
    lines = out["pretty"].splitlines()
    if command == "basis":
        header, want = "generators", [generator_label(gen) for gen in basis_generators(g, n)]
    elif command == "curves":
        header, want = "curves", [curve_label(c) for c in enumerate_test_curves(g, n)]
    if command in ("basis", "curves"):
        assert doc == {header: want}
        assert table == [(header,), *((label,) for label in want)]
        assert lines == want
    elif command == "matrix":
        mat = build_matrix(g, n)
        cols = [generator_label(gen) for gen in mat.cols]
        want = [(curve_label(c), *map(str, row)) for c, row in zip(mat.rows, mat.entries)]
        assert list(doc) == ["g", "n", "rows", "cols", "entries"]
        assert (doc["g"], doc["n"], doc["cols"]) == (g, n, cols)
        assert [(label, *row) for label, row in zip(doc["rows"], doc["entries"])] == want
        assert IntersectionMatrix.from_json_dict(doc) == mat
        assert table == [("curve", *cols), *want]
        assert [tuple(line.split("\t")) for line in lines] == table
    elif command.startswith("class"):
        divclass = {"T": class_T, "theta": class_Theta, "mueller": class_D_direct}[command[6:]](g, n, d)
        want = [(generator_label(gen), str(divclass.coeff(gen))) for gen in basis_generators(g, n)]
        coeffs = doc["coeffs"]
        assert [
            ("lambda1", coeffs["lambda1"]),
            ("delta_irr", coeffs["delta_irr"]),
            *((f"K{i}", c) for i, c in enumerate(coeffs["K"], 1)),
            *((_boundary_label("delta", b["h"], tuple(b["P"])), b["c"]) for b in coeffs["boundary"]),
        ] == want
        assert DivisorClass.from_json_dict(doc) == divclass
        assert table == [("generator", "coefficient"), *want]
        assert [tuple(line.split(" = ")) for line in lines] == want
    else:
        ledger = correction_ledger(g, n, d)
        want = [(t.h, t.P, t.mult) for t in ledger.terms]
        assert [(t["h"], tuple(t["P"]), t["mult"]) for t in doc["terms"]] == want
        assert doc["delta_irr_order"] == str(ledger.delta_irr_order)
        assert table[0] == ("h", "P", "mult")
        assert [(int(h), tuple(map(int, P.split())), int(mult)) for h, P, mult in table[1:]] == want
        assert lines[:-1] == [f"{mult} * {_boundary_label('delta', h, P)}" for h, P, mult in want]
        assert lines[-1] == f"delta_irr order = {ledger.delta_irr_order}"


# what json.loads returns, tuples as well, with str keys
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | st.floats() | st.text(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(value=json_values)
@example([[], {}, (), [[{}]], {"a": [[]], "": {"": {}}}])
@example({"k\u00e9\"\\\x00\n\u2028": ["\ud800\U0001f600", -(2**100), 2**64 + 1, True, False, None, "\x1f\t\"\\/"]})
def test_the_json_writer_is_json_dumps_with_indent_2(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


# sha256 of the stdout of `thetadiv class` and `thetadiv ledger`, taken
# before the closed formulas read d_P and sum d_i^2 from one subset-sum table
CLASS_WEIGHTS = {
    (5, 7, "T"): "3,-2,1,-4,5,-1,-2",
    (5, 7, "theta"): "3,-1,2,0,-2,1,1",
    (5, 8, "T"): "2,-3,1,4,-1,-2,0,-1",
    (5, 8, "theta"): "4,-2,1,3,-1,0,-2,1",
}
CLASS_DIGESTS = {
    (5, 7, "T", "pretty"): "9ca3001a8d6bfdf6c74d8ee28b679879fbdcf8e6ca7df35f3441bec8429d2943",
    (5, 7, "T", "json"): "a4cb45254113384198fce141c5de6b95aeef95b77d9e2dac5058caa634c33c61",
    (5, 7, "T", "csv"): "a5dc963219f2d2b52f0f84deff657d36c0cc7cc6ccec0eb2e2473c79c04c83ac",
    (5, 7, "theta", "pretty"): "581e15fce1a2a04fc45229c715c2df29579ec883dbdeb8cd8ca99a3b943fa206",
    (5, 7, "theta", "json"): "80740f12025e3a7a2b261d453895240c6135cb695976de10040d6c84d3902087",
    (5, 7, "theta", "csv"): "50662aeda00f2d4b3e4a0e3076a6029e4a9e0d71ced9b4916c6c08a33435509c",
    (5, 7, "mueller", "pretty"): "c2d48cdd6061658723126b0c9bd672b3c0fbd7593965d35f818994cc544c9304",
    (5, 7, "mueller", "json"): "8761e91304248ba32dbac53cbfad17ef29928f3539b4473d77d5ee3b95d03848",
    (5, 7, "mueller", "csv"): "217d287fcacc9e25897e618aa79001de3fcc4cddfceae39790a7c0994d7025c8",
    (5, 8, "T", "pretty"): "a1c181f0be94a84946179a2fc68f1285cedc5dbfec97dc536e4ea3b22e622144",
    (5, 8, "T", "json"): "c34c6330a98d0eea5285979cb879cf3f65fc11536b133e0bea5f6de50971a19b",
    (5, 8, "T", "csv"): "be7e4b1665c4c8bcb1876bd44cdaeba09b81e2365958b3957752e48f4e3e9481",
    (5, 8, "theta", "pretty"): "287cb83a485090c765b6dcbae8bfcc99d5e4b717877b928eba525f0b8e0858f3",
    (5, 8, "theta", "json"): "36febd779d3f488a92ee5a820aba5f14ed4aaf9b5623c65f911e11fa816eed70",
    (5, 8, "theta", "csv"): "5291fee36d908b8aead1d4969adaef8994292bdd6425698860b9b4820b901b32",
    (5, 8, "mueller", "pretty"): "ddae3656084c7fdcc391d0507a248f722f3f95d270e8bd73eecbda69b43c847b",
    (5, 8, "mueller", "json"): "5f5f94d149e84cb8c26e3692e95e6cc17c11de68139c5a23b0fc5940ee0a9944",
    (5, 8, "mueller", "csv"): "49c88449c2471fdc935070cf5b46bf8353ad266ff110d2c001dc64a7fbac2f6f",
}
LEDGER_DIGESTS = {
    (5, 7, "pretty"): "6224ae66d8e84300282edc77953ddaea6c0d44492d63b4afcd01912ae652cb6e",
    (5, 7, "json"): "be70986e17f5b81b087edcfbafcba380a57763682628cf17f7119ecfad9f760c",
    (5, 7, "csv"): "259609a27f869306e6dc8425396739c109fe67fcc60e773e3e79963a1d634a85",
    (5, 8, "pretty"): "2320ea641640ba4d6b887675b878e4e6ff451393178aa2456ee6febefdcbcc4a",
    (5, 8, "json"): "32db68a39eb30c7314f88805f932d7891e468bd29861d26103ed1bb53bdd6d32",
    (5, 8, "csv"): "37b34027ba4a7a60b11945c718c1bab1f629f3e9f9259e33680ad899b064ff0c",
}


def weights_for(g, n, kind):
    return CLASS_WEIGHTS[g, n, "T" if kind == "T" else "theta"]


@pytest.mark.parametrize("g, n, kind, fmt", sorted(CLASS_DIGESTS))
def test_class_output_bytes(capsys, g, n, kind, fmt):
    d = weights_for(g, n, kind)
    code, out, err = run(capsys, "class", kind, "--g", str(g), "--n", str(n), f"--d={d}", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CLASS_DIGESTS[g, n, kind, fmt]


@pytest.mark.parametrize("g, n, fmt", sorted(LEDGER_DIGESTS))
def test_ledger_output_bytes(capsys, g, n, fmt):
    d = weights_for(g, n, "mueller")
    code, out, err = run(capsys, "ledger", "--g", str(g), "--n", str(n), f"--d={d}", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LEDGER_DIGESTS[g, n, fmt]


# sha256 of the stdout of `thetadiv verify`, taken while each sweep was
# still written as two closures around _sweep.  A key is the argv after
# `verify` and the route replaced, if any: a failing report lists every d
# drawn, so these pin each sampler's random stream and degree
VERIFY_DIGESTS = {
    ("rank --g 3 --n 2", ""): "2230f38c1d0cbd43d9d0a2aee7c2cbda78d4569e5bfe92bbb46e080a95c36c4e",
    ("rank --g 4 --n 3", ""): "07566c5a4d7eec29817f28a053e92b36d7e7de05e6ef80f45fb3838451ac4b69",
    ("T --g 3 --n 2 --trials 6 --seed 0", ""): "30d73c271d529cf7d35dcdb11385e4bdb40f45a5ba606d6e55dc33cb96a21370",
    ("T --g 4 --n 3 --trials 3 --seed 11", ""): "c61da82fdb7e9141d2c21010cae5cbae1d31ef61167d9a5b3233f3c2d92b0fbc",
    ("theta --g 3 --n 2 --trials 6 --seed 0", ""): "1be489d04cb3cbb1cdbeeb2d3e30e0704335df9a8387714a2a16632e7bb5aa59",
    ("theta --g 4 --n 3 --trials 3 --seed 11", ""): "8b0fe37e5572ee48aa9df45e9cef4f08a3e194ff79e75275a6df79982dda35d6",
    ("mueller --g 3 --n 2 --trials 6 --seed 0", ""): "0c7d1b6da4f6363f98ccaeb80645f04ec27ad9c87049e4172e35e467e3fd705a",
    ("mueller --g 4 --n 3 --trials 3 --seed 11", ""): "46cca89617e02a0d3e6325c4fa11142e2deacf4daf65d0c680599e71da203d4c",
    ("T --g 3 --n 2 --trials 4 --seed 2", "class_T"): "e16831c6473e6708d724b907a3bf091501191fa41629dfd68bf5c7eb5f3d1d2a",
    ("theta --g 3 --n 2 --trials 4 --seed 7", "class_Theta"): "e6ad9a83b7eda6b4b290342b71c0c47532a2ac39ae9ef9e8e76aa98fd2dd198f",
    # seed 7 draws (0, 2) and (2, 0), which the mueller sampler rejects
    ("mueller --g 3 --n 2 --trials 4 --seed 7", "class_D_from_theta"): "e16d20b649efb1c5767021f183069fcc122ec86d168501ffb9d5e73d9b4df2c7",
}


@pytest.mark.parametrize("argv, broken", sorted(VERIFY_DIGESTS))
def test_verify_output_bytes(capsys, monkeypatch, argv, broken):
    import thetadiv.cli as cli

    wrong = {
        "class_T": lambda g, n, d: cli.class_Theta(g, n, (g - 1,) + (0,) * (n - 1)),  # as above
        "class_Theta": lambda g, n, d: thetadiv.DivisorClass.zero(g, n),
        "class_D_from_theta": lambda g, n, d: thetadiv.DivisorClass.zero(g, n),
    }
    if broken:
        monkeypatch.setattr(cli, broken, wrong[broken])
    code, out, err = run(capsys, "verify", *argv.split())
    assert (code, err) == (1 if broken else 0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[argv, broken]


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


BUDGET_REFUSAL = "above the budget of 5000000; set THETADIV_BUDGET to override\n"


def no_subsets(*args, **kwargs):
    raise AssertionError("enumerated subsets")


def test_oversized_basis_exits_fast(capsys, monkeypatch):
    import thetadiv.basis as basis

    monkeypatch.delenv("THETADIV_BUDGET", raising=False)
    monkeypatch.setattr(basis, "_subsets", no_subsets)
    # (3, 20) has 2,097,131 boundary classes, 8 units of work each
    for g, n in [("3", "40"), ("3", "1000000000"), ("1000000000", "1"), ("3", "20")]:
        for command in ("basis", "curves", "matrix"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, "--g", g, "--n", n)
            assert time.perf_counter() - start < 0.5
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: (g={g}, n={n}) is estimated at ")
            assert err.endswith(BUDGET_REFUSAL)


def test_oversized_matrix_exits_fast(capsys, monkeypatch):
    import thetadiv.basis as basis
    import thetadiv.curves as curves

    monkeypatch.delenv("THETADIV_BUDGET", raising=False)
    monkeypatch.setattr(basis, "_subsets", no_subsets)
    # 8 units a boundary class plus m^2/4 for the dense entries: (6, 11),
    # m = 7,169, ran out of memory as JSON; m = 14,337 and 229,377 beyond it
    for n, estimate in (("11", 12905888), ("12", 51501976), ("16", 13155286904)):
        for fmt in FORMATS:
            start = time.perf_counter()
            code, out, err = run(capsys, "matrix", "--g", "6", "--n", n, "--format", fmt)
            assert time.perf_counter() - start < 0.5
            assert (code, out) == (2, "")
            assert err == f"error: (g=6, n={n}) is estimated at {estimate} units of work, {BUDGET_REFUSAL}"

    # (6, 10), m = 3,585, passes the check and goes on to build its rows
    def rows(g, n):
        raise RuntimeError(f"rows of ({g}, {n})")

    monkeypatch.setattr(curves, "_rows", rows)
    with pytest.raises(RuntimeError, match=r"rows of \(6, 10\)"):
        curves.build_matrix(6, 10)

    # JSON holds every entry as a str: m^2 units, not m^2/4, refuse (6, 10)
    start = time.perf_counter()
    code, out, err = run(capsys, "matrix", "--g", "6", "--n", "10", "--format", "json")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: (g=6, n=10) is estimated at 12880809 units of work, {BUDGET_REFUSAL}"
    # and admit (6, 9), m = 1,793, at 3,229,177 units
    code, out, err = run(capsys, "matrix", "--g", "6", "--n", "9", "--format", "json")
    assert (code, out, err) == (3, "", "internal error: RuntimeError: rows of (6, 9)\n")


def test_unbounded_sweeps_exit_before_any_trial(capsys, monkeypatch):
    import thetadiv.basis as basis
    import thetadiv.cli as cli

    def no_trial(*args):
        raise AssertionError("ran a trial")

    monkeypatch.delenv("THETADIV_BUDGET", raising=False)
    monkeypatch.setattr(cli, "reconstruct_T", no_trial)
    monkeypatch.setattr(cli, "class_D_direct", no_trial)
    monkeypatch.setattr(basis, "_subsets", no_subsets)
    # each trial is charged one solve: (8 + n^2/4) units per boundary class
    for argv, estimate in (
        (["verify", "T", "--g", "3", "--n", "2", "--trials", "1000000000"], 45000000000),
        (["verify", "mueller", "--g", "3", "--n", "2", "--trials", "1000000000"], 45000000000),
        (["verify", "T", "--g", "3", "--n", "19"], 5137924400),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: (g=3, n={argv[5]}) is estimated at {estimate} units of work, {BUDGET_REFUSAL}"


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


# sha256 of the exit code, stdout and stderr of `thetadiv --help`, of each
# subcommand's --help and of usage errors, joined by NUL, taken on Python
# 3.11: the first ten before the parser was built from one table, the five
# raised inside a subcommand before its arguments were added only when it
# parses (3.10 gives the same bytes), and no command and an unknown one
# before only the dispatched subcommand's parser was built; argparse wraps
# at $COLUMNS, and its layout differs between Python versions
HELP_DIGESTS = {
    "--help": "6822c278de64c6a382ef528b00cabaf3ed4f902d424a4e5ffa8ba4f34bd07d6a",
    "basis --help": "6c2c0ed754f3ae2dbcacc5556f729981cbd6582130e2762ee9c2620b44da7e58",
    "curves --help": "3a0084b2237eb3a75c05fa29e568a42624e75659102e9d3e45bc8e5cf8e29ec5",
    "matrix --help": "539b7bcf9c44a85d3fb295228554dd61aa27833dfdf33bba05800e36428df4b1",
    "class --help": "f094639dac267845f099b98156184b00ed64e89bb173e9bad92ebed7ed84e3b9",
    "ledger --help": "392138f354416ee385a9ccca40da352293d67562050ea86ba0e5d43dda39332f",
    "dr --help": "ea8f71057e6e67888335497f0b8f57f699e7f6c13f32d70b145f1156433f1b67",
    "verify --help": "e0d6b9633b0d853fdd733ac3e63d6d39b2b438b37e964fd39476a12c8e182172",
    "class": "0d008c24c66adfa388c892e5fd5bfce6412798f749f8fe358ae4ddd666704dcc",
    "class X --g 3 --n 2 --d 1": "1c63c3954abb2cd32bd5ca330372a03085209f6dda631d8df30a7d21ba8c87e5",
    "basis --g 3": "4f94152986b0e67ce6767ead4525fde342c47d96d2b2962f0e736c3991dd9a6f",
    "basis --g x --n 1": "7c763429aef1a39bd44a45548f4510b0ae2fc882c098ed6b1c801c7a8be94ffe",
    "basis --g 3 --n 1 --format xml": "67a8d59d1b50f2677cca4483e3e3cbdcea537ef32e24e215060c60c9e6e4a906",
    "basis --g 3 --n 1 --bogus": "1f7cd6e29d33297a77119f43da59a06fedb8050740bb67ef453a69294450c35a",
    "verify": "77ed8f6bf0423d89489f24e2d2d3d329625723824d3116ff82d4dec4e64b8445",
    "": "85614549d303addd855f3366dc99d888f8f7a78a79f58e2fec04d66d103c2d35",
    "bogus": "a15c975f264360cd70fabdd3a597597e59eb0d392e9b8f0537ce57fe9ed5eba9",
}


@pytest.mark.parametrize("argv", sorted(HELP_DIGESTS))
def test_help_and_usage_output_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out, err = capsys.readouterr()
    blob = f"{exc.value.code}\0{out}\0{err}"
    assert hashlib.sha256(blob.encode()).hexdigest() == HELP_DIGESTS[argv]


# each command's argv and the number of arguments its row in the table adds
COMMAND_ARGV = {
    "basis": ("basis --g 3 --n 1", 3),
    "curves": ("curves --g 3 --n 1 --format csv", 3),
    "matrix": ("matrix --g 3 --n 1 --format json", 3),
    "class": ("class theta --g 3 --n 2 --d 1,1", 5),
    "ledger": ("ledger --g 3 --n 2 --d 3,-1", 4),
    "dr": ("dr --g 3 --n 2 --d 1,-1", 4),
    "verify": ("verify rank --g 3 --n 1", 5),
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
def test_a_call_adds_only_the_arguments_of_its_command(capsys, monkeypatch, command):
    # the top parser's -h, the named command's -h and its own arguments,
    # not all 35 of every command
    argv, own = COMMAND_ARGV[command]
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    assert main(argv.split()) == 0
    assert capsys.readouterr().out
    assert len(calls) == 2 + own


@pytest.mark.parametrize(
    "argv, built, code",
    [*((argv, 2, 0) for argv, _own in COMMAND_ARGV.values()), ("--help", 1, 0), ("", 1, 2), ("bogus", 1, 2)],
)
def test_a_call_builds_only_the_parser_of_its_command(capsys, monkeypatch, argv, built, code):
    # the top parser, and the subcommand's only when argparse dispatches to it
    inits = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        inits.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    try:
        status = main(argv.split())
    except SystemExit as exc:
        status = exc.code
    capsys.readouterr()
    assert status == code
    assert len(inits) == built


def test_one_parser_parses_every_command_as_a_fresh_one_does():
    parser = build_parser()
    for _ in range(2):  # a second parse of the same command adds nothing twice
        for argv, _own in COMMAND_ARGV.values():
            args, fresh = parser.parse_args(argv.split()), build_parser().parse_args(argv.split())
            assert list(vars(args).items()) == list(vars(fresh).items())


def test_parsers_in_threads_parse_as_a_sequential_run():
    # the threads parse first, so that a parser shared between calls would
    # be built by several threads at once
    argvs = [argv.split() for argv, _own in COMMAND_ARGV.values()] * 10

    def parse_all(start):
        start.wait()  # all four threads build and parse at once
        return [build_parser().parse_args(argv) for argv in argvs]

    start = threading.Barrier(4, timeout=60)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside each build and parse
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(parse_all, [start] * 4, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    expected = [build_parser().parse_args(argv) for argv in argvs]
    assert runs == [expected] * 4


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
def test_help_after_other_commands_parsed_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")

    def help_text(parser):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    fresh = help_text(build_parser())
    parser = build_parser()
    for argv, _own in COMMAND_ARGV.values():
        parser.parse_args(argv.split())
    assert help_text(parser) == fresh


@pytest.fixture
def int_str_limit():
    """The interpreter's int-to-str limit at its default of 4300 digits for
    one test, whatever the environment set, and restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv",
    [
        ["class", "T", "--g", "3", "--n", "2", f"--d={'9' * 3000},-{'9' * 3000}"],
        ["class", "T", "--g", "3", "--n", "2", f"--d={'9' * 3000},-{'9' * 3000}", "--format", "csv"],
        ["dr", "--g", "3", "--n", "2", f"--d={10**1000},-{10**1000}", "--format", "csv"],
    ],
    ids=["class-pretty", "class-csv", "dr-csv"],
)
def test_a_value_past_the_int_str_limit_is_refused_before_any_output(capsys, int_str_limit, argv):
    # these wrote their first rows (26 and 21 bytes), then exited 2 part-way
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: a value has more than 4300 digits, the interpreter's int-to-str limit\n"
    assert sys.get_int_max_str_digits() == int_str_limit  # left alone


def test_values_under_the_int_str_limit_print_whole(capsys, int_str_limit):
    # weights of 2,000 digits give coefficients of about 4,000
    D = 10**2000 - 1
    code, out, err = run(capsys, "class", "T", "--g", "3", "--n", "2", f"--d={D},-{D}")
    half = Fraction(D * D, 2)
    rows = [
        ("lambda1", 0), ("delta_irr", 0), ("K1", half), ("K2", half), ("delta_0^{1,2}", D * D),
        ("delta_1^{}", 0), ("delta_1^{1}", -half), ("delta_1^{2}", -half), ("delta_1^{1,2}", 0),
    ]
    assert (code, err) == (0, "")
    assert out == "".join(f"{label} = {c}\n" for label, c in rows)
    # the ledger's orders are at most g whatever the weights, even of 4,300 digits
    M = 10**4299
    code, out, err = run(capsys, "ledger", "--g", "3", "--n", "2", f"--d={M + 2},-{M}")
    assert (code, err) == (0, "")
    assert out == "3 * delta_3^{}\n1 * delta_1^{}\n2 * delta_2^{}\ndelta_irr order = 1/8\n"


@pytest.mark.parametrize("place", ["numerator", "denominator"])
def test_the_digit_check_admits_limit_digits_and_refuses_one_more(int_str_limit, place):
    # limit digits pass, limit + 1 are refused, whatever the sign; 2**(3 * limit)
    # is the first value whose bit length makes the check build 10**limit
    def value(x, sign):
        return sign * x if place == "numerator" else Fraction(sign, x)

    for sign in (1, -1):
        cli._check_digits([value(1, sign), value(2 ** (3 * int_str_limit) - 1, sign)])
        cli._check_digits([value(2 ** (3 * int_str_limit), sign), value(10**int_str_limit - 1, sign)])
        with pytest.raises(ValueError, match=f"^a value has more than {int_str_limit} digits, "):
            cli._check_digits([value(3, sign), value(10**int_str_limit, sign)])


def package_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(thetadiv.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize(
    "argv, code",
    [(readme_commands()[3], 0), (["class", "T", "--g", "3", "--n", "2", "--d", "1,1"], 2)],
    ids=["readme-example", "refused"],
)
def test_whole_process_matches_main(capsys, argv, code):
    # the module's __main__ path, sys.exit(main()), as the console script runs it
    done = subprocess.run(
        [sys.executable, "-m", "thetadiv.cli", *argv],
        capture_output=True, text=True, env=package_env(), timeout=60,
    )
    assert done.returncode == code
    assert (done.stdout, done.stderr) == run(capsys, *argv)[1:]
    assert len(done.stderr.splitlines()) == (code != 0)


@pytest.mark.parametrize(
    "argv",
    [
        "dr --g 3 --n 4 --d 1,-2,3,-2",
        "matrix --g 6 --n 8 --format csv",
        "class T --g 5 --n 8 --d 1,-1,2,-2,3,-3,0,0 --format json",
    ],
)
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_with_141_and_no_stderr(argv, unbuffered):
    # as `thetadiv ... | head -1`: each output is longer than the pipe's
    # 64 KiB and the one line read, so the process meets the closed pipe
    env = dict(package_env(), PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "thetadiv.cli", *argv.split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (141, b"")  # 141: what a shell reports for SIGPIPE


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_output_to_a_pipe_closed_before_any_write_ends_with_141(unbuffered):
    # a few lines, all of them held in stdout's buffer when it is buffered:
    # the one write to the pipe is then a flush, which must fail inside
    # main and not in the interpreter's flush at exit (status 120)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "thetadiv.cli", "class", "T", "--g", "3", "--n", "2", "--d", "1,-1"],
            stdout=write_end, stderr=subprocess.PIPE, env=dict(package_env(), PYTHONUNBUFFERED=unbuffered),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")
