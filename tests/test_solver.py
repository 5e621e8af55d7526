"""Tests for rank certificates and class reconstruction, against dense
oracles run on the full pairing matrix."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import thetadiv.solve as solve
from thetadiv.basis import DELTA_IRR, LAMBDA1, DivisorClass, K
from thetadiv.cli import main
from thetadiv.curves import _rows, build_matrix
from thetadiv.solve import SingularMatrixError, certify_basis, reconstruct_T, reconstruct_Theta
from thetadiv.theta import class_T, class_Theta, theta_intersection

ORACLE_SIZES = [(g, n) for g in (3, 4, 5) for n in (1, 2, 3)] + [(4, 4)]


def naive_gauss(rows, rhs):
    """Independent oracle: plain Fraction Gaussian elimination, square systems."""
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    m = len(a)
    for k in range(m):
        piv = next(r for r in range(k, m) if a[r][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        for r in range(m):
            if r != k and a[r][k] != 0:
                f = a[r][k] / a[k][k]
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return [a[k][m] / a[k][k] for k in range(m)]


def test_certify_basis_small_cases():
    report = certify_basis(3, 1)
    assert report["rank"] == report["expected"] == 5
    assert report["det_nonzero"] and report["failed_rows"] == []

    report = certify_basis(3, 2)
    assert report["rank"] == report["expected"] == 9

    report = certify_basis(4, 2)
    assert report["rank"] == report["expected"]
    assert report["det_nonzero"]


def test_reconstruct_T_examples():
    assert reconstruct_T(3, 2, (1, -1)) == class_T(3, 2, (1, -1))
    assert reconstruct_T(3, 1, (0,)) == DivisorClass.zero(3, 1)
    sol = reconstruct_T(4, 2, (2, -2))
    assert sol.coeff(LAMBDA1) == 0
    assert sol.coeff(DELTA_IRR) == 0


def test_reconstruct_Theta_examples():
    sol = reconstruct_Theta(3, 2, (3, -1))
    assert sol == class_Theta(3, 2, (3, -1))
    assert sol.coeff(DELTA_IRR) == Fraction(1, 8)
    assert sol.coeff(K(2)) == 0  # d_i(d_i+1)/2 vanishes at d_i = -1


@st.composite
def weighted_sizes(draw):
    g, n = draw(st.integers(3, 6)), draw(st.integers(1, 5))
    return g, n, tuple(draw(st.lists(st.integers(-10, 10), min_size=n - 1, max_size=n - 1)))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=weighted_sizes())
def test_reconstruction_sweep(case):
    g, n, head = case
    d0 = head + (-sum(head),)
    assert reconstruct_T(g, n, d0) == class_T(g, n, d0)
    d1 = head + (g - 1 - sum(head),)
    assert reconstruct_Theta(g, n, d1) == class_Theta(g, n, d1)


def random_weights(rng, n, degree):
    head = [rng.randint(-10, 10) for _ in range(n - 1)]
    return tuple(head + [degree - sum(head)])


@pytest.mark.parametrize("g, n", ORACLE_SIZES)
def test_reconstruction_matches_dense_oracle(g, n):
    mat = build_matrix(g, n)
    rng = random.Random(1000 * g + n)
    d = random_weights(rng, n, 0)
    rhs = [theta_intersection(c, d, "T", g, n) for c in mat.rows]
    expected = DivisorClass(g, n, dict(zip(mat.cols, naive_gauss(mat.entries, rhs))))
    assert reconstruct_T(g, n, d) == expected

    d = random_weights(rng, n, g - 1)
    kept = [(row, c) for row, c in zip(mat.entries, mat.rows) if c.dual.kind in ("K", "delta")]
    pins = [
        ([Fraction(gen == LAMBDA1) for gen in mat.cols], Fraction(-1)),
        ([Fraction({LAMBDA1: 1, DELTA_IRR: 12}.get(gen, 0)) for gen in mat.cols], Fraction(1, 2)),
    ]
    rows = [row for row, _ in kept] + [row for row, _ in pins]
    rhs = [theta_intersection(c, d, "Theta", g, n) for _, c in kept] + [value for _, value in pins]
    expected = DivisorClass(g, n, dict(zip(mat.cols, naive_gauss(rows, rhs))))
    assert reconstruct_Theta(g, n, d) == expected


def fractional_right_sides(curves, seed):
    """Right sides with denominators 1, 3, 4 and 9, so that the node forms
    need more than their diagonals in their denominators; keyed by the
    dual generator of each curve, as the solver asks for them."""
    rng = random.Random(seed)
    return {c.dual: Fraction(rng.randint(-30, 30), rng.choice((1, 3, 4, 9))) for c in curves}


@pytest.mark.parametrize("g, n", ORACLE_SIZES + [(6, 4)])
def test_eliminate_matches_dense_oracle_on_fractional_right_sides(g, n):
    mat = build_matrix(g, n)
    for seed in range(3):
        rhs = fractional_right_sides(mat.rows, 100 * seed + 10 * g + n)
        det, failed, missing, values = solve._eliminate(g, n, rhs.__getitem__)
        assert det != 0 and failed == missing == []
        assert values == dict(zip(mat.cols, naive_gauss(mat.entries, [rhs[c.dual] for c in mat.rows])))


def test_node_forms_are_in_lowest_terms_over_a_positive_denominator(monkeypatch):
    seen = []

    def reduce(row, value, solved, n):
        seen.append(solved)
        return reduce_forms(row, value, solved, n)

    reduce_forms = solve._reduce
    monkeypatch.setattr(solve, "_reduce", reduce)
    rhs = fractional_right_sides(build_matrix(5, 4).rows, 7)
    solve._eliminate(5, 4, rhs.__getitem__)
    # indexed by column: lambda1, delta_irr and K_1..K_4 have no node form
    solved = seen[-1]
    assert len(solved) == 49 and solved[:6] == [None] * 6
    forms = solved[6:]
    assert len(forms) == 43 and any(den > 1 for _, den in forms)
    for vec, den in forms:
        assert den > 0 and math.gcd(den, *vec) == 1


@pytest.mark.parametrize("g, n", ORACLE_SIZES)
def test_certificate_det_matches_sympy(g, n):
    entries = build_matrix(g, n).entries
    det = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in entries]).det()
    report = certify_basis(g, n)
    assert Fraction(report["det"]) == Fraction(int(det.p), int(det.q)) != 0
    assert report["rank"] == report["expected"] == len(entries)


# sha256 of the `det` string, taken when dense Bareiss elimination of the
# whole pairing matrix computed it
DET_DIGESTS = {
    (6, 7): "e76eff5a24a6798ee051792eb895179dc62476b0ee9287dd5018076278586a56",
    (5, 8): "a29cc70ed31a049d17c04e3704b044cc296386e91c86af40e62072b773880e00",
    # taken from the Fraction node-row solver, before the integer forms
    (7, 8): "a2bcd504315e382b621824281543e616edefec2f6742e6a3650ff138e5a9120d",
}


@pytest.mark.parametrize("g, n", sorted(DET_DIGESTS))
def test_certificate_det_pinned(g, n):
    report = certify_basis(g, n)
    assert report["rank"] == report["expected"]
    assert hashlib.sha256(report["det"].encode()).hexdigest() == DET_DIGESTS[g, n]


def test_certificate_full_rank_at_7_8():
    report = certify_basis(7, 8)
    assert report["rank"] == report["expected"] == 1025
    assert report["det_nonzero"] and report["failed_rows"] == []


def test_decimal_string_beyond_the_int_str_limit():
    rng = random.Random(5)
    digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(8999))
    x = 0
    for i in range(0, len(digits), 100):  # int() of short strings stays under the limit
        piece = digits[i : i + 100]
        x = x * 10 ** len(piece) + int(piece)
    assert x > 10**4300
    assert solve._fraction_str(Fraction(x)) == digits
    assert solve._fraction_str(Fraction(-x, 10**4400 + 1)) == f"-{digits}/1{'0' * 4399}1"
    for q in (Fraction(0), Fraction(-7), Fraction(-3, 4), Fraction(10**600 - 1, 2), Fraction(-(10**1200) - 5)):
        assert solve._fraction_str(q) == str(q)


def test_verify_rank_beyond_the_int_str_limit(capsys):
    # m = 7169; the determinant has about 7,900 digits
    assert main(["verify", "rank", "--g", "6", "--n", "11"]) == 0
    out = capsys.readouterr().out
    assert '"rank": 7169' in out and '"ok": true' in out


@pytest.fixture
def point_row_2_duplicates_point_row_1(monkeypatch):
    def rows(g, n):
        gens, row = _rows(g, n)
        # columns 2 and 3 are K_1 and K_2, dual to the point curves 1 and 2
        return gens, lambda c: row(2 if c == 3 else c)

    monkeypatch.setattr(solve, "_rows", rows)


@pytest.mark.usefixtures("point_row_2_duplicates_point_row_1")
def test_certificate_can_fail(capsys):
    report = certify_basis(3, 2)
    assert (report["rank"], report["expected"]) == (8, 9)
    assert (report["det"], report["det_nonzero"]) == ("0", False)
    assert report["failed_rows"] == ["point2"]
    with pytest.raises(SingularMatrixError, match="K2"):
        reconstruct_T(3, 2, (1, -1))
    assert main(["verify", "rank", "--g", "3", "--n", "2"]) == 1
    assert '"ok": false' in capsys.readouterr().out


def test_gauss_row_swap_flips_the_determinant():
    rows = [[Fraction(0), Fraction(2), Fraction(4)], [Fraction(3), Fraction(1), Fraction(5)]]
    assert solve._gauss(rows) == (-6, [], [])
    assert [r[2] / r[k] for k, r in enumerate(rows)] == [1, 2]
