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

import thetadiv.curves as curves
import thetadiv.solve as solve
from thetadiv.basis import DELTA_IRR, LAMBDA1, DivisorClass, K
from thetadiv.cli import main
from thetadiv.curves import _rows, build_matrix
from thetadiv.solve import SingularMatrixError, certify_basis, reconstruct_T, reconstruct_Theta
from thetadiv.theta import _theta_column, class_T, class_Theta, theta_intersection

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


@pytest.mark.parametrize(
    "g, n, d0, d1",
    [
        (3, 1, (0,), (2,)),
        (4, 3, (2, 0, -2), (4, 0, -1)),
        (5, 4, (3, -1, 0, -2), (0, 5, -3, 2)),
        (3, 5, (1, 0, -3, 4, -2), (0, 2, -1, 3, -2)),
    ],
)
def test_the_right_side_column_is_the_public_theta_numbers(g, n, d0, d1):
    gens = _rows(g, n)[0]
    column = _theta_column(g, n, d0, 0)
    assert len(column) == len(gens) and column[:2] == [0, 0]  # the elliptic tail and irreducible node
    assert column == [theta_intersection(curves.TestCurve(gen), d0, "T", g, n) for gen in gens]
    # Theta has no numbers for those two families: the pins stand in their rows
    column = _theta_column(g, n, d1, 1)
    assert len(column) == len(gens)
    assert column[2:] == [theta_intersection(curves.TestCurve(gen), d1, "Theta", g, n) for gen in gens[2:]]


def fractional_right_sides(mat, seed):
    """Right sides with denominators 1, 3, 4 and 9, so that the node forms
    need more than their diagonals in their denominators: drawn by curve,
    keyed by the dual generator of each, and as the solver takes them, one
    column indexed by the position of that generator."""
    rng = random.Random(seed)
    rhs = {c.dual: Fraction(rng.randint(-30, 30), rng.choice((1, 3, 4, 9))) for c in mat.rows}
    return rhs, [rhs[gen] for gen in mat.cols]


@pytest.mark.parametrize("g, n", ORACLE_SIZES + [(6, 4)])
def test_eliminate_matches_dense_oracle_on_fractional_right_sides(g, n):
    mat = build_matrix(g, n)
    for seed in range(3):
        rhs, column = fractional_right_sides(mat, 100 * seed + 10 * g + n)
        det, failed, missing, values = solve._eliminate(g, n, lambda: column)
        assert det != 0 and failed == missing == []
        expected = zip(mat.cols, naive_gauss(mat.entries, [rhs[c.dual] for c in mat.rows]))
        assert values == {gen: x for gen, x in expected if x}  # the solver drops its zeros


def test_node_forms_are_in_lowest_terms_over_a_positive_denominator(monkeypatch):
    seen = []

    def reduce(row, value, solved, n):
        seen.append(solved)
        return reduce_forms(row, value, solved, n)

    reduce_forms = solve._reduce
    monkeypatch.setattr(solve, "_reduce", reduce)
    _, column = fractional_right_sides(build_matrix(5, 4), 7)
    solve._eliminate(5, 4, lambda: column)
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
    rows = [[0, 2, 4], [3, 1, 5]]
    assert solve._gauss(rows) == (-6, [], [])
    assert [Fraction(r[2], r[k]) for k, r in enumerate(rows)] == [1, 2]


def fraction_gauss(rows):
    """Reference for the integer kernel: Gauss-Jordan over Fractions on a
    square block whose rows end with their right side, pivoting on the
    first row with a nonzero entry.  Returns the determinant, the original
    indices of the rows left without a pivot, the columns left without one
    and, when regular, the solution."""
    a = [[Fraction(x) for x in row] for row in rows]
    order, det, missing = list(range(len(a))), Fraction(1), []
    for col in range(len(a)):
        done = col - len(missing)
        r = next((r for r in range(done, len(a)) if a[r][col]), None)
        if r is None:
            missing.append(col)
            continue
        if r != done:
            a[done], a[r], order[done], order[r] = a[r], a[done], order[r], order[done]
            det = -det
        det *= a[done][col]
        for i in range(len(a)):
            if i != done and a[i][col]:
                f = a[i][col] / a[done][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[done])]
    if missing:
        return 0, order[len(a) - len(missing) :], missing, None
    return det, [], [], [row[-1] / row[k] for k, row in enumerate(a)]


@st.composite
def integer_blocks(draw):
    """Square integer blocks with a right-side column, of size 1..6: random,
    or with a zero row, a zero column, a row that is a combination of the
    others (singular), or a zero in the first pivot position (a swap)."""
    size = draw(st.integers(1, 6))
    entry = st.integers(-5, 5)
    rows = [draw(st.lists(entry, min_size=size + 1, max_size=size + 1)) for _ in range(size)]
    shape = draw(st.sampled_from(["random", "zero row", "zero column", "dependent row", "swap"]))
    k = draw(st.integers(0, size - 1))
    if shape == "zero row":
        rows[k][:size] = [0] * size
    elif shape == "zero column":
        for row in rows:
            row[k] = 0
    elif shape == "dependent row":
        factors = [0 if i == k else draw(entry) for i in range(size)]
        rows[k][:size] = [sum(f * row[c] for f, row in zip(factors, rows)) for c in range(size)]
    elif shape == "swap":
        rows[0][0] = 0
    return rows


@given(integer_blocks())
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_gauss_matches_the_fraction_reference(rows):
    det, failed, missing, solution = fraction_gauss(rows)
    block = [list(row) for row in rows]
    assert solve._gauss(block) == (det, failed, missing)
    if solution is not None:
        assert [Fraction(r[-1], r[k]) for k, r in enumerate(block)] == solution


@pytest.mark.parametrize("g, n", [(5, 5), (5, 8)])
def test_solver_makes_fractions_only_for_its_results(monkeypatch, g, n):
    # 414 and 1,935 Fractions per reconstruct_T when both blocks were
    # Fraction rows, against bounds of 123 and 801; one per column until the
    # solved boundary values were made once per distinct value
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(None)
        return new(cls, *args, **kwargs)

    d = [1, -2, 3, 0, -2] + [1, -1, 0][: n - 5]
    m = len(_rows(g, n)[0])
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for reconstruct, weights in ((reconstruct_T, d), (reconstruct_Theta, d[:-1] + [d[-1] + g - 1])):
        made.clear()
        result = reconstruct(g, n, weights)
        assert len(set(result.coeffs.values())) <= len(made) <= m + 2 * n + 16, reconstruct.__name__
