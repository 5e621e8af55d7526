"""Tests for the test-curve families and their intersection numbers."""

import json
import operator
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadiv.basis import (
    DELTA_IRR,
    LAMBDA1,
    BoundaryIndex,
    DivisorClass,
    K,
    basis_generators,
    canonicalize_boundary,
    delta,
    enumerate_boundary,
    relabel_generator,
)
from thetadiv.curves import (
    ELLIPTIC_TAIL,
    IRREDUCIBLE_NODE,
    _rows,
    boundary_curve,
    build_matrix,
    curve_label,
    enumerate_test_curves,
    intersect,
    pair,
    point_curve,
    relabel_curve,
)


def bgen(g, n, h, P):
    return delta(canonicalize_boundary(h, P, g, n))


def test_enumeration_counts():
    assert len(enumerate_test_curves(3, 2)) == 2 + 5 + 2
    assert len(enumerate_test_curves(3, 1)) == 1 + 2 + 2
    node_curves = [c for c in enumerate_test_curves(4, 3) if c.dual.kind == "delta"]
    assert [c.dual.boundary for c in node_curves] == enumerate_boundary(4, 3)


def test_enumeration_requires_genus_three():
    with pytest.raises(ValueError, match="genus >= 3"):
        enumerate_test_curves(2, 1)


def test_point_curve_rejects_bool():
    with pytest.raises(ValueError, match="point index"):
        point_curve(True)


def test_point_curve_pairings():
    assert intersect(point_curve(1), K(1), 3, 2) == 4  # 2g - 2
    assert intersect(point_curve(1), K(2), 3, 2) == 0
    assert intersect(point_curve(1), bgen(3, 2, 0, (1, 2)), 3, 2) == 1
    assert intersect(point_curve(2), bgen(3, 2, 0, (1, 2)), 3, 2) == 1
    assert intersect(point_curve(1), bgen(3, 2, 1, (1,)), 3, 2) == 0
    assert intersect(point_curve(1), LAMBDA1, 3, 2) == 0
    assert intersect(point_curve(1), DELTA_IRR, 3, 2) == 0


def test_node_curve_pairings():
    z = boundary_curve(canonicalize_boundary(1, (1,), 3, 2))
    # self-intersection 2 - 2(g-h) - |P^c|
    assert intersect(z, bgen(3, 2, 1, (1,)), 3, 2) == 2 - 4 - 1 == -3
    # moving point hits the complementary marking
    assert intersect(z, bgen(3, 2, 1, (1, 2)), 3, 2) == 1
    assert intersect(z, bgen(3, 2, 1, ()), 3, 2) == 0
    # K pairings: h > 0 sees only complementary markings
    assert intersect(z, K(1), 3, 2) == 0
    assert intersect(z, K(2), 3, 2) == 1
    assert intersect(z, LAMBDA1, 3, 2) == 0
    assert intersect(z, DELTA_IRR, 3, 2) == 0

    z0 = boundary_curve(canonicalize_boundary(0, (1, 2), 3, 2))
    assert intersect(z0, K(1), 3, 2) == 4
    assert intersect(z0, K(2), 3, 2) == 4
    assert intersect(z0, bgen(3, 2, 0, (1, 2)), 3, 2) == 2 - 6 - 0 == -4


def test_elliptic_tail_pairings():
    for g, n in [(3, 1), (3, 2), (4, 2)]:
        assert intersect(ELLIPTIC_TAIL, bgen(g, n, 1, ()), g, n) == Fraction(-1, 24)
        assert intersect(ELLIPTIC_TAIL, DELTA_IRR, g, n) == Fraction(1, 2)
        assert intersect(ELLIPTIC_TAIL, LAMBDA1, g, n) == Fraction(1, 24)
        assert intersect(ELLIPTIC_TAIL, K(1), g, n) == 0
        assert intersect(ELLIPTIC_TAIL, bgen(g, n, 1, (1,)), g, n) == 0


def test_irreducible_node_pairings():
    for g, n in [(3, 1), (3, 2), (5, 3)]:
        assert intersect(IRREDUCIBLE_NODE, bgen(g, n, 1, ()), g, n) == 1
        assert intersect(IRREDUCIBLE_NODE, DELTA_IRR, g, n) == -1
        assert intersect(IRREDUCIBLE_NODE, LAMBDA1, g, n) == 0
        assert intersect(IRREDUCIBLE_NODE, K(1), g, n) == 0


def test_pairings_where_delta_1_empty_is_unstable():
    # at (g, n) = (1, 1) delta_1^{} is no class, yet the other entries stand
    for gen, tail, irreducible in [
        (LAMBDA1, Fraction(1, 24), 0),
        (DELTA_IRR, Fraction(1, 2), -1),
        (K(1), 0, 0),
    ]:
        assert intersect(ELLIPTIC_TAIL, gen, 1, 1) == tail
        assert intersect(IRREDUCIBLE_NODE, gen, 1, 1) == irreducible


def test_pair_validates_curve_for_every_class():
    for divclass in (DivisorClass.zero(3, 3), DivisorClass(3, 3, {LAMBDA1: 1})):
        with pytest.raises(ValueError, match="point index 9 out of range"):
            pair(point_curve(9), divclass)
        with pytest.raises(ValueError, match="not contained in 1..3"):
            pair(boundary_curve(canonicalize_boundary(1, (4,), 3, 4)), divclass)
    assert pair(point_curve(1), DivisorClass.zero(3, 3)) == 0
    assert pair(point_curve(1), DivisorClass(3, 3, {K(1): 2, bgen(3, 3, 0, (1, 3)): 5})) == 8 + 5


@pytest.mark.parametrize("divclass", ["x", {K(1): 1}])
def test_pair_refuses_what_is_not_a_divisor_class(divclass):
    # a string or a plain dict raised AttributeError on its missing .n
    with pytest.raises(ValueError, match="^expected a DivisorClass, got "):
        pair(point_curve(1), divclass)


@pytest.mark.parametrize(
    "gen",
    [["K", 1], ("K", 1, None), delta(BoundaryIndex(1, [1])), K(3)],
    ids=["list", "plain tuple", "list P", "K3"],
)
def test_intersect_refuses_a_bad_generator_with_value_error(gen):
    # intersect is pair of the class of gen alone; gen is checked before it
    # is hashed, so a list is refused as a non-generator, not with TypeError
    with pytest.raises(ValueError):
        intersect(point_curve(1), gen, 3, 2)


def test_intersect_reports_a_bad_generator_before_a_bad_curve():
    with pytest.raises(ValueError, match="point index 9 out of range"):
        intersect(point_curve(9), K(1), 3, 2)
    with pytest.raises(ValueError, match="point index 3 out of range"):
        intersect(point_curve(9), K(3), 3, 2)


def test_matching_is_class_equality():
    # querying through either representative of a class gives the same number
    for g, n in [(3, 2), (4, 2), (4, 3)]:
        for curve in enumerate_test_curves(g, n):
            for b in enumerate_boundary(g, n):
                mh, mP = b.mirror(g, n)
                mirrored = delta(canonicalize_boundary(mh, mP, g, n))
                assert intersect(curve, mirrored, g, n) == intersect(curve, delta(b), g, n)


def test_build_matrix_shape_and_rows():
    mat = build_matrix(3, 1)
    assert mat.size == 5
    assert len(mat.cols) == 5

    mat = build_matrix(3, 2)
    gens = list(mat.cols)
    for curve, row in zip(mat.rows, mat.entries):
        if curve.dual.kind == "delta":
            # node rows never touch the lambda1 / delta_irr columns
            assert row[gens.index(LAMBDA1)] == 0
            assert row[gens.index(DELTA_IRR)] == 0
        if curve.dual == DELTA_IRR:
            nonzero = {gens[j] for j, x in enumerate(row) if x != 0}
            assert nonzero == {bgen(3, 2, 1, ()), DELTA_IRR}
        if curve.dual.kind == "K":
            allowed = {K(curve.dual.i)} | {
                bgen(3, 2, 0, (curve.dual.i, j)) for j in range(1, 3) if j != curve.dual.i
            }
            nonzero = {gens[j] for j, x in enumerate(row) if x != 0}
            assert nonzero <= allowed


def test_node_rows_are_triangular():
    # the shape thetadiv.solve relies on, in basis order
    for g in range(3, 8):
        for n in range(1, 7):
            gens, row_of = _rows(g, n)
            for own in range(2, len(gens)):
                row = row_of(own)
                assert 0 not in row and 1 not in row  # lambda1 and delta_irr
                if gens[own].kind == "delta":
                    b = gens[own].boundary
                    assert row[own] == 2 - 2 * (g - b.h) - len(b.complement(n)) != 0
                    assert all(c > own for c in row if c > n + 1 and c != own)


def test_row_keys_are_canonical_as_they_stand():
    # the row source places (h, P + {j}) at the node's flat key with bit
    # j - 1 set and a point pair (0, {i, j}) at bit_i | bit_j, with no
    # canonicalization: both must be the canonical form, a class of the basis
    for g in range(3, 9):
        for n in range(1, 8):
            gens, row_of = _rows(g, n)
            column = {(gen.boundary.h, gen.boundary.P): c for c, gen in enumerate(gens) if c > n + 1}

            def placed(h, P):
                b = canonicalize_boundary(h, P, g, n)
                return column[b.h, b.P]

            for (h, P), own in column.items():
                comp = [j for j in range(1, n + 1) if j not in P]
                for j in comp:
                    b = canonicalize_boundary(h, P + (j,), g, n)
                    assert (b.h, b.P) == (h, tuple(sorted(P + (j,)))) in column
                boundary = {c for c in row_of(own) if c > n + 1}
                assert boundary == {own} | {placed(h, P + (j,)) for j in comp}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    b = canonicalize_boundary(0, (j, i), g, n)
                    assert (b.h, b.P) == (0, (i, j)) in column
                boundary = {c for c in row_of(1 + i) if c > n + 1}
                assert boundary == {placed(0, (j, i)) for j in range(1, n + 1) if j != i}


def test_permutation_equivariance():
    g, n = 3, 3
    gens = basis_generators(g, n)
    curves = enumerate_test_curves(g, n)
    for sigma in permutations(range(1, n + 1)):
        for curve in curves:
            for gen in gens:
                moved = intersect(
                    relabel_curve(curve, sigma, g, n),
                    relabel_generator(gen, sigma, g, n),
                    g,
                    n,
                )
                assert moved == intersect(curve, gen, g, n)


def test_exports_deterministic():
    mat = build_matrix(3, 2)
    assert mat.to_csv() == build_matrix(3, 2).to_csv()
    blob = json.dumps(mat.to_json_dict())
    assert json.dumps(build_matrix(3, 2).to_json_dict()) == blob
    data = mat.to_json_dict()
    assert data["rows"][0] == "point1"
    assert data["cols"][:2] == ["lambda1", "delta_irr"]
    assert len(data["entries"]) == mat.size
    first_line = mat.to_csv().splitlines()[0]
    assert first_line.startswith("curve,lambda1,delta_irr,K1,K2,")


def test_labels():
    assert curve_label(point_curve(2)) == "point2"
    assert curve_label(boundary_curve(canonicalize_boundary(1, (1,), 3, 2))) == "node_1^{1}"
    assert curve_label(ELLIPTIC_TAIL) == "elliptic_tail"
    assert curve_label(IRREDUCIBLE_NODE) == "irreducible_node"


def test_matrix_json_round_trip():
    from thetadiv.curves import IntersectionMatrix

    mat = build_matrix(4, 2)
    assert IntersectionMatrix.from_json_dict(mat.to_json_dict()) == mat
    bad = mat.to_json_dict()
    bad["rows"] = list(reversed(bad["rows"]))
    with pytest.raises(ValueError, match="row labels"):
        IntersectionMatrix.from_json_dict(bad)


def test_curves_are_the_duals_of_the_basis():
    for g, n in [(3, 1), (4, 3), (5, 4)]:
        gens = basis_generators(g, n)
        assert [c.dual for c in enumerate_test_curves(g, n)] == gens[2:] + gens[:2]
    assert (ELLIPTIC_TAIL.dual, IRREDUCIBLE_NODE.dual) == (LAMBDA1, DELTA_IRR)


def test_relabel_curve_refuses_a_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        relabel_curve(point_curve(1), (7,), 3, 2)
    with pytest.raises(ValueError, match="not a permutation"):
        relabel_curve(ELLIPTIC_TAIL, (2, 2), 3, 2)
    assert relabel_curve(point_curve(1), (2, 1), 3, 2) == point_curve(2)


def test_matrix_json_refuses_entries_of_the_wrong_shape():
    from thetadiv.curves import IntersectionMatrix

    data = build_matrix(3, 2).to_json_dict()
    for entries in ([["1"]], data["entries"][:-1], [row[:-1] for row in data["entries"]]):
        with pytest.raises(ValueError, match="9 rows of 9 values"):
            IntersectionMatrix.from_json_dict(dict(data, entries=entries))


def test_matrix_json_refuses_malformed_documents():
    from thetadiv.curves import IntersectionMatrix

    data = build_matrix(3, 2).to_json_dict()
    # KeyError: 'g', and TypeError for a value that is not a list: a string
    # where a list belongs was read one character at a time
    strings = [dict(data, rows="x"), dict(data, cols="x"), dict(data, entries="0" * 9)]
    strings.append(dict(data, entries=["0" * 9] * 9))
    for bad in ({k: v for k, v in data.items() if k != "g"}, dict(data, entries=5), [], *strings):
        with pytest.raises(ValueError, match="^malformed IntersectionMatrix JSON: "):
            IntersectionMatrix.from_json_dict(bad)


@pytest.mark.parametrize("value", [0.5, None, True, "1/0"])
def test_matrix_json_reads_entries_as_coefficients(value):
    # 0.5 was read as 1/2 and true as 1, None raised TypeError and "1/0"
    # ZeroDivisionError
    from thetadiv.curves import IntersectionMatrix

    data = build_matrix(3, 2).to_json_dict()
    data["entries"][0][0] = value
    message = (
        "coefficient '1/0' has a zero denominator"
        if value == "1/0"
        else f"JSON coefficients must be strings or integers, got {value!r}"
    )
    with pytest.raises(ValueError) as info:
        IntersectionMatrix.from_json_dict(data)
    assert str(info.value) == message


def test_matrix_json_parses_each_distinct_entry_once(monkeypatch):
    # every entry was parsed: 9,409 parses for 15 distinct strings at (5, 5)
    import thetadiv.basis as basis
    from thetadiv.curves import IntersectionMatrix

    mat = build_matrix(5, 5)
    data = mat.to_json_dict()
    parsed, unwrapped = [], basis._json_coefficient

    def counting(value):
        parsed.append(value)
        return unwrapped(value)

    monkeypatch.setattr(basis, "_json_coefficient", counting)
    assert IntersectionMatrix.from_json_dict(data) == mat
    assert sum(map(len, data["entries"])) == 9409
    assert len(parsed) == len({x for row in data["entries"] for x in row}) == 15
    # a value that is no string is read unhashed, and refused as before
    for value in ([1], 1.0, True):
        entries = [list(row) for row in data["entries"]]
        entries[40][7] = value
        with pytest.raises(ValueError) as info:
            IntersectionMatrix.from_json_dict(dict(data, entries=entries))
        assert str(info.value) == f"JSON coefficients must be strings or integers, got {value!r}"


@st.composite
def sparse_classes(draw):
    """A class of up to 12 random nonzero coefficients at g 3..6, n 1..5."""
    g, n = draw(st.integers(3, 6)), draw(st.integers(1, 5))
    gens = basis_generators(g, n)
    picked = draw(st.lists(st.sampled_from(gens), max_size=12, unique=True))
    values = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)
    return DivisorClass(g, n, {gen: draw(values) for gen in picked})


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(cls=sparse_classes())
def test_pair_is_the_dense_row_dotted_with_the_class(cls):
    mat = build_matrix(cls.g, cls.n)
    vector = [cls.coeff(gen) for gen in mat.cols]
    for curve, row in zip(mat.rows, mat.entries):
        assert pair(curve, cls) == sum(map(operator.mul, row, vector)), curve_label(curve)


def test_pair_refuses_a_curve_that_is_no_test_curve():
    # kills the mutant without _check_curve's type test: AttributeError on .dual
    with pytest.raises(ValueError, match=r"^expected a TestCurve, got Generator\(kind='K'"):
        pair(K(1), DivisorClass(3, 2, {K(1): 1}))


def test_matrix_json_refuses_columns_out_of_basis_order():
    # kills the mutant without the column-label test: the entries were read
    # against the basis order whatever the labels said
    from thetadiv.curves import IntersectionMatrix

    bad = build_matrix(3, 2).to_json_dict()
    bad["cols"][0], bad["cols"][1] = bad["cols"][1], bad["cols"][0]
    with pytest.raises(ValueError, match="^column labels do not match the basis enumeration$"):
        IntersectionMatrix.from_json_dict(bad)
