"""Tests for the closed-form theta pullback classes and the vanishing ledger."""

import contextlib
import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thetadiv.basis import (
    DELTA_IRR,
    LAMBDA1,
    DivisorClass,
    K,
    canonicalize_boundary,
    delta,
    enumerate_boundary,
    k_to_psi,
    relabel_class,
)
from thetadiv.curves import (
    ELLIPTIC_TAIL,
    IRREDUCIBLE_NODE,
    boundary_curve,
    enumerate_test_curves,
    pair,
    point_curve,
)
from thetadiv import theta
from thetadiv.theta import (
    class_D_direct,
    class_D_from_theta,
    class_T,
    class_Theta,
    correction_ledger,
    plus_set,
    theta_intersection,
    weight_sum,
)


def bgen(g, n, h, P):
    return delta(canonicalize_boundary(h, P, g, n))


def random_weights(rng, n, degree):
    head = [rng.randint(-10, 10) for _ in range(n - 1)]
    return tuple(head + [degree - sum(head)])


def random_negative_weights(rng, n, degree):
    while True:
        d = random_weights(rng, n, degree)
        if any(w < 0 for w in d):
            return d


def test_class_T_zero_weights():
    assert class_T(3, 2, (0, 0)) == DivisorClass.zero(3, 2)
    assert class_T(3, 1, (0,)) == DivisorClass.zero(3, 1)


def test_class_T_frozen_example():
    expected = DivisorClass(
        3,
        2,
        {
            K(1): Fraction(1, 2),
            K(2): Fraction(1, 2),
            bgen(3, 2, 0, (1, 2)): Fraction(1),
            bgen(3, 2, 1, (1,)): Fraction(-1, 2),
            bgen(3, 2, 1, (2,)): Fraction(-1, 2),
        },
    )
    assert class_T(3, 2, (1, -1)) == expected


def test_class_T_no_hodge_or_irr_part():
    rng = random.Random(11)
    for g, n in [(3, 2), (4, 3), (5, 1)]:
        for _ in range(10):
            c = class_T(g, n, random_weights(rng, n, 0))
            assert c.coeff(LAMBDA1) == 0
            assert c.coeff(DELTA_IRR) == 0


def test_class_T_degree_validation():
    with pytest.raises(ValueError, match="degree"):
        class_T(3, 2, (1, 0))
    with pytest.raises(ValueError, match="expected 2 weights"):
        class_T(3, 2, (0,))


def test_bool_genus_and_weights_rejected():
    # bool subclasses int but is neither a genus nor a weight
    with pytest.raises(ValueError, match="genus"):
        class_T(True, 2, (1, -1))
    with pytest.raises(ValueError, match="integers"):
        class_T(3, 2, (True, -1))


def test_class_Theta_frozen_example():
    expected = DivisorClass(
        3,
        2,
        {
            LAMBDA1: Fraction(-1),
            DELTA_IRR: Fraction(1, 8),
            K(1): Fraction(6),
            K(2): Fraction(0),
            bgen(3, 2, 0, (1, 2)): Fraction(3),
            bgen(3, 2, 1, ()): Fraction(0),
            bgen(3, 2, 1, (1,)): Fraction(-3),
            bgen(3, 2, 1, (2,)): Fraction(-1),
            bgen(3, 2, 1, (1, 2)): Fraction(-1),
        },
    )
    assert class_Theta(3, 2, (3, -1)) == expected


def test_class_Theta_fixed_hodge_and_irr_coefficients():
    rng = random.Random(13)
    for g, n in [(3, 2), (4, 3), (5, 2)]:
        for _ in range(10):
            c = class_Theta(g, n, random_weights(rng, n, g - 1))
            assert c.coeff(LAMBDA1) == -1
            assert c.coeff(DELTA_IRR) == Fraction(1, 8)


def test_representative_independence_of_boundary_coefficients():
    # both labels of a class plug into the same coefficient value
    rng = random.Random(17)
    for g in range(3, 7):
        for n in range(1, 4):
            d0 = random_weights(rng, n, 0)
            d1 = random_weights(rng, n, g - 1)
            cT = class_T(g, n, d0)
            cTh = class_Theta(g, n, d1)
            for b in enumerate_boundary(g, n):
                if b.h == 0:
                    continue
                mh, mP = b.mirror(g, n)
                if mh == g:
                    continue
                dP = weight_sum(d0, mP)
                assert cT.coeff(delta(b)) == -Fraction(dP * dP, 2)
                dP = weight_sum(d1, mP)
                assert cTh.coeff(delta(b)) == -Fraction((dP - mh) * (dP - mh + 1), 2)


def test_correction_ledger_frozen_example():
    ledger = correction_ledger(3, 2, (3, -1))
    assert ledger.delta_irr_order == Fraction(1, 8)
    assert {(t.h, t.P, t.mult) for t in ledger.terms} == {
        (1, (), 1),
        (2, (), 2),
        (3, (), 3),
    }
    # the h = 3 representative lands on the class with the h = 0 label
    term = next(t for t in ledger.terms if t.h == 3)
    assert term.boundary_class(3, 2) == canonicalize_boundary(0, (1, 2), 3, 2)


def test_correction_ledger_properties():
    rng = random.Random(19)
    for g, n in [(3, 2), (4, 3), (5, 3)]:
        for _ in range(20):
            d = random_negative_weights(rng, n, g - 1)
            ledger = correction_ledger(g, n, d)
            classes = [t.boundary_class(g, n) for t in ledger.terms]
            assert len(classes) == len(set(classes))  # one representative per class
            for t in ledger.terms:
                assert t.h > 0  # a genus-0 plus-side can never vanish
                assert t.mult == t.h - weight_sum(d, t.P) > 0


def test_correction_ledger_preconditions():
    with pytest.raises(ValueError, match="negative"):
        correction_ledger(3, 2, (1, 1))
    with pytest.raises(ValueError, match="degree"):
        correction_ledger(3, 2, (1, -1))


def test_mueller_class_frozen_example():
    expected = DivisorClass(
        3,
        2,
        {
            LAMBDA1: Fraction(-1),
            K(1): Fraction(6),
            bgen(3, 2, 1, ()): Fraction(-1),
            bgen(3, 2, 1, (1,)): Fraction(-3),
            bgen(3, 2, 1, (2,)): Fraction(-1),
            bgen(3, 2, 1, (1, 2)): Fraction(-3),
        },
    )
    assert class_D_from_theta(3, 2, (3, -1)) == expected
    assert class_D_direct(3, 2, (3, -1)) == expected
    # the boundary term at delta_0^{1,2} cancels: 3 - 3 = 0
    assert expected.coeff(bgen(3, 2, 0, (1, 2))) == 0


def test_mueller_class_invariants():
    rng = random.Random(29)
    for g, n in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        for _ in range(25):
            d = random_negative_weights(rng, n, g - 1)
            direct = class_D_direct(g, n, d)
            assert direct.coeff(LAMBDA1) == -1
            assert direct.coeff(DELTA_IRR) == 0
            assert direct == theta._theta_less_ledger(g, n, d)


def test_mueller_conventions_match_when_consistent():
    d = (3, 0, -1)
    assert class_D_direct(3, 3, d) == theta._theta_less_ledger(3, 3, d)


@pytest.mark.parametrize("route", [class_D_direct, class_D_from_theta], ids=["class_D_direct", "class_D_from_theta"])
@pytest.mark.parametrize("g", range(3, 10))
def test_effective_locus_is_the_weierstrass_pullback(g, route):
    # For distinct p_1, p_2, g p_1 - p_2 is effective iff p_1 is a
    # Weierstrass point, so D for d = (g, -1) is the pullback along the map
    # forgetting p_2 of the Weierstrass divisor on M_{g,1}-bar,
    # W = -lambda1 + C(g+1, 2) psi - sum_h C(g-h+1, 2) delta_h (Cukierman,
    # Duke Math. J. 58 (1989)); in this basis psi becomes K1 and delta_h
    # the two classes delta_h^{1} and delta_h^{1,2}.  ``route`` is the one
    # D pass under each of its names.  This derivation shares neither the
    # ledger nor the boundary coefficients: it checks _vanishing, which
    # verify mueller's two sides share, and it derives D's lambda1.
    coeffs = {LAMBDA1: Fraction(-1), K(1): Fraction(math.comb(g + 1, 2))}
    for h in range(1, g):
        for P in ((1,), (1, 2)):
            coeffs[bgen(g, 2, h, P)] = Fraction(-math.comb(g - h + 1, 2))
    assert route(g, 2, (g, -1)) == DivisorClass(g, 2, coeffs)


def glue_pullback(c, h, P):
    """xi^* of a class in the psi basis (the K(i) slot holds psi_i) along
    the gluing map xi at a separating node, M_{h,P+{x}}-bar x
    M_{g-h,P^c+{y}}-bar -> M_{g,n}-bar, as one class per side in the psi
    basis, each side's markings numbered in order and its branch x or y
    last.  lambda1 and delta_irr go to both sides, psi_i to the side that
    carries i, delta_h^P negated to psi_x and psi_y, and each side's
    boundary class (a, S) takes the coefficient of its global class."""
    g, n = c.g, c.n
    Pc = tuple(i for i in range(1, n + 1) if i not in P)
    sides = []
    for a, S, rest, other in ((h, P, Pc, g - h), (g - h, Pc, P, h)):
        m = len(S) + 1
        coeffs = {LAMBDA1: c.coeff(LAMBDA1), DELTA_IRR: c.coeff(DELTA_IRR), K(m): -c.coeff(bgen(g, n, h, P))}
        coeffs.update({K(j): c.coeff(K(i)) for j, i in enumerate(S, start=1)})
        for b in enumerate_boundary(a, m):
            Q = tuple(S[j - 1] for j in b.P if j < m)
            glued = (b.h, Q) if m not in b.P else (b.h + other, Q + rest)
            coeffs[delta(b)] = c.coeff(bgen(g, n, *glued))
        sides.append(DivisorClass(a, m, coeffs))
    return tuple(sides)


@st.composite
def separating_nodes(draw):
    """(g, n, h, P, the first n-1 weights): a node splitting off genus h
    with the markings P, 1 <= h <= g-1."""
    g, n = draw(st.integers(2, 7)), draw(st.integers(1, 5))
    h = draw(st.integers(1, g - 1))
    P = tuple(i for i in range(1, n + 1) if draw(st.booleans()))
    head = draw(st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1))
    return g, n, h, P, tuple(head)


@pytest.mark.filterwarnings("ignore:divisor-basis completeness")
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=separating_nodes())
def test_gluing_at_a_separating_node(case):
    # Arbarello-Cornalba (Publ. IHES 88 (1998)): s_d restricted to the
    # image of xi is s on each side, with the node's branch weighted so
    # that each side has the right degree, so xi^* T_d = (T_(d_P, -d_P),
    # T_(d_P^c, d_P)) and xi^* Theta_d = (Theta_(d_P, h-1-d_P),
    # Theta_(d_P^c, d_P-h)).  It ties each boundary and K coefficient to
    # those of lower genus or fewer markings, but not lambda1: a shift of
    # it moves both sides alike, and the Weierstrass test pins it.
    g, n, h, P, head = case
    Pc = tuple(i for i in range(1, n + 1) if i not in P)
    for f, shift in ((class_T, 0), (class_Theta, 1)):
        d = head + (shift * (g - 1) - sum(head),)
        dP = weight_sum(d, P)
        left = f(h, len(P) + 1, tuple(d[i - 1] for i in P) + (shift * (h - 1) - dP,))
        right = f(g - h, len(Pc) + 1, tuple(d[i - 1] for i in Pc) + (dP - shift * h,))
        assert glue_pullback(k_to_psi(f(g, n, d)), h, P) == (k_to_psi(left), k_to_psi(right))


def test_theta_intersection_values():
    assert theta_intersection(point_curve(1), (1, -1), "T", 3, 2) == 3
    z = boundary_curve(canonicalize_boundary(1, (1,), 3, 2))
    assert theta_intersection(z, (1, -1), "T", 3, 2) == 1 * 2
    assert theta_intersection(z, (3, -1), "Theta", 3, 2) == (3 - 1) ** 2 * 2
    assert theta_intersection(ELLIPTIC_TAIL, (1, -1), "T", 3, 2) == 0
    assert theta_intersection(IRREDUCIBLE_NODE, (1, -1), "T", 3, 2) == 0
    with pytest.raises(ValueError, match="elliptic_tail"):
        theta_intersection(ELLIPTIC_TAIL, (3, -1), "Theta", 3, 2)
    with pytest.raises(ValueError, match="irreducible_node"):
        theta_intersection(IRREDUCIBLE_NODE, (3, -1), "Theta", 3, 2)
    with pytest.raises(ValueError, match="kind"):
        theta_intersection(point_curve(1), (1, -1), "theta", 3, 2)
    # every point curve, at both kinds: d_i^2 * g, stated here apart from
    # the node formula that the library reads it from at (0, {i})
    for g, n, shift in product((3, 4, 5), (1, 2, 3), (0, 1)):
        kind = ("T", "Theta")[shift]
        for head in product(range(-2, 3), repeat=n - 1):
            d = head + (shift * (g - 1) - sum(head),)
            for i in range(1, n + 1):
                assert theta_intersection(point_curve(i), d, kind, g, n) == d[i - 1] ** 2 * g, (g, d, kind, i)


def test_intersection_numbers_match_pairing_against_classes():
    # the closed formulas and the intersection table tell one consistent story
    rng = random.Random(31)
    for g, n in [(3, 1), (3, 2), (4, 2)]:
        for _ in range(5):
            d = random_weights(rng, n, 0)
            cT = class_T(g, n, d)
            for curve in enumerate_test_curves(g, n):
                assert pair(curve, cT) == theta_intersection(curve, d, "T", g, n)
            d = random_weights(rng, n, g - 1)
            cTh = class_Theta(g, n, d)
            for curve in enumerate_test_curves(g, n):
                if curve.dual.kind not in ("K", "delta"):
                    continue
                assert pair(curve, cTh) == theta_intersection(curve, d, "Theta", g, n)


def forget_pullback(c):
    """pi^* along the map forgetting a new marking n+1 (Arbarello-Cornalba):
    lambda1, delta_irr and K_i stay, delta_h^P becomes
    delta_h^P + delta_h^{P u {n+1}}."""
    g, n = c.g, c.n
    coeffs = {}
    for gen, v in c.coeffs.items():
        if gen.kind != "delta":
            coeffs[gen] = v
            continue
        b = gen.boundary
        for P in (b.P, b.P + (n + 1,)):
            moved = bgen(g, n + 1, b.h, P)
            coeffs[moved] = coeffs.get(moved, 0) + v
    return DivisorClass(g, n + 1, coeffs)


def test_forgetful_pullback_compatibility():
    # s_{(d, 0)} = s_d o pi, so appending a zero weight must pull back along
    # pi; this is a derivation the closed formulas do not share
    rng = random.Random(41)
    for _ in range(100):
        g, n = rng.randint(3, 5), rng.randint(2, 4)
        d0 = random_weights(rng, n, 0)
        d1 = random_weights(rng, n, g - 1)
        dD = random_negative_weights(rng, n, g - 1)
        cases = [(class_T, d0), (class_Theta, d1), (class_D_direct, dD), (class_D_from_theta, dD)]
        for f, d in cases:
            assert f(g, n + 1, d + (0,)) == forget_pullback(f(g, n, d)), (f.__name__, g, d)


@st.composite
def zero_insertions(draw):
    """(g, n, the first n-1 weights, a position 1..n+1 for a new weight 0)."""
    g = draw(st.integers(3, 5))
    n = draw(st.integers(2, 4))
    head = draw(st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1))
    return g, n, tuple(head), draw(st.integers(1, n + 1))


@pytest.mark.parametrize(
    "f, shift",
    [(class_T, 0), (class_Theta, 1), (class_D_direct, 1), (class_D_from_theta, 1)],
    ids=["T", "Theta", "D_direct", "D_from_theta"],
)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=zero_insertions())
def test_forgetful_pullback_with_zero_anywhere(f, shift, case):
    # a weight 0 at position i is the zero appended at n+1, then moved to i
    g, n, head, i = case
    d = head + (shift * (g - 1) - sum(head),)
    if f in (class_D_direct, class_D_from_theta):
        assume(min(d) < 0)
    sigma = tuple(range(1, i)) + tuple(range(i + 1, n + 2)) + (i,)
    inserted = d[: i - 1] + (0,) + d[i - 1 :]
    assert f(g, n + 1, inserted) == relabel_class(forget_pullback(f(g, n, d)), sigma)


def test_permutation_equivariance():
    rng = random.Random(37)
    for g, n in [(3, 2), (3, 3)]:
        for sigma in permutations(range(1, n + 1)):
            d = random_weights(rng, n, 0)
            moved = [0] * n
            for i in range(1, n + 1):
                moved[sigma[i - 1] - 1] = d[i - 1]
            assert class_T(g, n, tuple(moved)) == relabel_class(class_T(g, n, d), sigma)


def test_small_genus_warns():
    with pytest.warns(UserWarning, match="genus >= 3"):
        class_T(2, 2, (1, -1))
    with pytest.warns(UserWarning, match="genus >= 3"):
        class_Theta(1, 2, (1, -1))


@st.composite
def free_weights(draw, genus, markings, bound):
    """(g, n, the first n-1 weights in [-bound, bound]); the last weight is
    set by the total degree."""
    g = draw(st.integers(*genus))
    n = draw(st.integers(*markings))
    head = draw(st.lists(st.integers(-bound, bound), min_size=n - 1, max_size=n - 1))
    return g, n, tuple(head)


def small_genus_warning(g):
    return pytest.warns(UserWarning, match="genus >= 3") if g < 3 else contextlib.nullcontext()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=free_weights((3, 7), (1, 5), 6))
def test_hain_formula(case):
    # DR in compact type (Hain): T in the psi basis is
    # 1/2 sum d_i^2 psi_i - 1/2 sum d_P^2 delta_h^P over every boundary class
    g, n, head = case
    d = head + (-sum(head),)
    expected = {K(i): Fraction(w * w, 2) for i, w in enumerate(d, start=1)}
    for b in enumerate_boundary(g, n):
        expected[delta(b)] = -Fraction(weight_sum(d, b.P) ** 2, 2)
    assert k_to_psi(class_T(g, n, d)) == DivisorClass(g, n, expected)


def reference_pullback(g, n, d, shift):
    """The boundary loop the subset-sum table replaces: one sum over P per class."""
    coeffs = {K(i): Fraction(w * (w + shift), 2) for i, w in enumerate(d, start=1)}
    for b in enumerate_boundary(g, n):
        dP = weight_sum(d, b.P)
        if b.h == 0:
            coeffs[delta(b)] = -Fraction(dP * dP - sum(d[i - 1] ** 2 for i in b.P), 2)
        else:
            e = dP - shift * b.h
            coeffs[delta(b)] = -Fraction(e * (e + shift), 2)
    return coeffs


def reference_ledger(g, n, d):
    """(h, P, mult) for every representative of every class, both tried."""
    plus = plus_set(d)
    terms = []
    for b in enumerate_boundary(g, n):
        for h, P in (b, b.mirror(g, n)):
            if set(P) <= plus and h > weight_sum(d, P):
                terms.append((h, P, h - weight_sum(d, P)))
    return terms


@example(case=(1, 3, (0, -2)))
@example(case=(2, 4, (0, 0, -3)))
@example(case=(8, 6, (0, -8, 8, 0, -1)))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=free_weights((1, 8), (1, 6), 8))
def test_closed_forms_match_the_subset_loop(case):
    g, n, head = case
    d0 = head + (-sum(head),)
    d1 = head + (g - 1 - sum(head),)
    for d, shift in ((d0, 0), (d1, 1)):
        # _pullback drops its zeros where they arise: compare without them
        expected = {gen: c for gen, c in reference_pullback(g, n, d, shift).items() if c != 0}
        assert theta._pullback(g, n, d, shift).coeffs == expected
    if min(d1) >= 0:
        return
    ledger = correction_ledger(g, n, d1)
    assert [(t.h, t.P, t.mult) for t in ledger.terms] == reference_ledger(g, n, d1)
    coeffs = {LAMBDA1: Fraction(-1), **reference_pullback(g, n, d1, 1)}
    for h, P, mult in reference_ledger(g, n, d1):
        coeffs[bgen(g, n, h, P)] -= mult
    expected = DivisorClass(g, n, coeffs)
    for f in (class_D_direct, class_D_from_theta):
        with small_genus_warning(g):
            assert f(g, n, d1) == expected


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(d=st.lists(st.integers(-9, 9), min_size=1, max_size=8).map(tuple))
def test_subset_sums_are_indexed_by_bit_mask(d):
    # each list is read at P's bit mask, bit i - 1 for marking i
    n = len(d)
    lists = theta._subset_sums(d)
    assert [len(values) for values in lists] == [2**n] * 3
    assert all(type(x) is int for values in lists for x in values)
    sums, squares, negatives = lists
    for size in range(n + 1):
        for P in combinations(range(1, n + 1), size):
            mask = sum(1 << (i - 1) for i in P)
            assert sums[mask] == weight_sum(d, P), P
            assert squares[mask] == sum(d[i - 1] ** 2 for i in P), P
            assert negatives[mask] == sum(d[i - 1] < 0 for i in P), P


def no_sums(*args, **kwargs):
    raise AssertionError("built subset sums")


@pytest.mark.parametrize(
    "call, d",
    [
        (class_T, (1,) + (0,) * 17 + (-1,)),
        (class_Theta, (2,) + (0,) * 18),
        (class_D_direct, (3,) + (0,) * 17 + (-1,)),
        (correction_ledger, (3,) + (0,) * 17 + (-1,)),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_closed_forms_refuse_before_any_subset_sum(monkeypatch, call, d):
    # the 3 * 2^19 subset sums come after the basis table's budget check:
    # B(3, 19) = 1,048,556 classes at 8 units a class
    import thetadiv.basis as basis

    monkeypatch.delenv("THETADIV_BUDGET", raising=False)
    monkeypatch.setattr(theta, "_mask_sums", no_sums)
    monkeypatch.setattr(basis, "_subsets", no_sums)
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        call(3, 19, d)
    assert time.perf_counter() - start < 0.5
    assert str(info.value).startswith("(g=3, n=19) is estimated at 8388448 units of work, above the budget")
