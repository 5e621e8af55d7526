"""Tests for the divisor basis: canonicalization, enumeration, arithmetic."""

import sys
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thetadiv.basis as basis
from thetadiv.basis import (
    DELTA_IRR,
    LAMBDA1,
    BoundaryIndex,
    DivisorClass,
    Generator,
    K,
    _check_generator,
    basis_generators,
    canonicalize_boundary,
    check_work,
    delta,
    enumerate_boundary,
    generator_sort_key,
    k_to_psi,
    parse_generator_label,
    psi_in_k_basis,
    psi_to_k,
    relabel_boundary,
    relabel_class,
    relabel_generator,
)
from thetadiv.curves import (
    ELLIPTIC_TAIL,
    IntersectionMatrix,
    build_matrix,
    intersect,
    pair,
    point_curve,
    relabel_curve,
)
from thetadiv.cli import verify_T
from thetadiv.drcycle import (
    FormalCycle,
    dr_expansion,
    evaluate,
    monomial_label,
    relabel_cycle,
    restrict_to_compact_type,
)
from thetadiv.solve import certify_basis, reconstruct_T, reconstruct_Theta
from thetadiv.theta import (
    class_D_direct,
    class_D_from_theta,
    class_T,
    class_Theta,
    correction_ledger,
    theta_intersection,
)

CUBE = FormalCycle(3, 2, {((K(1), 3),): 1})  # K1^3 at g = 3


def all_subsets(n):
    for size in range(n + 1):
        yield from combinations(range(1, n + 1), size)


def complement(P, n):
    return tuple(i for i in range(1, n + 1) if i not in set(P))


def stable_pairs(g, n):
    """All (h, P) labels that survive stability, both representatives included."""
    for h in range(g + 1):
        for P in all_subsets(n):
            if h == 0 and len(P) < 2:
                continue
            if h == g and len(complement(P, n)) < 2:
                continue
            yield h, P


def test_canonicalize_examples():
    assert canonicalize_boundary(3, (), 3, 2) == BoundaryIndex(0, (1, 2))
    assert canonicalize_boundary(2, (2,), 3, 2) == BoundaryIndex(1, (1,))
    # h = g - h tie goes to the side containing marking 1
    assert canonicalize_boundary(2, (2,), 4, 2) == BoundaryIndex(2, (1,))


def test_canonicalize_rejects_unstable():
    with pytest.raises(ValueError, match="unstable"):
        canonicalize_boundary(0, (1,), 3, 2)
    with pytest.raises(ValueError, match="unstable"):
        canonicalize_boundary(3, (1, 2), 3, 2)  # mirror is (0, {}) with no markings
    with pytest.raises(ValueError):
        canonicalize_boundary(4, (1,), 3, 2)  # genus part out of range
    with pytest.raises(ValueError):
        canonicalize_boundary(1, (5,), 3, 2)  # marking out of range


def test_canonicalize_idempotent_and_orbit_constant():
    for g in range(1, 7):
        for n in range(1, 5):
            for h, P in stable_pairs(g, n):
                rep = canonicalize_boundary(h, P, g, n)
                assert canonicalize_boundary(g - h, complement(P, n), g, n) == rep
                assert canonicalize_boundary(rep.h, rep.P, g, n) == rep


def test_enumerate_boundary_frozen_examples():
    assert [(b.h, b.P) for b in enumerate_boundary(3, 2)] == [
        (0, (1, 2)),
        (1, ()),
        (1, (1,)),
        (1, (2,)),
        (1, (1, 2)),
    ]
    assert [(b.h, b.P) for b in enumerate_boundary(3, 1)] == [(1, ()), (1, (1,))]
    assert len(basis_generators(3, 2)) == 2 + 2 + 5


def test_enumerate_boundary_matches_orbit_count():
    # independent oracle: orbits of the mirror identification on stable labels
    for g in range(1, 7):
        for n in range(1, 5):
            orbits = {
                frozenset({(h, P), (g - h, complement(P, n))})
                for h, P in stable_pairs(g, n)
            }
            listed = enumerate_boundary(g, n)
            assert len(listed) == len(set(listed)) == len(orbits)
            for b in listed:
                assert frozenset({(b.h, b.P), b.mirror(g, n)}) in orbits


def test_enumerate_boundary_ordering():
    for g, n in [(3, 3), (4, 2), (5, 3), (6, 3)]:
        keys = [(b.h, len(b.P), b.P) for b in enumerate_boundary(g, n)]
        assert keys == sorted(keys)


def test_basis_generators_are_in_generator_sort_key_order(monkeypatch):
    # one basis order: the DR expansion reads T in the table's order, while
    # FormalCycle checks its monomials, and relabel_cycle sorts them, by
    # generator_sort_key; the default budget admits every table here
    monkeypatch.delenv("THETADIV_BUDGET", raising=False)
    for g in range(1, 9):
        for n in range(1, 8):
            keys = [generator_sort_key(gen) for gen in basis_generators(g, n)]
            assert all(a < b for a, b in zip(keys, keys[1:])), (g, n)


def test_enumerate_boundary_is_image_of_canonicalize():
    for g, n in [(3, 2), (4, 3), (5, 2)]:
        listed = set(enumerate_boundary(g, n))
        image = {canonicalize_boundary(h, P, g, n) for h, P in stable_pairs(g, n)}
        assert listed == image


def test_psi_in_k_basis_examples():
    b12 = canonicalize_boundary(0, (1, 2), 3, 2)
    assert psi_in_k_basis(1, 3, 2) == DivisorClass(3, 2, {K(1): 1, delta(b12): 1})

    assert psi_in_k_basis(1, 3, 1) == DivisorClass(3, 1, {K(1): 1})

    expected = {K(1): Fraction(1)}
    for P in [(1, 2), (1, 3), (1, 2, 3)]:
        expected[delta(canonicalize_boundary(0, P, 3, 3))] = Fraction(1)
    assert psi_in_k_basis(1, 3, 3) == DivisorClass(3, 3, expected)


def test_psi_k_round_trip_on_basis():
    for g, n in [(3, 1), (3, 2), (4, 3), (5, 3)]:
        for gen in basis_generators(g, n):
            unit = DivisorClass(g, n, {gen: 1})
            assert psi_to_k(k_to_psi(unit)) == unit
            assert k_to_psi(psi_to_k(unit)) == unit
        for i in range(1, n + 1):
            # substituting K_i out of psi_i's expansion leaves the bare point slot
            assert k_to_psi(psi_in_k_basis(i, g, n)) == DivisorClass(g, n, {K(i): 1})


def test_class_arithmetic():
    x = psi_in_k_basis(1, 3, 2)
    zero = DivisorClass.zero(3, 2)
    assert x + (-1) * x == zero
    assert 0 * x == zero
    assert (Fraction(1, 2) * DivisorClass(3, 2, {K(1): 1})).coeff(K(1)) == Fraction(1, 2)
    assert x - x == zero
    assert x.coeff(LAMBDA1) == 0
    with pytest.raises(ValueError, match="mismatched"):
        x + DivisorClass.zero(3, 3)


def test_class_rejects_bad_generators():
    with pytest.raises(ValueError):
        DivisorClass(3, 2, {K(3): 1})
    with pytest.raises(ValueError, match="not canonical"):
        DivisorClass(3, 2, {delta(BoundaryIndex(2, (2,))): 1})


def test_bool_is_not_an_integer():
    # bool subclasses int, but True is neither a genus, a count nor an index
    with pytest.raises(ValueError, match="marked points"):
        enumerate_boundary(3, True)
    with pytest.raises(ValueError, match="genus"):
        DivisorClass(True, 2, {})
    with pytest.raises(ValueError, match="point index"):
        K(True)


def test_canonicalize_rejects_non_int_genus_part():
    # True and 1.0 compare equal to 1 but are no genus part
    for h in (True, 1.0):
        with pytest.raises(ValueError, match="genus part"):
            canonicalize_boundary(h, (1,), 3, 2)


def test_markings_must_be_ints():
    # 1.5 was kept as a marking, and to_json_dict then dropped its
    # coefficient; True and 1.0 passed as marking 1
    for P, bad in (((1.5, 2), "1.5"), ((True, 2), "True"), ((1.0, 2), "1.0"), ((2, "1"), "'1'")):
        message = f"markings must be integers, got {bad}"
        with pytest.raises(ValueError, match=message):
            canonicalize_boundary(0, P, 3, 3)
        with pytest.raises(ValueError, match=message):
            DivisorClass(3, 3, {delta(BoundaryIndex(0, P)): 1})
        data = DivisorClass.zero(3, 3).to_json_dict()
        data["coeffs"]["boundary"] = [{"h": 0, "P": list(P), "c": "1"}]
        with pytest.raises(ValueError, match=message):
            DivisorClass.from_json_dict(data)


def test_a_marking_set_that_repeats_a_marking_is_refused():
    # the repeat was dropped: (1, (2, 2)) was read as (1, (2,)), the label
    # delta_1^{2,2} as delta_1^{2} and a JSON P of [1, 2, 2, 1] as {1, 2}
    with pytest.raises(ValueError, match=r"^marking set \(2, 2\) repeats a marking$"):
        canonicalize_boundary(1, (2, 2), 3, 2)
    with pytest.raises(ValueError, match="repeats a marking"):
        parse_generator_label("delta_1^{2,2}", 3, 2)
    data = DivisorClass.zero(3, 2).to_json_dict()
    data["coeffs"]["boundary"] = [{"h": 0, "P": [1, 2, 2, 1], "c": "1"}]
    with pytest.raises(ValueError, match=r"^marking set \(1, 2, 2, 1\) repeats a marking$"):
        DivisorClass.from_json_dict(data)
    cycle = {"g": 3, "n": 2, "terms": [{"monomial": [["delta_1^{2,2}", 1]], "c": "1"}]}
    with pytest.raises(ValueError, match="repeats a marking"):
        FormalCycle.from_json_dict(cycle)


def test_generators_are_tuples_compared_by_value():
    b = BoundaryIndex(0, (1, 2))
    assert b == (0, (1, 2)) and hash(b) == hash((0, (1, 2)))
    assert K(1) == ("K", 1, None) and K(1) is not K(1)
    # the reprs that messages embed are unchanged
    assert repr(K(1)) == "Generator(kind='K', i=1, boundary=None)"
    assert repr(delta(b)) == "Generator(kind='delta', i=0, boundary=BoundaryIndex(h=0, P=(1, 2)))"
    with pytest.raises(ValueError) as info:
        _check_generator(delta(BoundaryIndex(2, (1,))), 3, 1)
    assert str(info.value) == "boundary index BoundaryIndex(h=2, P=(1,)) is not canonical for (g=3, n=1)"
    # a plain tuple is still no generator and no boundary index
    for check in (lambda: DivisorClass(3, 2, {("K", 1, None): 1}), lambda: _check_generator(("K", 1, None), 3, 2)):
        with pytest.raises(ValueError) as info:
            check()
        assert str(info.value) == "expected a Generator, got ('K', 1, None)"
    with pytest.raises(ValueError) as info:
        delta((0, (1, 2)))
    assert str(info.value) == "expected a BoundaryIndex, got (0, (1, 2))"
    # lookups match an equal plain tuple
    x = DivisorClass(3, 2, {K(1): 3, delta(b): 5})
    assert x.coeff(("K", 1, None)) == 3
    assert x.coeff(("delta", 0, (0, (1, 2)))) == 5


def not_a_generator(gen) -> str:
    return f"{gen!r} is not a generator of the basis for (g=3, n=2)"


B12 = BoundaryIndex(0, (1, 2))


@pytest.mark.parametrize(
    "gen, message",
    [
        (Generator("K", 1.0), "point index must be a positive integer, got 1.0"),
        (Generator("K", True), "point index must be a positive integer, got True"),
        (Generator("delta", 0, (0, (1, 2))), "expected a BoundaryIndex, got (0, (1, 2))"),
        (Generator("delta"), "expected a BoundaryIndex, got None"),
        (Generator("lambda1", 3), not_a_generator(Generator("lambda1", 3))),
        (Generator("K", 1, B12), not_a_generator(Generator("K", 1, B12))),
        (Generator("delta", 7, B12), not_a_generator(Generator("delta", 7, B12))),
        (Generator("delta", False, B12), not_a_generator(Generator("delta", False, B12))),
        (Generator("delta_irr", 0.0), not_a_generator(Generator("delta_irr", 0.0))),
    ],
    ids=[
        "K_float", "K_bool", "delta_tuple_boundary", "delta_no_boundary", "lambda1_index",
        "K_boundary", "delta_index", "delta_bool_index", "delta_irr_float_index",
    ],
)
def test_generator_must_equal_its_rebuild(gen, message):
    # each was accepted (or raised AttributeError), and coeff() then read 0
    # for the canonical generator it stood for
    for check in (lambda: _check_generator(gen, 3, 2), lambda: DivisorClass(3, 2, {gen: 5})):
        with pytest.raises(ValueError) as info:
            check()
        assert str(info.value) == message


def test_class_coefficients_must_be_exact():
    # a float converts exactly but silently (0.1 -> 3602879701896397/2^55),
    # and a string parses: neither is an exact rational the caller chose
    for c in (0.1, 0.5, "1/2", True):
        with pytest.raises(ValueError, match="int or Fraction"):
            DivisorClass(3, 2, {K(1): c})
    with pytest.raises(ValueError, match="int or Fraction"):
        DivisorClass(3, 2, {K(1): 1}).scale(0.5)
    assert DivisorClass(3, 2, {K(1): 2, LAMBDA1: Fraction(1, 2)}).coeffs == {
        K(1): Fraction(2),
        LAMBDA1: Fraction(1, 2),
    }



@pytest.mark.parametrize("c", [None, float("inf"), 0.5, True, "2"])
def test_scale_checks_its_factor_first(c):
    # None and "2" raised TypeError from the product, and the zero class took
    # any factor, since only the products were checked
    for x in (DivisorClass(3, 2, {K(1): 1}), DivisorClass.zero(3, 2)):
        with pytest.raises(ValueError) as info:
            x.scale(c)
        assert str(info.value) == f"scale factor must be int or Fraction, got {c!r}"


def test_scale_does_not_recheck_the_generators(monkeypatch):
    def refuse(*args):
        raise AssertionError("checked a generator")

    x = psi_in_k_basis(2, 5, 6) + DivisorClass(5, 6, {LAMBDA1: 3})
    expected = {gen: Fraction(-2, 3) * c for gen, c in x.coeffs.items()}
    monkeypatch.setattr(basis, "_check_generator", refuse)
    assert x.scale(Fraction(-2, 3)).coeffs == expected
    assert (-x).coeffs == {gen: -c for gen, c in x.coeffs.items()}
    assert x.scale(0).coeffs == {}

def test_boundary_count_matches_enumeration():
    from thetadiv.basis import _boundary_count

    for g in range(1, 9):
        for n in range(1, 10):
            assert _boundary_count(g, n) == len(enumerate_boundary(g, n)), (g, n)


def test_the_basis_table_holds_each_marking_set_as_a_bit_mask():
    # the closed forms and the psi/K change of basis read per-subset sums
    # at these masks: entry j is P's mask for the j-th boundary class.  The
    # test-curve rows and the JSON reader find a class's column at its flat
    # key h << n | mask, and every genus part shares one tuple per P
    import tracemalloc

    from thetadiv.basis import _boundary_count

    for g in range(1, 9):
        for n in range(1, 9):
            gens, column, masks = basis._basis_table(g, n)
            B = _boundary_count(g, n)
            assert len(masks) == B, (g, n)
            expected = [sum(2 ** (i - 1) for i in b.P) for b in enumerate_boundary(g, n)]
            assert list(masks) == expected, (g, n)
            shared = {}
            for j, mask in enumerate(masks):
                h, P = gens[n + 2 + j].boundary
                assert column[h << n | mask] == n + 2 + j, (g, n, j)
                assert shared.setdefault(P, P) is P, (g, n, P)
            assert sum(c is not None for c in column) == B, (g, n)
    # the table's own memory: 329 bytes a class with an (h, P) -> column
    # dict beside the masks, 222 with the flat-key list
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = basis._build_basis_table(5, 14)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 260 * len(table[2]) == 260 * _boundary_count(5, 14)


BUDGET_REFUSAL = "above the budget of 5000000; set THETADIV_BUDGET to override"


def no_subsets(*args, **kwargs):
    raise AssertionError("enumerated subsets")


def test_huge_marking_count_refused_before_any_work(monkeypatch):
    # the psi/K change of basis loops over 2^(n-1) subsets per point, a
    # mirrored canonical form is a complement of 1..n, and a point row
    # visits every marking
    monkeypatch.delenv("THETADIV_BUDGET", raising=False)
    for call in (
        lambda: intersect(point_curve(1), K(1), 3, 10**6),
        lambda: pair(point_curve(1), DivisorClass.zero(3, 10**6)),
        lambda: psi_in_k_basis(1, 3, 40),
        lambda: k_to_psi(DivisorClass(3, 40, {K(1): 1})),
        lambda: psi_to_k(DivisorClass.zero(3, 40)),
        lambda: parse_generator_label("delta_1^{1}", 3, 10**9),
        lambda: canonicalize_boundary(2, (1,), 3, 10**9),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=BUDGET_REFUSAL):
            call()
        assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError) as info:
        canonicalize_boundary(2, (1,), 3, 10**9)
    assert str(info.value).startswith("(g=3, n=1000000000) is estimated at over 2^999999999 units")


def test_slow_inputs_refused_before_any_work(monkeypatch):
    # without the budget, certify_basis(100, 12) takes about 20 s and
    # class_T(10**6, 1) about 9 s
    monkeypatch.delenv("THETADIV_BUDGET", raising=False)
    monkeypatch.setattr(basis, "_subsets", no_subsets)
    for call, estimate in (
        (lambda: certify_basis(100, 12), 9100740),  # B = 206,835: 8 + 12^2/4 units a class
        (lambda: class_T(10**6, 1, (0,)), 7999992),  # B = 999,999: 8 units a class
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            call()
        assert time.perf_counter() - start < 0.5
        assert f" is estimated at {estimate} units of work, {BUDGET_REFUSAL}" in str(info.value)
    # the override keeps them reachable: the check passes and the work starts
    monkeypatch.setenv("THETADIV_BUDGET", "10000000")
    with pytest.raises(AssertionError, match="enumerated subsets"):
        certify_basis(100, 12)
    with pytest.raises(AssertionError, match="enumerated subsets"):
        class_T(10**6, 1, (0,))


def test_work_estimate_is_per_class_units_plus_extra(monkeypatch):
    monkeypatch.setenv("THETADIV_BUDGET", "40")  # B(3, 2) = 5
    check_work(3, 2, 8)
    check_work(3, 2, 7, 5)
    with pytest.raises(ValueError) as info:
        check_work(3, 2, 8, 1)
    assert str(info.value) == (
        "(g=3, n=2) is estimated at 41 units of work, above the budget of 40; "
        "set THETADIV_BUDGET to override"
    )
    with pytest.raises(ValueError, match="number of marked points"):
        check_work(3, 0, 8)


@pytest.mark.parametrize("limit", [4300, 0], ids=["default-limit", "no-limit"])
def test_an_estimate_past_the_int_str_limit_is_shown_as_a_power_of_two(monkeypatch, limit):
    # str(estimate) raised the interpreter's "Exceeds the limit (4300 digits)"
    # in place of the refusal, or with no limit printed all 4,820 digits
    from thetadiv.drcycle import dr_expansion

    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str limit")
    monkeypatch.delenv("THETADIV_BUDGET", raising=False)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        with pytest.raises(ValueError) as info:
            dr_expansion(8000, 2, (1, -1))
        assert str(info.value) == f"(g=8000, n=2) is estimated at over 2^16009 units of work, {BUDGET_REFUSAL}"
        # 4300 digits still print whole; "over 2^k" is strict at a power of two
        for extra, shown in ((10**4300 - 1, 10**4300 - 1), (10**4300, "over 2^14284"), (2**16000, "over 2^15999")):
            with pytest.raises(ValueError) as info:
                check_work(3, 2, 0, extra)
            assert str(info.value) == f"(g=3, n=2) is estimated at {shown} units of work, {BUDGET_REFUSAL}"
    finally:
        sys.set_int_max_str_digits(old)


def test_zero_coefficients_dropped():
    assert DivisorClass(3, 2, {K(1): 0, LAMBDA1: Fraction(0)}) == DivisorClass.zero(3, 2)
    assert DELTA_IRR not in DivisorClass(3, 2, {DELTA_IRR: Fraction(0)}).coeffs


def test_relabel_commutes_with_canonicalize():
    for g, n in [(3, 2), (4, 3), (6, 3)]:
        for sigma in permutations(range(1, n + 1)):
            for h, P in stable_pairs(g, n):
                moved = canonicalize_boundary(h, tuple(sigma[i - 1] for i in P), g, n)
                assert moved == relabel_boundary(canonicalize_boundary(h, P, g, n), sigma, g, n)


def test_relabel_class_is_linear():
    x = psi_in_k_basis(1, 3, 3)
    y = psi_in_k_basis(2, 3, 3)
    sigma = (2, 3, 1)
    assert relabel_class(x + y, sigma) == relabel_class(x, sigma) + relabel_class(y, sigma)


def test_json_round_trip_and_determinism():
    import json

    x = psi_in_k_basis(1, 3, 2) + Fraction(1, 8) * DivisorClass(3, 2, {DELTA_IRR: 1})
    blob = json.dumps(x.to_json_dict())
    assert json.dumps(x.to_json_dict()) == blob
    assert DivisorClass.from_json_dict(json.loads(blob)) == x
    # rationals as lowest-terms strings, integers without a denominator
    data = x.to_json_dict()
    assert data["coeffs"]["delta_irr"] == "1/8"
    assert data["coeffs"]["K"] == ["1", "0"]


def test_generator_labels_parse_back():
    from thetadiv.basis import generator_label, parse_generator_label

    for g, n in [(3, 2), (4, 3), (6, 3)]:
        for gen in basis_generators(g, n):
            assert parse_generator_label(generator_label(gen), g, n) == gen
    with pytest.raises(ValueError, match="unrecognized"):
        parse_generator_label("psi1", 3, 2)


def subsets_containing(i, n):
    """Every P in 1..n with i in P and |P| >= 2, one i at a time: the loop
    the psi/K substitution ran before it walked the genus-0 classes once."""
    others = [j for j in range(1, n + 1) if j != i]
    for size in range(1, n):
        for rest in combinations(others, size):
            yield tuple(sorted((i,) + rest))


def test_psi_substitution_matches_the_subset_loop():
    for g in (1, 3, 4):
        for n in range(1, 8):
            weights = {K(i): Fraction(i, 3) for i in range(1, n + 1)}
            added = {}  # the sum of the weights over P, per delta_0^P
            for i in range(1, n + 1):
                psi_i = {K(i): Fraction(1)}
                for P in subsets_containing(i, n):
                    gen = delta(canonicalize_boundary(0, P, g, n))
                    psi_i[gen] = psi_i.get(gen, 0) + 1
                    added[gen] = added.get(gen, 0) + weights[K(i)]
                assert psi_in_k_basis(i, g, n) == DivisorClass(g, n, psi_i)
            assert psi_to_k(DivisorClass(g, n, weights)) == DivisorClass(g, n, {**weights, **added})
            # classes that already carry fractional delta_0^P coefficients:
            # every third one is what the substitution takes away, so it
            # cancels, and its key must be absent from the result
            for sign, change in ((1, psi_to_k), (-1, k_to_psi)):
                old = dict(weights)
                for j, gen in enumerate(added):
                    old[gen] = -sign * added[gen] if j % 3 == 0 else Fraction(j - 4, 5)
                expected = {gen: c + sign * added.get(gen, 0) for gen, c in old.items()}
                cancelled = [gen for gen, c in expected.items() if c == 0]
                assert len(cancelled) >= len(added) / 3
                result = change(DivisorClass(g, n, old))
                assert result == DivisorClass(g, n, expected)
                assert not any(gen in result.coeffs for gen in cancelled)


def test_json_refuses_a_boundary_class_given_twice():
    data = DivisorClass(3, 2, {K(1): 1}).to_json_dict()
    data["coeffs"]["boundary"].append({"h": 0, "P": [1, 2], "c": "5"})
    with pytest.raises(ValueError, match=r"delta_0\^\{1,2\} given twice"):
        DivisorClass.from_json_dict(data)
    # delta_2^{2} is the mirror of the canonical delta_1^{1}
    data = DivisorClass(3, 2, {K(1): 1}).to_json_dict()
    data["coeffs"]["boundary"].append({"h": 2, "P": [2], "c": "5"})
    with pytest.raises(ValueError, match=r"delta_1\^\{1\} given twice"):
        DivisorClass.from_json_dict(data)


@pytest.mark.parametrize("value", [0.1, 1.0, True, None, [1], "1/0"])
def test_json_read_refuses_inexact_coefficients(value):
    # 0.1 was read as 3602879701896397/36028797018963968 and true as 1;
    # null and a list raised TypeError, "1/0" ZeroDivisionError
    message = (
        "coefficient '1/0' has a zero denominator"
        if value == "1/0"
        else f"JSON coefficients must be strings or integers, got {value!r}"
    )
    for edit in ("lambda1", "K", "boundary"):
        data = DivisorClass(3, 2, {K(1): 1}).to_json_dict()
        if edit == "lambda1":
            data["coeffs"]["lambda1"] = value
        elif edit == "K":
            data["coeffs"]["K"][1] = value
        else:
            data["coeffs"]["boundary"][0]["c"] = value
        with pytest.raises(ValueError) as info:
            DivisorClass.from_json_dict(data)
        assert str(info.value) == message
    data["coeffs"]["K"] = [2, "0"]  # an int that is not a bool is exact
    data["coeffs"]["boundary"][0]["c"] = "0"
    assert DivisorClass.from_json_dict(data) == DivisorClass(3, 2, {K(1): 2})


# the int-to-str limit (4300 where there is none): a bound on digit runs
# and on a decimal exponent
LIMIT = getattr(sys, "get_int_max_str_digits", int)() or 4300


def read_coefficient(text):
    """The general reader: ``Fraction(text)``, a zero denominator refused,
    and a decimal exponent above LIMIT refused; in a string Fraction reads,
    the exponent is what follows its last e."""
    try:
        c = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {text!r} has a zero denominator") from None
    _, e, exponent = text.lower().rpartition("e")
    if e and abs(int(exponent)) > LIMIT:
        raise ValueError(f"coefficient {text!r} has a decimal exponent above {LIMIT}")
    return c


def outcome(read, text):
    try:
        c = read(text)
    except ValueError as exc:
        return str(exc)
    return type(c), c


# a digit run past the int-to-str limit
_LONG = "7" * (LIMIT + 1)


@example(text="-0")
@example(text="0/5")
@example(text="1/0")
@example(text="-0/0")
@example(text="007/010")
@example(text="1_000")
@example(text=" 3")
@example(text="+3")
@example(text="\u0663")  # an Arabic-Indic three
@example(text=_LONG)
@example(text="1/" + _LONG)
@example(text=_LONG + "/0")
@example(text=f"1e{LIMIT}")
@example(text=f"-.5E+{LIMIT + 1} ")
@example(text=f"1e-{LIMIT + 1}")
# at most 8 characters: the reference still asks Fraction, and
# Fraction("1e999999") takes 0.4 s, each further exponent digit about 40
# times as long
@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(text=st.text(alphabet="0123456789\u0663-+/._e ", max_size=8))
def test_json_coefficients_read_as_fraction_reads_them(text):
    # plain ASCII "-p/q" strings skip Fraction's own parse; every string
    # must still give Fraction's value, or the same refusal; the
    # IntersectionMatrix reader shares this path
    assert outcome(basis._json_coefficient, text) == outcome(read_coefficient, text)


def test_a_json_coefficient_with_a_large_exponent_is_refused():
    # Fraction("1e999999") builds 10**999999 (0.4 s; "1e9999999" about
    # 10 s), so a JSON document of a few bytes could hang any of its readers
    refused = f"has a decimal exponent above {LIMIT}"
    for text in ("1e999999", "-2.5E-999999", " 1e+999999 ", f"1e{LIMIT + 1}"):
        with pytest.raises(ValueError, match=refused):
            basis._json_coefficient(text)
    assert basis._json_coefficient(f"1e{LIMIT}") == 10**LIMIT
    assert basis._json_coefficient(f"7e-{LIMIT}") == Fraction(7, 10**LIMIT)
    # every JSON reader goes through it
    x = DivisorClass(3, 2, {K(1): 1}).to_json_dict()
    x["coeffs"]["K"][1] = "1e999999"
    cycle = dr_expansion(3, 2, (1, -1)).to_json_dict()
    cycle["terms"][0]["c"] = "1e999999"
    mat = build_matrix(3, 1).to_json_dict()
    mat["entries"][0][0] = "1e999999"
    for reader, data in ((DivisorClass, x), (FormalCycle, cycle), (IntersectionMatrix, mat)):
        with pytest.raises(ValueError, match=refused):
            reader.from_json_dict(data)


def test_every_relabel_refuses_a_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        relabel_class(DivisorClass(3, 2, {LAMBDA1: 1}), (5, 5))
    with pytest.raises(ValueError, match="not a permutation"):
        relabel_class(DivisorClass.zero(3, 2), (1,))
    for gen in (LAMBDA1, DELTA_IRR, K(1), delta(canonicalize_boundary(1, (1,), 3, 2))):
        with pytest.raises(ValueError, match="not a permutation"):
            relabel_generator(gen, (1, 1), 3, 2)
    with pytest.raises(ValueError, match=r"point index 3 out of range 1..2"):
        relabel_generator(K(3), (2, 1), 3, 2)
    with pytest.raises(ValueError, match="not canonical"):
        relabel_generator(delta(BoundaryIndex(2, (2,))), (2, 1), 3, 2)


@pytest.mark.parametrize(
    "sigma",
    [(True, 2), (1.0, 2.0), (2, 1.0), (2, True), {1: 2, 2: 1}, {1, 2}, 5, None, iter((1, 2))],
)
def test_every_relabel_refuses_a_sigma_entry_that_is_not_an_int(sigma):
    # True == 1 and 1.0 == 1 sort like the permutation they stand for; a
    # sigma that is no sequence (a dict, a set, an int, None, an iterator)
    # used to escape as KeyError or TypeError
    relabels = [
        lambda: relabel_boundary(BoundaryIndex(1, (1,)), sigma, 3, 2),
        lambda: relabel_generator(K(1), sigma, 3, 2),
        lambda: relabel_class(DivisorClass(3, 2, {LAMBDA1: 1}), sigma),
        lambda: relabel_curve(ELLIPTIC_TAIL, sigma, 3, 2),
        lambda: relabel_cycle(dr_expansion(3, 2, (1, -1)), sigma),
    ]
    for relabel in relabels:
        with pytest.raises(ValueError) as info:
            relabel()
        assert str(info.value) == f"{sigma!r} is not a permutation of 1..2"


def test_relabel_boundary_validates_against_g_n():
    # sigma[-1] used to wrap the marking 0 onto sigma's last entry, and a
    # marking past n raised IndexError
    for b in (BoundaryIndex(1, (0,)), BoundaryIndex(1, (3,))):
        with pytest.raises(ValueError, match=r"not contained in 1..2"):
            relabel_boundary(b, (2, 1), 3, 2)
    with pytest.raises(ValueError, match="unstable"):
        relabel_boundary(BoundaryIndex(0, (1,)), (2, 1), 3, 2)
    # a label need not be canonical: delta_2^{2} is delta_1^{1}
    assert relabel_boundary(BoundaryIndex(2, (2,)), (2, 1), 3, 2) == BoundaryIndex(1, (2,))


def test_json_read_canonicalizes_each_boundary_entry_once(monkeypatch):
    import thetadiv.basis as basis
    from thetadiv.basis import _boundary_count

    calls = []

    def counted(*args):
        calls.append(args)
        return canonicalize_boundary(*args)

    # at most one call per entry: none for the canonical labels that
    # to_json_dict writes, one for each mirror label
    x = psi_in_k_basis(3, 5, 8) + DivisorClass(5, 8, {LAMBDA1: Fraction(-1, 3)})
    data = x.to_json_dict()
    entries = data["coeffs"]["boundary"]
    mirrored = [{**e, "h": 5 - e["h"], "P": [i for i in range(1, 9) if i not in e["P"]]} for e in entries]
    monkeypatch.setattr(basis, "canonicalize_boundary", counted)
    assert DivisorClass.from_json_dict(data) == x
    assert calls == []
    data["coeffs"]["boundary"] = mirrored
    assert DivisorClass.from_json_dict(data) == x
    assert len(calls) == len(mirrored) == _boundary_count(5, 8) == 759


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_json_read_tries_each_entry_as_the_next_class(data):
    # the reader tries each entry as the class after the one before: a
    # document the package wrote reads with no canonicalization, a gap costs
    # one (the reader resumes from the column it finds), and any order of
    # the entries reads back to the same class
    g, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
    gens = basis_generators(g, n)
    values = data.draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
    x = DivisorClass(g, n, dict(zip(gens, values)))
    doc = x.to_json_dict()
    entries = doc["coeffs"]["boundary"]
    dropped = data.draw(st.sets(st.sampled_from(range(len(entries))))) if entries else set()
    kept = [e for j, e in enumerate(entries) if j not in dropped]
    gone = {gens[n + 2 + j] for j in dropped}
    rest = DivisorClass(g, n, {gen: c for gen, c in x.coeffs.items() if gen not in gone})
    calls = []

    def counted(*args):
        calls.append(args)
        return canonicalize_boundary(*args)

    def read(boundary):
        calls.clear()
        return DivisorClass.from_json_dict({**doc, "coeffs": {**doc["coeffs"], "boundary": boundary}})

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(basis, "canonicalize_boundary", counted)
        assert read(entries) == x
        assert calls == []
        assert read(kept) == rest
        assert len(calls) <= len(dropped)
        assert read(data.draw(st.permutations(entries))) == x


def test_json_read_keeps_its_refusals():
    good = DivisorClass(3, 2, {K(1): 1, LAMBDA1: Fraction(1, 2)}).to_json_dict()

    def edited(**changes):
        data = {**good, "coeffs": dict(good["coeffs"])}
        for key, value in changes.items():
            (data["coeffs"] if key in data["coeffs"] else data)[key] = value
        return data

    with pytest.raises(ValueError, match=r"point index 3 out of range 1..2"):
        DivisorClass.from_json_dict(edited(K=["1", "0", "4"]))
    for bad in ("x", "1/2/3", ""):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            DivisorClass.from_json_dict(edited(delta_irr=bad))
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        DivisorClass.from_json_dict(edited(boundary=[{"h": 1, "P": [1], "c": "one"}]))
    with pytest.raises(ValueError, match=r"given twice"):
        DivisorClass.from_json_dict(edited(boundary=good["coeffs"]["boundary"] * 2))
    # a zero is not stored, but it is still given: twice as "0" is refused,
    # and a doubled entry is refused as such before its coefficient is read
    first = good["coeffs"]["boundary"][0]
    for again in ({**first, "c": "0"}, {**first, "c": "one"}, {"h": first["h"], "P": first["P"]}):
        with pytest.raises(ValueError, match=r"delta_0\^\{1,2\} given twice"):
            DivisorClass.from_json_dict(edited(boundary=[{**first, "c": "0"}, again]))
    with pytest.raises(ValueError, match="genus must be"):
        DivisorClass.from_json_dict(edited(g=0))
    with pytest.raises(ValueError, match="genus must be"):
        DivisorClass.from_json_dict(edited(g=True, boundary=[]))
    with pytest.raises(ValueError, match="number of marked points"):
        DivisorClass.from_json_dict(edited(n=0, K=[], boundary=[]))
    with pytest.raises(ValueError, match="marking set"):
        DivisorClass.from_json_dict(edited(boundary=[{"h": 1, "P": [3], "c": "1"}]))
    # each equals a canonical (h, P) key as a tuple, so it must be refused
    # by its type before any lookup, with the message canonicalization gives
    for h, P, message in [
        (True, [1], "genus part True out of range"),
        (1, [1.0], "markings must be integers, got 1.0"),
        (1, [True], "markings must be integers, got True"),
        (1, [[1]], r"markings must be integers, got \[1\]"),
    ]:
        with pytest.raises(ValueError, match=message):
            DivisorClass.from_json_dict(edited(boundary=[{"h": h, "P": P, "c": "1"}]))
    # delta_2^{2} is the mirror label of delta_1^{1}
    mirrored = edited(boundary=[{"h": 2, "P": [2], "c": "1/3"}])
    assert DivisorClass.from_json_dict(mirrored) == DivisorClass(
        3, 2, {K(1): 1, LAMBDA1: Fraction(1, 2), delta(BoundaryIndex(1, (1,))): Fraction(1, 3)}
    )



@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data.pop("coeffs"),  # KeyError
        lambda data: data["coeffs"].update(K=5),  # TypeError
        lambda data: data["coeffs"]["boundary"][0].pop("h"),  # KeyError
        lambda data: data["coeffs"]["boundary"][0].update(P=5),  # TypeError
        lambda data: data["coeffs"].update(boundary=[5]),  # TypeError
        # a string where a list belongs was read one character at a time
        lambda data: data["coeffs"].update(K="12"),
        lambda data: data["coeffs"].update(boundary=""),
        lambda data: data["coeffs"]["boundary"][0].update(P="12"),
    ],
)
def test_json_read_refuses_malformed_documents(edit):
    data = DivisorClass(3, 2, {K(1): 1}).to_json_dict()
    edit(data)
    with pytest.raises(ValueError, match="^malformed DivisorClass JSON: "):
        DivisorClass.from_json_dict(data)
    with pytest.raises(ValueError, match="^malformed DivisorClass JSON: "):
        DivisorClass.from_json_dict([])


def test_a_cached_basis_table_still_checks_the_budget(monkeypatch):
    x = class_T(5, 8, (1, -1, 2, -2, 3, -3, 0, 0))
    data = x.to_json_dict()  # the (5, 8) table is built and cached by now
    monkeypatch.setenv("THETADIV_BUDGET", "1")
    calls = [
        lambda: enumerate_boundary(5, 8),
        lambda: basis_generators(5, 8),
        lambda: class_T(5, 8, (1, -1, 2, -2, 3, -3, 0, 0)),
        lambda: k_to_psi(x),
        lambda: DivisorClass.from_json_dict(data),
        lambda: reconstruct_T(5, 8, (1, -1, 2, -2, 3, -3, 0, 0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="above the budget of 1"):
            call()


def test_enumerations_return_fresh_lists():
    for enumerate_ in (enumerate_boundary, basis_generators):
        first = enumerate_(5, 8)
        expected = list(first)
        first.reverse()
        first.append(None)
        assert enumerate_(5, 8) == expected
    assert len(expected) == 8 + 2 + 759


def test_the_basis_table_cache_is_bounded_by_size(monkeypatch):
    # the cache kept the 16 (g, n) used last whatever their size, so 16
    # large tables could stay resident; it now keeps the tables used last
    # while they hold at most _TABLE_CLASSES boundary classes in all
    from collections import OrderedDict

    from thetadiv.basis import _boundary_count

    # the largest table the default budget admits, at 8 units a class, is
    # exactly the bound: it is kept alone, and two such never are
    assert basis._TABLE_CLASSES == basis.BUDGET // 8 == _boundary_count(625_001, 1)
    check_work(625_001, 1, 8)
    with pytest.raises(ValueError, match="above the budget"):
        check_work(625_003, 1, 8)

    builds, unwrapped = [], basis._build_basis_table

    def build(g, n):
        builds.append((g, n))
        return unwrapped(g, n)

    monkeypatch.setattr(basis, "_tables", OrderedDict())
    monkeypatch.setattr(basis, "_build_basis_table", build)
    monkeypatch.setattr(basis, "_TABLE_CLASSES", 2000)
    sizes = {(5, 8): 759, (3, 9): 1014, (4, 8): 631, (3, 11): 4084}
    assert all(_boundary_count(g, n) == B for (g, n), B in sizes.items())
    for gn, expected in [
        ((5, 8), [(5, 8)]),
        ((3, 9), [(5, 8), (3, 9)]),  # 1,773 classes
        ((4, 8), [(3, 9), (4, 8)]),  # 2,404 is over: the least recent goes
        ((3, 9), [(4, 8), (3, 9)]),  # a hit is the most recent
        ((5, 8), [(3, 9), (5, 8)]),
        ((3, 11), [(3, 9), (5, 8)]),  # above the bound alone: never kept
        ((3, 11), [(3, 9), (5, 8)]),
    ]:
        assert len(enumerate_boundary(*gn)) == sizes[gn]
        kept = list(basis._tables)
        assert kept == expected
        assert sum(sizes[k] for k in kept) <= 2000
    assert builds == [(5, 8), (3, 9), (4, 8), (5, 8), (3, 11), (3, 11)]


def test_the_basis_table_cache_holds_under_threads(monkeypatch):
    # the cache's lookups, insertions and evictions share one OrderedDict:
    # without its lock, summing the kept tables while another thread evicts
    # one raises, and an eviction can run on an emptied dict
    import sys
    import threading
    from collections import OrderedDict

    from thetadiv.basis import _boundary_count

    sizes = [(3, 5), (4, 5), (5, 5), (3, 6), (4, 4), (6, 5)]
    monkeypatch.setattr(basis, "_tables", OrderedDict())
    monkeypatch.setattr(basis, "_TABLE_CLASSES", 150)
    errors = []

    def work(offset):
        try:
            for k in range(300):
                g, n = sizes[(k + offset) % len(sizes)]
                assert len(enumerate_boundary(g, n)) == _boundary_count(g, n)
        except Exception as exc:  # collected for the main thread to report
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sum(len(masks) for _, _, masks in basis._tables.values()) <= 150


@pytest.mark.parametrize(
    "label", ["K01", "K١", "K²", "delta_01^{1}", "delta_1^{01}", "delta_١^{}", "delta_1^{١}"]
)
def test_a_label_generator_label_never_prints_is_refused(label):
    # str.isdigit, int() and \d read leading zeros and non-ASCII digits:
    # "K01" and "K١" parsed as K1, "delta_01^{1}" as delta_1^{1}
    with pytest.raises(ValueError) as info:
        parse_generator_label(label, 3, 2)
    assert str(info.value) == f"unrecognized generator label {label!r}"
    cycle = {"g": 3, "n": 2, "terms": [{"monomial": [[label, 3]], "c": "1"}]}
    with pytest.raises(ValueError, match="unrecognized generator label"):
        FormalCycle.from_json_dict(cycle)


def test_labels_the_parser_keeps_reading():
    assert parse_generator_label("K2", 3, 2) == K(2)
    assert parse_generator_label("K10", 3, 10) == K(10)
    # a mirror label and an unsorted marking set name a canonical class
    assert parse_generator_label("delta_2^{2}", 3, 2) == delta(BoundaryIndex(1, (1,)))
    assert parse_generator_label("delta_0^{3,1}", 3, 3) == delta(BoundaryIndex(0, (1, 3)))
    with pytest.raises(ValueError, match="point index must be a positive integer, got 0"):
        parse_generator_label("K0", 3, 2)
    with pytest.raises(ValueError, match=r"not contained in 1..2"):
        parse_generator_label("delta_1^{0}", 3, 2)


@pytest.mark.parametrize(
    "call, args, message",
    [
        # TypeError: '<=' not supported between instances of 'int' and 'str'
        (psi_in_k_basis, ("1", 3, 2), "point index must be a positive integer, got '1'"),
        # AttributeError: 'tuple' object has no attribute 'h'
        (relabel_boundary, ((1, (1,)), (2, 1), 3, 2), "expected a BoundaryIndex, got (1, (1,))"),
        # AttributeError: 'list' object has no attribute 'items'
        (DivisorClass, (3, 2, [1, 2]), "coefficients must be a mapping, got [1, 2]"),
        (DivisorClass, (3, 2, None), "coefficients must be a mapping, got None"),
        # TypeError: 'NoneType' object is not iterable
        (FormalCycle, (3, 2, None), "terms must be a mapping, got None"),
        # TypeError: cannot unpack non-iterable int object
        (FormalCycle, (3, 2, {5: 1}), "a monomial must be a tuple of (generator, exponent) pairs, got 5"),
        (FormalCycle, (3, 2, {(5,): 1}), "a monomial must be a tuple of (generator, exponent) pairs, got (5,)"),
        # AttributeError: 'int' object has no attribute 'startswith'
        (parse_generator_label, (5, 3, 2), "generator labels must be strings, got 5"),
        # TypeError: 'int' (or 'NoneType') object is not iterable, from tuple(P)
        (canonicalize_boundary, (1, 5, 3, 2), "marking set 5 is not iterable"),
        (DivisorClass, (3, 2, {delta(BoundaryIndex(1, 5)): 1}), "marking set 5 is not iterable"),
        (relabel_boundary, (BoundaryIndex(1, None), (2, 1), 3, 2), "marking set None is not iterable"),
        # AttributeError: 'int' object has no attribute 'g' (or 'coeffs', 'terms')
        (k_to_psi, (5,), "expected a DivisorClass, got 5"),
        (psi_to_k, (None,), "expected a DivisorClass, got None"),
        (relabel_class, (5, (1, 2)), "expected a DivisorClass, got 5"),
        (relabel_cycle, (5, (1, 2)), "expected a FormalCycle, got 5"),
        (evaluate, (5, {}), "expected a FormalCycle, got 5"),
        (restrict_to_compact_type, (5,), "expected a DivisorClass, got 5"),
        # TypeError: 'NoneType' (or 'int') object is not iterable, from tuple(d)
        (class_T, (3, 2, None), "weight vector None is not iterable"),
        (class_T, (3, 2, 5), "weight vector 5 is not iterable"),
        (class_Theta, (3, 2, None), "weight vector None is not iterable"),
        (class_D_direct, (3, 2, None), "weight vector None is not iterable"),
        (class_D_from_theta, (3, 2, None), "weight vector None is not iterable"),
        (correction_ledger, (3, 2, None), "weight vector None is not iterable"),
        (theta_intersection, (point_curve(1), None, "T", 3, 2), "weight vector None is not iterable"),
        (reconstruct_T, (3, 2, None), "weight vector None is not iterable"),
        (reconstruct_Theta, (3, 2, None), "weight vector None is not iterable"),
        (dr_expansion, (3, 2, None), "weight vector None is not iterable"),
        # TypeError: argument of type 'NoneType' is not iterable; a list was
        # read as missing its first generator
        (evaluate, (CUBE, None), "assignment must be a mapping, got None"),
        (evaluate, (CUBE, []), "assignment must be a mapping, got []"),
        # None was labelled "1"; TypeError: 'int' object is not iterable
        (monomial_label, (None,), "a monomial must be a tuple of (generator, exponent) pairs, got None"),
        (monomial_label, (5,), "a monomial must be a tuple of (generator, exponent) pairs, got 5"),
        # True ran one trial and reported "trials": true; TypeError: '<' not
        # supported between instances of 'str' and 'int'
        (verify_T, (3, 2, True, 0), "--trials must be an integer, got True"),
        (verify_T, (3, 2, "5", 0), "--trials must be an integer, got '5'"),
        # TypeError: cannot unpack non-iterable int object, from _join_factors
        (
            monomial_label,
            (((K(1), 1), 5),),
            "a monomial must be a tuple of (generator, exponent) pairs, got "
            "((Generator(kind='K', i=1, boundary=None), 1), 5)",
        ),
        (monomial_label, ((5,),), "a monomial must be a tuple of (generator, exponent) pairs, got (5,)"),
        # AttributeError: 'int' object has no attribute 'kind'
        (monomial_label, (((5, 1),),), "a monomial must be a tuple of (generator, exponent) pairs, got ((5, 1),)"),
        # None drew from OS entropy and reported "seed": null; "x", 1.5 and
        # True were hashed into seeds that no report names
        (verify_T, (3, 2, 2, None), "--seed must be an integer, got None"),
        (verify_T, (3, 2, 2, "x"), "--seed must be an integer, got 'x'"),
        (verify_T, (3, 2, 2, 1.5), "--seed must be an integer, got 1.5"),
        (verify_T, (3, 2, 2, True), "--seed must be an integer, got True"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_public_entry_points_refuse_bad_input_with_value_error(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message


def test_refusals_no_other_test_reaches():
    # each kills the mutant that deletes its refusal
    with pytest.raises(ValueError, match="^unknown generator kind 'psi'$"):  # accepted, then lost in to_json_dict
        DivisorClass(3, 2, {Generator("psi"): 1})
    for i in (0, 3):  # 3 gave a class with a K3 the basis does not have
        with pytest.raises(ValueError, match=rf"^point index {i} out of range 1..2$"):
            psi_in_k_basis(i, 3, 2)


def test_class_arithmetic_defers_to_the_other_operand():
    # the NotImplemented returns: without them x + Other() and x - Other()
    # raised AttributeError or TypeError, and 0.5 * x a ValueError
    class Other:
        def __radd__(self, x):
            return "radd"

        def __rsub__(self, x):
            return "rsub"

    x = DivisorClass(3, 2, {K(1): 1})
    assert (x + Other(), x - Other()) == ("radd", "rsub")
    for op in (lambda: x + 1, lambda: x - 1, lambda: 0.5 * x, lambda: "a" * x):
        with pytest.raises(TypeError):
            op()
