"""Tests for the formal double-ramification-cycle expansion."""

import contextlib
import gc
import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetadiv.basis import (
    DELTA_IRR,
    BoundaryIndex,
    Generator,
    K,
    basis_generators,
    delta,
    generator_sort_key,
)
from thetadiv.cli import main
from thetadiv.drcycle import (
    FormalCycle,
    dr_expansion,
    evaluate,
    monomial_label,
    relabel_cycle,
    restrict_to_compact_type,
)
from thetadiv.theta import class_D_direct, class_D_from_theta, class_T, class_Theta


def all_ones(g, n):
    return {gen: Fraction(1) for gen in basis_generators(g, n)}


def brute_force_power(coeffs, g):
    """Independent oracle: expand (sum c_j X_j)^g by repeated multiplication."""
    poly = {(): Fraction(1)}
    for _ in range(g):
        new = {}
        for mono, c in poly.items():
            for gen, w in coeffs.items():
                counts = dict(mono)
                counts[gen] = counts.get(gen, 0) + 1
                merged = tuple(sorted(counts.items(), key=str))
                new[merged] = new.get(merged, Fraction(0)) + c * w
        poly = new
    return poly


def test_restrict_to_compact_type():
    c = class_Theta(3, 2, (3, -1))
    restricted = restrict_to_compact_type(c)
    assert DELTA_IRR not in restricted.coeffs
    assert restricted.coeff(DELTA_IRR) == 0
    for gen, value in restricted.coeffs.items():
        assert value == c.coeff(gen)
    assert restrict_to_compact_type(restricted) == restricted
    # degree-0 classes carry no delta_irr to begin with
    t = class_T(3, 2, (1, -1))
    assert restrict_to_compact_type(t) == t


def test_zero_weights_give_zero_cycle():
    cycle = dr_expansion(3, 2, (0, 0))
    assert cycle.terms == {}
    assert evaluate(cycle, all_ones(3, 2)) == 0


def test_genus_one_expansion_is_the_class_itself():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cycle = dr_expansion(1, 2, (1, -1))
        base = restrict_to_compact_type(class_T(1, 2, (1, -1)))
    assert {mono[0][0]: c for mono, c in cycle.terms.items()} == dict(base.coeffs)


def test_frozen_all_ones_value():
    cycle = dr_expansion(3, 2, (1, -1))
    assert len(cycle.terms) == 35  # C(5 + 3 - 1, 3) compositions
    assert evaluate(cycle, all_ones(3, 2)) == Fraction(1, 6)


MAX_TERMS = 500


def compact_T(g, n, d):
    return restrict_to_compact_type(class_T(g, n, d))


@st.composite
def dr_cases(draw):
    """(g, n, degree-0 weights) whose expansion has at most MAX_TERMS monomials."""
    g = draw(st.integers(2, 5))
    n = draw(st.integers(2, 4))
    head = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    d = tuple(head) + (-sum(head),)
    assume(math.comb(len(compact_T(g, n, d).coeffs) + g - 1, g) <= MAX_TERMS)
    return g, n, d


# genus 2 warns that the basis claims need g >= 3
@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=dr_cases())
def test_matches_brute_force_product(case):
    # every coefficient against (sum c_j X_j)^g multiplied out factor by factor
    g, n, d = case
    oracle = brute_force_power(compact_T(g, n, d).coeffs, g)
    scaled = {
        tuple(sorted(mono, key=str)): c * math.factorial(g)
        for mono, c in dr_expansion(g, n, d).terms.items()
    }
    assert scaled == {k: v for k, v in oracle.items() if v != 0}


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=dr_cases(), data=st.data())
def test_multinomial_identity(case, data):
    g, n, d = case
    value = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    assignment = {gen: data.draw(value) for gen in basis_generators(g, n)}
    linear = sum(
        (c * assignment[gen] for gen, c in compact_T(g, n, d).coeffs.items()), Fraction(0)
    )
    assert evaluate(dr_expansion(g, n, d), assignment) == linear**g / math.factorial(g)


def output_key(term):
    """The output order, stated apart from the library: the list of the
    factors' (basis order, exponent) pairs."""
    return [(generator_sort_key(gen), e) for gen, e in term[0]]


def test_terms_run_in_output_order():
    # every way a cycle is made leaves terms in output order, so no
    # renderer sorts; the expansion is born in it
    cycle = dr_expansion(3, 2, (1, -1))
    monos = list(cycle.terms)
    assert monomial_label(monos[0]) == "K1*K2*delta_0^{1,2}"
    assert monomial_label(monos[-1]) == "delta_1^{2}^3"
    shuffled = list(cycle.terms.items())
    random.Random(7).shuffle(shuffled)
    built = FormalCycle(3, 2, dict(shuffled))
    data = cycle.to_json_dict()
    random.Random(7).shuffle(data["terms"])
    read = FormalCycle.from_json_dict(data)
    relabelled = relabel_cycle(cycle, (2, 1))
    for c in (cycle, built, read, relabelled):
        assert list(c.terms.items()) == c.sorted_terms()
        assert c.sorted_terms() == sorted(c.terms.items(), key=output_key)
    assert list(built.terms.items()) == list(read.terms.items()) == list(cycle.terms.items())
    assert list(relabelled.terms.items()) == list(dr_expansion(3, 2, (-1, 1)).terms.items())


@st.composite
def walk_cases(draw):
    """(g, n, degree-0 weights, zeros included) over g 1..6 and n 1..4 whose
    expansion has at most 2000 monomials, so that g = 6 reaches n = 2."""
    g = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    head = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    d = tuple(head) + (-sum(head),)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        k = len(compact_T(g, n, d).coeffs)
    assume(math.comb(k + g - 1, g) <= 2000)
    return g, n, d


def reference_expansion(base, g):
    """(monomial, coefficient) pairs of (sum c_j X_j)^g / g!, one per multiset
    of generator positions, sorted into output order by position."""
    gens = sorted(base.coeffs, key=generator_sort_key)
    rows = []
    for picks in itertools.combinations_with_replacement(range(len(gens)), g):
        runs = [(j, len(list(group))) for j, group in itertools.groupby(picks)]
        c = Fraction(1)
        for j, e in runs:
            c *= base.coeffs[gens[j]] ** e / math.factorial(e)
        rows.append((runs, tuple((gens[j], e) for j, e in runs), c))
    rows.sort(key=lambda row: row[0])
    return [(mono, c) for _, mono, c in rows]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=walk_cases())
def test_walk_matches_a_reference_loop(case):
    # dr_expansion returns through FormalCycle._trusted, which checks
    # nothing: same terms, coefficients and order as a plain loop, and a
    # cycle the constructor would build unchanged
    g, n, d = case
    small_genus = pytest.warns(UserWarning, match="genus >= 3")
    with small_genus if g < 3 else contextlib.nullcontext():
        cycle = dr_expansion(g, n, d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = compact_T(g, n, d)
    assert list(cycle.terms.items()) == reference_expansion(base, g)
    rebuilt = FormalCycle(g, n, dict(cycle.terms))
    assert rebuilt == cycle and list(rebuilt.terms) == list(cycle.terms)


def test_expansion_leaves_no_reference_cycle():
    # the walk leaves no garbage cycle (a closure calling itself would, and
    # would keep each expansion's terms and table alive until the cyclic
    # collector ran, so peak RSS would grow with it)
    dr_expansion(3, 2, (1, -1))
    gc.collect()
    gc.disable()
    try:
        dr_expansion(3, 2, (1, -1)).to_csv()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_single_generator_power():
    cycle = FormalCycle(3, 2, {((K(1), 3),): Fraction(1, 6) * Fraction(5) ** 3})
    value = evaluate(cycle, {K(1): Fraction(1)})
    assert value == Fraction(125, 6)
    assert evaluate(cycle, {K(1): Fraction(0)}) == 0


def test_missing_assignment_entry():
    cycle = dr_expansion(3, 2, (1, -1))
    with pytest.raises(ValueError, match="missing generator"):
        evaluate(cycle, {K(1): Fraction(1)})


def test_monomial_cap():
    # the work budget of basis.check_work, which replaced the monomial cap
    env_name = "THETADIV_BUDGET"
    import os

    old = os.environ.get(env_name)
    os.environ[env_name] = "10"
    try:
        with pytest.raises(ValueError, match=env_name):
            dr_expansion(3, 2, (1, -1))
    finally:
        if old is None:
            del os.environ[env_name]
        else:
            os.environ[env_name] = old


def test_cycle_validation():
    with pytest.raises(ValueError, match="delta_irr"):
        FormalCycle(3, 2, {((DELTA_IRR, 3),): Fraction(1)})
    with pytest.raises(ValueError, match="degree"):
        FormalCycle(3, 2, {((K(1), 2),): Fraction(1)})


def test_degree_validation():
    with pytest.raises(ValueError, match="degree"):
        dr_expansion(3, 2, (1, 0))


def test_serialization_deterministic_and_ordered():
    import json

    cycle = dr_expansion(3, 2, (1, -1))
    blob = json.dumps(cycle.to_json_dict())
    assert json.dumps(dr_expansion(3, 2, (1, -1)).to_json_dict()) == blob
    data = cycle.to_json_dict()
    assert data["g"] == 3 and data["n"] == 2
    assert len(data["terms"]) == 35
    labels = [tuple(tuple(p) for p in t["monomial"]) for t in data["terms"]]
    assert labels == sorted(labels)
    csv_text = cycle.to_csv()
    assert csv_text.splitlines()[0] == "monomial,coefficient"
    assert len(csv_text.splitlines()) == 36


def test_monomial_labels():
    cycle = dr_expansion(3, 2, (1, -1))
    labels = {monomial_label(mono) for mono in cycle.terms}
    assert "K1^3" in labels
    assert any("*" in lab for lab in labels)


def test_permutation_equivariance():
    cycle = dr_expansion(3, 2, (1, -1))
    swapped = dr_expansion(3, 2, (-1, 1))
    assert relabel_cycle(cycle, (2, 1)) == swapped


def test_json_round_trip():
    cycle = dr_expansion(3, 2, (1, -1))
    assert FormalCycle.from_json_dict(cycle.to_json_dict()) == cycle


def test_json_refuses_a_monomial_given_twice():
    # the last entry used to win: K1^3 read 2
    entries = [{"monomial": [["K1", 3]], "c": "1"}, {"monomial": [["K1", 3]], "c": "2"}]
    with pytest.raises(ValueError, match=r"^monomial K1\^3 given twice$"):
        FormalCycle.from_json_dict({"g": 3, "n": 2, "terms": entries})
    # delta_2^{1} is the mirror label of the canonical delta_1^{2}
    entries = [{"monomial": [["delta_1^{2}", 3]], "c": "1"}]
    entries.append({"monomial": [["delta_2^{1}", 3]], "c": "1"})
    with pytest.raises(ValueError, match=r"^monomial delta_1\^\{2\}\^3 given twice$"):
        FormalCycle.from_json_dict({"g": 3, "n": 2, "terms": entries})


@pytest.mark.parametrize("value", [0.1, 1.0, True, None, [1], {"p": 1}])
def test_json_refuses_inexact_coefficients(value):
    # 0.1 was read as 3602879701896397/36028797018963968 and true as 1;
    # null, a list and an object raised TypeError
    data = {"g": 3, "n": 2, "terms": [{"monomial": [["K1", 3]], "c": value}]}
    with pytest.raises(ValueError) as info:
        FormalCycle.from_json_dict(data)
    assert str(info.value) == f"JSON coefficients must be strings or integers, got {value!r}"


def test_json_coefficients_are_strings_or_integers():
    def read(c):
        entry = {"monomial": [["K1", 3]], "c": c}
        return FormalCycle.from_json_dict({"g": 3, "n": 2, "terms": [entry]})

    assert read(2) == read("2") == FormalCycle(3, 2, {((K(1), 3),): 2})
    assert read("-3/6").terms == {((K(1), 3),): Fraction(-1, 2)}
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        read("one")
    # "1/0" raised ZeroDivisionError
    with pytest.raises(ValueError) as info:
        read("1/0")
    assert str(info.value) == "coefficient '1/0' has a zero denominator"


@pytest.mark.parametrize("g, n", [("x", 2), (-1, 0), (True, 2), (3, 0), (3, 2.0)])
def test_cycle_refuses_a_bad_g_or_n(g, n):
    # each was built, by the constructor and from JSON
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        FormalCycle(g, n, {})
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        FormalCycle.from_json_dict({"g": g, "n": n, "terms": []})


@pytest.mark.parametrize(
    "entry, message",
    [
        # TypeError: unhashable type: 'list'
        ({"monomial": [["K1", [3]]], "c": "1"}, "monomial exponents must be integers, got [['K1', [3]]]"),
        ({"monomial": [[["K1"], 3]], "c": "1"}, "generator labels must be strings, got ['K1']"),
        # AttributeError: 'int' object has no attribute 'startswith'
        ({"monomial": [[5, 3]], "c": "1"}, "generator labels must be strings, got 5"),
        # KeyError: 'c'
        ({"monomial": [["K1", 3]]}, "a JSON term needs a 'monomial' and a 'c', got {'monomial': [['K1', 3]]}"),
        # TypeError: 'int' object is not subscriptable
        (5, "a JSON term needs a 'monomial' and a 'c', got 5"),
    ],
)
def test_json_refuses_malformed_terms(entry, message):
    with pytest.raises(ValueError) as info:
        FormalCycle.from_json_dict({"g": 3, "n": 2, "terms": [entry]})
    assert str(info.value) == message


def refusal(g, n, terms):
    with pytest.raises(ValueError) as info:
        FormalCycle(g, n, terms)
    return str(info.value)


def test_refusal_messages():
    K1, K2 = "Generator(kind='K', i=1, boundary=None)", "Generator(kind='K', i=2, boundary=None)"
    assert refusal(3, 2, {((delta(BoundaryIndex(2, (1,))), 3),): 1}) == (
        "boundary index BoundaryIndex(h=2, P=(1,)) is not canonical for (g=3, n=2)"
    )
    assert refusal(3, 2, {((DELTA_IRR, 3),): 1}) == "delta_irr cannot appear in a compact-type cycle"
    assert refusal(3, 2, {((K(1), 0), (K(2), 3)): 1}) == (
        f"monomial exponents must be >= 1, got (({K1}, 0), ({K2}, 3))"
    )
    assert refusal(3, 2, {((K(1), 2),): 1}) == f"monomial (({K1}, 2),) has degree 2, expected 3"
    assert refusal(3, 2, {((K(2), 1), (K(1), 2)): 1}) == (
        f"monomial (({K2}, 1), ({K1}, 2)) is not in basis order"
    )


def test_refuses_inexact_coefficients():
    # a float was stored as its binary value, 3602879701896397/36028797018963968
    assert refusal(3, 2, {((K(1), 3),): 0.1}) == "coefficients must be int or Fraction, got 0.1"
    assert refusal(3, 2, {((K(1), 3),): True}) == "coefficients must be int or Fraction, got True"
    assert refusal(3, 2, {((K(1), 3),): "1/2"}) == "coefficients must be int or Fraction, got '1/2'"
    assert FormalCycle(3, 2, {((K(1), 3),): 2}).terms == {((K(1), 3),): Fraction(2)}


@pytest.mark.parametrize(
    "mono", [((K(1), 1.5), (K(2), 1.5)), ((K(1), True), (K(2), 2)), ((K(1), Fraction(3)),)]
)
def test_refuses_non_integer_exponents(mono):
    assert refusal(3, 2, {mono: 1}) == f"monomial exponents must be integers, got {mono!r}"


def test_refuses_a_repeated_generator():
    # it was stored, and compared unequal to the same monomial written once
    mono = ((K(1), 1), (K(1), 2))
    assert refusal(3, 2, {mono: 1}) == f"monomial {mono!r} repeats generator K1"


@pytest.mark.parametrize("value", [0.1, 1.0, True])
def test_evaluate_refuses_inexact_values(value):
    cycle = FormalCycle(3, 2, {((K(1), 3),): Fraction(1)})
    with pytest.raises(ValueError) as info:
        evaluate(cycle, {K(1): value})
    assert str(info.value) == f"assignment value of K1 must be int or Fraction, got {value!r}"


@pytest.mark.parametrize("value", [None, float("inf")])
def test_inexact_values_are_refused_before_conversion(value):
    # Fraction() ran before the type check: None raised TypeError, inf
    # OverflowError
    assert refusal(3, 2, {((K(1), 3),): value}) == f"coefficients must be int or Fraction, got {value!r}"
    cycle = FormalCycle(3, 2, {((K(1), 3),): 1})
    with pytest.raises(ValueError) as info:
        evaluate(cycle, {K(1): value})
    assert str(info.value) == f"assignment value of K1 must be int or Fraction, got {value!r}"


@pytest.mark.parametrize("value", ["abc", "1e3", "2.5", "-1"])
def test_monomial_cap_must_be_a_nonnegative_integer(monkeypatch, capsys, value):
    monkeypatch.setenv("THETADIV_BUDGET", value)
    message = f"THETADIV_BUDGET must be a nonnegative integer, got {value!r}"
    with pytest.raises(ValueError) as info:
        dr_expansion(3, 2, (1, -1))
    assert str(info.value) == message
    assert main(["dr", "--g", "3", "--n", "2", "--d", "1,-1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_monomial_cap_bounds_the_count(monkeypatch):
    # dr(3, 2, (1, -1)) has 35 monomials: 8 units for each of the 5 boundary
    # classes of class T, then 10 g = 30 units a monomial, 1090 in all
    monkeypatch.setenv("THETADIV_BUDGET", "1090")
    assert len(dr_expansion(3, 2, (1, -1)).terms) == 35
    monkeypatch.setenv("THETADIV_BUDGET", "40")
    assert dr_expansion(3, 2, (0, 0)).terms == {}
    with pytest.raises(ValueError) as info:
        dr_expansion(3, 2, (1, -1))
    assert str(info.value) == (
        "(g=3, n=2) is estimated at 1090 units of work, above the budget of 40; "
        "set THETADIV_BUDGET to override"
    )
    monkeypatch.setenv("THETADIV_BUDGET", "0")
    with pytest.raises(ValueError, match="40 units of work, above the budget of 0;"):
        dr_expansion(3, 2, (0, 0))
    monkeypatch.setenv("THETADIV_BUDGET", "")  # empty: the default
    assert len(dr_expansion(3, 2, (1, -1)).terms) == 35


def test_expansion_and_renderers_make_each_coefficient_once(monkeypatch):
    # (4, 3, (1, -2, 1)): 3,876 monomials over 66 distinct values.  One
    # Fraction a monomial made 4,028, and one str a term in to_json_dict
    # and to_csv made 7,752 strings
    g, n, d = 4, 3, (1, -2, 1)
    basis_generators(g, n)  # the basis table is built by now
    counts = {"new": 0, "str": 0}
    new, text = Fraction.__new__, Fraction.__str__

    def counted_new(cls, *args, **kwargs):
        counts["new"] += 1
        return new(cls, *args, **kwargs)

    def counted_str(self):
        counts["str"] += 1
        return text(self)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    cycle = dr_expansion(g, n, d)
    monkeypatch.undo()
    monkeypatch.setattr(Fraction, "__str__", counted_str)
    as_json, as_csv = cycle.to_json_dict(), cycle.to_csv()
    monkeypatch.undo()
    objects = {id(c) for c in cycle.terms.values()}
    assert (len(cycle.terms), len(set(cycle.terms.values()))) == (3876, 66)
    assert counts["new"] < 300 and len(objects) < 100
    assert counts["str"] == 2 * len(objects) < 200  # each object once per renderer
    # a cycle read back shares one object per distinct string, and one
    # whose every coefficient is an object of its own renders the same
    read = FormalCycle.from_json_dict(as_json)
    assert read == cycle and len({id(c) for c in read.terms.values()}) == 66
    apart = FormalCycle._trusted(
        g, n, {mono: Fraction(c.numerator, c.denominator) for mono, c in cycle.terms.items()}
    )
    assert len({id(c) for c in apart.terms.values()}) == 3876
    values = {gen: Fraction(j - 7, j % 3 + 1) for j, gen in enumerate(basis_generators(g, n))}
    for copy in (read, apart):
        assert (copy.to_json_dict(), copy.to_csv()) == (as_json, as_csv)
        assert list(copy._labelled_terms()) == list(cycle._labelled_terms())
        assert evaluate(copy, values) == evaluate(cycle, values)


def test_relabel_cycle_refuses_a_non_permutation():
    for cycle in (dr_expansion(3, 2, (1, -1)), FormalCycle(3, 2, {})):
        with pytest.raises(ValueError, match="not a permutation"):
            relabel_cycle(cycle, (1, 1))


def fresh(gen):
    """A generator equal to ``gen`` that shares no object with it."""
    b = gen.boundary
    return Generator(gen.kind, gen.i, None if b is None else BoundaryIndex(b.h, tuple(list(b.P))))


def test_equal_generators_stand_for_each_other():
    # generators are values: a cycle written with equal but distinct
    # objects validates, sorts, labels, serializes, evaluates and
    # relabels as the expansion itself does
    d, sigma = (1, -2, 3, -2), (2, 1, 3, 4)
    cycle = dr_expansion(3, 4, d)
    copy = FormalCycle(
        3, 4, {tuple((fresh(gen), e) for gen, e in mono): c for mono, c in cycle.terms.items()}
    )
    pairs = [(x, y) for a, b in zip(cycle.terms, copy.terms) for (x, _), (y, _) in zip(a, b)]
    assert len(pairs) > len(cycle.terms) and all(x == y and x is not y for x, y in pairs)
    assert copy == cycle
    assert copy.sorted_terms() == cycle.sorted_terms()
    assert [monomial_label(mono) for mono, _ in copy.sorted_terms()] == [
        monomial_label(mono) for mono, _ in cycle.sorted_terms()
    ]
    assert copy.to_csv() == cycle.to_csv()
    assert copy.to_json_dict() == cycle.to_json_dict()
    assert FormalCycle.from_json_dict(copy.to_json_dict()) == cycle
    values = {gen: Fraction(j + 1, 3) for j, gen in enumerate(basis_generators(3, 4))}
    assert evaluate(copy, {fresh(gen): a for gen, a in values.items()}) == evaluate(cycle, values)
    # an assignment looks its generators up by value, plain tuples included
    assert evaluate(copy, {tuple(gen): a for gen, a in values.items()}) == evaluate(cycle, values)
    assert relabel_cycle(copy, sigma) == relabel_cycle(cycle, sigma)
    assert relabel_cycle(relabel_cycle(cycle, sigma), sigma) == cycle


def test_equal_generators_are_validated_by_value():
    # two equal objects are one generator, repeated
    mono = ((K(1), 1), (Generator("K", 1), 2))
    assert refusal(3, 2, {mono: 1}) == f"monomial {mono!r} repeats generator K1"
    assert refusal(3, 2, {((fresh(delta(BoundaryIndex(2, (1,)))), 3),): 1}) == (
        "boundary index BoundaryIndex(h=2, P=(1,)) is not canonical for (g=3, n=2)"
    )
    # a plain tuple is no generator, also after an equal generator was checked
    plain = ("K", 1, None)
    for terms in ({((plain, 3),): 1}, {((K(1), 3),): 1, ((plain, 1), (K(2), 2)): 1}):
        assert refusal(3, 2, terms) == "expected a Generator, got ('K', 1, None)"


@pytest.mark.parametrize("e", ["a", None, "1"])
def test_exponent_type_is_checked_first(e):
    # "a" and None used to raise TypeError from the comparison e < 1
    mono = ((K(1), e), (K(2), 2))
    assert refusal(3, 2, {mono: 1}) == f"monomial exponents must be integers, got {mono!r}"
    data = {"g": 3, "n": 2, "terms": [{"monomial": [["K1", e], ["K2", 2]], "c": "1"}]}
    with pytest.raises(ValueError, match="monomial exponents must be integers"):
        FormalCycle.from_json_dict(data)


@pytest.mark.parametrize(
    "data",
    [
        # TypeError: cannot unpack non-iterable int object
        {"g": 3, "n": 2, "terms": [{"monomial": [5], "c": "1"}]},
        # TypeError: 'int' object is not iterable
        {"g": 3, "n": 2, "terms": [{"monomial": 5, "c": "1"}]},
        {"g": 3, "n": 2, "terms": 5},
        # KeyError: 'terms'
        {"g": 3, "n": 2},
        [],
        # a string where a list belongs: "" was read as the zero cycle, and
        # "K1" raised ValueError: not enough values to unpack
        {"g": 3, "n": 2, "terms": ""},
        {"g": 3, "n": 2, "terms": [{"monomial": "K1", "c": "1"}]},
    ],
)
def test_json_refuses_malformed_documents(data):
    with pytest.raises(ValueError, match="^malformed FormalCycle JSON: "):
        FormalCycle.from_json_dict(data)


def test_small_genus_warnings_name_the_caller():
    # dr_expansion's warning came from class_T with class_T's stacklevel,
    # so it named the line of drcycle.py that calls class_T
    calls = [
        lambda: dr_expansion(2, 2, (1, -1)),
        lambda: dr_expansion(1, 3, (1, 0, -1)),
        lambda: class_T(2, 2, (1, -1)),
        lambda: class_Theta(1, 2, (1, -1)),
        lambda: class_D_direct(2, 2, (2, -1)),
        lambda: class_D_from_theta(2, 2, (2, -1)),
    ]
    for call in calls:
        with pytest.warns(UserWarning, match="genus >= 3") as record:
            call()
        assert [w.filename for w in record] == [__file__]
