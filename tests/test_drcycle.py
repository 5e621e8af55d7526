"""Tests for the formal double-ramification-cycle expansion."""

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetadiv.basis import DELTA_IRR, BoundaryIndex, K, basis_generators, delta
from thetadiv.cli import main
from thetadiv.drcycle import (
    FormalCycle,
    dr_expansion,
    evaluate,
    monomial_label,
    relabel_cycle,
    restrict_to_compact_type,
)
from thetadiv.theta import class_T, class_Theta


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


def test_terms_start_with_the_last_generator_cubed():
    # terms run through the multisets of generators in reverse lexicographic order
    first = next(iter(dr_expansion(3, 2, (1, -1)).terms))
    assert first == ((delta(BoundaryIndex(1, (2,))), 3),)


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
    env_name = "THETADIV_MONOMIAL_CAP"
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


@pytest.mark.parametrize("value", ["abc", "1e3", "2.5", "-1"])
def test_monomial_cap_must_be_a_nonnegative_integer(monkeypatch, capsys, value):
    monkeypatch.setenv("THETADIV_MONOMIAL_CAP", value)
    message = f"THETADIV_MONOMIAL_CAP must be a nonnegative integer, got {value!r}"
    with pytest.raises(ValueError) as info:
        dr_expansion(3, 2, (1, -1))
    assert str(info.value) == message
    assert main(["dr", "--g", "3", "--n", "2", "--d", "1,-1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_monomial_cap_bounds_the_count(monkeypatch):
    # dr(3, 2, (1, -1)) has 35 monomials
    monkeypatch.setenv("THETADIV_MONOMIAL_CAP", "35")
    assert len(dr_expansion(3, 2, (1, -1)).terms) == 35
    monkeypatch.setenv("THETADIV_MONOMIAL_CAP", "0")
    assert dr_expansion(3, 2, (0, 0)).terms == {}
    with pytest.raises(ValueError, match="35 monomials, above the cap of 0"):
        dr_expansion(3, 2, (1, -1))
