"""Tests for the formal double-ramification-cycle expansion."""

import random
import warnings
from fractions import Fraction

import pytest

from thetadiv.basis import DELTA_IRR, K, basis_generators
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


def test_matches_brute_force_product():
    g, n, d = 3, 2, (1, -1)
    cycle = dr_expansion(g, n, d)
    base = restrict_to_compact_type(class_T(g, n, d))
    oracle = brute_force_power(base.coeffs, g)
    scaled = {}
    for mono, c in cycle.terms.items():
        key = tuple(sorted(mono, key=str))
        scaled[key] = c * 6  # common factor g! = 6
    assert {k: v for k, v in oracle.items() if v != 0} == scaled


def test_multinomial_identity():
    rng = random.Random(53)
    for g, n, d in [(3, 2, (1, -1)), (4, 2, (2, -2)), (3, 3, (1, 2, -3))]:
        cycle = dr_expansion(g, n, d)
        base = restrict_to_compact_type(class_T(g, n, d))
        fact = 1
        for i in range(1, g + 1):
            fact *= i
        for _ in range(10):
            assignment = {
                gen: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                for gen in basis_generators(g, n)
            }
            linear = sum(
                (c * assignment[gen] for gen, c in base.coeffs.items()), Fraction(0)
            )
            assert evaluate(cycle, assignment) == linear**g / fact


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
