"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line once its criterion has been verified
(visible with ``pytest -s`` or ``pytest -v`` test names).
"""

import math
import random
from fractions import Fraction
from itertools import permutations

from thetadiv.basis import (
    DELTA_IRR,
    LAMBDA1,
    DivisorClass,
    K,
    basis_generators,
    canonicalize_boundary,
    delta,
    enumerate_boundary,
    k_to_psi,
    psi_in_k_basis,
    psi_to_k,
    relabel_class,
)
from thetadiv.curves import enumerate_test_curves, intersect
from thetadiv.drcycle import dr_expansion, evaluate, restrict_to_compact_type
from thetadiv.solve import certify_basis, reconstruct_T, reconstruct_Theta
from thetadiv.theta import (
    _theta_less_ledger,
    class_D_direct,
    class_T,
    class_Theta,
    weight_sum,
)

GN_PAIRS = [(g, n) for g in (3, 4, 5) for n in (1, 2, 3)]


def _pass(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


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


def expected_pairing_row(curve, g, n):
    """The intersection table re-encoded independently: full expected row
    for one curve, zeros included."""
    row = {gen: Fraction(0) for gen in basis_generators(g, n)}
    if curve.dual.kind == "K":
        i = curve.dual.i
        row[K(i)] = Fraction(2 * g - 2)
        for j in range(1, n + 1):
            if j != i:
                row[bgen(g, n, 0, (i, j))] += 1
    elif curve.dual.kind == "delta":
        h, P = curve.dual.boundary.h, curve.dual.boundary.P
        comp = curve.dual.boundary.complement(n)
        for i in range(1, n + 1):
            if h == 0 and i in P:
                row[K(i)] = Fraction(2 * g - 2)
            elif h > 0 and i not in P:
                row[K(i)] = Fraction(1)
        row[delta(curve.dual.boundary)] += 2 - 2 * (g - h) - len(comp)
        for j in comp:
            row[bgen(g, n, h, P + (j,))] += 1
    elif curve.dual == LAMBDA1:
        row[LAMBDA1] = Fraction(1, 24)
        row[DELTA_IRR] = Fraction(1, 2)
        row[bgen(g, n, 1, ())] = Fraction(-1, 24)
    else:
        row[DELTA_IRR] = Fraction(-1)
        row[bgen(g, n, 1, ())] = Fraction(1)
    return row


def test_criterion_1_intersection_table():
    for g, n in GN_PAIRS:
        curves = enumerate_test_curves(g, n)
        for curve in curves:
            # spot checks straight off the table
            if curve.dual.kind == "K":
                assert intersect(curve, K(curve.dual.i), g, n) == 2 * g - 2
                for j in range(1, n + 1):
                    if j != curve.dual.i:
                        assert intersect(curve, bgen(g, n, 0, (curve.dual.i, j)), g, n) == 1
            if curve.dual.kind == "delta":
                b = curve.dual.boundary
                self_value = 2 - 2 * (g - b.h) - len(b.complement(n))
                assert intersect(curve, delta(b), g, n) == self_value
            if curve.dual == LAMBDA1:
                assert intersect(curve, bgen(g, n, 1, ()), g, n) == Fraction(-1, 24)
                assert intersect(curve, DELTA_IRR, g, n) == Fraction(1, 2)
                assert intersect(curve, LAMBDA1, g, n) == Fraction(1, 24)
            if curve.dual == DELTA_IRR:
                assert intersect(curve, bgen(g, n, 1, ()), g, n) == 1
                assert intersect(curve, DELTA_IRR, g, n) == -1
            # every entry, stated zeros included
            expected = expected_pairing_row(curve, g, n)
            for gen, value in expected.items():
                assert intersect(curve, gen, g, n) == value
    _pass(1, "intersection table fidelity")


def test_criterion_2_basis_rank_certificates():
    for g, n in GN_PAIRS:
        report = certify_basis(g, n)
        expected = n + len(enumerate_boundary(g, n)) + 2
        assert report["expected"] == expected
        assert report["rank"] == expected
        assert report["det_nonzero"] is True
        assert report["failed_rows"] == []
    _pass(2, "test curves generate the dual basis")


def test_criterion_3_reconstruct_T():
    for g, n in GN_PAIRS:
        rng = random.Random(1000 + 10 * g + n)
        for _ in range(50):
            d = random_weights(rng, n, 0)
            solved = reconstruct_T(g, n, d)
            assert solved == class_T(g, n, d)
            assert solved.coeff(LAMBDA1) == 0
            assert solved.coeff(DELTA_IRR) == 0
    _pass(3, "degree-0 reconstruction matches the closed formula")


def test_criterion_4_reconstruct_Theta():
    for g, n in GN_PAIRS:
        rng = random.Random(2000 + 10 * g + n)
        for _ in range(50):
            d = random_weights(rng, n, g - 1)
            solved = reconstruct_Theta(g, n, d)
            assert solved == class_Theta(g, n, d)
            assert solved.coeff(LAMBDA1) == -1
            assert solved.coeff(DELTA_IRR) == Fraction(1, 8)
    _pass(4, "degree-(g-1) reconstruction matches the closed formula")


def principal_lattice(k):
    """{0, e_i, 2 e_i, e_i + e_j} in Z^k: C(k + 2, 2) points."""
    unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    yield (0,) * k
    yield from (tuple(2 * x for x in e) for e in unit)
    for i, e in enumerate(unit):
        for f in unit[i:]:
            yield tuple(x + y for x, y in zip(e, f))


def test_criteria_3_and_4_hold_for_every_weight_vector():
    """A certificate, not a sample: T and Theta equal their reconstructions
    for every weight vector at each (g, n) checked here.

    Write the weights as the n-1 free weights x = (d_1, .., d_{n-1}) and
    d_n = degree - sum(x).  Every coefficient of ``class_T`` and
    ``class_Theta`` is a polynomial of degree at most 2 in x: the K_i
    coefficient is d_i(d_i + s)/2 (s = 0 for T, 1 for Theta), a boundary
    coefficient is -(d_P - s h)(d_P - s h + s)/2 or, in genus 0,
    -(d_P^2 - sum_{i in P} d_i^2)/2, and lambda1 and delta_irr are constants.
    Every coefficient of a reconstruction is one too: the solution is
    linear in the right sides, which ``theta._theta_column`` gives as
    quadratics in d (Theta's two pins are constants), and the matrix does
    not depend on d.  The difference of the two is therefore a polynomial
    of degree at most 2 in k = n-1 variables, and such a polynomial that
    vanishes on the principal lattice {0, e_i, 2 e_i, e_i + e_j} vanishes
    everywhere: the C(k + 2, 2) lattice points are unisolvent for degree 2
    (Chung and Yao, SIAM J. Numer. Anal. 14, 1977).  The argument holds
    while both sides stay polynomial in d, so the sampled sweeps above stay
    as they are.
    """
    for g, n in [(g, n) for g in range(3, 7) for n in range(1, 8)] + [(5, 8)]:
        points = list(principal_lattice(n - 1))
        assert len(points) == math.comb(n + 1, 2)
        for x in points:
            d0, d1 = x + (-sum(x),), x + (g - 1 - sum(x),)
            assert reconstruct_T(g, n, d0) == class_T(g, n, d0), (g, n, d0)
            assert reconstruct_Theta(g, n, d1) == class_Theta(g, n, d1), (g, n, d1)
    _pass("3-4", "T and Theta match their reconstructions on the degree-2 lattice")


def test_criterion_5_mueller_equivalence():
    for g, n in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        rng = random.Random(3000 + 10 * g + n)
        for _ in range(100):
            d = random_negative_weights(rng, n, g - 1)
            assert class_D_direct(g, n, d) == _theta_less_ledger(g, n, d)
    _pass(5, "effective-locus class agrees with Theta less its vanishing ledger")


def test_criterion_6_psi_k_round_trip():
    for g in (3, 4, 5):
        for n in (1, 2, 3):
            for gen in basis_generators(g, n):
                unit = DivisorClass(g, n, {gen: 1})
                assert psi_to_k(k_to_psi(unit)) == unit
            for i in range(1, n + 1):
                assert k_to_psi(psi_in_k_basis(i, g, n)) == DivisorClass(g, n, {K(i): 1})
    _pass(6, "psi/K change of basis round-trips")


def test_criterion_7_representative_independence():
    for g in (3, 4, 5, 6):
        for n in (1, 2, 3):
            rng = random.Random(4000 + 10 * g + n)
            for _ in range(5):
                d0 = random_weights(rng, n, 0)
                d1 = random_weights(rng, n, g - 1)
                cT = class_T(g, n, d0)
                cTh = class_Theta(g, n, d1)
                for b in enumerate_boundary(g, n):
                    if b.h == 0:
                        continue
                    for h, P in ((b.h, b.P), b.mirror(g, n)):
                        if not 0 < h < g:
                            continue
                        dP = weight_sum(d0, P)
                        assert cT.coeff(delta(b)) == -Fraction(dP * dP, 2)
                        dP = weight_sum(d1, P)
                        assert cTh.coeff(delta(b)) == -Fraction((dP - h) * (dP - h + 1), 2)
    _pass(7, "boundary coefficients agree through either representative")


def test_criterion_8_dr_expansion_sanity():
    assert dr_expansion(3, 2, (0, 0)).terms == {}
    assert dr_expansion(4, 1, (0,)).terms == {}

    cycle = dr_expansion(3, 2, (1, -1))
    ones = {gen: Fraction(1) for gen in basis_generators(3, 2)}
    assert evaluate(cycle, ones) == Fraction(1, 6)

    for g, n, d in [(3, 2, (1, -1)), (4, 2, (2, -2)), (3, 3, (1, 2, -3))]:
        rng = random.Random(5000 + 10 * g + n)
        cycle = dr_expansion(g, n, d)
        base = restrict_to_compact_type(class_T(g, n, d))
        fact = 1
        for i in range(1, g + 1):
            fact *= i
        for _ in range(20):
            assignment = {
                gen: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for gen in basis_generators(g, n)
            }
            linear = sum(
                (c * assignment[gen] for gen, c in base.coeffs.items()), Fraction(0)
            )
            assert evaluate(cycle, assignment) == linear**g / fact
    _pass(8, "formal cycle satisfies the multinomial identity")


def test_criterion_9_permutation_equivariance():
    for g in (3, 4):
        for n in (1, 2, 3):
            rng = random.Random(6000 + 10 * g + n)
            for sigma in permutations(range(1, n + 1)):
                def permuted(d):
                    moved = [0] * n
                    for i in range(1, n + 1):
                        moved[sigma[i - 1] - 1] = d[i - 1]
                    return tuple(moved)

                d = random_weights(rng, n, 0)
                assert class_T(g, n, permuted(d)) == relabel_class(class_T(g, n, d), sigma)
                d = random_weights(rng, n, g - 1)
                assert class_Theta(g, n, permuted(d)) == relabel_class(
                    class_Theta(g, n, d), sigma
                )
                if n >= 2:
                    d = random_negative_weights(rng, n, g - 1)
                    assert class_D_direct(g, n, permuted(d)) == relabel_class(
                        class_D_direct(g, n, d), sigma
                    )
    _pass(9, "class evaluation commutes with marking permutations")
