"""Classes built inside the package skip validation; this checks that every
such producer still returns what the public constructor would accept."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from thetadiv.basis import DivisorClass, k_to_psi, psi_in_k_basis, psi_to_k, relabel_class
from thetadiv.drcycle import restrict_to_compact_type
from thetadiv.solve import reconstruct_T, reconstruct_Theta
from thetadiv.theta import class_D_direct, class_D_from_theta, class_T, class_Theta


@st.composite
def cases(draw):
    g = draw(st.integers(3, 5))
    n = draw(st.integers(1, 4))
    head = draw(st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1))
    sigma = tuple(draw(st.permutations(range(1, n + 1))))
    return g, n, tuple(head), sigma, draw(st.integers(1, n))


def produced(g, n, head, sigma, i):
    """One result of every internal producer of classes."""
    d0, d1 = head + (-sum(head),), head + (g - 1 - sum(head),)
    T, Th = class_T(g, n, d0), class_Theta(g, n, d1)
    yield from (T, Th, T + Th, Th + (-Th), k_to_psi(Th), psi_to_k(T), psi_in_k_basis(i, g, n))
    yield from (reconstruct_T(g, n, d0), reconstruct_Theta(g, n, d1))
    yield from (relabel_class(Th, sigma), restrict_to_compact_type(T))
    if min(d1) < 0:
        yield from (class_D_direct(g, n, d1), class_D_from_theta(g, n, d1))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=cases())
def test_internal_producers_build_valid_classes(case):
    for c in produced(*case):
        assert DivisorClass(c.g, c.n, dict(c.coeffs)) == c
        assert all(type(v) is Fraction and v != 0 for v in c.coeffs.values())
