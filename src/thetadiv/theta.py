"""Closed-form pullback classes of the universal theta divisors.

Fix integer weights ``d = (d_1, .., d_n)`` at the marked points and let
``s_d`` send a pointed curve to the line bundle of the divisor
``sum d_i p_i`` in the universal Picard family.

* For total weight 0, :func:`class_T` evaluates the pullback of the
  universal symmetric theta divisor trivialized along the zero section.
  Its lambda1 and delta_irr coefficients vanish.
* For total weight g-1, :func:`class_Theta` evaluates the pullback of the
  universal theta divisor: ``-lambda1 + (1/8) delta_irr`` plus point and
  boundary terms.
* When at least one weight is negative, the effective-divisor locus
  (curves where ``sum d_i p_i`` moves in a positive-dimensional linear
  system, closure taken) differs from the degree-(g-1) pullback by boundary
  components along which the theta function vanishes identically:
  the vanishing order on a boundary class is ``h - d_P`` whenever every
  marking on the genus-h side has nonnegative weight and ``h > d_P``
  (Riemann singularity order), and the generic vanishing order along the
  irreducible boundary is 1/8.  :func:`correction_ledger` enumerates those
  multiplicities.  :func:`class_D_from_theta` subtracts them from the
  pullback :func:`class_Theta` evaluates, then takes the 1/8 off
  delta_irr; :func:`class_D_direct` evaluates the same locus class from
  its own leading terms, ``-lambda1`` and no delta_irr.  Both routes share
  the pullback and the ledger, so their agreement (``verify mueller``)
  checks only the ``-lambda1`` and ``delta_irr`` terms.  The derivation
  of D's lambda1 is a test instead: at weights (g, -1) on M_{g,2}-bar, D
  is the pullback of Cukierman's Weierstrass divisor.

:func:`theta_intersection` gives the intersection numbers of the test
curves with these pullbacks.  For degree g-1 it raises ``ValueError`` on
the elliptic-tail and irreducible-node families, whose numbers the theory
does not supply.

Boundary sums run over canonical class representatives: classes whose
canonical form has h = 0 take the ``-(d_P^2 - sum_{i in P} d_i^2)/2``
coefficient, all others the genus-split coefficient.  Both coefficient
shapes are invariant under swapping a representative with its mirror, so
the split is well defined.

Every coefficient depends on (h, P) only through h, d_P and
``sum_{i in P} d_i^2``, and the ledger also on the negative weights in P.
Each class is one O(B) pass of :func:`_pullback` over the boundary
generators of the basis table for (g, n), which is enumerated once per
(g, n) and cached in :mod:`thetadiv.basis`; its generators key the
coefficients as they stand.  The vanishing rule is stated once, in
:func:`_vanishing`: a D route is that same one pass, which takes each
class's order, doubled, off its integer numerator, and the ledger is one
pass that keeps the classes whose order is nonzero.  Those numbers come
from one subset-sum table, built after the table's work-budget check,
each entry from that of P without its largest element; the arithmetic is
in ints, with one Fraction per distinct nonzero coefficient value.  Each
class is built as one dict and a zero coefficient, a corrected one
included, is dropped by an integer test where it arises, before any
Fraction is made.

The effective-divisor locus (Mueller, *The pullback of a theta divisor
to M_{g,n}-bar*, Math. Nachr. 286 (2013)) depends only on the line bundle
``O(sum d_i p_i)``.  A weight-0 marking leaves that bundle unchanged, so
it counts as nonnegative (the plus set is ``d_i >= 0``): the locus for
``(d, 0)`` is then the pullback of the locus for ``d`` along the map
forgetting that marking (Arbarello-Cornalba), as it must be.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Sequence

from .basis import (
    DELTA_IRR,
    K,
    LAMBDA1,
    BoundaryIndex,
    DivisorClass,
    Generator,
    _basis_table,
    _check_gn,
    _subsets,
    canonicalize_boundary,
)
from .curves import TestCurve, _check_curve, curve_label


def _warn_small_genus(g: int) -> None:
    if g < 3:
        warnings.warn(
            "divisor-basis completeness is only established for genus >= 3; "
            "evaluating the formula anyway",
            UserWarning,
            stacklevel=3,
        )


def check_weights(g: int, n: int, d: Sequence[int], degree: int) -> tuple[int, ...]:
    """Validate a weight vector and its total degree; returns it as a tuple."""
    _check_gn(g, n)
    d = tuple(d)
    if len(d) != n:
        raise ValueError(f"expected {n} weights, got {len(d)}")
    if not all(type(w) is int for w in d):
        raise ValueError(f"weights must be integers, got {d!r}")
    if sum(d) != degree:
        raise ValueError(f"weights {d} have total degree {sum(d)}, expected {degree}")
    return d


def weight_sum(d: Sequence[int], P: Iterable[int]) -> int:
    """d_P: the total weight carried by the markings in P."""
    return sum(d[i - 1] for i in P)


def plus_set(d: Sequence[int]) -> frozenset[int]:
    """Markings with nonnegative weight; a weight-0 marking counts."""
    return frozenset(i for i, w in enumerate(d, start=1) if w >= 0)


def _subset_sums(d: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, int, int]]:
    """(d_P, sum_{i in P} d_i^2, number of negative weights in P) for every
    subset P of the markings, keyed by P as a sorted tuple; each entry is
    that of P without its largest element, which comes earlier in the
    order, plus that element's terms.  Callers read the basis table
    first, so the work budget refuses before these 2^n entries are built."""
    sums = {(): (0, 0, 0)}
    for P in _subsets(len(d), min_size=1):
        s, q, neg = sums[P[:-1]]
        w = d[P[-1] - 1]
        sums[P] = (s + w, q + w * w, neg + (w < 0))
    return sums


def _vanishing(h: int, dP: int, neg: int, negatives: int) -> int:
    """Vanishing order of theta along the class of the enumerated (h, P),
    where P carries d_P and ``neg`` of the ``negatives`` >= 1 negative
    weights: h - d_P if P holds no negative weight and h > d_P; that of the
    mirror (g-h, P complement), d_P - h + 1 since d_{P complement} =
    g-1-d_P, if P holds every negative weight and d_P >= h; 0 otherwise.
    Some weight is negative, so the two cases exclude each other."""
    if neg == 0 and h > dP:
        return h - dP
    if neg == negatives and dP >= h:
        return dP - h + 1
    return 0


def _pullback(
    d: tuple[int, ...], shift: int, deltas: Sequence[Generator], sums: dict, lead: tuple = (),
    negatives: int = 0,
) -> dict[Generator, Fraction]:
    """Point and boundary coefficients of the theta pullback, after the
    (generator, coefficient) pairs ``lead``, in one fresh dict with no
    zeros: shift 0 for degree 0 (K_i: d_i^2/2, delta_h^P: -d_P^2/2),
    shift 1 for degree g-1 (K_i: d_i(d_i+1)/2, delta_h^P:
    -(d_P-h)(d_P-h+1)/2).  Genus-0 classes take
    -(d_P^2 - sum_{i in P} d_i^2)/2 either way.  ``deltas`` are the
    boundary generators in enumeration order and ``sums``
    :func:`_subset_sums` of d.  A nonzero ``negatives``, the number of
    negative weights in d, makes this the effective-locus class: each
    class's :func:`_vanishing` order, doubled, comes off its integer
    numerator before any Fraction is made."""
    coeffs = dict(lead)
    for i, w in enumerate(d, start=1):
        if w * (w + shift):
            coeffs[K(i)] = Fraction(w * (w + shift), 2)
    halves: dict[int, Fraction] = {}  # one Fraction per distinct numerator
    for gen in deltas:
        h, P = gen.boundary
        dP, squares, neg = sums[P]
        if h == 0:
            num = squares - dP * dP
        else:
            e = dP - shift * h
            num = -e * (e + shift)
        if negatives:
            num -= 2 * _vanishing(h, dP, neg, negatives)
        if num:
            c = halves.get(num)
            if c is None:
                c = halves[num] = Fraction(num, 2)
            coeffs[gen] = c
    return coeffs


def _deltas(g: int, n: int) -> tuple[Generator, ...]:
    """The boundary generators of the basis table for (g, n), in
    enumeration order, refused above the work budget as it is."""
    return _basis_table(g, n)[1][n + 2 :]


# the leading (generator, coefficient) pairs of Theta and of D
_THETA_LEAD = ((LAMBDA1, Fraction(-1)), (DELTA_IRR, Fraction(1, 8)))
_D_LEAD = ((LAMBDA1, Fraction(-1)),)


def class_T(g: int, n: int, d: Sequence[int]) -> DivisorClass:
    """Pullback of the degree-0 symmetric theta divisor (trivialized along
    the zero section) under s_d, for weights of total degree 0."""
    d = check_weights(g, n, d, degree=0)
    _warn_small_genus(g)
    return _class_T(g, n, d)


def _class_T(g: int, n: int, d: tuple[int, ...]) -> DivisorClass:
    """:func:`class_T` for checked weights, with no warning: a caller that
    checks them warns itself, so that the warning names its own caller."""
    return DivisorClass._trusted(g, n, _pullback(d, 0, _deltas(g, n), _subset_sums(d)))


def class_Theta(g: int, n: int, d: Sequence[int]) -> DivisorClass:
    """Pullback of the degree-(g-1) universal theta divisor under s_d, for
    weights of total degree g-1."""
    d = check_weights(g, n, d, degree=g - 1)
    _warn_small_genus(g)
    return DivisorClass._trusted(g, n, _pullback(d, 1, _deltas(g, n), _subset_sums(d), _THETA_LEAD))


@dataclass(frozen=True)
class CorrectionTerm:
    """One boundary class along which the theta function vanishes
    identically, recorded through the representative (h, P) whose genus-h
    side carries only plus-weights; ``mult = h - d_P`` is the vanishing
    order."""

    h: int
    P: tuple[int, ...]
    mult: int

    def boundary_class(self, g: int, n: int) -> BoundaryIndex:
        return canonicalize_boundary(self.h, self.P, g, n)


@dataclass(frozen=True)
class CorrectionLedger:
    """All boundary vanishing corrections for one weight vector, plus the
    fixed generic order 1/8 along the irreducible boundary."""

    g: int
    n: int
    terms: tuple[CorrectionTerm, ...]
    delta_irr_order: ClassVar[Fraction] = Fraction(1, 8)


def _effective_weights(g: int, n: int, d: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Weights of total degree g-1, checked, and the number of negative
    ones, which the effective-divisor locus needs to be at least 1."""
    d = check_weights(g, n, d, degree=g - 1)
    negatives = sum(w < 0 for w in d)
    if not negatives:
        raise ValueError("the effective-divisor locus needs at least one negative weight")
    return d, negatives


def correction_ledger(g: int, n: int, d: Sequence[int]) -> CorrectionLedger:
    """Every boundary class with a nonzero :func:`_vanishing` order, in
    enumeration order, recorded through the representative whose genus-h
    side carries only plus-weights: the enumerated (h, P) when P holds no
    negative weight, its mirror otherwise."""
    d, negatives = _effective_weights(g, n, d)
    deltas, sums = _deltas(g, n), _subset_sums(d)
    terms: list[CorrectionTerm] = []
    for gen in deltas:
        b = gen.boundary
        dP, _, neg = sums[b.P]
        mult = _vanishing(b.h, dP, neg, negatives)
        if mult:
            terms.append(CorrectionTerm(*(b if neg == 0 else b.mirror(g, n)), mult))
    return CorrectionLedger(g, n, tuple(terms))


def class_D_from_theta(g: int, n: int, d: Sequence[int]) -> DivisorClass:
    """Class of the closed effective-divisor locus, computed by stripping
    the identically-vanishing boundary multiplicities (and the 1/8 along
    the irreducible boundary) off :func:`class_Theta`."""
    d, negatives = _effective_weights(g, n, d)
    _warn_small_genus(g)
    coeffs = _pullback(d, 1, _deltas(g, n), _subset_sums(d), _THETA_LEAD, negatives)
    coeffs[DELTA_IRR] -= CorrectionLedger.delta_irr_order
    if not coeffs[DELTA_IRR].numerator:  # Theta's 1/8 is the whole generic order
        del coeffs[DELTA_IRR]
    return DivisorClass._trusted(g, n, coeffs)


def class_D_direct(g: int, n: int, d: Sequence[int]) -> DivisorClass:
    """Class of the closed effective-divisor locus, evaluated by its own
    closed formula: -lambda1, zero delta_irr, d_i(d_i+1)/2 on the point
    classes, the usual boundary coefficients, minus the vanishing
    corrections.  Agrees with :func:`class_D_from_theta`."""
    d, negatives = _effective_weights(g, n, d)
    _warn_small_genus(g)
    return DivisorClass._trusted(g, n, _pullback(d, 1, _deltas(g, n), _subset_sums(d), _D_LEAD, negatives))


def _theta(dual: Generator, d: Sequence[int], shift: int, g: int) -> int:
    """:func:`theta_intersection` of the family dual to ``dual``, unchecked;
    shift 0 for kind "T", 1 for "Theta"."""
    if dual.kind == "K":
        return d[dual.i - 1] ** 2 * g
    if dual.kind == "delta":
        b = dual.boundary
        e = weight_sum(d, b.P) - shift * b.h
        return e * e * (g - b.h)
    return 0  # T is constant along the elliptic tail and the irreducible node


def theta_intersection(
    curve: TestCurve, d: Sequence[int], kind: str, g: int, n: int
) -> Fraction:
    """Intersection number of a test curve with the theta pullback of the
    given kind ("T" for degree 0, "Theta" for degree g-1).

    The values come from reading the map s_d on each family as a rescaled
    Abel-Jacobi embedding.  For kind "T" the elliptic-tail and
    irreducible-node families meet the pullback trivially (the trivialized
    theta value is constant along them).  For kind "Theta" those two
    numbers are not supplied and ``ValueError`` is raised; the
    reconstruction uses pinned coefficient constraints instead.
    """
    if kind not in ("T", "Theta"):
        raise ValueError(f'kind must be "T" or "Theta", got {kind!r}')
    shift = 0 if kind == "T" else 1
    d = check_weights(g, n, d, degree=shift * (g - 1))
    _check_curve(curve, g, n)
    if shift and curve.dual.kind not in ("K", "delta"):
        raise ValueError(f"no degree-(g-1) theta intersection number for the {curve_label(curve)} family")
    return Fraction(_theta(curve.dual, d, shift, g))
