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
  multiplicities.  :func:`class_D_direct` (also named
  :func:`class_D_from_theta`) evaluates the locus class D in one pass:
  ``-lambda1`` and no delta_irr, the degree-(g-1) point and boundary
  terms, each boundary class's vanishing order folded in.  The check of
  that pass is a second derivation, :func:`_theta_less_ledger`: the class
  :func:`class_Theta` evaluates, less each ledger term and the 1/8 along
  delta_irr, as the paper takes them off.  ``verify theta`` checks the
  Theta pass against the test curves, and ``verify mueller`` checks D
  against Theta less the ledger, so the two cover the fold-in of the
  vanishing orders and D's lead pair.  Both D derivations read
  :func:`_vanishing`; its check is a test: at weights (g, -1) on
  M_{g,2}-bar, D is the pullback of Cukierman's Weierstrass divisor.

:func:`theta_intersection` gives the intersection numbers of the test
curves with these pullbacks.  For degree g-1 it raises ``ValueError`` on
the elliptic-tail and irreducible-node families, whose numbers the theory
does not supply.  A node family (h, P) gives ``e^2 (g - h)`` with
``e = d_P - shift * h``, stated once in :func:`_node_number`:
:func:`theta_intersection` reads it for one family after its checks,
with d_P from :func:`weight_sum`, and :func:`_theta_column` for every
family at once, as the test-curve solver's right sides, with d_P by bit
mask from a list built apart from the closed forms' subset sums, so that
the solver stays a second derivation.

Boundary sums run over canonical class representatives: classes whose
canonical form has h = 0 take the ``-(d_P^2 - sum_{i in P} d_i^2)/2``
coefficient, all others the genus-split coefficient.  Both coefficient
shapes are invariant under swapping a representative with its mirror, so
the split is well defined.

Every coefficient depends on (h, P) only through h, d_P and
``sum_{i in P} d_i^2``, and the ledger also on the negative weights in P.
Each class is one call of :func:`_pullback`, the one closed-form entry:
it reads the basis table for (g, n), which is enumerated once per (g, n)
and cached in :mod:`thetadiv.basis`, builds the subset sums of d and
makes one O(B) pass over the table's boundary generators, which key the
coefficients as they stand.  The vanishing rule is stated once, in
:func:`_vanishing`: D is that same one pass, which takes each
class's order, doubled, off its integer numerator, and the ledger is one
pass that keeps the classes whose order is nonzero.  Those numbers are
three int lists indexed by P's bit mask (d_P, ``sum_{i in P} d_i^2`` and
the negative count), each built by doubling, one weight at a time, after
the table's work-budget check; the table keeps each boundary generator's
mask beside it, so a pass reads them by list index and hashes no P.  The
arithmetic is in ints, with one Fraction per distinct nonzero
coefficient value.  Each class is built as one dict and a zero
coefficient, a corrected one included, is dropped by an integer test
where it arises, before any Fraction is made.

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
from typing import ClassVar, Iterable, Iterator, Sequence

from .basis import (
    DELTA_IRR,
    K,
    LAMBDA1,
    BoundaryIndex,
    DivisorClass,
    Generator,
    _basis_table,
    _check_gn,
    _mask_sums,
    _tuple,
    canonicalize_boundary,
    delta,
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


def _weights(d: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """``d`` as a tuple, refused with ``ValueError`` unless it is iterable,
    has ``n`` entries (any number when n is None) and holds only ints, in
    that order; type(), as in _check_gn: a bool or a float is no weight."""
    d = _tuple(d, "weight vector")
    if n is not None and len(d) != n:
        raise ValueError(f"expected {n} weights, got {len(d)}")
    if not all(type(w) is int for w in d):
        raise ValueError(f"weights must be integers, got {d!r}")
    return d


def check_weights(g: int, n: int, d: Sequence[int], degree: int) -> tuple[int, ...]:
    """Validate a weight vector and its total degree; returns it as a tuple."""
    _check_gn(g, n)
    d = _weights(d, n)
    if sum(d) != degree:
        raise ValueError(f"weights {d} have total degree {sum(d)}, expected {degree}")
    return d


def weight_sum(d: Sequence[int], P: Iterable[int]) -> int:
    """d_P: the total weight carried by the markings in P, each an int in
    1..len(d) and none repeated; any other marking is refused, not read at
    another index, and so are weights that are not ints."""
    d, P = _weights(d), _tuple(P, "marking set")
    for i in P:  # type(), as in canonicalize_boundary: a bool or a float is no marking
        if type(i) is not int or not 1 <= i <= len(d):
            raise ValueError(f"markings must be integers in 1..{len(d)}, got {i!r}")
    if len(set(P)) != len(P):
        raise ValueError(f"marking set {P} repeats a marking")
    return sum(d[i - 1] for i in P)


def plus_set(d: Sequence[int]) -> frozenset[int]:
    """Markings with nonnegative weight; a weight-0 marking counts."""
    return frozenset(i for i, w in enumerate(_weights(d), start=1) if w >= 0)


def _subset_sums(d: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """Three int lists over the subsets P of the markings, each indexed by
    P's bit mask (bit i - 1 for marking i, as the basis table's masks):
    d_P, sum_{i in P} d_i^2 and the number of negative weights in P.
    Its callers, :func:`_pullback` and :func:`correction_ledger`, read the
    basis table first, so the work budget refuses before these 3 * 2^n
    entries are built."""
    return _mask_sums(d), _mask_sums([w * w for w in d]), _mask_sums([int(w < 0) for w in d])


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
    g: int, n: int, d: tuple[int, ...], shift: int, lead: tuple = (), negatives: int = 0
) -> DivisorClass:
    """The theta pullback class for checked weights d on (g, n), with no
    warning (a caller warns itself, so that the warning names its own
    caller): the (generator, coefficient) pairs ``lead``, then the point
    and boundary coefficients, with no zeros: shift 0 for degree 0 (K_i:
    d_i^2/2, delta_h^P: -d_P^2/2), shift 1 for degree g-1 (K_i:
    d_i(d_i+1)/2, delta_h^P: -(d_P-h)(d_P-h+1)/2).  Genus-0 classes take
    -(d_P^2 - sum_{i in P} d_i^2)/2 either way.  It reads the basis table
    first, so the work budget refuses before :func:`_subset_sums` of d is
    built, and reads those sums at the table's masks.  A nonzero
    ``negatives``, the number of negative weights in d, makes this the
    effective-locus class: each class's :func:`_vanishing` order, doubled,
    comes off its integer numerator before any Fraction is made.

    The class holds its keys in basis order: the ``lead`` pairs, then K_i
    by i, then the boundary classes in enumeration order.
    :func:`thetadiv.drcycle.dr_expansion` reads T in that order, with no
    sort."""
    deltas = _deltas(g, n)
    dPs, squares, negs = _subset_sums(d)
    coeffs = dict(lead)
    for i, w in enumerate(d, start=1):
        if w * (w + shift):
            coeffs[K(i)] = Fraction(w * (w + shift), 2)
    # a plain dict, not a _Memo: its hits cost 98 ns to 72 ns, 6-25% slower pullbacks
    halves: dict[int, Fraction] = {}  # one Fraction per distinct numerator
    for gen, mask in deltas:
        h = gen.boundary.h
        dP = dPs[mask]
        if h == 0:
            num = squares[mask] - dP * dP
        else:
            e = dP - shift * h
            num = -e * (e + shift)
        if negatives:
            num -= 2 * _vanishing(h, dP, negs[mask], negatives)
        if num:
            c = halves.get(num)
            if c is None:
                c = halves[num] = Fraction(num, 2)
            coeffs[gen] = c
    return DivisorClass._trusted(g, n, coeffs)


def _deltas(g: int, n: int) -> Iterator[tuple[Generator, int]]:
    """The boundary generators of the basis table for (g, n), in
    enumeration order, each paired with its P's bit mask; refused above
    the work budget as the table is."""
    gens, _, masks = _basis_table(g, n)
    return zip(gens[n + 2 :], masks)


# the leading (generator, coefficient) pairs of Theta and of D
_THETA_LEAD = ((LAMBDA1, Fraction(-1)), (DELTA_IRR, Fraction(1, 8)))
_D_LEAD = ((LAMBDA1, Fraction(-1)),)


def class_T(g: int, n: int, d: Sequence[int]) -> DivisorClass:
    """Pullback of the degree-0 symmetric theta divisor (trivialized along
    the zero section) under s_d, for weights of total degree 0."""
    d = check_weights(g, n, d, degree=0)
    _warn_small_genus(g)
    return _pullback(g, n, d, 0)


def class_Theta(g: int, n: int, d: Sequence[int]) -> DivisorClass:
    """Pullback of the degree-(g-1) universal theta divisor under s_d, for
    weights of total degree g-1."""
    d = check_weights(g, n, d, degree=g - 1)
    _warn_small_genus(g)
    return _pullback(g, n, d, 1, _THETA_LEAD)


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
    deltas, (dPs, _, negs) = _deltas(g, n), _subset_sums(d)
    terms: list[CorrectionTerm] = []
    for gen, mask in deltas:
        b, neg = gen.boundary, negs[mask]
        mult = _vanishing(b.h, dPs[mask], neg, negatives)
        if mult:
            terms.append(CorrectionTerm(*(b if neg == 0 else b.mirror(g, n)), mult))
    return CorrectionLedger(g, n, tuple(terms))


def class_D_direct(g: int, n: int, d: Sequence[int]) -> DivisorClass:
    """Class of the closed effective-divisor locus, in one pass: -lambda1,
    zero delta_irr, d_i(d_i+1)/2 on the point classes and the degree-(g-1)
    boundary coefficients, each less its :func:`_vanishing` order.  Also
    named :func:`class_D_from_theta`; ``verify mueller`` checks it against
    :func:`_theta_less_ledger`."""
    d, negatives = _effective_weights(g, n, d)
    _warn_small_genus(g)
    return _pullback(g, n, d, 1, _D_LEAD, negatives)


# D's second public name: one pass, whichever name a caller reads
class_D_from_theta = class_D_direct


def _theta_less_ledger(g: int, n: int, d: Sequence[int]) -> DivisorClass:
    """D as the paper derives it: the Theta pullback, less delta at each
    :func:`correction_ledger` term's canonical class times its mult, less
    delta_irr at the ledger's generic order.  It shares :func:`_vanishing`
    with :func:`class_D_direct`, but not the fold-in or the lead pair, so
    the two can disagree on those.  It gives no small-genus warning: the
    ``verify mueller`` sweep that reads it warns through
    :func:`class_D_direct`."""
    d, _ = _effective_weights(g, n, d)
    ledger = correction_ledger(g, n, d)
    less = {delta(t.boundary_class(g, n)): Fraction(t.mult) for t in ledger.terms}
    less[DELTA_IRR] = ledger.delta_irr_order
    return _pullback(g, n, d, 1, _THETA_LEAD) - DivisorClass._trusted(g, n, less)


def _node_number(dP: int, h: int, shift: int, g: int) -> int:
    """The theta number of the node family (h, P) whose P carries d_P:
    ``e^2 (g - h)`` with ``e = d_P - shift * h``; shift 0 for kind "T",
    1 for "Theta".  The point family of K_i is the node family of
    (0, {i}), so it gives d_i^2 * g for both kinds."""
    return (dP - shift * h) ** 2 * (g - h)


def _theta_column(g: int, n: int, d: tuple[int, ...], shift: int) -> list[int]:
    """:func:`theta_intersection` of every family for (g, n), unchecked,
    as one list indexed by the column of its dual generator in the basis
    table: 0 at lambda1 and delta_irr, then K_1..K_n at the masks of
    {1}..{n}, then the boundary classes at the table's masks.  d_P at a
    mask is d_P at the mask less its lowest bit plus that marking's
    weight, a derivation apart from :func:`thetadiv.basis._mask_sums`,
    which the closed forms read.  Callers check the work budget first:
    this is O(2^n + B)."""
    gens, _, masks = _basis_table(g, n)
    dPs = [0] * (1 << n)
    for mask in range(1, 1 << n):
        dPs[mask] = dPs[mask & mask - 1] + d[(mask & -mask).bit_length() - 1]
    points = [_node_number(dPs[1 << i], 0, shift, g) for i in range(n)]
    nodes = [_node_number(dPs[mask], gen.boundary.h, shift, g) for gen, mask in zip(gens[n + 2 :], masks)]
    return [0, 0, *points, *nodes]


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
    if curve.dual.kind not in ("K", "delta"):
        if shift:
            raise ValueError(f"no degree-(g-1) theta intersection number for the {curve_label(curve)} family")
        return Fraction(0)  # T is constant along the elliptic tail and the irreducible node
    # K_i: the node curve of (0, {i}), read as basis.generator_sort_key reads it
    h, P = curve.dual.boundary or (0, (curve.dual.i,))
    return Fraction(_node_number(weight_sum(d, P), h, shift, g))
