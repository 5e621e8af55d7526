"""Test-curve families and their intersection numbers with the divisor basis.

There is one one-parameter family per basis generator, and family j is
dual to generator j: its row of the pairing matrix meets column j in a
nonzero diagonal entry, and :mod:`thetadiv.solve` eliminates each boundary
column through its node row.  A :class:`TestCurve` is named by its dual
generator; its label, validation and relabelling are read off that
generator:

* ``point_curve(i)``, dual to ``K_i``: a fixed smooth curve with the i-th
  marked point sweeping along it.  It is the node curve of the unstable
  genus-0 class (0, {i}) once the rational component holding only i and
  the node is contracted, so its numbers are the node formulas at h = 0,
  P = {i}, less the self-intersection, as (0, {i}) has no column.
* ``boundary_curve(b)``, dual to ``delta_b`` for a canonical boundary index
  ``b = (h, P)``: a fixed genus-h component carrying the markings in P,
  attached at a moving point of a fixed genus-(g-h) component carrying the
  remaining markings.
* ``ELLIPTIC_TAIL``, dual to ``lambda1``: an elliptic tail varying over the
  j-line attached to a fixed pointed curve, weighted 1/2 for the elliptic
  involution.
* ``IRREDUCIBLE_NODE``, dual to ``delta_irr``: a rational bridge with one
  leg moving along a fixed elliptic curve, glued so the generic member has
  a non-separating node.

:func:`enumerate_test_curves` is :func:`thetadiv.basis.basis_generators`
rotated by two.  Each family's intersection numbers with the basis
divisors are stated once, as its sparse row of nonzero entries (they
follow from the standard boundary-restriction computations; the
elliptic-tail values already account for the 1/2 weighting), keyed by
column position: 0 ``lambda1``, 1 ``delta_irr``, 1 + i ``K_i``, then the
boundary classes through their flat key ``h << n | mask``
(:func:`thetadiv.basis._flat`), where P's bit mask has bit i - 1 for
marking i, as the basis table's masks.  :func:`_rows` resolves flat keys
through the basis table's own list of each canonical class's column at
its flat key, so a solve builds no index.  Entries are ints but for the
elliptic tail's 1/24, 1/2 and -1/24.

No entry is canonicalized: for a canonical node class (h, P) and j not in
P, (h, P + {j}) is canonical, since h <= g-h still holds and at the tie
h = g/2 the set P already contains 1; its flat key is the node's with bit
j - 1 set.  A point row's (0, {i, j}) is canonical, at the flat key
``bit_i | bit_j``.  Only delta_1^{} is canonicalized, once per
elliptic-tail or irreducible-node row.  :func:`intersect` is
:func:`pair` of a class of one generator.  :func:`pair` refuses anything
but a :class:`DivisorClass`, validates the curve once, by the generator
check of its dual, and reads its one row with each class (h, P) keyed by
the complement ``~k`` of its flat key k, below every position, building
no O(B) list; like
:func:`thetadiv.basis.canonicalize_boundary`, it first refuses an n whose
boundary enumeration the work budget refuses, since a point row visits
every marking.  The pairing matrix is invertible for g >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .basis import (
    BUDGET,
    DELTA_IRR,
    K,
    LAMBDA1,
    BoundaryIndex,
    DivisorClass,
    Generator,
    _basis_table,
    _blocks,
    _boundary_count,
    _boundary_label,
    _check_generator,
    _check_gn,
    _check_type,
    _csv_lines,
    _flat,
    _json_coefficients,
    _json_list,
    _json_reader,
    basis_generators,
    canonicalize_boundary,
    check_work,
    delta,
    generator_label,
    relabel_generator,
)


@dataclass(frozen=True)
class TestCurve:
    """One test-curve family, named by the basis generator it is dual to:
    ``K(i)`` for the i-th point curve, ``delta(b)`` for the node curve of
    the boundary class b, ``LAMBDA1`` for the elliptic tail and
    ``DELTA_IRR`` for the irreducible-node family."""

    dual: Generator


ELLIPTIC_TAIL = TestCurve(LAMBDA1)
IRREDUCIBLE_NODE = TestCurve(DELTA_IRR)


def point_curve(i: int) -> TestCurve:
    return TestCurve(K(i))


def boundary_curve(b: BoundaryIndex) -> TestCurve:
    return TestCurve(delta(b))


def curve_label(curve: TestCurve) -> str:
    gen = curve.dual
    if gen.kind == "K":
        return f"point{gen.i}"
    if gen.kind == "delta":
        return _boundary_label("node", gen.boundary.h, gen.boundary.P)
    return "elliptic_tail" if gen == LAMBDA1 else "irreducible_node"


def _check_curve(curve: TestCurve, g: int, n: int) -> None:
    _check_type(curve, TestCurve)
    _check_generator(curve.dual, g, n)


def _check_dual(g: int, n: int) -> None:
    """Refuse a (g, n) where the curves span no dual basis."""
    _check_gn(g, n)
    if g < 3:
        raise ValueError("the test-curve families span the dual basis only for genus >= 3")


def enumerate_test_curves(g: int, n: int) -> list[TestCurve]:
    """The full family list, dual to :func:`basis_generators` rotated by
    two: point curves, one node curve per canonical boundary class, then
    the elliptic tail and the irreducible-node family."""
    _check_dual(g, n)
    gens = basis_generators(g, n)
    return [TestCurve(gen) for gen in gens[2:] + gens[:2]]


def _row(dual: Generator, g: int, n: int, column: list | dict) -> dict:
    """The pairings of the family dual to a valid generator with the basis
    for (g, n) that can be nonzero, keyed as the module notes say, with
    the canonical class (h, P) at ``column[k]`` for its flat key k
    (:func:`_flat`); absent keys pair to 0.  One branch states the node
    and point families: ``K_i`` reads as (h, P) = (0, {i}), whose row has
    no self-intersection entry, so a point row is K_i's 2g - 2, then
    (0, {i, j}) by j."""
    if dual.kind in ("K", "delta"):
        # K_i: the node curve of (0, {i}), read as basis.generator_sort_key
        # and theta.theta_intersection read it
        h, P = dual.boundary or (0, (dual.i,))
        own = _flat(h, P, n)
        comp = [j for j in range(n) if not own >> j & 1]  # bit j: the marking j + 1
        row = {1 + i: 2 * g - 2 for i in P} if h == 0 else {2 + j: 1 for j in comp}
        if dual.boundary:  # an unstable (0, {i}) has no column
            # self-intersection: minus the degree of the normal direction
            row[column[own]] = 2 - 2 * (g - h) - len(comp)
        for j in comp:
            # moving attach point hits the marking j + 1: one transverse point
            row[column[own | 1 << j]] = 1
        return row  # lambda1 and delta_irr restrict trivially
    if dual == LAMBDA1:
        # K_i: all markings sit on the fixed component
        row, tail = {0: Fraction(1, 24), 1: Fraction(1, 2)}, Fraction(-1, 24)
    else:
        row, tail = {1: -1}, 1
    # delta_1^{} is unstable, so no generator, only at (g, n) = (1, 1)
    if (g, n) != (1, 1):
        row[column[_flat(*canonicalize_boundary(1, (), g, n), n)]] = tail
    return row


def _rows(g: int, n: int) -> tuple[tuple[Generator, ...], Callable[[int], dict]]:
    """The basis for (g, n) and its row source: ``row(c)`` is the row of
    the family dual to column c.  Boundary entries are placed through the
    basis table's list of each canonical class's column at its flat key."""
    _check_dual(g, n)
    gens, column, _ = _basis_table(g, n)
    return gens, lambda c: _row(gens[c], g, n, column)


class _ByClass(dict):
    def __missing__(self, key):  # a row read on its own: flat key k at ~k < 0
        return ~key


def _key(gen: Generator, n: int) -> int:
    """Where a generator sits in a row placed by :class:`_ByClass`: its
    column position, or ``~k`` for a boundary class of flat key k, which
    no position can equal."""
    if gen.kind == "delta":
        return ~_flat(*gen.boundary, n)
    return 1 + gen.i if gen.kind == "K" else int(gen == DELTA_IRR)


def intersect(curve: TestCurve, gen: Generator, g: int, n: int) -> Fraction:
    """Exact intersection number of a test-curve family with a basis
    divisor: :func:`pair` with the class of ``gen`` alone.  ``gen`` is
    checked as the :class:`DivisorClass` constructor would check it, but
    before it is hashed, so that a list is refused as a non-generator."""
    _check_gn(g, n)
    _check_generator(gen, g, n)
    return pair(curve, DivisorClass._trusted(g, n, {gen: Fraction(1)}))


def pair(curve: TestCurve, divclass: DivisorClass) -> Fraction:
    """Intersection number of a test curve with an arbitrary divisor class."""
    _check_type(divclass, DivisorClass)
    if divclass.n > BUDGET.bit_length():  # one comparison before the O(n) point row
        check_work(divclass.g, divclass.n, 8)
    _check_curve(curve, divclass.g, divclass.n)
    row = _row(curve.dual, divclass.g, divclass.n, _ByClass())
    n = divclass.n
    return sum((c * row.get(_key(gen, n), 0) for gen, c in divclass.coeffs.items()), Fraction(0))


def relabel_curve(curve: TestCurve, sigma: tuple[int, ...], g: int, n: int) -> TestCurve:
    return TestCurve(relabel_generator(curve.dual, sigma, g, n))


@dataclass(frozen=True)
class IntersectionMatrix:
    """Square pairing matrix: one row per test curve, one column per basis
    generator, in the fixed enumeration orders."""

    g: int
    n: int
    rows: tuple[TestCurve, ...]
    cols: tuple[Generator, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "rows": [curve_label(c) for c in self.rows],
            "cols": [generator_label(gen) for gen in self.cols],
            "entries": [[str(x) for x in row] for row in self.entries],
        }

    def to_csv(self) -> str:
        """The header ("curve", then the column labels) and one row per
        curve (its label, then its entries), as CSV."""
        header = ["curve"] + [generator_label(gen) for gen in self.cols]
        rows = ([curve_label(c)] + [str(x) for x in row] for c, row in zip(self.rows, self.entries))
        return "".join(_blocks(_csv_lines(header, rows)))

    @_json_reader
    def from_json_dict(cls, data: Mapping) -> "IntersectionMatrix":
        """Rebuild from the JSON form; the labels must match the canonical
        enumeration orders for (g, n)."""
        g, n = data["g"], data["n"]
        rows = tuple(enumerate_test_curves(g, n))
        cols = tuple(basis_generators(g, n))
        if list(_json_list(data["rows"])) != [curve_label(c) for c in rows]:
            raise ValueError("row labels do not match the curve enumeration")
        if list(_json_list(data["cols"])) != [generator_label(gen) for gen in cols]:
            raise ValueError("column labels do not match the basis enumeration")
        read = _json_coefficients()  # at (5, 5), 15 distinct strings among 9,409 entries
        entries = tuple(tuple(map(read, _json_list(r))) for r in _json_list(data["entries"]))
        m = len(rows)
        if len(entries) != m or any(len(row) != m for row in entries):
            raise ValueError(f"entries must be {m} rows of {m} values")
        return cls(g, n, rows, cols, entries)


def _matrix_size(g: int, n: int) -> int:
    """m for (g, n), with the refusals of :func:`build_matrix`."""
    _check_dual(g, n)
    check_work(g, n, 8)  # so that 2**n below is small
    m = n + _boundary_count(g, n) + 2
    check_work(g, n, 8, m * m // 4)
    return m


def _dense_rows(g: int, n: int, zero, entry) -> tuple[tuple[Generator, ...], list[TestCurve], Iterator]:
    """The basis, the test curves in their order and, made when read, each
    curve's dense row: ``entry(v)`` for each nonzero v of its sparse row
    and ``zero`` for each absent one.  Refused as :func:`build_matrix` is."""
    m = _matrix_size(g, n)
    gens, row = _rows(g, n)
    order = [*range(2, m), 0, 1]  # the test-curve order

    def rows() -> Iterator[list]:
        for c in order:
            dense = [zero] * m
            for j, value in row(c).items():
                dense[j] = entry(value)
            yield dense

    return gens, [TestCurve(gens[c]) for c in order], rows()


def build_matrix(g: int, n: int) -> IntersectionMatrix:
    """Assemble the full test-curve / divisor-basis intersection matrix,
    refused before any enumeration above the work budget at 8 units a
    boundary class plus m^2/4 for the dense entries."""
    gens, curves, rows = _dense_rows(g, n, Fraction(0), Fraction)
    return IntersectionMatrix(g, n, tuple(curves), tuple(gens), tuple(map(tuple, rows)))
