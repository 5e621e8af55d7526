"""Test-curve families and their intersection numbers with the divisor basis.

There is one one-parameter family per basis generator, and family j is
dual to generator j: its row of the pairing matrix meets column j in a
nonzero diagonal entry, and :mod:`thetadiv.solve` eliminates each boundary
column through its node row.  A :class:`TestCurve` is named by its dual
generator; its label, validation and relabelling are read off that
generator:

* ``point_curve(i)``, dual to ``K_i``: a fixed smooth curve with the i-th
  marked point sweeping along it.
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
elliptic-tail values already account for the 1/2 weighting).  Boundary
entries are keyed by canonical class representatives, so mirrored queries
agree.  :func:`intersect` and :func:`pair` validate the curve once, by the
generator check of its dual, and read one row; :func:`build_matrix` reads
every row once to assemble the full pairing matrix, which is invertible
for g >= 3.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .basis import (
    DELTA_IRR,
    K,
    LAMBDA1,
    BoundaryIndex,
    DivisorClass,
    Generator,
    _boundary_label,
    _check_generator,
    _check_gn,
    basis_generators,
    canonicalize_boundary,
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
    if not isinstance(curve, TestCurve):
        raise ValueError(f"expected a TestCurve, got {curve!r}")
    _check_generator(curve.dual, g, n)


def enumerate_test_curves(g: int, n: int) -> list[TestCurve]:
    """The full family list, dual to :func:`basis_generators` rotated by
    two: point curves, one node curve per canonical boundary class, then
    the elliptic tail and the irreducible-node family."""
    _check_gn(g, n)
    if g < 3:
        raise ValueError("the test-curve families span the dual basis only for genus >= 3")
    gens = basis_generators(g, n)
    return [TestCurve(gen) for gen in gens[2:] + gens[:2]]


def _row(curve: TestCurve, g: int, n: int) -> dict[Generator, Fraction]:
    """The pairings of a valid test curve with the basis for (g, n) that can
    be nonzero, keyed by generator; every generator absent pairs to 0."""
    dual = curve.dual
    if dual.kind == "K":
        i = dual.i
        row = {K(i): Fraction(2 * g - 2)}
        for j in range(1, n + 1):
            if j != i:
                # the moving point collides with another marking: a rational tail
                row[delta(canonicalize_boundary(0, (i, j), g, n))] = Fraction(1)
        return row  # lambda1 and delta_irr restrict trivially
    if dual.kind == "delta":
        b = dual.boundary
        comp = b.complement(n)
        if b.h == 0:
            row = {K(i): Fraction(2 * g - 2) for i in b.P}
        else:
            row = {K(i): Fraction(1) for i in comp}
        # self-intersection: minus the degree of the normal direction
        row[dual] = Fraction(2 - 2 * (g - b.h) - len(comp))
        for j in comp:
            # moving attach point hits the marking j: one transverse point
            gen = delta(canonicalize_boundary(b.h, b.P + (j,), g, n))
            row[gen] = row.get(gen, Fraction(0)) + 1
        return row  # lambda1 and delta_irr restrict trivially
    if dual == LAMBDA1:
        # K_i: all markings sit on the fixed component
        row, tail = {LAMBDA1: Fraction(1, 24), DELTA_IRR: Fraction(1, 2)}, Fraction(-1, 24)
    else:
        row, tail = {DELTA_IRR: Fraction(-1)}, Fraction(1)
    # delta_1^{} is unstable, so no generator, only at (g, n) = (1, 1)
    if (g, n) != (1, 1):
        row[delta(canonicalize_boundary(1, (), g, n))] = tail
    return row


def intersect(curve: TestCurve, gen: Generator, g: int, n: int) -> Fraction:
    """Exact intersection number of a test-curve family with a basis divisor."""
    _check_gn(g, n)
    _check_curve(curve, g, n)
    _check_generator(gen, g, n)
    return _row(curve, g, n).get(gen, Fraction(0))


def pair(curve: TestCurve, divclass: DivisorClass) -> Fraction:
    """Intersection number of a test curve with an arbitrary divisor class."""
    _check_curve(curve, divclass.g, divclass.n)
    row = _row(curve, divclass.g, divclass.n)
    return sum((c * row.get(gen, 0) for gen, c in divclass.coeffs.items()), Fraction(0))


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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["curve"] + [generator_label(gen) for gen in self.cols])
        for curve, row in zip(self.rows, self.entries):
            writer.writerow([curve_label(curve)] + [str(x) for x in row])
        return buf.getvalue()

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "IntersectionMatrix":
        """Rebuild from the JSON form; the labels must match the canonical
        enumeration orders for (g, n)."""
        g, n = data["g"], data["n"]
        rows = tuple(enumerate_test_curves(g, n))
        cols = tuple(basis_generators(g, n))
        if list(data["rows"]) != [curve_label(c) for c in rows]:
            raise ValueError("row labels do not match the curve enumeration")
        if list(data["cols"]) != [generator_label(gen) for gen in cols]:
            raise ValueError("column labels do not match the basis enumeration")
        entries = tuple(tuple(Fraction(x) for x in row) for row in data["entries"])
        m = len(rows)
        if len(entries) != m or any(len(row) != m for row in entries):
            raise ValueError(f"entries must be {m} rows of {m} values")
        return cls(g, n, rows, cols, entries)


def build_matrix(g: int, n: int) -> IntersectionMatrix:
    """Assemble the full test-curve / divisor-basis intersection matrix."""
    curves = enumerate_test_curves(g, n)
    gens = basis_generators(g, n)
    column = {gen: j for j, gen in enumerate(gens)}
    entries = []
    for curve in curves:
        entry = [Fraction(0)] * len(gens)
        for gen, value in _row(curve, g, n).items():
            entry[column[gen]] = value
        entries.append(tuple(entry))
    return IntersectionMatrix(g, n, tuple(curves), tuple(gens), tuple(entries))
