"""Test-curve families and their intersection numbers with the divisor basis.

Four kinds of one-parameter families pair against the divisor basis:

* ``point_curve(i)``: a fixed smooth curve with the i-th marked point
  sweeping along it.
* ``boundary_curve(b)`` for a canonical boundary index ``b = (h, P)``: a
  fixed genus-h component carrying the markings in P, attached at a moving
  point of a fixed genus-(g-h) component carrying the remaining markings.
  Instantiating one family per canonical class gives exactly one row per
  boundary column.
* ``ELLIPTIC_TAIL``: an elliptic tail varying over the j-line attached to a
  fixed pointed curve, weighted 1/2 for the elliptic involution.
* ``IRREDUCIBLE_NODE``: a rational bridge with one leg moving along a fixed
  elliptic curve, glued so the generic member has a non-separating node.

:func:`intersect` hardcodes the intersection numbers these families have
with each basis divisor (they follow from the standard boundary-restriction
computations; the elliptic-tail values already account for the 1/2
weighting).  Matching of a boundary divisor against a degeneration is done
by comparing canonical class representatives, so mirrored queries agree.
:func:`build_matrix` assembles the full pairing matrix, which is invertible
for g >= 3: the families span the dual of the divisor basis.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .basis import (
    BoundaryIndex,
    DivisorClass,
    Generator,
    _boundary_label,
    _check_generator,
    _check_gn,
    _check_index,
    basis_generators,
    canonicalize_boundary,
    enumerate_boundary,
    generator_label,
    relabel_boundary,
)


@dataclass(frozen=True)
class TestCurve:
    """One test-curve family.  ``kind`` is "point" (with index ``i``),
    "node" (with a canonical :class:`BoundaryIndex`), "elliptic_tail" or
    "irreducible"."""

    kind: str
    i: int = 0
    boundary: BoundaryIndex | None = None


ELLIPTIC_TAIL = TestCurve("elliptic_tail")
IRREDUCIBLE_NODE = TestCurve("irreducible")


def point_curve(i: int) -> TestCurve:
    if not (type(i) is int and i >= 1):
        raise ValueError(f"point index must be a positive integer, got {i!r}")
    return TestCurve("point", i=i)


def boundary_curve(b: BoundaryIndex) -> TestCurve:
    if not isinstance(b, BoundaryIndex):
        raise ValueError(f"expected a BoundaryIndex, got {b!r}")
    return TestCurve("node", boundary=b)


def curve_label(curve: TestCurve) -> str:
    if curve.kind == "point":
        return f"point{curve.i}"
    if curve.kind == "node":
        return _boundary_label("node", curve.boundary.h, curve.boundary.P)
    if curve.kind == "elliptic_tail":
        return "elliptic_tail"
    return "irreducible_node"


def _check_curve(curve: TestCurve, g: int, n: int) -> None:
    if not isinstance(curve, TestCurve):
        raise ValueError(f"expected a TestCurve, got {curve!r}")
    if curve.kind in ("point", "node"):
        _check_index(curve, g, n)
    elif curve.kind not in ("elliptic_tail", "irreducible"):
        raise ValueError(f"unknown curve kind {curve.kind!r}")


def enumerate_test_curves(g: int, n: int) -> list[TestCurve]:
    """The full family list: point curves, one node curve per canonical
    boundary class, then the elliptic tail and the irreducible-node family."""
    _check_gn(g, n)
    if g < 3:
        raise ValueError("the test-curve families span the dual basis only for genus >= 3")
    boundary = enumerate_boundary(g, n)
    curves = [point_curve(i) for i in range(1, n + 1)]
    curves.extend(boundary_curve(b) for b in boundary)
    curves.append(ELLIPTIC_TAIL)
    curves.append(IRREDUCIBLE_NODE)
    return curves


def _point_pairing(i: int, gen: Generator, g: int, n: int) -> Fraction:
    if gen.kind == "K":
        return Fraction(2 * g - 2) if gen.i == i else Fraction(0)
    if gen.kind == "delta":
        b = gen.boundary
        # the moving point collides with another marking: a rational tail
        if b.h == 0 and len(b.P) == 2 and i in b.P:
            return Fraction(1)
        return Fraction(0)
    return Fraction(0)  # lambda1 and delta_irr restrict trivially


def _node_pairing(b: BoundaryIndex, gen: Generator, g: int, n: int) -> Fraction:
    h, P = b.h, b.P
    comp = b.complement(n)
    if gen.kind == "K":
        if h == 0 and gen.i in P:
            return Fraction(2 * g - 2)
        if h > 0 and gen.i not in P:
            return Fraction(1)
        return Fraction(0)
    if gen.kind == "delta":
        total = Fraction(0)
        if gen.boundary == b:
            # self-intersection: minus the degree of the normal direction
            total += 2 - 2 * (g - h) - len(comp)
        for j in comp:
            # moving attach point hits the marking j: one transverse point
            if canonicalize_boundary(h, P + (j,), g, n) == gen.boundary:
                total += 1
        return total
    return Fraction(0)  # lambda1 and delta_irr restrict trivially


def _elliptic_tail_pairing(gen: Generator, g: int, n: int) -> Fraction:
    if gen.kind == "lambda1":
        return Fraction(1, 24)
    if gen.kind == "delta_irr":
        return Fraction(1, 2)
    if gen.kind == "delta":
        if gen.boundary == canonicalize_boundary(1, (), g, n):
            return Fraction(-1, 24)
        return Fraction(0)
    return Fraction(0)  # K_i: all markings sit on the fixed component


def _irreducible_node_pairing(gen: Generator, g: int, n: int) -> Fraction:
    if gen.kind == "delta_irr":
        return Fraction(-1)
    if gen.kind == "delta":
        if gen.boundary == canonicalize_boundary(1, (), g, n):
            return Fraction(1)
        return Fraction(0)
    return Fraction(0)


def intersect(curve: TestCurve, gen: Generator, g: int, n: int) -> Fraction:
    """Exact intersection number of a test-curve family with a basis divisor."""
    _check_gn(g, n)
    _check_curve(curve, g, n)
    _check_generator(gen, g, n)
    if curve.kind == "point":
        return _point_pairing(curve.i, gen, g, n)
    if curve.kind == "node":
        return _node_pairing(curve.boundary, gen, g, n)
    if curve.kind == "elliptic_tail":
        return _elliptic_tail_pairing(gen, g, n)
    return _irreducible_node_pairing(gen, g, n)


def pair(curve: TestCurve, divclass: DivisorClass) -> Fraction:
    """Intersection number of a test curve with an arbitrary divisor class."""
    total = Fraction(0)
    for gen, c in divclass.coeffs.items():
        total += c * intersect(curve, gen, divclass.g, divclass.n)
    return total


def relabel_curve(curve: TestCurve, sigma: tuple[int, ...], g: int, n: int) -> TestCurve:
    if curve.kind == "point":
        return point_curve(sigma[curve.i - 1])
    if curve.kind == "node":
        return boundary_curve(relabel_boundary(curve.boundary, sigma, g, n))
    return curve


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
        return cls(g, n, rows, cols, entries)


def build_matrix(g: int, n: int) -> IntersectionMatrix:
    """Assemble the full test-curve / divisor-basis intersection matrix."""
    curves = enumerate_test_curves(g, n)
    gens = basis_generators(g, n)
    entries = tuple(
        tuple(intersect(curve, gen, g, n) for gen in gens) for curve in curves
    )
    return IntersectionMatrix(g, n, tuple(curves), tuple(gens), entries)
