"""Exact rational linear algebra and divisor-class reconstruction.

:func:`solve_exact` runs fraction-free (Bareiss) elimination: rows are
scaled to integers, the forward pass keeps every entry an exact minor of
the scaled matrix (each two-term update divides exactly by the previous
pivot), and back substitution happens over Fractions.  Pivots are always
the first nonzero entry in column order, so failures are reproducible.
Overdetermined systems are solved on their leading square part and every
extra row is checked for consistency; redundant data is verified, never
discarded silently.

On top of the solver sit the divisor-class reconstructions:
:func:`certify_basis` certifies that the test-curve pairing matrix has
full rank (nonzero determinant), and :func:`reconstruct_T` /
:func:`reconstruct_Theta` recover the theta pullback classes from the
intersection numbers alone, independently of the closed formulas in
:mod:`thetadiv.theta`.  Both read their rows from
:func:`thetadiv.curves.build_matrix`.  The degree-(g-1) system keeps only
the point and node rows (:func:`thetadiv.theta.theta_intersection` raises
``ValueError`` for the elliptic-tail and irreducible-node families), so it
pins the two remaining coefficients instead: ``lambda1 = -1`` and
``lambda1 + 12 delta_irr = 1/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .basis import DELTA_IRR, LAMBDA1, DivisorClass, generator_label
from .curves import IntersectionMatrix, build_matrix, curve_label
from .theta import check_weights, theta_intersection


class SingularMatrixError(ValueError):
    """The coefficient matrix has no pivot in some column."""

    def __init__(self, column_label: str):
        self.column_label = column_label
        super().__init__(f"singular system: no pivot available for column {column_label!r}")


class InconsistentSystemError(ValueError):
    """An overdetermined system has contradictory rows."""

    def __init__(self, row_labels: list[str]):
        self.row_labels = list(row_labels)
        super().__init__(f"inconsistent system: rows {self.row_labels} contradict the solution")


@dataclass
class LinearSystem:
    """An exact linear system with labelled rows (test curves or named
    constraints) and labelled columns (basis generators)."""

    matrix: list[list[Fraction]]
    rhs: list[Fraction]
    row_labels: list[str]
    col_labels: list[str]

    def __post_init__(self) -> None:
        m = len(self.matrix)
        if not (len(self.rhs) == len(self.row_labels) == m):
            raise ValueError("matrix, rhs and row_labels must have matching lengths")
        widths = {len(row) for row in self.matrix}
        if widths and widths != {len(self.col_labels)}:
            raise ValueError("all matrix rows must match the number of column labels")


def _integerize(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Scale each row by the lcm of its denominators; returns rows and scales."""
    out: list[list[int]] = []
    scales: list[int] = []
    for row in rows:
        scale = 1
        for x in row:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
        out.append([int(x * scale) for x in row])
        scales.append(scale)
    return out, scales


def _bareiss_echelon(rows: list[list[int]], pivot_cols_limit: int) -> tuple[list[int], list[int], int]:
    """Fraction-free forward elimination in place.

    Only the first ``pivot_cols_limit`` columns are eligible as pivots
    (trailing columns are carried along, e.g. an augmented right side).
    Returns (pivot column list, row permutation, sign of the permutation).
    """
    nrows = len(rows)
    width = len(rows[0]) if rows else 0
    row_of = list(range(nrows))
    sign = 1
    prev = 1
    piv = 0
    pivot_cols: list[int] = []
    for col in range(pivot_cols_limit):
        if piv == nrows:
            break
        pivot_row = None
        for r in range(piv, nrows):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != piv:
            rows[piv], rows[pivot_row] = rows[pivot_row], rows[piv]
            row_of[piv], row_of[pivot_row] = row_of[pivot_row], row_of[piv]
            sign = -sign
        p = rows[piv][col]
        for r in range(piv + 1, nrows):
            factor = rows[r][col]
            target = rows[r]
            source = rows[piv]
            for c in range(col, width):
                q, rem = divmod(target[c] * p - factor * source[c], prev)
                if rem:
                    raise AssertionError("fraction-free elimination lost exact divisibility")
                target[c] = q
        prev = p
        pivot_cols.append(col)
        piv += 1
    return pivot_cols, row_of, sign


def solve_exact(system: LinearSystem) -> list[Fraction]:
    """Solve a square or overdetermined-consistent labelled system exactly.

    Raises :class:`SingularMatrixError` when some column gets no pivot and
    :class:`InconsistentSystemError` when extra rows contradict the unique
    solution of the pivoted part.
    """
    m = len(system.matrix)
    ncols = len(system.col_labels)
    if m < ncols:
        raise ValueError(f"underdetermined system: {m} rows for {ncols} unknowns")
    aug = [list(row) + [b] for row, b in zip(system.matrix, system.rhs)]
    int_rows, _ = _integerize(aug)
    pivot_cols, row_of, _ = _bareiss_echelon(int_rows, pivot_cols_limit=ncols)
    if len(pivot_cols) < ncols:
        missing = next(c for c in range(ncols) if c not in pivot_cols)
        raise SingularMatrixError(system.col_labels[missing])
    bad = [system.row_labels[row_of[r]] for r in range(ncols, m) if int_rows[r][ncols] != 0]
    if bad:
        raise InconsistentSystemError(bad)
    x = [Fraction(0)] * ncols
    for k in reversed(range(ncols)):
        row = int_rows[k]
        s = Fraction(row[ncols])
        for j in range(k + 1, ncols):
            s -= row[j] * x[j]
        x[k] = s / row[k]
    return x


def _rank_det(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, Fraction, list[int]]:
    """One Bareiss elimination of a nonempty square rational matrix: its
    rank, its exact determinant (0 below full rank) and the row order the
    pivoting left behind."""
    m = len(matrix)
    int_rows, scales = _integerize(matrix)
    pivot_cols, row_of, sign = _bareiss_echelon(int_rows, pivot_cols_limit=m)
    rank = len(pivot_cols)
    det = Fraction(0)
    if rank == m:
        det = Fraction(sign * int_rows[m - 1][m - 1])
        for s in scales:
            det /= s
    return rank, det, row_of


def det_exact(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square rational matrix (Bareiss)."""
    m = len(matrix)
    if any(len(row) != m for row in matrix):
        raise ValueError("determinant requires a square matrix")
    if m == 0:
        return Fraction(1)
    return _rank_det(matrix)[1]


def certify_basis(g: int, n: int) -> dict:
    """Rank-certify the test-curve pairing matrix.

    Returns a report dict with the achieved rank, the expected size
    n + B + 2, a nonzero-determinant certificate, and the labels of any
    rows left without a pivot (empty when the certificate holds).
    """
    mat = build_matrix(g, n)
    rank, det, row_of = _rank_det(mat.entries)
    failed = [curve_label(mat.rows[row_of[r]]) for r in range(rank, mat.size)]
    return {
        "g": g,
        "n": n,
        "rank": rank,
        "expected": mat.size,
        "det_nonzero": det != 0,
        "det": str(det),
        "failed_rows": failed,
    }


def _solve_class(mat: IntersectionMatrix, curves, d, kind: str, pins=()) -> DivisorClass:
    """The class whose pairings with ``curves`` (rows of ``mat``) are their
    theta intersection numbers of the given kind and whose coefficients
    satisfy each pin (label, {generator: coefficient}, right side)."""
    entries_of = dict(zip(mat.rows, mat.entries))
    matrix = [entries_of[c] for c in curves]
    rhs = [theta_intersection(c, d, kind, mat.g, mat.n) for c in curves]
    labels = [curve_label(c) for c in curves]
    for label, row, value in pins:
        matrix.append([Fraction(row.get(gen, 0)) for gen in mat.cols])
        rhs.append(value)
        labels.append(label)
    system = LinearSystem(matrix, rhs, labels, [generator_label(gen) for gen in mat.cols])
    return DivisorClass(mat.g, mat.n, dict(zip(mat.cols, solve_exact(system))))


def reconstruct_T(g: int, n: int, d: Sequence[int]) -> DivisorClass:
    """Recover the degree-0 theta pullback class by solving the full
    test-curve system (every family contributes a row)."""
    d = check_weights(g, n, d, degree=0)
    mat = build_matrix(g, n)
    return _solve_class(mat, mat.rows, d, "T")


def reconstruct_Theta(g: int, n: int, d: Sequence[int]) -> DivisorClass:
    """Recover the degree-(g-1) theta pullback class from the point and
    node rows plus the two pinned coefficient constraints."""
    d = check_weights(g, n, d, degree=g - 1)
    mat = build_matrix(g, n)
    curves = [c for c in mat.rows if c.kind in ("point", "node")]
    pins = [
        ("pin: lambda1 = -1", {LAMBDA1: 1}, Fraction(-1)),
        ("pin: lambda1 + 12*delta_irr = 1/2", {LAMBDA1: 1, DELTA_IRR: 12}, Fraction(1, 2)),
    ]
    return _solve_class(mat, curves, d, "Theta", pins)
