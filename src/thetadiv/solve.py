"""Rank certificates and divisor-class reconstruction from test-curve data.

The test-curve system is solved in the shape of its pairing matrix, with
no dense elimination.  Rows and columns are both indexed by column
position in ``basis_generators(g, n)``: 0 ``lambda1`` (the elliptic-tail
row), 1 ``delta_irr`` (the irreducible-node row), 2 .. n+1 ``K_1 .. K_n``
(the point rows) and then the boundary classes (their node rows).  Each
row is read once per solve from ``curves._rows``, which places its
boundary entries by bit mask; the solved node forms are a list by
column, and generators appear only in the result.

* Node rows, last to first, give each boundary coefficient as an affine
  form in the K's.  The node family (h, P) meets the boundary only in its
  own class, with diagonal 2 - 2(g-h) - |P complement| <= -2 (g >= 3 and
  h <= g/2 give g-h >= 2), and in the classes (h, P + {j}), j not in P.
  Those come later in the order: h < g-h is never mirrored, and at
  h = g/2 the set P already contains 1.
* Node and point rows have integer entries, and so do the right sides of
  ``reconstruct_*``; only the elliptic tail's entries and the pins are
  Fractions.  The product of the node diagonals stays an int.  A
  form is n + 1 integers over one denominator, in lowest terms with the
  denominator positive, and eliminating a column costs one pass of
  integer multiply-subtracts over the lcm of the two denominators:
  O(B n^2) integer operations in all, no Fraction on the way.  Each pass
  is a ``map`` over the two lists; an entry 1 whose form has the row's
  running denominator, most node entries, is one ``operator.sub`` pass.
* The point rows then leave an n x n system in the K's, and the last two
  rows a 2 x 2 system in ``lambda1`` and ``delta_irr``, each row scaled
  to integers: a point row by its form's denominator, a last row by the
  lcm of its denominators.  One fraction-free Gauss-Jordan elimination
  (Bareiss 1968) with a gcd cut solves both, so Fractions are made only
  for the results, the determinant and the two last right sides.  The
  boundary results take few distinct values: one Fraction is made per
  distinct (numerator, denominator) that the node forms give, and a zero
  is dropped there, before any Fraction, so the result is the class's
  dict as it stands.
* No point or node row meets ``lambda1`` or ``delta_irr``, and moving
  those two columns last is an even permutation, so

      det = (product of the node diagonals) * det(n x n) * det(2 x 2).

:func:`certify_basis` reports rank and determinant with the elliptic-tail
and irreducible-node rows last, solving with a zero right side.
:func:`reconstruct_T` and :func:`reconstruct_Theta` check the weights once
and take every right side from one column, ``theta._theta_column``,
built after the work-budget check: the number of each family indexed by
the column of its dual generator, with d_P read by P's bit mask from a
list of its own, not from the subset sums the closed formulas read.  It
states ``e^2 (g - h)`` through the same helper as
:func:`thetadiv.theta.theta_intersection`.  There are no degree-(g-1)
numbers for the elliptic-tail and irreducible-node families, so
``reconstruct_Theta`` ends with the pins ``lambda1 = -1`` and
``lambda1 + 12 delta_irr = 1/2`` instead.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

from .basis import DivisorClass, _boundary_count, _check_gn, _Memo, check_work, generator_label
from .curves import TestCurve, _rows, curve_label
from .theta import _theta_column, check_weights


class SingularMatrixError(ValueError):
    """The coefficient matrix has no pivot in some column."""

    def __init__(self, column_label: str):
        self.column_label = column_label
        super().__init__(f"singular system: no pivot available for column {column_label!r}")


def _fraction_str(q: Fraction) -> str:
    """``str(q)`` for any size: ``Decimal`` turns an int into digits without
    the interpreter's int-to-str limit, a process-wide setting left alone."""
    num, den = (str(Decimal(x)) for x in (q.numerator, q.denominator))
    return num if den == "1" else f"{num}/{den}"


def _reduce(row: dict, value, solved: list, n: int) -> tuple[list[int], int]:
    """A sparse row over K_1..K_n (columns 2..n+1) and solved boundary
    columns, with an int or Fraction right side ``value``, as (integers
    [K coefficients, right side], denominator) once every boundary entry
    is eliminated by the solved form of its column.  K entries are ints in
    every row; the elliptic tail meets delta_1^{} in -1/24."""
    vec, den = [0] * n + [value.numerator], value.denominator
    for c, a in row.items():
        if c <= n + 1:
            vec[c - 2] += a * den
            continue
        form, f = solved[c]
        if a == 1 and f == den:  # most node entries: one subtraction pass
            vec = list(map(operator.sub, vec, form))
            continue
        f *= a.denominator
        lcm = math.lcm(den, f)
        s, t = lcm // den, a.numerator * (lcm // f)
        vec, den = list(map(operator.sub, map(s.__mul__, vec), map(t.__mul__, form))), lcm
    return vec, den


def _value(form: tuple[list[int], int], xs: list[int], common: int) -> tuple[int, int]:
    """Right side minus the K terms of a form, at x_K = xs[K] / common, as
    (numerator, denominator), the denominator positive."""
    vec, den = form
    return vec[-1] * common - sum(map(operator.mul, vec, xs)), den * common


def _gauss(rows: list[list[int]]) -> tuple[Fraction, list[int], list[int]]:
    """Fraction-free Gauss-Jordan elimination in place on a square integer
    block whose rows end with their right side, pivoting on the first row
    with a nonzero entry; other rows become p*row - a*pivot over the gcd of
    their entries.  Returns the determinant (0 when singular), the original
    indices of the rows left without a pivot, and the columns left without
    one; a regular block ends diagonal: x_k = rows[k][-1] / rows[k][k]."""
    order, missing, num, den = list(range(len(rows))), [], 1, 1  # det = num / den * det(rows)
    for col in range(len(rows)):
        done = col - len(missing)
        r = next((r for r in range(done, len(rows)) if rows[r][col]), None)
        if r is None:
            missing.append(col)
            continue
        if r != done:
            rows[done], rows[r], order[done], order[r] = rows[r], rows[done], order[r], order[done]
            num = -num
        p = rows[done][col]
        for i, other in enumerate(rows):
            a = other[col]
            if i != done and a:
                row = [p * x - a * y for x, y in zip(other, rows[done])]
                cut = math.gcd(*row) or 1  # an all-zero row stays
                rows[i], num, den = [x // cut for x in row], num * cut, den * p
    diagonal = 0 if missing else math.prod(r[k] for k, r in enumerate(rows))
    return Fraction(num * diagonal, den), order[len(rows) - len(missing) :], missing


def _solve_units(n: int) -> int:
    """Work units per boundary class of one solve: 8 to enumerate the
    class and n^2/4 to eliminate its node row."""
    return 8 + n * n // 4


def _eliminate(g: int, n: int, column, pins=None) -> tuple[Fraction, list[str], list, dict | None]:
    """Solve the test-curve system for (g, n) whose right sides are
    ``column()``, one sequence indexed by column, the right side of the row
    dual to each column's generator; the last two rows are the
    elliptic-tail and irreducible-node rows, or the ``pins``, each (label,
    sparse row by column, right side).  Returns the determinant, the labels
    of the rows and the generators of the columns left without a pivot, and
    the solution without its zeros (None when a column has no pivot).
    Refused, before any work, above the work budget at :func:`_solve_units`
    a boundary class: ``column`` is called after that check and the
    genus check, so a refused (g, n) builds no right side."""
    _check_gn(g, n)  # before _solve_units squares n
    check_work(g, n, _solve_units(n))
    gens, row_of = _rows(g, n)
    rhs = column()
    m = len(gens)
    last = pins or [(curve_label(TestCurve(gens[c])), row_of(c), rhs[c]) for c in (0, 1)]
    det = 1
    # by column: a boundary column's node row over [K_1..K_n, right side],
    # divided by its diagonal, every other boundary column eliminated, as
    # integers over one denominator: in lowest terms, the denominator > 0
    solved = [None] * m
    for c in range(m - 1, n + 1, -1):
        row = row_of(c)
        diagonal = row.pop(c)
        det *= diagonal
        vec, den = _reduce(row, rhs[c], solved, n)
        den *= diagonal  # node rows are integer
        divisor = math.gcd(den, *vec) if den > 0 else -math.gcd(den, *vec)
        solved[c] = [x // divisor for x in vec], den // divisor

    k_block, scale = [], 1
    for c in range(2, n + 2):
        vec, den = _reduce(row_of(c), rhs[c], solved, n)
        k_block.append(vec)  # the row times den: same solution, det times den
        scale *= den
    det_k, failed_k, missing_k = _gauss(k_block)
    # the right sides below only matter when the n x n block is regular;
    # x_K = xs[K] / common, over one common denominator
    x_k = [0] * n if missing_k else [Fraction(r[n], r[k]) for k, r in enumerate(k_block)]
    common = math.lcm(*(x.denominator for x in x_k))
    xs = [x.numerator * (common // x.denominator) for x in x_k]
    last_block = []
    for _, row, value in last:  # fresh dicts, the pins too
        entries = [row.pop(0, 0), row.pop(1, 0)]
        entries.append(Fraction(*_value(_reduce(row, value, solved, n), xs, common)))
        lcm = math.lcm(*(x.denominator for x in entries))
        last_block.append([x.numerator * (lcm // x.denominator) for x in entries])
        scale *= lcm
    det_l, failed_l, missing_l = _gauss(last_block)

    det = det * det_k * det_l / scale
    failed = [curve_label(TestCurve(gens[2 + i])) for i in failed_k] + [last[i][0] for i in failed_l]
    missing = [gens[2 + k] for k in missing_k] + [gens[k] for k in missing_l]
    if missing:
        return det, failed, missing, None
    (lam, _, lam_value), (_, irr, irr_value) = last_block
    firsts = [Fraction(lam_value, lam), Fraction(irr_value, irr), *x_k]
    values = {gen: x for gen, x in zip(gens, firsts) if x}
    made = _Memo(lambda pair: Fraction(*pair))  # one Fraction per distinct (numerator, denominator)
    pairs = zip(gens[n + 2 :], (_value(form, xs, common) for form in solved[n + 2 :]))
    values.update((gen, made[pair]) for gen, pair in pairs if pair[0])
    return det, failed, missing, values


def certify_basis(g: int, n: int) -> dict:
    """Rank-certify the test-curve pairing matrix.

    Returns a report dict with the achieved rank, the expected size
    n + B + 2, a nonzero-determinant certificate, and the labels of any
    rows left without a pivot (empty when the certificate holds).
    """
    det, failed, _, _ = _eliminate(g, n, lambda: defaultdict(int))  # a zero right side at every column
    size = n + _boundary_count(g, n) + 2
    return {
        "g": g,
        "n": n,
        "rank": size - len(failed),
        "expected": size,
        "det_nonzero": det != 0,
        "det": _fraction_str(det),
        "failed_rows": failed,
    }


def _solve_class(g: int, n: int, column, pins=None) -> DivisorClass:
    """The class with the given pairings, or :class:`SingularMatrixError`
    naming the first column without a pivot."""
    _, _, missing, values = _eliminate(g, n, column, pins)
    if missing:
        raise SingularMatrixError(generator_label(missing[0]))
    return DivisorClass._trusted(g, n, values)


def reconstruct_T(g: int, n: int, d: Sequence[int]) -> DivisorClass:
    """Recover the degree-0 theta pullback class by solving the full
    test-curve system (every family contributes a row)."""
    d = check_weights(g, n, d, degree=0)
    return _solve_class(g, n, lambda: _theta_column(g, n, d, 0))


def reconstruct_Theta(g: int, n: int, d: Sequence[int]) -> DivisorClass:
    """Recover the degree-(g-1) theta pullback class from the point and
    node rows plus the two pinned coefficient constraints."""
    d = check_weights(g, n, d, degree=g - 1)
    # columns 0 and 1 are lambda1 and delta_irr
    pins = [
        ("pin: lambda1 = -1", {0: 1}, Fraction(-1)),
        ("pin: lambda1 + 12*delta_irr = 1/2", {0: 1, 1: 12}, Fraction(1, 2)),
    ]
    return _solve_class(g, n, lambda: _theta_column(g, n, d, 1), pins)
