"""Exact divisor-class arithmetic on moduli of stable n-pointed genus-g curves.

Conventions, for a fixed genus ``g >= 1`` and marking set ``I = {1, .., n}``:

* A boundary divisor class is indexed by a genus part ``h`` and a subset
  ``P`` of the markings, with ``(h, P)`` and ``(g - h, P complement)``
  labelling the same class.  :func:`canonicalize_boundary` fixes one
  representative per class: the smaller genus part wins, and the tie at
  ``h = g - h`` goes to the side whose marking set contains 1.  Stability
  rules out ``h = 0`` with fewer than two markings (and its mirror).
* The rational Picard group is spanned by ``lambda1`` (first Chern class of
  the Hodge bundle), ``delta_irr`` (irreducible nodal locus), the point
  classes ``K_1 .. K_n`` (first Chern class of the relative dualizing sheaf
  pulled back through the i-th point map), and the canonical boundary
  classes.  These form a basis for ``g >= 3``; all formulas evaluate for
  ``g in {1, 2}`` as well, but basis-dependent guarantees are only claimed
  for ``g >= 3``.
* The test curves of :mod:`thetadiv.curves` are dual to this basis, one
  family per generator, so :func:`basis_generators` is the one enumeration
  of both rows and columns of the pairing matrix.
* :class:`BoundaryIndex` and :class:`Generator` are immutable tuples
  (``typing.NamedTuple``), compared and hashed by value: equal generators
  are the same key, whatever object holds them.  Lookup-only paths
  (:meth:`DivisorClass.coeff`, the assignment keys of
  :func:`thetadiv.drcycle.evaluate`) therefore match an equal plain tuple
  too; every check that validates a generator or a boundary index still
  refuses one.
* A :class:`DivisorClass` is validated once, where input enters: its
  constructor, :meth:`DivisorClass.from_json_dict`, the factor of
  :meth:`DivisorClass.scale`, :meth:`DivisorClass.zero` and the index of
  :func:`psi_in_k_basis`.  Classes
  built only from enumerated or canonicalized generators and Fraction
  coefficients (``+``, the psi/K change of basis, the closed formulas, the
  solver, relabelling, the compact-type restriction) go through
  :meth:`DivisorClass._trusted`, which stores the dict it is given as it
  stands: each producer builds a fresh dict and drops its zeros where they
  arise, by an integer test before any Fraction is made.
* The generators in basis order, each boundary class's marking set as a
  bit mask and the column of each canonical class at its flat key
  ``h << n | mask`` (:func:`_flat`) depend only on (g, n): one private
  table, :func:`_basis_table`, holds these three, built in one pass that
  states the stability rules once, and every reader of the basis goes
  through it.  The boundary generators, in order, are the boundary
  enumeration, so no further copy of it is kept; the masks let a pass
  over the boundary read per-subset values by list index
  (:func:`_mask_sums`), and the flat keys let the test-curve rows place
  their entries by list index, with no P hashed.  The tables used last
  are kept up to :data:`_TABLE_CLASSES` boundary classes in all.  The
  work budget is still checked on every call.
* All coefficients are :class:`fractions.Fraction`; no floating point is
  used anywhere.  Every value is immutable and every function is pure, so
  concurrent use needs no locking; the table cache takes its own lock.

The cotangent class ``psi_i`` differs from ``K_i`` by rational-tail
boundary classes::

    psi_i = K_i + sum of delta_0^P over P containing i with |P| >= 2

:func:`psi_in_k_basis`, :func:`k_to_psi` and :func:`psi_to_k` implement
this change of basis in both directions, in one pass over the genus-0
classes that adds integers and makes one Fraction per distinct unreduced
value through a per-call :class:`_Memo`, as the solver and the DR
expansion do.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import re
import sys
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from fractions import _RATIONAL_FORMAT, Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


def _check_gn(g: int, n: int) -> None:
    # type() rather than isinstance() here, in K, point_curve and
    # check_weights: bool subclasses int but is never a count or a weight
    if not (type(g) is int and g >= 1):
        raise ValueError(f"genus must be an integer >= 1, got {g!r}")
    if not (type(n) is int and n >= 1):
        raise ValueError(f"number of marked points must be an integer >= 1, got {n!r}")


def _check_type(value, cls: type) -> None:
    # a public entry point's argument of the wrong type is bad input, not
    # an AttributeError; delta and _check_generator test inline, as they
    # run once per generator
    if not isinstance(value, cls):
        raise ValueError(f"expected a {cls.__name__}, got {value!r}")


def _tuple(values: Iterable, what: str) -> tuple:
    """``tuple(values)``, or ``ValueError`` naming ``what`` when it is not
    iterable (None or an int, say, given as a marking set or weights)."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{what} {values!r} is not iterable") from None


def _subsets(n: int) -> Iterator[tuple[int, ...]]:
    """Subsets of {1..n} as sorted tuples, ordered by size then lexicographically."""
    for size in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def _flat(h: int, P: Iterable[int], n: int) -> int:
    """The flat key ``h << n | mask`` of the class (h, P) at n markings,
    P's bit mask having bit i - 1 for marking i."""
    key = h << n
    for i in P:
        key |= 1 << i - 1
    return key


def _mask_sums(values: Sequence[int]) -> list[int]:
    """The sum of ``values[i - 1]`` over i in P for every subset P of
    {1..len(values)}, at the index of P's bit mask (bit i - 1 for marking
    i): each value doubles the list, its new half the old one plus it."""
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


class BoundaryIndex(NamedTuple):
    """Label (h, P) of a boundary divisor class: genus-h component carrying
    the markings in P, joined at a node to a genus-(g-h) component carrying
    the rest.  Canonical instances (as produced by
    :func:`canonicalize_boundary`) have h <= g-h, with the h = g-h tie
    resolved so that 1 is in P."""

    h: int
    P: tuple[int, ...]

    def complement(self, n: int) -> tuple[int, ...]:
        members = set(self.P)
        return tuple(i for i in range(1, n + 1) if i not in members)

    def mirror(self, g: int, n: int) -> tuple[int, tuple[int, ...]]:
        """The other (h, P) label of the same class; not canonical in general."""
        return g - self.h, self.complement(n)


def _boundary_count(g: int, n: int) -> int:
    """B(g, n): 2^n - n - 1 genus-0 classes, 2^n for each genus part
    0 < h < g/2, and 2^(n-1) for h = g/2 when g is even."""
    return 2**n - n - 1 + (g - 1) // 2 * 2**n + (1 - g % 2) * 2 ** (n - 1)


BUDGET = 5 * 10**6  # work units: 0.1 to 2 microseconds each, measured on a 2-core host
BUDGET_ENV = "THETADIV_BUDGET"


def check_work(g: int, n: int, per_class: int, extra: int = 0) -> None:
    """Refuse with ``ValueError``, before any work, a call on (g, n)
    estimated above the work budget: ``per_class`` units for each of the
    B(g, n) boundary classes plus ``extra``.  The budget is :data:`BUDGET`
    unless ``THETADIV_BUDGET`` gives a nonnegative integer (empty means the
    default).  B(g, n) >= 2^(n-1) - 1, so an n more than 64 bits past the
    budget is refused before 2**n is formed; a ``per_class`` of 0 charges
    ``extra`` alone, at any n.  The message gives an estimate past the
    int-to-str limit as "over 2^k", as it gives that n."""
    _check_gn(g, n)
    value = os.environ.get(BUDGET_ENV)
    try:
        budget = int(value) if value else BUDGET
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"{BUDGET_ENV} must be a nonnegative integer, got {value!r}")
    if per_class and n > budget.bit_length() + 64:
        estimate = f"over 2^{n - 1}"
    else:
        estimate = (per_class and per_class * _boundary_count(g, n)) + extra
        if estimate <= budget:
            return
        # past the int-to-str limit (4300 digits where there is none) str()
        # raises, or gives thousands of digits
        if estimate >= 10 ** (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300):
            estimate = f"over 2^{(estimate - 1).bit_length() - 1}"
    raise ValueError(
        f"(g={g}, n={n}) is estimated at {estimate} units of work, above the budget of "
        f"{budget}; set {BUDGET_ENV} to override"
    )


def canonicalize_boundary(h: int, P: Iterable[int], g: int, n: int) -> BoundaryIndex:
    """Return the canonical representative of the boundary class (h, P).

    (h, P) and (g-h, P complement) map to the same value.  Raises
    ``ValueError`` for out-of-range input, for unstable classes (a
    genus-0 side with fewer than two markings, checked on both
    representatives), for a marking that is not an int and, before any
    O(n) work, for an n above 23, the bit length of :data:`BUDGET`, whose
    boundary enumeration the work budget refuses.  A marking set that
    repeats a marking is refused too, not read as the set without the
    repeat, and so is a P that is not iterable.
    """
    _check_gn(g, n)
    if n > BUDGET.bit_length():  # B(g, n) > BUDGET: one comparison before any O(n) work
        check_work(g, n, 8)
    pts = _tuple(P, "marking set")
    for p in pts:  # type(), as in _check_gn: a bool or a float is no marking
        if type(p) is not int:
            raise ValueError(f"markings must be integers, got {p!r}")
    if len(set(pts)) != len(pts):
        raise ValueError(f"marking set {pts} repeats a marking")
    pts = tuple(sorted(pts))
    if not (type(h) is int and 0 <= h <= g):
        raise ValueError(f"genus part {h!r} out of range for genus {g}")
    if pts and (pts[0] < 1 or pts[-1] > n):
        raise ValueError(f"marking set {pts} not contained in 1..{n}")
    rep = BoundaryIndex(h, pts)
    if h > g - h or (h == g - h and 1 not in pts):
        rep = BoundaryIndex(g - h, rep.complement(n))
    if rep.h == 0 and len(rep.P) < 2:
        raise ValueError(
            f"unstable boundary class: ({h}, {pts}) has a genus-0 side "
            "with fewer than two marked points"
        )
    return rep


class Generator(NamedTuple):
    """One generator of the divisor basis.  ``kind`` is one of "lambda1",
    "delta_irr", "K" (with point index ``i``) or "delta" (with a canonical
    :class:`BoundaryIndex`)."""

    kind: str
    i: int = 0
    boundary: BoundaryIndex | None = None


LAMBDA1 = Generator("lambda1")
DELTA_IRR = Generator("delta_irr")


def K(i: int) -> Generator:
    if not (type(i) is int and i >= 1):
        raise ValueError(f"point index must be a positive integer, got {i!r}")
    return Generator("K", i=i)


def delta(b: BoundaryIndex) -> Generator:
    if not isinstance(b, BoundaryIndex):
        raise ValueError(f"expected a BoundaryIndex, got {b!r}")
    return Generator("delta", boundary=b)


_KIND_ORDER = {"lambda1": 0, "delta_irr": 1, "K": 2, "delta": 2}


def generator_sort_key(gen: Generator) -> tuple:
    """Total order on generators matching the basis order: lambda1,
    delta_irr, then ``(h, len(P), P)`` with K_i read as the unstable class
    (0, {i}), which comes before every stable class.  Only the order is
    a contract, not the key's values."""
    # K_i as (0, {i}): written out here, in curves._row, in
    # theta.theta_intersection and (as the mask of {i}) in
    # theta._theta_column, as a shared helper call measured slower on every
    # solve
    h, P = gen.boundary or (0, (gen.i,))
    return (_KIND_ORDER[gen.kind], h, len(P), P)


def _boundary_label(prefix: str, h: int, P: Iterable[int]) -> str:
    """``prefix_h^{P}``, the label of a boundary class or family (h, P)."""
    return f"{prefix}_{h}^{{{','.join(map(str, P))}}}"


def generator_label(gen: Generator) -> str:
    if gen.kind == "lambda1":
        return "lambda1"
    if gen.kind == "delta_irr":
        return "delta_irr"
    if gen.kind == "K":
        return f"K{gen.i}"
    return _boundary_label("delta", gen.boundary.h, gen.boundary.P)


_INT = "(?:0|[1-9][0-9]*)"  # an int as str() prints it: ASCII digits, no leading zero
_LABEL = re.compile(rf"K({_INT})|delta_({_INT})\^\{{((?:{_INT}(?:,{_INT})*)?)\}}")


def parse_generator_label(label: str, g: int, n: int) -> Generator:
    """Inverse of :func:`generator_label`, validating against (g, n); the
    integers in a label are read as ``str(int)`` prints them, and a
    boundary label may be the mirror one or list its markings unsorted."""
    if type(label) is not str:
        raise ValueError(f"generator labels must be strings, got {label!r}")
    if label == "lambda1":
        return LAMBDA1
    if label == "delta_irr":
        return DELTA_IRR
    match = _LABEL.fullmatch(label)
    if match is None:
        raise ValueError(f"unrecognized generator label {label!r}")
    if match[1] is not None:
        gen = K(int(match[1]))
        _check_generator(gen, g, n)
        return gen
    P = tuple(int(x) for x in match[3].split(",") if x)
    return delta(canonicalize_boundary(int(match[2]), P, g, n))


def _check_generator(gen: Generator, g: int, n: int) -> None:
    """A generator of the basis for (g, n): equal in type and value to its
    rebuild through ``K(i)`` with i in 1..n, ``delta(b)`` with b canonical
    for (g, n), or ``Generator(kind)`` for lambda1 and delta_irr."""
    if not isinstance(gen, Generator):
        raise ValueError(f"expected a Generator, got {gen!r}")
    kind, i, b = gen
    if kind not in ("lambda1", "delta_irr", "K", "delta"):
        raise ValueError(f"unknown generator kind {kind!r}")
    if kind == "K" and type(i) is int and not 1 <= i <= n:
        raise ValueError(f"point index {i} out of range 1..{n}")
    rebuilt = K(i) if kind == "K" else delta(b) if kind == "delta" else Generator(kind)
    if kind == "delta" and canonicalize_boundary(b.h, b.P, g, n) != b:
        raise ValueError(f"boundary index {b} is not canonical for (g={g}, n={n})")
    if gen != rebuilt or list(map(type, gen)) != list(map(type, rebuilt)):
        raise ValueError(f"{gen!r} is not a generator of the basis for (g={g}, n={n})")


def _build_basis_table(g: int, n: int) -> tuple[tuple, list, array]:
    """The generators for (g, n) in basis order, each canonical class's
    column at its flat key and the boundary classes' marking sets as bit
    masks; see :func:`_basis_table`."""
    gens = [LAMBDA1, DELTA_IRR, *map(K, range(1, n + 1))]
    column = [None] * ((g // 2 + 1) << n)
    # "Q" holds 64 markings; a larger n has over 2^63 classes, past any memory
    masks = array("Q")
    subsets = [(P, _flat(0, P, n)) for P in _subsets(n)]  # one P tuple for every genus part
    for h, (P, mask) in itertools.product(range(g // 2 + 1), subsets):
        # h = 0 needs two markings, and the tie h = g/2 keeps the side holding 1
        if (h or len(P) > 1) and (2 * h != g or mask & 1):
            column[h << n | mask] = len(gens)
            gens.append(Generator("delta", 0, BoundaryIndex(h, P)))
            masks.append(mask)
    return tuple(gens), column, masks


# boundary classes kept over all cached tables: one table of the largest
# size the default budget admits at 8 units a class, about 210 MB
_TABLE_CLASSES = BUDGET // 8
_tables: OrderedDict = OrderedDict()  # (g, n) -> table, least recently used first
_tables_lock = threading.Lock()


def _basis_table(g: int, n: int) -> tuple[tuple, list, array]:
    """``(gens, column, masks)`` for (g, n), refused above the work budget
    at 8 units a class on every call, cached or not.  ``gens`` is
    :func:`basis_generators` (boundary generators from ``gens[n + 2]`` on,
    genus 0 first, their boundary indices :func:`enumerate_boundary`);
    ``column[k]`` is the position in ``gens`` of the canonical class of
    flat key k (:func:`_flat`), and None where no canonical class is, as at
    a mirror label's key; ``masks[j]`` is the P of ``gens[n + 2 + j]`` as
    a bit mask, bit i - 1 for marking i: P's index in :func:`_mask_sums`.
    Built once per (g, n) and kept while the tables used since hold at
    most :data:`_TABLE_CLASSES` boundary classes in all (a larger table is
    built for each call and not kept); callers must not change what it
    holds."""
    check_work(g, n, 8)
    with _tables_lock:
        table = _tables.get((g, n))
        if table is not None:
            _tables.move_to_end((g, n))
        else:
            table = _build_basis_table(g, n)
            if len(table[2]) <= _TABLE_CLASSES:
                _tables[g, n] = table
                while sum(len(t[2]) for t in _tables.values()) > _TABLE_CLASSES:
                    _tables.popitem(last=False)
    return table


def enumerate_boundary(g: int, n: int) -> list[BoundaryIndex]:
    """All boundary classes, one canonical representative each, ordered by
    genus part, then size of the marking set, then lexicographically.
    Refused, before any enumeration, above the work budget at 8 units a class."""
    return [gen.boundary for gen in _basis_table(g, n)[0][n + 2 :]]


def basis_generators(g: int, n: int) -> list[Generator]:
    """The ordered divisor basis: lambda1, delta_irr, K_1..K_n, boundary classes."""
    return list(_basis_table(g, n)[0])


def _exact(value, what: str) -> Fraction:
    """``value`` as a Fraction; only ints (not bools) and Fractions are
    exact inputs, and anything else is refused before any conversion."""
    if type(value) is not int and not isinstance(value, Fraction):
        raise ValueError(f"{what} must be int or Fraction, got {value!r}")
    return Fraction(value)


_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _json_coefficient(value) -> Fraction:
    """A JSON coefficient: a string ``Fraction()`` reads, or an int that is
    not a bool; anything else (a float, true, null) and a zero denominator
    raise ``ValueError``.  ASCII digits, with an optional leading ``-`` and
    ``/`` denominator, are read by ``int()`` and ``Fraction(p, q)``: the
    value, and the error, that ``Fraction()`` gives, without its own parse.
    A decimal exponent above the int-to-str digit limit (4300 where there
    is none) is refused before ``Fraction()`` builds its power of ten,
    which takes 0.4 s at ``1e999999``."""
    if type(value) not in (str, int):
        raise ValueError(f"JSON coefficients must be strings or integers, got {value!r}")
    try:
        if type(value) is str and _PLAIN_RATIONAL.fullmatch(value):
            p, _, q = value.partition("/")
            return Fraction(int(p), int(q or 1))
        match = type(value) is str and _RATIONAL_FORMAT.match(value)  # Fraction()'s own pattern
        bound = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300  # 0: no limit
        if match and match["exp"] and abs(int(match["exp"])) > bound:
            raise ValueError(f"coefficient {value!r} has a decimal exponent above {bound}")
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {value!r} has a zero denominator") from None


class _Memo(dict):
    """A dict that makes the value of a missing key as ``make(key)`` and
    keeps it: a memo for the length of one call, held by that call."""

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _json_coefficients():
    """:func:`_json_coefficient` for the length of one JSON read: each
    distinct string is parsed once, and any other value is read unhashed,
    so that an unhashable one is refused with the same ``ValueError``."""
    parsed = _Memo(_json_coefficient)
    return lambda value: parsed[value] if type(value) is str else _json_coefficient(value)


def _texts(values: Iterable) -> dict[int, str]:
    """``str(c)`` for each distinct object c among ``values``, keyed by
    ``id(c)``, so that a renderer prints each coefficient object once.  An
    id names its object only while the object lives: the caller holds
    every one of them (a class or a cycle its own coefficients) for as
    long as it reads the result.  Objects, not values, are the keys:
    hashing a Fraction costs more than printing it."""
    return {key: str(c) for key, c in {id(c): c for c in values}.items()}


def _json_list(value) -> list | tuple:
    """``value``, refused with ``TypeError`` unless it is a list (or a
    tuple): a JSON reader iterates it, and a string would be read one
    character at a time."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _json_reader(read):
    """``read`` as the classmethod ``from_json_dict``, refusing with
    ``ValueError`` a document of the wrong shape: a missing key or a value
    of the wrong type."""

    @functools.wraps(read)
    def checked(cls, data):
        try:
            return read(cls, data)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {cls.__name__} JSON: {type(exc).__name__}: {exc}") from None

    return classmethod(checked)


_BLOCK = 64  # lines a block
_WRITE = 8192  # characters a text at most


def _blocks(lines: Iterable[str]) -> Iterator[str]:
    """Each of ``lines`` followed by "\\n", made when read and joined
    ``_BLOCK`` lines at a time, as texts of at most ``_WRITE`` characters:
    the package's one writer of line-based output, one write a text.
    Writes stay small because a write to an unbuffered stdout that a
    closing reader cuts short raises nothing: only a later write meets the
    closed pipe, so the last write must not hold most of the output."""
    lines = iter(lines)
    while block := list(itertools.islice(lines, _BLOCK)):
        block.append("")
        text = "\n".join(block)
        for start in range(0, len(text), _WRITE):
            yield text[start : start + _WRITE]


def _csv_lines(header: list[str], rows: Iterable[Sequence[str]]) -> Iterator[str]:
    """The lines, without line ends, of the CSV table ``header`` +
    ``rows``, a row's line made when the row is read; the package's one
    CSV dialect.

    They are the lines ``csv.writer(file, lineterminator="\\n")`` writes
    for every table the package writes, since those keep this contract:
    every field is a ``str``; no field holds a quote, a "\\r" or a "\\n";
    only labels (the header fields and each row's first field, such as
    "node_0^{1,2}" or "K1*delta_0^{1,2}") can hold a comma; and no
    one-field row is empty.  The standard writer then quotes a field
    exactly when it holds a comma, so each row here is one join, with its
    first field quoted when that holds a comma; a row's other fields are
    not searched."""
    yield ",".join([f'"{field}"' if "," in field else field for field in header])
    for row in rows:
        line = ",".join(row)
        first = row[0]
        yield f'"{first}"{line[len(first):]}' if "," in first else line


@dataclass(frozen=True)
class DivisorClass:
    """A rational divisor class, stored as a sparse exact coefficient vector
    over the ordered basis.  Zero coefficients are never stored, so ``==``
    is exact coefficient-wise equality.  The constructor validates;
    the package's own producers use :meth:`_trusted` (see the module notes)."""

    g: int
    n: int
    coeffs: Mapping[Generator, Fraction]

    def __post_init__(self) -> None:
        _check_gn(self.g, self.n)
        if not isinstance(self.coeffs, Mapping):
            raise ValueError(f"coefficients must be a mapping, got {self.coeffs!r}")
        clean: dict[Generator, Fraction] = {}
        for gen, c in self.coeffs.items():
            _check_generator(gen, self.g, self.n)
            c = _exact(c, "coefficients")
            if c != 0:
                clean[gen] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _trusted(cls, g: int, n: int, coeffs: dict[Generator, Fraction]) -> "DivisorClass":
        """A class stored on ``coeffs`` itself, with no copy and no check:
        the caller passes a fresh dict, which nothing else holds, from
        generators of the basis for (g, n) to nonzero Fractions."""
        divclass = object.__new__(cls)  # frozen: fill the fields without __init__
        vars(divclass).update(g=g, n=n, coeffs=coeffs)
        return divclass

    @classmethod
    def zero(cls, g: int, n: int) -> "DivisorClass":
        return cls(g, n, {})

    def coeff(self, gen: Generator) -> Fraction:
        return self.coeffs.get(gen, Fraction(0))

    def _check_same_space(self, other: "DivisorClass") -> None:
        if (self.g, self.n) != (other.g, other.n):
            raise ValueError(
                f"mismatched spaces: (g={self.g}, n={self.n}) vs (g={other.g}, n={other.n})"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        self._check_same_space(other)
        coeffs = dict(self.coeffs)
        for gen, c in other.coeffs.items():
            total = coeffs.get(gen, 0) + c
            if total.numerator:
                coeffs[gen] = total
            else:
                del coeffs[gen]
        return DivisorClass._trusted(self.g, self.n, coeffs)

    def __neg__(self) -> "DivisorClass":
        return self.scale(-1)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "DivisorClass":
        c = _exact(c, "scale factor")
        coeffs = {gen: c * v for gen, v in self.coeffs.items()} if c.numerator else {}
        return DivisorClass._trusted(self.g, self.n, coeffs)

    def __rmul__(self, c) -> "DivisorClass":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def to_json_dict(self) -> dict:
        """Full-basis JSON form; rationals as lowest-terms "p/q" strings."""
        get, zero = self.coeffs.get, Fraction(0)
        gens = _basis_table(self.g, self.n)[0]
        text = _texts([zero, *self.coeffs.values()])  # each object printed once, read by id
        return {
            "g": self.g,
            "n": self.n,
            "coeffs": {
                "lambda1": text[id(get(LAMBDA1, zero))],
                "delta_irr": text[id(get(DELTA_IRR, zero))],
                "K": [text[id(get(K(i), zero))] for i in range(1, self.n + 1)],
                "boundary": [
                    {"h": gen.boundary.h, "P": list(gen.boundary.P), "c": text[id(get(gen, zero))]}
                    for gen in gens[self.n + 2 :]
                ],
            },
        }

    @_json_reader
    def from_json_dict(cls, data: Mapping) -> "DivisorClass":
        g, n = data["g"], data["n"]
        raw = data["coeffs"]
        read = _json_coefficients()
        coeffs: dict[Generator, Fraction] = {}

        def entries() -> Iterator[tuple[Generator, object]]:
            """Each generator given, with its coefficient as given."""
            yield LAMBDA1, raw["lambda1"]
            yield DELTA_IRR, raw["delta_irr"]
            yield from zip(map(K, itertools.count(1)), _json_list(raw["K"]))
            gens, column, _ = _basis_table(g, n)
            seen = bytearray(len(gens))  # the columns given so far, zeros too
            col = n + 1  # each entry is tried as the class after the one before
            for entry in _json_list(raw["boundary"]):
                h, P, col = entry["h"], tuple(_json_list(entry["P"])), col + 1
                # type() first: True, 1.0 and [1] compare equal to labels.  A miss
                # (a gap, a mirror label, a bad entry, the end of the table)
                # canonicalizes or refuses, and the next entry is tried after
                # the column it gives
                labelled = type(h) is int and operator.countOf(map(type, P), int) == len(P)
                if not (labelled and col < len(gens) and gens[col].boundary == (h, P)):
                    col = column[_flat(*canonicalize_boundary(h, P, g, n), n)]
                if seen[col]:
                    raise ValueError(f"boundary class {generator_label(gens[col])} given twice")
                seen[col] = 1
                yield gens[col], entry["c"]

        for gen, text in entries():
            c = read(text)
            if c.numerator:
                coeffs[gen] = c
        # generators canonical and coefficients nonzero Fractions by now:
        # only the number of K entries is left to check
        if len(raw["K"]) > n:
            raise ValueError(f"point index {n + 1} out of range 1..{n}")
        return cls._trusted(g, n, coeffs)


def psi_in_k_basis(i: int, g: int, n: int) -> DivisorClass:
    """The cotangent class psi_i written over the K/boundary basis:
    K_i plus every delta_0^P with i in P and |P| >= 2."""
    _check_gn(g, n)
    if type(i) is int and not 1 <= i <= n:  # K(i) refuses an i that is no int
        raise ValueError(f"point index {i} out of range 1..{n}")
    return _substitute_psi(g, n, {K(i): Fraction(1)}, 1)


def _substitute_psi(g: int, n: int, coeffs: Mapping[Generator, Fraction], sign: int) -> DivisorClass:
    """Add ``sign`` times the sum of the point-slot coefficients over P to
    each genus-0 class delta_0^P, |P| >= 2 (all canonical as they stand):
    sign -1 reads the slots as K_i, +1 as psi_i.  The sums over P are read
    by P's bit mask from :func:`_mask_sums` of the slots, as integers over
    the slots' common denominator; each new coefficient is added to the
    old one as integers, with no Fraction addition, and one Fraction is
    made per distinct unreduced (numerator, denominator) through a
    :class:`_Memo`.  Refused, as :func:`enumerate_boundary` is, above the
    work budget at 8 units a class."""
    gens, _, masks = _basis_table(g, n)
    a = [coeffs.get(K(i), 0) for i in range(1, n + 1)]  # an absent slot is the int 0
    den = math.lcm(*(x.denominator for x in a))
    nums = [sign * x.numerator * (den // x.denominator) for x in a]
    out = dict(coeffs)
    sums = _mask_sums(nums)  # integer subset sums over the common denominator
    made = _Memo(lambda pair: Fraction(*pair))
    for gen, mask in zip(gens[n + 2 : 2**n + 1], masks):  # the 2^n - n - 1 genus-0 classes
        total = sums[mask]
        if not total:  # the old coefficient stands
            continue
        p, q = out[gen].as_integer_ratio() if gen in out else (0, 1)
        num = total * q + p * den  # total / den + p / q, over den * q
        if num:
            out[gen] = made[num, den * q]
        else:  # total / den cancels the old coefficient
            del out[gen]
    return DivisorClass._trusted(g, n, out)


def k_to_psi(divclass: DivisorClass) -> DivisorClass:
    """Substitute K_i = psi_i - sum delta_0^P (P containing i, |P| >= 2).

    The result stores the psi_i coefficient in the i-th point slot; boundary
    slots absorb the correction.  Inverse of :func:`psi_to_k`.
    """
    _check_type(divclass, DivisorClass)
    return _substitute_psi(divclass.g, divclass.n, divclass.coeffs, -1)


def psi_to_k(divclass: DivisorClass) -> DivisorClass:
    """Substitute psi_i = K_i + sum delta_0^P; inverse of :func:`k_to_psi`."""
    _check_type(divclass, DivisorClass)
    return _substitute_psi(divclass.g, divclass.n, divclass.coeffs, 1)


def _check_permutation(sigma: tuple[int, ...], n: int) -> None:
    # a sequence first: a dict, a set, an int, None or an iterator has no
    # len or no positions; then an int test: True and 1.0 sort like 1
    seq = isinstance(sigma, Sequence) and len(sigma) == n
    if not seq or any(type(i) is not int for i in sigma) or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{n}")


def relabel_boundary(b: BoundaryIndex, sigma: tuple[int, ...], g: int, n: int) -> BoundaryIndex:
    """Image of a boundary class (h, P) of (g, n), canonical or not, under
    the marking relabelling i -> sigma[i-1]."""
    _check_permutation(sigma, n)
    _check_type(b, BoundaryIndex)
    return _relabel(delta(canonicalize_boundary(b.h, b.P, g, n)), sigma, g, n).boundary


def _relabel(gen: Generator, sigma: tuple[int, ...], g: int, n: int) -> Generator:
    """:func:`relabel_generator` for a generator of the basis for (g, n)
    and a permutation, both already checked."""
    if gen.kind == "K":
        return K(sigma[gen.i - 1])
    if gen.kind == "delta":
        b = gen.boundary
        return delta(canonicalize_boundary(b.h, tuple(sigma[i - 1] for i in b.P), g, n))
    return gen


def relabel_generator(gen: Generator, sigma: tuple[int, ...], g: int, n: int) -> Generator:
    """Image of a generator of the basis for (g, n) under i -> sigma[i-1]."""
    _check_permutation(sigma, n)
    _check_generator(gen, g, n)
    return _relabel(gen, sigma, g, n)


def relabel_class(divclass: DivisorClass, sigma: tuple[int, ...]) -> DivisorClass:
    """Push a divisor class forward along a permutation of the markings."""
    _check_type(divclass, DivisorClass)
    g, n = divclass.g, divclass.n
    _check_permutation(sigma, n)
    coeffs = {_relabel(gen, sigma, g, n): c for gen, c in divclass.coeffs.items()}
    return DivisorClass._trusted(g, n, coeffs)
