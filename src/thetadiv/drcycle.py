"""Formal degree-g expansion of the double ramification cycle.

Over curves of compact type, the locus where ``sum d_i p_i`` is a
principal divisor (total weight 0) is the pullback of the zero section of
the universal Jacobian, and its class in codimension g is the g-th power
of the trivialized theta pullback divided by g!.  This module produces
that power as a formal homogeneous polynomial in the compact-type
generators (every generator but ``delta_irr``, which
:func:`restrict_to_compact_type` drops; no ring relations are imposed),
so the result is a symbolic normal form whose one verifiable identity is
the multinomial theorem: evaluating the expansion at any assignment
equals ``(value of the degree-1 class)^g / g!``.

A monomial is a multiset of g picks from the k generators with nonzero
coefficient c_j, so there are C(k + g - 1, g) of them.  ``terms`` always
holds them in output order, by the list of their factors' (basis order,
exponent) pairs: the constructor, :meth:`FormalCycle.from_json_dict` and
:func:`relabel_cycle` sort through :func:`_in_output_order`, its one
definition, and the renderers read ``terms`` as it stands, rendering
each distinct factor and each distinct coefficient object once per
call.  The expansion reads T as :func:`thetadiv.theta._pullback` builds
it: no zero coefficient, no ``lambda1`` and no ``delta_irr`` term (so no
restriction to compact type is needed), and its keys in basis order (so
no sort is needed).  It is born in output order: a depth-first walk over
a k x (g + 1) table of the factors (generator, e) and c_j^e / e! as
integer pairs, built once per call, takes the first generator by rank,
then its exponent from 1 up to the degree left, then the later
generators, multiplying numerator and denominator along the path (O(1)
amortized steps).  Its coefficients take few distinct values (66 over
3,876 monomials at (4, 3, (1, -2, 1))), so one Fraction is made per
distinct unreduced product, in a dict that lives for the call, and the
monomials with that product share it.  It returns through
:meth:`FormalCycle._trusted`, which checks nothing.  Generators are
values, so every per-generator table here (the validation keys, sort
codes, labels, evaluation powers and relabelled images) is keyed by the
generator itself, and a cycle written with equal but distinct
generators behaves as the expansion does.
An expansion estimated above the work budget of
:func:`thetadiv.basis.check_work` (10 g units a monomial on top of the
class T) is refused before any monomial is built, and an evaluation
whose power table is estimated above it before any power is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .basis import (
    DELTA_IRR,
    DivisorClass,
    Generator,
    _blocks,
    _check_generator,
    _check_gn,
    _check_permutation,
    _check_type,
    _csv_lines,
    _exact,
    _json_coefficients,
    _json_list,
    _json_reader,
    _Memo,
    _relabel,
    _texts,
    check_work,
    generator_label,
    generator_sort_key,
    parse_generator_label,
)
from .theta import _pullback, _warn_small_genus, check_weights

Monomial = tuple[tuple[Generator, int], ...]


def restrict_to_compact_type(divclass: DivisorClass) -> DivisorClass:
    """Drop the delta_irr generator (compact-type curves never carry a
    non-separating node); all other coefficients are unchanged."""
    _check_type(divclass, DivisorClass)
    coeffs = {gen: c for gen, c in divclass.coeffs.items() if gen != DELTA_IRR}
    return DivisorClass._trusted(divclass.g, divclass.n, coeffs)


def _join_factors(mono: Monomial, pieces: dict[tuple[Generator, int], str]) -> str:
    """The label of a monomial; ``pieces`` holds each factor's rendering
    (``label`` or ``label^e``) and is filled on a miss."""
    if not mono:
        return "1"
    parts = []
    for factor in mono:
        piece = pieces.get(factor)  # by hand, not a _Memo: a _Memo rendered 1-7% slower
        if piece is None:
            gen, e = factor
            lab = generator_label(gen)
            piece = pieces[factor] = lab if e == 1 else f"{lab}^{e}"
        parts.append(piece)
    return "*".join(parts)


def monomial_label(mono: Monomial) -> str:
    # before _join_factors, which labels any empty value "1" and unpacks each factor unchecked
    if type(mono) is not tuple or not all(
        type(f) is tuple and len(f) == 2 and type(f[0]) is Generator for f in mono
    ):
        raise ValueError(f"a monomial must be a tuple of (generator, exponent) pairs, got {mono!r}")
    for _, e in mono:  # refused as the FormalCycle constructor refuses them
        if type(e) is not int:
            raise ValueError(f"monomial exponents must be integers, got {mono!r}")
        if e < 1:
            raise ValueError(f"monomial exponents must be >= 1, got {mono!r}")
    return _join_factors(mono, {})


def _in_output_order(
    terms: Mapping[Monomial, Fraction], keys: Mapping[Generator, tuple], g: int
) -> dict[Monomial, Fraction]:
    """``terms`` in output order: by their factors' (basis order, exponent)
    pairs, where ``keys`` holds the sort key of every generator in them."""
    # 1 <= e <= g, so the pair (rank, e) orders as the int rank * (g+1) + e
    code = {gen: r * (g + 1) for r, gen in enumerate(sorted(keys, key=keys.get))}
    return dict(sorted(terms.items(), key=lambda kv: [code[gen] + e for gen, e in kv[0]]))


@dataclass(frozen=True)
class FormalCycle:
    """Homogeneous degree-g polynomial in compact-type generators with
    exact coefficients.  Zero coefficients are dropped, monomials carry
    their factors in strictly increasing basis order, so ``==`` is exact
    equality; ``terms`` holds the monomials in output order (see the
    module notes).  The constructor validates; the package's own producers
    use :meth:`_trusted`.

    Monomials may share one coefficient object, as those of an expansion
    or of a cycle read from JSON do.  The renderers and :func:`evaluate`
    work once per distinct object, which they look up by ``id`` for the
    length of one call, while the cycle holds every object; a cycle whose
    equal coefficients are distinct objects gives the same results."""

    g: int
    n: int
    terms: Mapping[Monomial, Fraction]

    def __post_init__(self) -> None:
        g, n = self.g, self.n
        _check_gn(g, n)
        if not isinstance(self.terms, Mapping):
            raise ValueError(f"terms must be a mapping, got {self.terms!r}")
        # each generator is checked once; a factor that is not a Generator
        # is checked (and refused) even where it equals one checked before
        keys: dict[Generator, tuple] = {}
        # copied, then deleted from: a copy keeps each key's stored hash (a fresh dict: 1-6% slower)
        clean = dict(self.terms)
        zeros = []
        for mono, c in clean.items():
            if type(mono) is not tuple:
                raise ValueError(f"a monomial must be a tuple of (generator, exponent) pairs, got {mono!r}")
            degree = 0
            prev: tuple = ()  # below every generator key
            descent = False
            repeated = None
            for factor in mono:
                if type(factor) is not tuple or len(factor) != 2:
                    raise ValueError(f"a monomial must be a tuple of (generator, exponent) pairs, got {mono!r}")
                gen, e = factor
                key = keys.get(gen) if type(gen) is Generator else None
                if key is None:
                    _check_generator(gen, g, n)
                    if gen == DELTA_IRR:
                        raise ValueError("delta_irr cannot appear in a compact-type cycle")
                    key = keys[gen] = generator_sort_key(gen)
                if type(e) is not int:
                    raise ValueError(f"monomial exponents must be integers, got {mono!r}")
                if e < 1:
                    raise ValueError(f"monomial exponents must be >= 1, got {mono!r}")
                degree += e
                if key <= prev:
                    if key < prev:
                        descent = True
                    else:
                        repeated = gen
                prev = key
            if degree != g:
                raise ValueError(f"monomial {mono!r} has degree {degree}, expected {g}")
            if descent:
                raise ValueError(f"monomial {mono!r} is not in basis order")
            if repeated is not None:
                raise ValueError(
                    f"monomial {mono!r} repeats generator {generator_label(repeated)}"
                )
            if type(c) is not Fraction:
                clean[mono] = c = _exact(c, "coefficients")  # a new value, not a new key
            if c == 0:
                zeros.append(mono)
        for mono in zeros:
            del clean[mono]
        object.__setattr__(self, "terms", _in_output_order(clean, keys, g))

    @classmethod
    def _trusted(cls, g: int, n: int, terms: dict[Monomial, Fraction]) -> "FormalCycle":
        """A cycle whose monomials are valid for (g, n) and in output order,
        with nonzero Fraction coefficients; nothing is checked or copied."""
        cycle = object.__new__(cls)  # frozen: fill the fields without __init__
        vars(cycle).update(g=g, n=n, terms=terms)
        return cycle

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms ordered by their factors' (basis order, exponent) pairs,
        the order ``terms`` holds."""
        return list(self.terms.items())

    def _labelled_terms(self) -> Iterator[tuple[str, str]]:
        """(monomial label, coefficient as text) in output order, each made
        when read; each distinct coefficient object is printed once."""
        pieces: dict[tuple[Generator, int], str] = {}
        text = _texts(self.terms.values())
        for mono, c in self.terms.items():
            yield _join_factors(mono, pieces), text[id(c)]

    def to_json_dict(self) -> dict:
        labels: dict[Generator, str] = {}  # filled on a miss, by hand: a _Memo was 1-7% slower
        text = _texts(self.terms.values())
        terms = []
        for mono, c in self.terms.items():
            factors = []
            for gen, e in mono:
                label = labels.get(gen)
                if label is None:
                    label = labels[gen] = generator_label(gen)
                factors.append([label, e])
            terms.append({"monomial": factors, "c": text[id(c)]})
        return {"g": self.g, "n": self.n, "terms": terms}

    def to_csv(self) -> str:
        return "".join(_blocks(_csv_lines(["monomial", "coefficient"], self._labelled_terms())))

    @_json_reader
    def from_json_dict(cls, data: Mapping) -> "FormalCycle":
        g, n = data["g"], data["n"]
        terms: dict[Monomial, Fraction] = {}
        # each distinct label and each distinct coefficient string is parsed once
        generators = _Memo(lambda label: parse_generator_label(label, g, n))
        read = _json_coefficients()
        for entry in _json_list(data["terms"]):
            if not isinstance(entry, Mapping) or not entry.keys() >= {"monomial", "c"}:
                raise ValueError(f"a JSON term needs a 'monomial' and a 'c', got {entry!r}")
            mono = []
            for label, e in _json_list(entry["monomial"]):
                if type(label) is not str:  # label and e are hashed below
                    raise ValueError(f"generator labels must be strings, got {label!r}")
                if type(e) is not int:
                    raise ValueError(f"monomial exponents must be integers, got {entry['monomial']!r}")
                mono.append((generators[label], e))
            mono = tuple(mono)
            if mono in terms:
                raise ValueError(f"monomial {monomial_label(mono)} given twice")
            terms[mono] = read(entry["c"])
        return cls(g, n, terms)


def dr_expansion(g: int, n: int, d: Sequence[int]) -> FormalCycle:
    """Formal expansion of (trivialized theta pullback)^g / g! for weights
    of total degree 0; the coefficient of a monomial with exponents e_j is
    the product of the c_j^e_j / e_j! over its factors."""
    d = check_weights(g, n, d, degree=0)
    _warn_small_genus(g)
    coeffs = _pullback(g, n, d, 0).coeffs  # in basis order, with no delta_irr: see the module notes
    check_work(g, n, 8, 10 * g * math.comb(len(coeffs) + g - 1, g))  # 0 monomials for T = 0
    # row j, column e >= 1: the factor (gen_j, e) and c_j^e / e! as
    # (numerator, denominator); column 0 is unused
    table = []
    for gen, c in coeffs.items():
        weight = Fraction(1)
        row = [None]
        for e in range(1, g + 1):
            weight = weight * c / e
            row.append(((gen, e), weight.numerator, weight.denominator))
        table.append(row)
    terms: dict[Monomial, Fraction] = {}
    _walk(table, 0, g, (), 1, 1, terms, _Memo(lambda pair: Fraction(*pair)))
    return FormalCycle._trusted(g, n, terms)


def _walk(
    table: list, start: int, left: int, head: Monomial, num: int, den: int, terms: dict, made: _Memo
) -> None:
    """Add to ``terms``, in output order, each monomial ``head`` times factors
    of total degree ``left`` from rows ``start..`` of the table of
    :func:`dr_expansion`; ``num / den`` is the coefficient of ``head``.
    ``made`` makes and keeps the coefficient Fractions of this expansion,
    by their unreduced (numerator, denominator): equal products share one.
    A module function, not a closure: a closure that calls itself is a
    reference cycle and would keep each expansion alive until garbage
    collection."""
    for j in range(start, len(table)):
        row = table[j]
        for e in range(1, left):
            factor, p, q = row[e]
            _walk(table, j + 1, left - e, head + (factor,), num * p, den * q, terms, made)
        factor, p, q = row[left]
        terms[head + (factor,)] = made[num * p, den * q]


def evaluate(cycle: FormalCycle, assignment: Mapping[Generator, Fraction]) -> Fraction:
    """Exact evaluation of the cycle at a generator assignment; every
    generator appearing in the cycle must be assigned an int or a Fraction.

    Every monomial has degree g, so with the values over one denominator Q
    (a = P/Q) and the coefficients over one denominator L (c = N/L), the
    value is sum(N * prod P^e) / (L * Q^g): integer powers, one division.
    The powers P^0 .. P^g of each generator take about g^2/2 times P's
    bits, so they are charged to the work budget, one unit a 64-bit word,
    and refused with ``ValueError`` above it before any power is built."""
    _check_type(cycle, FormalCycle)
    if not isinstance(assignment, Mapping):  # as DivisorClass refuses its coefficients
        raise ValueError(f"assignment must be a mapping, got {assignment!r}")
    values: dict[Generator, Fraction] = {}
    for mono in cycle.terms:
        for gen, _ in mono:
            if gen not in values:
                if gen not in assignment:
                    raise ValueError(f"assignment is missing generator {generator_label(gen)}")
                values[gen] = _exact(
                    assignment[gen], f"assignment value of {generator_label(gen)}"
                )
    Q = math.lcm(*(a.denominator for a in values.values()))
    base = {gen: a.numerator * (Q // a.denominator) for gen, a in values.items()}
    check_work(cycle.g, cycle.n, 0, cycle.g**2 * sum(P.bit_length() for P in base.values()) // 128)
    powers: dict[Generator, list[int]] = {}  # P^0 .. P^g per generator
    for gen, P in base.items():
        row = powers[gen] = [1]
        for _ in range(cycle.g):
            row.append(row[-1] * P)
    coeffs = {id(c): c for c in cycle.terms.values()}  # each distinct object once
    L = math.lcm(*(c.denominator for c in coeffs.values()))
    scaled = {key: c.numerator * (L // c.denominator) for key, c in coeffs.items()}
    total = 0
    for mono, c in cycle.terms.items():
        value = scaled[id(c)]
        for gen, e in mono:
            value *= powers[gen][e]
        total += value
    return Fraction(total, L * Q**cycle.g)


def relabel_cycle(cycle: FormalCycle, sigma: tuple[int, ...]) -> FormalCycle:
    """Push a formal cycle forward along a permutation of the markings;
    each distinct generator is relabelled once."""
    _check_type(cycle, FormalCycle)
    g, n = cycle.g, cycle.n
    _check_permutation(sigma, n)
    image = _Memo(lambda gen: _relabel(gen, sigma, g, n))
    key = _Memo(generator_sort_key)  # filled by the sort: every image generator
    terms = {
        tuple(sorted(((image[gen], e) for gen, e in mono), key=lambda ge: key[ge[0]])): c
        for mono, c in cycle.terms.items()
    }
    # sigma permutes the generators, so distinct monomials stay distinct
    return FormalCycle._trusted(g, n, _in_output_order(terms, key, g))
