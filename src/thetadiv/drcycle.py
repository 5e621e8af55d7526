"""Formal degree-g expansion of the double ramification cycle.

Over curves of compact type, the locus where ``sum d_i p_i`` is a
principal divisor (total weight 0) is the pullback of the zero section of
the universal Jacobian, and its class in codimension g is the g-th power
of the trivialized theta pullback divided by g!.  This module produces
that power as a formal homogeneous polynomial in the compact-type
generators (``delta_irr`` is dropped by :func:`restrict_to_compact_type`;
no ring relations are imposed), so the result is a symbolic normal form
whose one verifiable identity is the multinomial theorem:
evaluating the expansion at any assignment equals
``(value of the degree-1 class)^g / g!``.

A monomial is a multiset of g picks from the k generators with nonzero
coefficient c_j, so there are C(k + g - 1, g) of them.  The expansion walks
the multisets once, each as a sorted tuple of generator positions, reads
the factor (generator, e) and c_j^e / e! of each run of equal picks from a
k x (g + 1) table built once per call, and divides once per monomial:
O(g) work per monomial.  ``terms`` holds the monomials in the reverse of
the lexicographic order of their position tuples, so the first is the last
generator to the g-th power; :meth:`FormalCycle.sorted_terms` gives the
output order.  Generators are values, so every per-generator table here
(the validation keys, sort codes, labels, evaluation powers and
relabelled images) is keyed by the generator itself, and a cycle written
with equal but distinct generators behaves as the expansion does.
An expansion estimated above the work budget of
:func:`thetadiv.basis.check_work` (10 g units a monomial on top of the
class T) is refused before any monomial is built.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .basis import (
    DELTA_IRR,
    DivisorClass,
    Generator,
    _check_generator,
    _check_permutation,
    _relabel,
    check_work,
    generator_label,
    generator_sort_key,
    parse_generator_label,
)
from .theta import class_T

Monomial = tuple[tuple[Generator, int], ...]


def _exact(value, what: str) -> Fraction:
    """``value`` as a Fraction; only ints (not bools) and Fractions are
    exact inputs.  Fraction() runs first, so a string it cannot parse keeps
    Fraction's own error."""
    exact = Fraction(value)
    if type(value) is not int and not isinstance(value, Fraction):
        raise ValueError(f"{what} must be int or Fraction, got {value!r}")
    return exact


def restrict_to_compact_type(divclass: DivisorClass) -> DivisorClass:
    """Drop the delta_irr generator (compact-type curves never carry a
    non-separating node); all other coefficients are unchanged."""
    coeffs = {gen: c for gen, c in divclass.coeffs.items() if gen != DELTA_IRR}
    return DivisorClass._trusted(divclass.g, divclass.n, coeffs)


def _join_factors(mono: Monomial, labels: Mapping[Generator, str]) -> str:
    """The label of a monomial, given each factor's generator label."""
    if not mono:
        return "1"
    parts = []
    for gen, e in mono:
        lab = labels[gen]
        parts.append(lab if e == 1 else f"{lab}^{e}")
    return "*".join(parts)


def monomial_label(mono: Monomial) -> str:
    return _join_factors(mono, {gen: generator_label(gen) for gen, _ in mono})


@dataclass(frozen=True)
class FormalCycle:
    """Homogeneous degree-g polynomial in compact-type generators with
    exact coefficients.  Zero coefficients are dropped, monomials carry
    their factors in strictly increasing basis order, so ``==`` is exact
    equality."""

    g: int
    n: int
    terms: Mapping[Monomial, Fraction]

    def __post_init__(self) -> None:
        g, n = self.g, self.n
        # each generator is checked once; a factor that is not a Generator
        # is checked (and refused) even where it equals one checked before
        keys: dict[Generator, tuple] = {}
        clean = dict(self.terms)
        zeros = []
        for mono, c in clean.items():
            degree = 0
            prev: tuple = ()  # below every generator key
            descent = False
            repeated = None
            for gen, e in mono:
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
        object.__setattr__(self, "terms", clean)

    def _per_generator(self, fn) -> dict[Generator, object]:
        """``fn(gen)`` for each distinct generator."""
        return {gen: fn(gen) for gen in {gen for mono in self.terms for gen, _ in mono}}

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms ordered by their factors' (basis order, exponent) pairs."""
        keys = self._per_generator(generator_sort_key)
        # 1 <= e <= g, so the pair (rank, e) orders as the int rank * (g+1) + e
        code = {gen: r * (self.g + 1) for r, gen in enumerate(sorted(keys, key=keys.get))}
        return sorted(self.terms.items(), key=lambda kv: [code[gen] + e for gen, e in kv[0]])

    def _labelled_terms(self) -> list[tuple[str, Fraction]]:
        """(monomial label, coefficient) in :meth:`sorted_terms` order."""
        labels = self._per_generator(generator_label)
        return [(_join_factors(mono, labels), c) for mono, c in self.sorted_terms()]

    def to_json_dict(self) -> dict:
        labels = self._per_generator(generator_label)
        return {
            "g": self.g,
            "n": self.n,
            "terms": [
                {
                    "monomial": [[labels[gen], e] for gen, e in mono],
                    "c": str(c),
                }
                for mono, c in self.sorted_terms()
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["monomial", "coefficient"])
        writer.writerows((label, str(c)) for label, c in self._labelled_terms())
        return buf.getvalue()

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FormalCycle":
        g, n = data["g"], data["n"]
        terms: dict[Monomial, Fraction] = {}
        # each distinct label is parsed once
        generators: dict[str, Generator] = {}
        for entry in data["terms"]:
            mono = []
            for label, e in entry["monomial"]:
                if label not in generators:
                    generators[label] = parse_generator_label(label, g, n)
                mono.append((generators[label], e))
            terms[tuple(mono)] = Fraction(entry["c"])
        return cls(g, n, terms)


def dr_expansion(g: int, n: int, d: Sequence[int]) -> FormalCycle:
    """Formal expansion of (trivialized theta pullback)^g / g! for weights
    of total degree 0; the coefficient of a monomial with exponents e_j is
    the product of the c_j^e_j / e_j! over its factors."""
    base = restrict_to_compact_type(class_T(g, n, d))
    gens = sorted(base.coeffs, key=generator_sort_key)
    k = len(gens)
    check_work(g, n, 8, 10 * g * math.comb(k + g - 1, g))  # 0 monomials when k = 0
    # row j, column e: the factor (gens[j], e) and c_j^e / e! as (numerator, denominator)
    table = []
    for gen in gens:
        weight = Fraction(1)
        row = [((gen, 0), 1, 1)]
        for e in range(1, g + 1):
            weight = weight * base.coeffs[gen] / e
            row.append(((gen, e), weight.numerator, weight.denominator))
        table.append(row)
    monos: list[Monomial] = []
    coeffs: list[Fraction] = []
    for picks in itertools.combinations_with_replacement(range(k), g):
        mono = []
        num = den = 1
        j, e = picks[0], 0
        for i in picks + (k,):  # the sentinel k closes the last run
            if i != j:
                factor, p, q = table[j][e]
                mono.append(factor)
                num *= p
                den *= q
                j, e = i, 0
            e += 1
        monos.append(tuple(mono))
        coeffs.append(Fraction(num, den))
    # the multisets come in lexicographic order; terms keep its reverse
    return FormalCycle(g, n, dict(zip(reversed(monos), reversed(coeffs))))


def evaluate(cycle: FormalCycle, assignment: Mapping[Generator, Fraction]) -> Fraction:
    """Exact evaluation of the cycle at a generator assignment; every
    generator appearing in the cycle must be assigned an int or a Fraction.

    Every monomial has degree g, so with the values over one denominator Q
    (a = P/Q) and the coefficients over one denominator L (c = N/L), the
    value is sum(N * prod P^e) / (L * Q^g): integer powers, one division."""
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
    powers: dict[Generator, list[int]] = {}  # P^0 .. P^g per generator
    for gen, a in values.items():
        P = a.numerator * (Q // a.denominator)
        row = powers[gen] = [1]
        for _ in range(cycle.g):
            row.append(row[-1] * P)
    L = math.lcm(*(c.denominator for c in cycle.terms.values()))
    total = 0
    for mono, c in cycle.terms.items():
        value = c.numerator * (L // c.denominator)
        for gen, e in mono:
            value *= powers[gen][e]
        total += value
    return Fraction(total, L * Q**cycle.g)


def relabel_cycle(cycle: FormalCycle, sigma: tuple[int, ...]) -> FormalCycle:
    """Push a formal cycle forward along a permutation of the markings;
    each distinct generator is relabelled once."""
    g, n = cycle.g, cycle.n
    _check_permutation(sigma, n)
    image = cycle._per_generator(lambda gen: _relabel(gen, sigma, g, n))
    key = {im: generator_sort_key(im) for im in image.values()}
    terms = {
        tuple(sorted(((image[gen], e) for gen, e in mono), key=lambda ge: key[ge[0]])): c
        for mono, c in cycle.terms.items()
    }
    return FormalCycle(g, n, terms)
