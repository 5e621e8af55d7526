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
output order.  Inputs whose count exceeds a cap are refused before any
monomial is built (default 10**6; the ``THETADIV_MONOMIAL_CAP`` environment
variable overrides it with a nonnegative integer).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .basis import (
    DELTA_IRR,
    DivisorClass,
    Generator,
    _check_generator,
    generator_label,
    generator_sort_key,
    parse_generator_label,
    relabel_generator,
)
from .theta import class_T

DEFAULT_MONOMIAL_CAP = 10**6
MONOMIAL_CAP_ENV = "THETADIV_MONOMIAL_CAP"

Monomial = tuple[tuple[Generator, int], ...]


def monomial_cap() -> int:
    value = os.environ.get(MONOMIAL_CAP_ENV)
    if not value:
        return DEFAULT_MONOMIAL_CAP
    try:
        cap = int(value)
        if cap >= 0:
            return cap
    except ValueError:
        pass
    raise ValueError(f"{MONOMIAL_CAP_ENV} must be a nonnegative integer, got {value!r}")


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
    return DivisorClass(divclass.g, divclass.n, coeffs)


def _join_factors(mono: Monomial, labels: Mapping[int, str]) -> str:
    """The label of a monomial, given each factor's generator label by id."""
    if not mono:
        return "1"
    parts = []
    for gen, e in mono:
        lab = labels[id(gen)]
        parts.append(lab if e == 1 else f"{lab}^{e}")
    return "*".join(parts)


def monomial_label(mono: Monomial) -> str:
    return _join_factors(mono, {id(gen): generator_label(gen) for gen, _ in mono})


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
        # each generator is checked once, keyed by the id of its
        # object; the copy keeps every object alive, so no id is reused
        keys: dict[int, tuple] = {}
        clean = dict(self.terms)
        zeros = []
        for mono, c in clean.items():
            degree = 0
            prev: tuple = ()  # below every generator key
            descent = False
            repeated = None
            for gen, e in mono:
                key = keys.get(id(gen))
                if key is None:
                    _check_generator(gen, g, n)
                    if gen == DELTA_IRR:
                        raise ValueError("delta_irr cannot appear in a compact-type cycle")
                    key = keys[id(gen)] = generator_sort_key(gen)
                if e < 1:
                    raise ValueError(f"monomial exponents must be >= 1, got {mono!r}")
                if type(e) is not int:
                    raise ValueError(f"monomial exponents must be integers, got {mono!r}")
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

    def _per_generator(self, fn) -> dict[int, object]:
        """``fn(gen)`` for each distinct generator object, keyed by id."""
        objects = {id(gen): gen for mono in self.terms for gen, _ in mono}
        return {i: fn(gen) for i, gen in objects.items()}

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms ordered by their factors' (basis order, exponent) pairs."""
        keys = self._per_generator(generator_sort_key)
        rank = {key: r for r, key in enumerate(sorted(set(keys.values())))}
        # 1 <= e <= g, so the pair (rank, e) orders as the int rank * (g+1) + e
        code = {i: rank[key] * (self.g + 1) for i, key in keys.items()}
        return sorted(
            self.terms.items(), key=lambda kv: [code[id(gen)] + e for gen, e in kv[0]]
        )

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
                    "monomial": [[labels[id(gen)], e] for gen, e in mono],
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
        for entry in data["terms"]:
            mono = tuple(
                (parse_generator_label(label, g, n), e) for label, e in entry["monomial"]
            )
            terms[mono] = Fraction(entry["c"])
        return cls(g, n, terms)


def dr_expansion(g: int, n: int, d: Sequence[int]) -> FormalCycle:
    """Formal expansion of (trivialized theta pullback)^g / g! for weights
    of total degree 0; the coefficient of a monomial with exponents e_j is
    the product of the c_j^e_j / e_j! over its factors."""
    base = restrict_to_compact_type(class_T(g, n, d))
    gens = sorted(base.coeffs, key=generator_sort_key)
    k = len(gens)
    cap = monomial_cap()
    count = math.comb(k + g - 1, g) if k else 0
    if count > cap:
        raise ValueError(
            f"expansion would have {count} monomials, above the cap of {cap}; "
            f"raise {MONOMIAL_CAP_ENV} to override"
        )
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
    values: dict[int, Fraction] = {}
    for mono in cycle.terms:
        for gen, _ in mono:
            if id(gen) not in values:
                if gen not in assignment:
                    raise ValueError(f"assignment is missing generator {generator_label(gen)}")
                values[id(gen)] = _exact(
                    assignment[gen], f"assignment value of {generator_label(gen)}"
                )
    Q = math.lcm(*(a.denominator for a in values.values()))
    powers: dict[int, list[int]] = {}  # P^0 .. P^g per generator object
    for i, a in values.items():
        P = a.numerator * (Q // a.denominator)
        row = powers[i] = [1]
        for _ in range(cycle.g):
            row.append(row[-1] * P)
    L = math.lcm(*(c.denominator for c in cycle.terms.values()))
    total = 0
    for mono, c in cycle.terms.items():
        value = c.numerator * (L // c.denominator)
        for gen, e in mono:
            value *= powers[id(gen)][e]
        total += value
    return Fraction(total, L * Q**cycle.g)


def relabel_cycle(cycle: FormalCycle, sigma: tuple[int, ...]) -> FormalCycle:
    """Push a formal cycle forward along a permutation of the markings."""
    terms: dict[Monomial, Fraction] = {}
    for mono, c in cycle.terms.items():
        relabelled = [
            (relabel_generator(gen, sigma, cycle.g, cycle.n), e) for gen, e in mono
        ]
        relabelled.sort(key=lambda ge: generator_sort_key(ge[0]))
        terms[tuple(relabelled)] = c
    return FormalCycle(cycle.g, cycle.n, terms)
