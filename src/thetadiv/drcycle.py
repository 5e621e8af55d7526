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

Monomial counts grow as C(k + g - 1, g) for k nonzero generators; the
expansion refuses inputs above a cap (default 10**6, overridable via the
``THETADIV_MONOMIAL_CAP`` environment variable).
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

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
    return int(value) if value else DEFAULT_MONOMIAL_CAP


def restrict_to_compact_type(divclass: DivisorClass) -> DivisorClass:
    """Drop the delta_irr generator (compact-type curves never carry a
    non-separating node); all other coefficients are unchanged."""
    coeffs = {gen: c for gen, c in divclass.coeffs.items() if gen != DELTA_IRR}
    return DivisorClass(divclass.g, divclass.n, coeffs)


def monomial_label(mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for gen, e in mono:
        lab = generator_label(gen)
        parts.append(lab if e == 1 else f"{lab}^{e}")
    return "*".join(parts)


def _monomial_sort_key(mono: Monomial) -> tuple:
    return tuple((generator_sort_key(gen), e) for gen, e in mono)


@dataclass(frozen=True)
class FormalCycle:
    """Homogeneous degree-g polynomial in compact-type generators with
    exact coefficients.  Zero coefficients are dropped, monomials carry
    their factors sorted by basis order, so ``==`` is exact equality."""

    g: int
    n: int
    terms: Mapping[Monomial, Fraction]

    def __post_init__(self) -> None:
        clean: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            degree = 0
            for gen, e in mono:
                _check_generator(gen, self.g, self.n)
                if gen == DELTA_IRR:
                    raise ValueError("delta_irr cannot appear in a compact-type cycle")
                if e < 1:
                    raise ValueError(f"monomial exponents must be >= 1, got {mono!r}")
                degree += e
            if degree != self.g:
                raise ValueError(f"monomial {mono!r} has degree {degree}, expected {self.g}")
            if list(mono) != sorted(mono, key=lambda ge: generator_sort_key(ge[0])):
                raise ValueError(f"monomial {mono!r} is not in basis order")
            c = Fraction(c)
            if c != 0:
                clean[mono] = c
        object.__setattr__(self, "terms", clean)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _monomial_sort_key(kv[0]))

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "terms": [
                {
                    "monomial": [[generator_label(gen), e] for gen, e in mono],
                    "c": str(c),
                }
                for mono, c in self.sorted_terms()
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["monomial", "coefficient"])
        for mono, c in self.sorted_terms():
            writer.writerow([monomial_label(mono), str(c)])
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


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `slots` nonnegative integers summing to `total`."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, slots - 1):
            yield (head,) + tail


def dr_expansion(g: int, n: int, d: Sequence[int]) -> FormalCycle:
    """Formal expansion of (trivialized theta pullback)^g / g! for weights
    of total degree 0; the coefficient of a monomial with exponents e_j is
    the product of class-coefficient powers divided by the e_j factorials."""
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
    terms: dict[Monomial, Fraction] = {}
    for exps in _compositions(g, k):
        coeff = Fraction(1)
        mono: list[tuple[Generator, int]] = []
        for gen, e in zip(gens, exps):
            if e == 0:
                continue
            coeff *= base.coeffs[gen] ** e / math.factorial(e)
            mono.append((gen, e))
        terms[tuple(mono)] = coeff
    return FormalCycle(g, n, terms)


def evaluate(cycle: FormalCycle, assignment: Mapping[Generator, Fraction]) -> Fraction:
    """Exact evaluation of the cycle at a generator assignment; every
    generator appearing in the cycle must be assigned."""
    total = Fraction(0)
    for mono, c in cycle.terms.items():
        value = c
        for gen, e in mono:
            if gen not in assignment:
                raise ValueError(f"assignment is missing generator {generator_label(gen)}")
            value *= Fraction(assignment[gen]) ** e
        total += value
    return total


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
