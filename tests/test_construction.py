"""Classes built inside the package skip validation; this checks that every
such producer still returns what the public constructor would accept: a
fresh dict of nonzero Fractions, whose zeros the producer dropped itself."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from thetadiv.basis import (
    DELTA_IRR,
    LAMBDA1,
    DivisorClass,
    K,
    delta,
    enumerate_boundary,
    k_to_psi,
    psi_in_k_basis,
    psi_to_k,
    relabel_class,
)
from thetadiv.drcycle import restrict_to_compact_type
from thetadiv.solve import reconstruct_T, reconstruct_Theta
from thetadiv.theta import class_D_direct, class_D_from_theta, class_T, class_Theta


@st.composite
def cases(draw):
    g = draw(st.integers(3, 5))
    n = draw(st.integers(1, 4))
    head = draw(st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1))
    sigma = tuple(draw(st.permutations(range(1, n + 1))))
    return g, n, tuple(head), sigma, draw(st.integers(1, n))


def produced(g, n, head, sigma, i):
    """One result of every internal producer of classes."""
    d0, d1 = head + (-sum(head),), head + (g - 1 - sum(head),)
    T, Th = class_T(g, n, d0), class_Theta(g, n, d1)
    yield from (T, Th, T + Th, Th + (-Th), T + (-T), T.scale(0), Th.scale(Fraction(-2, 3)))
    yield from (k_to_psi(Th), psi_to_k(T), psi_in_k_basis(i, g, n))
    yield from (reconstruct_T(g, n, d0), reconstruct_Theta(g, n, d1), reconstruct_T(g, n, (0,) * n))
    yield from (relabel_class(Th, sigma), restrict_to_compact_type(T))
    # weights 0 and -1 give zero K slots: 0 in T, both in Theta
    zeros = ((0, -1) + head)[: n - 1]
    z0, z1 = zeros + (-sum(zeros),), zeros + (g - 1 - sum(zeros),)
    yield from (class_T(g, n, z0), class_Theta(g, n, z1), reconstruct_Theta(g, n, z1))
    # to_json_dict writes every zero of the full basis as "0"
    yield from (DivisorClass.from_json_dict(x.to_json_dict()) for x in (T, Th, T.scale(0)))
    for d in (d1, z1):
        if min(d) < 0:
            yield from (class_D_direct(g, n, d), class_D_from_theta(g, n, d))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=cases())
def test_internal_producers_build_valid_classes(case):
    classes = list(produced(*case))
    for c in classes:
        assert DivisorClass(c.g, c.n, dict(c.coeffs)) == c
        assert type(c.coeffs) is dict
        assert all(type(v) is Fraction and v != 0 for v in c.coeffs.values())
    # _trusted stores the dict it is given: no two classes may share one
    assert len({id(c.coeffs) for c in classes}) == len(classes)


def test_closed_forms_make_no_zero_filter_and_few_fractions(monkeypatch):
    # each producer drops its zeros by an integer test where they arise, so
    # no Fraction is ever asked for its truth value, and makes one Fraction
    # per distinct coefficient value (plus a few per call)
    g, n = 5, 8
    d0, d1 = (1, -1, 2, -2, 3, -3, 0, 0), (3, -1, 2, 0, -2, 1, 0, 1)
    Th = class_Theta(g, n, d1)  # the (5, 8) basis table is built by now
    doc = json.loads(json.dumps(class_D_direct(g, n, d1).to_json_dict()))
    calls = [
        lambda: class_T(g, n, d0),
        lambda: class_Theta(g, n, d1),
        lambda: class_D_direct(g, n, d1),
        lambda: class_D_from_theta(g, n, d1),
        lambda: k_to_psi(Th),
        lambda: psi_to_k(Th),
        lambda: DivisorClass.from_json_dict(doc),
    ]
    counts = {"bool": 0, "new": 0}
    new, truth = Fraction.__new__, Fraction.__bool__

    def counted_new(cls, *args, **kwargs):
        counts["new"] += 1
        return new(cls, *args, **kwargs)

    def counted_bool(self):
        counts["bool"] += 1
        return truth(self)

    results = []
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(Fraction, "__bool__", counted_bool)
    for call in calls:
        results.append(call())
    monkeypatch.undo()
    assert counts["bool"] == 0
    # at most two per distinct value of each result: the parent made 563
    # for these 129 values, one per ledger term and two per psi key
    assert counts["new"] <= 2 * sum(len(set(c.coeffs.values())) for c in results)
    assert results[-1] == results[2] and psi_to_k(results[4]) == Th


def test_class_json_prints_each_coefficient_object_once(monkeypatch):
    # at (5, 8) a class has 769 slots; one str a slot made 769 strings
    # per document, most of them "0"
    g, n = 5, 8
    D = class_D_direct(g, n, (3, -1, 2, 0, -2, 1, 0, 1))
    calls, text = [], Fraction.__str__

    def counted_str(self):
        calls.append(self)
        return text(self)

    monkeypatch.setattr(Fraction, "__str__", counted_str)
    doc = D.to_json_dict()
    monkeypatch.undo()
    # each coefficient object once, and one zero for every absent slot
    assert len(calls) == len({id(c) for c in D.coeffs.values()}) + 1 < 100
    # the document a plain str per slot writes
    assert doc["coeffs"] == {
        "lambda1": str(D.coeff(LAMBDA1)),
        "delta_irr": str(D.coeff(DELTA_IRR)),
        "K": [str(D.coeff(K(i))) for i in range(1, n + 1)],
        "boundary": [
            {"h": b.h, "P": list(b.P), "c": str(D.coeff(delta(b)))} for b in enumerate_boundary(g, n)
        ],
    }
