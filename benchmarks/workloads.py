"""The four closed-loop workloads and the output checks of their ops.

An op is one call sequence into the library whose latency is timed; its
check runs afterwards, outside the timed interval, and may fail.  Each
workload hands out its ops in cycles.  A cycle is a fixed multiset of op
kinds and sizes; only the weights, the sampled rows and the order within
the cycle depend on the seed.  Runs end on a cycle boundary, so every run
measures the same mix and the latency quantiles fall inside one size
class instead of on the edge between two.

Every call into ``thetadiv`` goes through an attribute of its module at
call time (``lib.theta.class_T``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

LAYERS = ("basis", "curves", "theta", "solve", "drcycle", "cli")
NONZERO_WEIGHTS = [w for w in range(-10, 11) if w != 0]


@dataclass
class Op:
    kind: str
    size: tuple[int, int]
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def draw_weights(rng: random.Random, n: int, degree: int, negative: bool = False) -> tuple[int, ...]:
    """Nonzero integer weights of the given total degree, with a negative
    entry when asked.  Zero weights are avoided because they shrink the
    class (and the dr expansion) and would make op cost depend on luck."""
    if n == 1 and (degree == 0 or (negative and degree >= 0)):
        raise ValueError(f"no nonzero weight vector of degree {degree} for n=1")
    while True:
        head = [rng.choice(NONZERO_WEIGHTS) for _ in range(n - 1)]
        d = (*head, degree - sum(head))
        if d[-1] != 0 and (not negative or min(d) < 0):
            return d


class Workload:
    name = ""
    largest: tuple[int, int]  # the (g, n) that size.B and size.m describe
    # (g, n) whose pairing matrix the workload builds, for size.nnz; None if it builds none
    matrix_size: tuple[int, int] | None = None

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(seed)
        self.warmup_rng = random.Random(f"{seed}-warmup")
        self.counters = Counter()

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        """One op per distinct (g, n), drawn from a separate stream so the
        timed ops do not depend on how set-up went."""
        raise NotImplementedError


class ClosedForm(Workload):
    name = "closed_form"
    # two (5,7) ops per (5,8) op puts p50 inside the (5,7) class and p90 inside (5,8)
    pattern = ((5, 7), (5, 7), (5, 8))
    largest = (5, 8)

    def __init__(self, lib, seed: int):
        super().__init__(lib, seed)
        self._boundary = {}

    def cycle(self) -> list[Op]:
        return [self.make_op(g, n, self.rng) for g, n in self.pattern]

    def warmup_ops(self) -> list[Op]:
        return [self.make_op(g, n, self.warmup_rng) for g, n in sorted(set(self.pattern))]

    def make_op(self, g: int, n: int, rng: random.Random) -> Op:
        lib = self.lib
        if (g, n) not in self._boundary:
            self._boundary[(g, n)] = lib.basis.enumerate_boundary(g, n)
        d0 = draw_weights(rng, n, 0)
        d1 = draw_weights(rng, n, g - 1, negative=True)
        if rng.random() < 0.5:
            row = lib.curves.point_curve(rng.randint(1, n))
        else:
            row = lib.curves.boundary_curve(rng.choice(self._boundary[(g, n)]))

        def run():
            theta, basis = lib.theta, lib.basis
            T = theta.class_T(g, n, d0)
            Th = theta.class_Theta(g, n, d1)
            D_direct = theta.class_D_direct(g, n, d1)
            D_from_theta = theta.class_D_from_theta(g, n, d1)
            ledger = theta.correction_ledger(g, n, d1)
            D_json = basis.DivisorClass.from_json_dict(json.loads(json.dumps(D_direct.to_json_dict())))
            Th_round = basis.psi_to_k(basis.k_to_psi(Th))
            return T, Th, D_direct, D_from_theta, ledger, D_json, Th_round

        def check(out) -> bool:
            T, Th, D_direct, D_from_theta, ledger, D_json, Th_round = out
            if not (D_direct == D_from_theta and D_json == D_direct and Th_round == Th):
                return False
            if not all(term.mult > 0 for term in ledger.terms):
                return False
            # The two D routes share their boundary formula, so also pair one
            # sampled point or node row against the test-curve numbers.
            return lib.curves.pair(row, T) == lib.theta.theta_intersection(
                row, d0, "T", g, n
            ) and lib.curves.pair(row, Th) == lib.theta.theta_intersection(row, d1, "Theta", g, n)

        return Op("closed_form", (g, n), run, check)


class TestCurve(Workload):
    name = "test_curve"
    # Three sizes in equal share put p50 inside the (3,5) class and p90 inside
    # (5,5).  (4,6) and (5,6) take 1-2.5 s per op today, too slow for 100 ops a run.
    grid = ((4, 4), (3, 5), (5, 5))
    weights_per_size = 4  # the reuse property: reconstructs per certify = 2 * this
    largest = matrix_size = (5, 5)

    def __init__(self, lib, seed: int):
        super().__init__(lib, seed)
        self._m = {(g, n): n + len(lib.basis.enumerate_boundary(g, n)) + 2 for g, n in self.grid}

    def cycle(self) -> list[Op]:
        ops = []
        for g, n in self.grid:
            ops.append(self.certify_op(g, n))
            for _ in range(self.weights_per_size):
                ops.append(self.reconstruct_op(g, n, "T", draw_weights(self.rng, n, 0)))
                ops.append(self.reconstruct_op(g, n, "Theta", draw_weights(self.rng, n, g - 1)))
        return ops

    def warmup_ops(self) -> list[Op]:
        return [self.certify_op(g, n) for g, n in self.grid]

    def certify_op(self, g: int, n: int) -> Op:
        m = self._m[(g, n)]

        def check(report) -> bool:
            return (
                report["rank"] == report["expected"] == m
                and report["det_nonzero"] is True
                and report["det"] != "0"
                and report["failed_rows"] == []
            )

        return Op("certify_basis", (g, n), lambda: self.lib.solve.certify_basis(g, n), check)

    def reconstruct_op(self, g: int, n: int, kind: str, d: tuple[int, ...]) -> Op:
        lib = self.lib
        if kind == "T":
            run = lambda: lib.solve.reconstruct_T(g, n, d)  # noqa: E731
            check = lambda out: out == lib.theta.class_T(g, n, d)  # noqa: E731
        else:
            run = lambda: lib.solve.reconstruct_Theta(g, n, d)  # noqa: E731
            check = lambda out: out == lib.theta.class_Theta(g, n, d)  # noqa: E731
        return Op(f"reconstruct_{kind}", (g, n), run, check)


class DrExpand(Workload):
    name = "dr_expand"
    # Four small expansions (about 460 monomials) and two large ones (about
    # 3900 and 4500): p50 falls in the small class, p90 in the (3,4) class.
    pattern = ((3, 3), (5, 2), (4, 3), (3, 3), (5, 2), (3, 4))
    largest = (3, 4)

    def __init__(self, lib, seed: int):
        super().__init__(lib, seed)
        self._gens = {}

    def cycle(self) -> list[Op]:
        return [self.make_op(g, n, self.rng) for g, n in self.pattern]

    def warmup_ops(self) -> list[Op]:
        return [self.make_op(g, n, self.warmup_rng) for g, n in sorted(set(self.pattern))]

    def make_op(self, g: int, n: int, rng: random.Random) -> Op:
        lib = self.lib
        if (g, n) not in self._gens:
            self._gens[(g, n)] = [
                gen for gen in lib.basis.basis_generators(g, n) if gen != lib.basis.DELTA_IRR
            ]
        d = draw_weights(rng, n, 0)
        assignment = {
            gen: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for gen in self._gens[(g, n)]
        }

        def run():
            dr = lib.drcycle
            cycle = dr.dr_expansion(g, n, d)
            value = dr.evaluate(cycle, assignment)
            return cycle, value, cycle.to_json_dict(), cycle.to_csv()

        def check(out) -> bool:
            cycle, value, as_json, as_csv = out
            base = lib.drcycle.restrict_to_compact_type(lib.theta.class_T(g, n, d))
            k = len(base.coeffs)
            linear = sum((c * assignment[gen] for gen, c in base.coeffs.items()), Fraction(0))
            self.counters["max_terms"] = max(self.counters["max_terms"], len(cycle.terms))
            return (
                value == linear**g / math.factorial(g)  # multinomial identity
                and len(cycle.terms) == math.comb(k + g - 1, g)
                and len(as_json["terms"]) == len(cycle.terms)
                and as_csv.count("\n") == len(cycle.terms) + 1
            )

        return Op("dr_expansion", (g, n), run, check)


CLI_SIZES = tuple((g, n) for g in (3, 4, 5) for n in (1, 2, 3, 4))
CLI_DR_SIZES = ((3, 2), (3, 3), (4, 2), (5, 2))  # at most 462 monomials
CLI_FORMATS = ("pretty", "json", "csv")
CLI_VERIFY_TRIALS = 2


def cli_entries() -> list[tuple[str, str, int, int]]:
    """The fixed multiset of (command, format, g, n) that one cycle runs.
    Commands that need a negative weight (or a degree-0 vector that is not
    all zero) only take n >= 2.  ``verify`` stops at n = 3: at n = 4 its
    sweeps (65-160 ms) are test_curve's work, and without them p90 falls in
    a flat stretch of the latency distribution (8-10 ms) instead of a gap
    between 10 and 21 ms where it jumped from run to run."""
    entries = []
    for g, n in CLI_SIZES:
        for fmt in CLI_FORMATS:
            commands = ["basis", "curves", "matrix", "class theta"]
            if n >= 2:
                commands += ["class T", "class mueller", "ledger"]
            if (g, n) in CLI_DR_SIZES:
                commands.append("dr")
            entries.extend((cmd, fmt, g, n) for cmd in commands)
        if n <= 3:
            verifies = ["verify rank", "verify theta"] + (["verify T", "verify mueller"] if n >= 2 else [])
            entries.extend((cmd, "json", g, n) for cmd in verifies)
    return entries


def _table(text: str, fmt: str) -> list[list[str]]:
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))
    return [line.split("\t") for line in text.splitlines()]


class CliSmall(Workload):
    name = "cli_small"
    largest = matrix_size = (5, 4)

    def __init__(self, lib, seed: int):
        super().__init__(lib, seed)
        self.entries = cli_entries()

    def cycle(self) -> list[Op]:
        entries = list(self.entries)
        self.rng.shuffle(entries)
        return [self.make_op(entry, self.rng) for entry in entries]

    def warmup_ops(self) -> list[Op]:
        return [self.make_op(("class theta", "json", g, n), self.warmup_rng) for g, n in CLI_SIZES]

    def make_op(self, entry: tuple[str, str, int, int], rng: random.Random) -> Op:
        cmd, fmt, g, n = entry
        argv = cmd.split() + ["--g", str(g), "--n", str(n)]
        d = None
        trials = seed = None
        if cmd in ("class T", "dr"):
            d = draw_weights(rng, n, 0)
        elif cmd == "class theta":
            d = draw_weights(rng, n, g - 1)
        elif cmd in ("class mueller", "ledger"):
            d = draw_weights(rng, n, g - 1, negative=True)
        if d is not None:
            argv.append("--d=" + ",".join(map(str, d)))
        if cmd.startswith("verify"):
            trials, seed = CLI_VERIFY_TRIALS, rng.randrange(10**6)
            argv += ["--trials", str(trials), "--seed", str(seed)]
        else:
            argv += ["--format", fmt]
        lib = self.lib

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = lib.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            return code, out.getvalue()

        def check(result) -> bool:
            code, text = result
            self.counters["stdout_bytes"] += len(text)
            if code != 0:
                return False
            return self._matches(cmd, fmt, g, n, d, trials, seed, text)

        return Op(f"cli {cmd} {fmt}", (g, n), run, check)

    def _matches(self, cmd, fmt, g, n, d, trials, seed, text) -> bool:
        """Parse stdout back and compare it with the library's own result."""
        lib = self.lib
        basis, curves, theta = lib.basis, lib.curves, lib.theta
        if cmd in ("basis", "curves"):
            if cmd == "basis":
                header, expected = "generators", [basis.generator_label(x) for x in basis.basis_generators(g, n)]
            else:
                header, expected = "curves", [curves.curve_label(c) for c in curves.enumerate_test_curves(g, n)]
            if fmt == "json":
                return json.loads(text) == {header: expected}
            if fmt == "csv":
                return _table(text, fmt) == [[header]] + [[label] for label in expected]
            return text.splitlines() == expected
        if cmd == "matrix":
            mat = curves.build_matrix(g, n)
            if fmt == "json":
                return curves.IntersectionMatrix.from_json_dict(json.loads(text)) == mat
            rows = _table(text, fmt)
            header = ["curve"] + [basis.generator_label(x) for x in mat.cols]
            body = [[curves.curve_label(c)] + list(row) for c, row in zip(mat.rows, mat.entries)]
            parsed = [[r[0]] + [Fraction(x) for x in r[1:]] for r in rows[1:]]
            return rows[0] == header and parsed == body
        if cmd.startswith("class"):
            kind = cmd.split()[1]
            if kind == "T":
                expected = theta.class_T(g, n, d)
            elif kind == "theta":
                expected = theta.class_Theta(g, n, d)
            else:
                expected = theta.class_D_direct(g, n, d)
            if fmt == "json":
                return basis.DivisorClass.from_json_dict(json.loads(text)) == expected
            want = [(basis.generator_label(x), expected.coeff(x)) for x in basis.basis_generators(g, n)]
            if fmt == "csv":
                rows = _table(text, fmt)
                return rows[0] == ["generator", "coefficient"] and [
                    (label, Fraction(c)) for label, c in rows[1:]
                ] == want
            pairs = [line.split(" = ") for line in text.splitlines()]
            return [(label, Fraction(c)) for label, c in pairs] == want
        if cmd == "ledger":
            ledger = theta.correction_ledger(g, n, d)
            want = [(t.h, tuple(t.P), t.mult) for t in ledger.terms]
            if fmt == "json":
                data = json.loads(text)
                got = [(t["h"], tuple(t["P"]), t["mult"]) for t in data["terms"]]
                return got == want and Fraction(data["delta_irr_order"]) == ledger.delta_irr_order
            if fmt == "csv":
                rows = _table(text, fmt)
                got = [(int(h), tuple(int(i) for i in P.split()), int(m)) for h, P, m in rows[1:]]
                return rows[0] == ["h", "P", "mult"] and got == want
            lines = text.splitlines()
            got = []
            for line in lines[:-1]:
                mult, label = line.split(" * delta_")
                h, P = label.split("^")
                got.append((int(h), tuple(int(i) for i in P.strip("{}").split(",") if i), int(mult)))
            return got == want and lines[-1] == f"delta_irr order = {ledger.delta_irr_order}"
        if cmd == "dr":
            cycle = lib.drcycle.dr_expansion(g, n, d)
            if fmt == "json":
                return lib.drcycle.FormalCycle.from_json_dict(json.loads(text)) == cycle
            want = [(lib.drcycle.monomial_label(m), c) for m, c in cycle.sorted_terms()]
            if fmt == "csv":
                rows = _table(text, fmt)
                return rows[0] == ["monomial", "coefficient"] and [
                    (label, Fraction(c)) for label, c in rows[1:]
                ] == want
            pairs = [line.rsplit(": ", 1) for line in text.splitlines()]
            return [(label, Fraction(c)) for label, c in pairs] == want
        target = cmd.split()[1]
        cli = lib.cli
        if target == "rank":
            expected = cli.verify_rank(g, n)
        elif target == "T":
            expected = cli.verify_T(g, n, trials, seed)
        elif target == "theta":
            expected = cli.verify_theta(g, n, trials, seed)
        else:
            expected = cli.verify_mueller(g, n, trials, seed, "nonneg")
        report = json.loads(text)
        return report == expected and report["ok"] is True


WORKLOADS = {cls.name: cls for cls in (ClosedForm, TestCurve, DrExpand, CliSmall)}
