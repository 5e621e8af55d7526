"""Command-line interface: evaluate classes, export tables, run verification sweeps.

Subcommands
-----------
basis / curves / matrix
    Enumerate the divisor basis, the test-curve families, or the full
    intersection matrix for a given (g, n).
class T|theta|mueller
    Evaluate a divisor class for integer weights ``--d`` (comma separated;
    total degree 0 for T, g-1 for theta and mueller; mueller additionally
    needs a negative weight).
ledger
    List the boundary vanishing corrections for a weight vector.
dr
    Formal degree-g expansion of the double ramification cycle.
verify rank|T|theta|mueller
    Run the corresponding identity sweep and print a JSON pass/fail report.

Exit codes: 0 success, 1 verification failure (report still printed),
2 usage or validation error.  Output is byte-identical for identical
flags and seed.  Random sweeps draw each weight uniformly from [-10, 10]
and then adjust the last coordinate to hit the required total degree.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from typing import Sequence

from .basis import _boundary_label, basis_generators, generator_label
from .curves import build_matrix, curve_label, enumerate_test_curves
from .drcycle import dr_expansion
from .solve import SingularMatrixError, certify_basis, reconstruct_T, reconstruct_Theta
from .theta import class_D_direct, class_D_from_theta, class_T, class_Theta, correction_ledger

FORMATS = ("pretty", "json", "csv")


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--d expects comma-separated integers, got {text!r}")


def sample_degree_weights(rng: random.Random, n: int, degree: int) -> tuple[int, ...]:
    """One random weight vector of the given total degree."""
    head = [rng.randint(-10, 10) for _ in range(n - 1)]
    return tuple(head + [degree - sum(head)])


def sample_negative_weights(rng: random.Random, n: int, degree: int) -> tuple[int, ...]:
    """One random weight vector of the given degree with a negative entry."""
    if n < 2 and degree >= 0:
        raise ValueError("no admissible weights: a single nonnegative-degree weight cannot be negative")
    while True:
        d = sample_degree_weights(rng, n, degree)
        if any(w < 0 for w in d):
            return d


def verify_rank(g: int, n: int) -> dict:
    report = dict(certify_basis(g, n))
    report["check"] = "rank"
    report["ok"] = report["rank"] == report["expected"] and report["det_nonzero"]
    return report


def _sweep(g: int, n: int, trials: int, seed: int, check: str, draw, compare) -> dict:
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        d = draw(rng)
        try:
            ok = compare(d)
        except SingularMatrixError:
            ok = False  # a system the test curves cannot solve fails the trial
        if not ok:
            failures.append({"d": list(d)})
    return {
        "check": check,
        "g": g,
        "n": n,
        "trials": trials,
        "seed": seed,
        "passed": trials - len(failures),
        "failed": len(failures),
        "ok": not failures,
        "failures": failures,
    }


def verify_T(g: int, n: int, trials: int, seed: int) -> dict:
    return _sweep(
        g, n, trials, seed, "T",
        lambda rng: sample_degree_weights(rng, n, 0),
        lambda d: reconstruct_T(g, n, d) == class_T(g, n, d),
    )


def verify_theta(g: int, n: int, trials: int, seed: int) -> dict:
    return _sweep(
        g, n, trials, seed, "theta",
        lambda rng: sample_degree_weights(rng, n, g - 1),
        lambda d: reconstruct_Theta(g, n, d) == class_Theta(g, n, d),
    )


def verify_mueller(g: int, n: int, trials: int, seed: int, plus_convention: str = "nonneg") -> dict:
    # plus_convention stays for positional callers; "nonneg" is the only one
    if plus_convention != "nonneg":
        raise ValueError(f'plus_convention must be "nonneg", got {plus_convention!r}')
    report = _sweep(
        g, n, trials, seed, "mueller",
        lambda rng: sample_negative_weights(rng, n, g - 1),
        lambda d: class_D_direct(g, n, d) == class_D_from_theta(g, n, d),
    )
    report["plus_convention"] = plus_convention
    return report


def _emit_json(obj) -> int:
    print(json.dumps(obj, indent=2))
    return 0


def _emit_csv(header: list[str], rows) -> int:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return 0


def _emit_labels(labels: list[str], fmt: str, header: str) -> int:
    if fmt == "json":
        return _emit_json({header: labels})
    if fmt == "csv":
        return _emit_csv([header], ([lab] for lab in labels))
    for lab in labels:
        print(lab)
    return 0


def _emit_class(divclass, fmt: str) -> int:
    if fmt == "json":
        return _emit_json(divclass.to_json_dict())
    gens = basis_generators(divclass.g, divclass.n)
    if fmt == "csv":
        rows = ([generator_label(gen), str(divclass.coeff(gen))] for gen in gens)
        return _emit_csv(["generator", "coefficient"], rows)
    for gen in gens:
        print(f"{generator_label(gen)} = {divclass.coeff(gen)}")
    return 0


def _cmd_basis(args) -> int:
    labels = [generator_label(gen) for gen in basis_generators(args.g, args.n)]
    return _emit_labels(labels, args.format, "generators")


def _cmd_curves(args) -> int:
    labels = [curve_label(c) for c in enumerate_test_curves(args.g, args.n)]
    return _emit_labels(labels, args.format, "curves")


def _cmd_matrix(args) -> int:
    mat = build_matrix(args.g, args.n)
    if args.format == "json":
        return _emit_json(mat.to_json_dict())
    if args.format == "csv":
        print(mat.to_csv(), end="")
        return 0
    cols = [generator_label(gen) for gen in mat.cols]
    print("curve\t" + "\t".join(cols))
    for curve, row in zip(mat.rows, mat.entries):
        print(curve_label(curve) + "\t" + "\t".join(str(x) for x in row))
    return 0


def _cmd_class(args) -> int:
    d = _parse_weights(args.d)
    if args.kind == "T":
        divclass = class_T(args.g, args.n, d)
    elif args.kind == "theta":
        divclass = class_Theta(args.g, args.n, d)
    else:
        divclass = class_D_direct(args.g, args.n, d)
    return _emit_class(divclass, args.format)


def _cmd_ledger(args) -> int:
    ledger = correction_ledger(args.g, args.n, _parse_weights(args.d))
    terms = [{"h": t.h, "P": list(t.P), "mult": t.mult} for t in ledger.terms]
    if args.format == "json":
        return _emit_json(
            {
                "g": ledger.g,
                "n": ledger.n,
                "plus_convention": "nonneg",
                "terms": terms,
                "delta_irr_order": str(ledger.delta_irr_order),
            }
        )
    if args.format == "csv":
        rows = ([t.h, " ".join(map(str, t.P)), t.mult] for t in ledger.terms)
        return _emit_csv(["h", "P", "mult"], rows)
    for t in ledger.terms:
        print(f"{t.mult} * {_boundary_label('delta', t.h, t.P)}")
    print(f"delta_irr order = {ledger.delta_irr_order}")
    return 0


def _cmd_dr(args) -> int:
    cycle = dr_expansion(args.g, args.n, _parse_weights(args.d))
    if args.format == "json":
        return _emit_json(cycle.to_json_dict())
    if args.format == "csv":
        print(cycle.to_csv(), end="")
        return 0
    for label, c in cycle._labelled_terms():
        print(f"{label}: {c}")
    return 0


def _cmd_verify(args) -> int:
    if args.target == "rank":
        report = verify_rank(args.g, args.n)
    elif args.target == "T":
        report = verify_T(args.g, args.n, args.trials, args.seed)
    elif args.target == "theta":
        report = verify_theta(args.g, args.n, args.trials, args.seed)
    else:
        report = verify_mueller(args.g, args.n, args.trials, args.seed)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def _add_gn(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--g", type=int, required=True, help="genus")
    parser.add_argument("--n", type=int, required=True, help="number of marked points")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="pretty")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetadiv",
        description="Exact divisor-class calculator on moduli of stable pointed curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="ordered divisor basis")
    _add_gn(p)
    _add_format(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("curves", help="test-curve families")
    _add_gn(p)
    _add_format(p)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("matrix", help="test-curve intersection matrix")
    _add_gn(p)
    _add_format(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("class", help="evaluate a divisor class")
    p.add_argument("kind", choices=("T", "theta", "mueller"))
    _add_gn(p)
    p.add_argument("--d", required=True, help="comma-separated integer weights")
    _add_format(p)
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("ledger", help="boundary vanishing corrections")
    _add_gn(p)
    p.add_argument("--d", required=True, help="comma-separated integer weights")
    _add_format(p)
    p.set_defaults(func=_cmd_ledger)

    p = sub.add_parser("dr", help="double ramification cycle expansion")
    _add_gn(p)
    p.add_argument("--d", required=True, help="comma-separated integer weights")
    _add_format(p)
    p.set_defaults(func=_cmd_dr)

    p = sub.add_parser("verify", help="identity sweeps with pass/fail report")
    p.add_argument("target", choices=("rank", "T", "theta", "mueller"))
    _add_gn(p)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
