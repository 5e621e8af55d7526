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

Each subcommand is one row of ``_COMMANDS``: its name, help, arguments and
handler; ``class`` and ``verify`` read their choices from the dicts they
dispatch through.  :func:`main` parses with one top-level parser per
process, built on its first call and shared by every later call and
thread; nothing changes it after it is built.  Each call builds only the
parser of the command it runs, when argparse parses that command (see
:class:`_Command`), and :func:`build_parser` returns a fresh top-level
parser.  Every handler writes through :func:`_emit`: JSON is printed
whole, CSV and pretty output a bounded block of lines at a time as the
lines are made (see :func:`thetadiv.basis._blocks`).

Exit codes: 0 success, 1 verification failure (report still printed),
2 usage or validation error, 3 internal error (one line on stderr), 141
when the reader closes stdout early (nothing on stderr; a shell reports
the same status for a process ended by SIGPIPE).
Output is byte-identical for identical flags and seed.  Random sweeps draw
each weight uniformly from [-10, 10] and then adjust the last coordinate
to hit the required total degree.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Sequence

from .basis import _blocks, _boundary_label, _csv_lines, _texts, basis_generators, check_work, generator_label
from .curves import _dense_rows, _matrix_size, curve_label, enumerate_test_curves
from .drcycle import dr_expansion
from .solve import SingularMatrixError, _solve_units, certify_basis, reconstruct_T, reconstruct_Theta
from .theta import _theta_less_ledger, class_D_direct, class_T, class_Theta, correction_ledger

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
    report = certify_basis(g, n)
    report["check"] = "rank"
    report["ok"] = report["rank"] == report["expected"] and report["det_nonzero"]
    return report


def _check_trials(trials) -> None:
    if type(trials) is not int:  # type(), as in _check_gn: a bool is no count
        raise ValueError(f"--trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")


def _sweep(g: int, n: int, trials: int, seed: int, check: str, draw, degree: int, left, right) -> dict:
    """Run ``trials`` comparisons from ``seed`` and report them as ``check``.
    Each trial draws ``d = draw(rng, n, degree)`` and passes when
    ``left(g, n, d) == right(g, n, d)``; a system the test curves cannot
    solve fails it.  Refused before the first draw above the work budget,
    at one solve a trial."""
    _check_trials(trials)
    if type(seed) is not int:  # None draws from the OS, "x" and 1.5 hash: no report could be replayed
        raise ValueError(f"--seed must be an integer, got {seed!r}")
    check_work(g, n, trials * _solve_units(n))
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        d = draw(rng, n, degree)
        try:
            ok = left(g, n, d) == right(g, n, d)
        except SingularMatrixError:
            ok = False
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


# each sweep names its routes as module globals, read at call time, so a
# caller that rebinds one (a test, a tracer) reaches the sweep
def verify_T(g: int, n: int, trials: int, seed: int) -> dict:
    return _sweep(g, n, trials, seed, "T", sample_degree_weights, 0, reconstruct_T, class_T)


def verify_theta(g: int, n: int, trials: int, seed: int) -> dict:
    return _sweep(g, n, trials, seed, "theta", sample_degree_weights, g - 1, reconstruct_Theta, class_Theta)


def verify_mueller(g: int, n: int, trials: int, seed: int, plus_convention: str = "nonneg") -> dict:
    # plus_convention stays for positional callers; "nonneg" is the only one
    if plus_convention != "nonneg":
        raise ValueError(f'plus_convention must be "nonneg", got {plus_convention!r}')
    return _sweep(
        g, n, trials, seed, "mueller", sample_negative_weights, g - 1, class_D_direct, _theta_less_ledger
    ) | {"plus_convention": plus_convention}


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, the same text, for a document whose
    dict keys are all str, its lines after the first starting with
    ``newline``.  For an indent the standard library falls back to its
    pure-Python encoder; this makes each container's text in one join, with
    each str and int item inline, through the function json.dumps calls for
    it, and any other leaf (bool, None) through json.dumps."""
    inner = newline + "  "
    if isinstance(value, dict) and value:
        texts = [
            _quote(key) + ": "
            + (_quote(x) if type(x) is str else int.__repr__(x) if type(x) is int else _json_text(x, inner))
            for key, x in value.items()
        ]
        return "{" + inner + ("," + inner).join(texts) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        texts = [
            _quote(x) if type(x) is str else int.__repr__(x) if type(x) is int else _json_text(x, inner)
            for x in value
        ]
        return "[" + inner + ("," + inner).join(texts) + newline + "]"
    return json.dumps(value)  # a leaf, "{}" or "[]"


def _emit(fmt: str, doc, header: list[str], rows, lines) -> int:
    """Write one result to stdout in ``fmt``: the JSON document ``doc()``,
    as ``json.dumps(doc(), indent=2)`` would print it (see
    :func:`_json_text`), or the CSV table ``header`` + ``rows`` of str
    fields (quoted as :func:`thetadiv.basis._csv_lines` states), or the
    pretty ``lines``.  ``rows`` and ``lines`` are lazy iterables and only
    one of them is read: its lines are made as they are read and written
    a bounded block at a time, one write a text of
    :func:`thetadiv.basis._blocks`.
    Stdout is flushed before returning, so that a reader that closed it
    early raises here, inside :func:`main`, and not in the interpreter's
    flush at exit."""
    if fmt == "json":
        print(_json_text(doc()))
    else:
        sys.stdout.writelines(_blocks(_csv_lines(header, rows) if fmt == "csv" else lines))
    sys.stdout.flush()
    return 0


def _check_digits(values) -> None:
    """Refuse with ``ValueError``, before the first byte of output, a
    result whose ``values`` (ints or Fractions) hold an integer with more
    digits than ``sys.get_int_max_str_digits()`` allows: printing it would
    end the output part-way.  A limit of 0, or no such function, means
    none; the process-wide setting is left alone."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    widest = max((max(abs(x.numerator), x.denominator) for x in values), default=0)
    # below 3 * limit bits it is below 8**limit, so it has at most limit
    # digits: 10**limit (29 us at the default limit) is built only past that
    if limit and widest.bit_length() >= 3 * limit and widest >= 10**limit:
        raise ValueError(f"a value has more than {limit} digits, the interpreter's int-to-str limit")


def _cmd_basis(args) -> int:
    labels = [generator_label(gen) for gen in basis_generators(args.g, args.n)]
    return _emit(args.format, lambda: {"generators": labels}, ["generators"], zip(labels), labels)


def _cmd_curves(args) -> int:
    labels = [curve_label(c) for c in enumerate_test_curves(args.g, args.n)]
    return _emit(args.format, lambda: {"curves": labels}, ["curves"], zip(labels), labels)


def _cmd_matrix(args) -> int:
    if args.format == "json":
        # JSON holds every entry as a str and the whole document in memory,
        # so m^2 units, not m^2/4: fit to the dense build's 143 MB peak at
        # (6, 8) against 27 MB as csv, not yet measured for the sparse rows
        check_work(args.g, args.n, 8, _matrix_size(args.g, args.n) ** 2)
    gens, curves, entries = _dense_rows(args.g, args.n, "0", str)
    cols, labels = [generator_label(gen) for gen in gens], [curve_label(c) for c in curves]
    doc = lambda: {"g": args.g, "n": args.n, "rows": labels, "cols": cols, "entries": list(entries)}
    rows = ([label, *entry] for label, entry in zip(labels, entries))
    lines = ("\t".join(row) for row in itertools.chain([["curve", *cols]], rows))
    return _emit(args.format, doc, ["curve", *cols], rows, lines)


def _cmd_class(args) -> int:
    divclass = _CLASSES[args.kind](args.g, args.n, _parse_weights(args.d))
    _check_digits(divclass.coeffs.values())
    text = _texts(divclass.coeffs.values())  # each coefficient object printed once
    coeff = {gen: text[id(c)] for gen, c in divclass.coeffs.items()}.get
    rows = ((generator_label(gen), coeff(gen, "0")) for gen in basis_generators(args.g, args.n))
    lines = (f"{label} = {c}" for label, c in rows)
    return _emit(args.format, divclass.to_json_dict, ["generator", "coefficient"], rows, lines)


def _cmd_ledger(args) -> int:
    ledger = correction_ledger(args.g, args.n, _parse_weights(args.d))
    doc = lambda: {
        "g": ledger.g,
        "n": ledger.n,
        "plus_convention": "nonneg",
        "terms": [{"h": t.h, "P": list(t.P), "mult": t.mult} for t in ledger.terms],
        "delta_irr_order": str(ledger.delta_irr_order),
    }
    rows = ((str(t.h), " ".join(map(str, t.P)), str(t.mult)) for t in ledger.terms)
    lines = (f"{t.mult} * {_boundary_label('delta', t.h, t.P)}" for t in ledger.terms)
    lines = itertools.chain(lines, [f"delta_irr order = {ledger.delta_irr_order}"])
    return _emit(args.format, doc, ["h", "P", "mult"], rows, lines)


def _cmd_dr(args) -> int:
    cycle = dr_expansion(args.g, args.n, _parse_weights(args.d))
    _check_digits(cycle.terms.values())
    rows = cycle._labelled_terms()
    lines = (f"{label}: {c}" for label, c in rows)
    return _emit(args.format, cycle.to_json_dict, ["monomial", "coefficient"], rows, lines)


def _cmd_verify(args) -> int:
    _check_trials(args.trials)  # rank runs no sweep, but refuses what the sweeps refuse
    sweep = () if args.target == "rank" else (args.trials, args.seed)
    report = _VERIFIERS[args.target](args.g, args.n, *sweep)
    _emit("json", lambda: report, [], (), ())
    return 0 if report["ok"] else 1


_CLASSES = {"T": class_T, "theta": class_Theta, "mueller": class_D_direct}
_VERIFIERS = {"rank": verify_rank, "T": verify_T, "theta": verify_theta, "mueller": verify_mueller}

_GN = (
    ("--g", {"type": int, "required": True, "help": "genus"}),
    ("--n", {"type": int, "required": True, "help": "number of marked points"}),
)
_D = ("--d", {"required": True, "help": "comma-separated integer weights"})
_FORMAT = ("--format", {"choices": FORMATS, "default": "pretty"})
_SWEEP = (("--trials", {"type": int, "default": 50}), ("--seed", {"type": int, "default": 0}))
# one row per subcommand: name, help, arguments in the order they are added, handler
_COMMANDS = (
    ("basis", "ordered divisor basis", (*_GN, _FORMAT), _cmd_basis),
    ("curves", "test-curve families", (*_GN, _FORMAT), _cmd_curves),
    ("matrix", "test-curve intersection matrix", (*_GN, _FORMAT), _cmd_matrix),
    ("class", "evaluate a divisor class",
     (("kind", {"choices": _CLASSES}), *_GN, _D, _FORMAT), _cmd_class),
    ("ledger", "boundary vanishing corrections", (*_GN, _D, _FORMAT), _cmd_ledger),
    ("dr", "double ramification cycle expansion", (*_GN, _D, _FORMAT), _cmd_dr),
    ("verify", "identity sweeps with pass/fail report",
     (("target", {"choices": _VERIFIERS}), *_GN, *_SWEEP), _cmd_verify),
)


class _Command(argparse.ArgumentParser):
    """A subcommand's entry in the subparser map, which builds its parser
    on every parse: argparse parses only the subcommand named in argv, so a
    call builds no other command's parser.  ``__init__`` keeps the options
    ``add_parser`` passes; each :meth:`parse_known_args` builds a fresh
    ``ArgumentParser`` with them, adds the ``_COMMANDS`` row's arguments in
    table order, sets ``func`` to its handler and parses with it.  No parse
    changes the entry, so calls and threads can share it without a lock.
    The entry itself never has argparse state, so ``repr()`` of it fails:
    argparse reads only the subparser map's keys and the help pseudo-actions
    before it dispatches (3.10–3.13)."""

    def __init__(self, **options):
        self.options = options

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self.options)
        for flag, options in self.arguments:
            parser.add_argument(flag, **options)
        parser.set_defaults(func=self.handler)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetadiv",
        description="Exact divisor-class calculator on moduli of stable pointed curves",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, summary, arguments, handler in _COMMANDS:
        command = sub.add_parser(name, help=summary)
        command.arguments, command.handler = arguments, handler
    return parser


# main's parser, built on its first call rather than at import; a caller
# that changes what build_parser returns cannot reach it
_shared_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        # the bytes a failed flush leaves behind would fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a failed check: no traceback, and not exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
