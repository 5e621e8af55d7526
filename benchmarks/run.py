"""Closed-loop benchmark of the thetadiv library.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload closed_form --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload test_curve --seed 1 --seconds 20 --trace 1
    python3 benchmarks/run.py --selftest

One single-threaded caller issues the next op only after the previous one
returns.  The package is imported from ``src/`` next to this directory; no
installation is needed.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
fuller record (provenance, sample counts, failed_frac) goes to
``benchmarks/out/``; the traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

START = perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

from calibrate import PROBE_EVERY_S, Calibration  # noqa: E402
from workloads import LAYERS, WORKLOADS, ClosedForm, CliSmall, Op, TestCurve  # noqa: E402

SETUP_REPEATS = 7
MIN_OPS = 100  # nearest-rank p90 then has at least 10 samples beyond it
RUN_DEADLINE_S = 150  # stop early rather than overrun the 180 s limit
TRACE_UNTRACED_DEADLINE_S = 60
SELFCHECK_SIZE = (5, 6)


def import_thetadiv():
    """Import ``thetadiv`` afresh from this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "thetadiv" or m.startswith("thetadiv.")]:
        del sys.modules[name]
    package = importlib.import_module("thetadiv")
    for layer in LAYERS:
        importlib.import_module(f"thetadiv.{layer}")
    if Path(package.__file__).resolve().parent != SRC / "thetadiv":
        raise ImportError(f"thetadiv imported from {package.__file__}, not from {SRC}")
    return package


def set_up(workload_cls, seed: int):
    """Import, generate the first cycle of inputs and run one warm-up op per
    distinct (g, n).  Returns (seconds, workload, first cycle)."""
    start = perf_counter()
    package = import_thetadiv()
    workload = workload_cls(package, seed)
    first = workload.cycle()
    for op in workload.warmup_ops():
        op.run()
    return perf_counter() - start, workload, first


def execute(op: Op, tracer=None):
    """Time one op, then check its output outside the timed interval.
    Returns (seconds, ok).  Raising counts as a failure."""
    if tracer is not None:
        tracer.op_id += 1
        tracer.active = True
    raised = None
    start = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed op is counted, not fatal
        raised = exc
    finally:
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.active = False
    if raised is not None:
        report_failure(op, f"raised {type(raised).__name__}: {raised}")
        return seconds, False
    try:
        ok = op.check(out) is True
    except Exception as exc:  # a check that cannot parse the output fails the op
        report_failure(op, f"check raised {type(exc).__name__}: {exc}")
        return seconds, False
    if not ok:
        report_failure(op, "output check failed")
    return seconds, ok


def report_failure(op: Op, why: str) -> None:
    print(f"FAILED {op.kind} (g, n)={op.size}: {why}", file=sys.stderr)


def closed_loop(workload, first_cycle, seconds: float, deadline: float, calibration, tracer=None) -> dict:
    """Run whole cycles until the measured op time reaches ``seconds`` and
    at least MIN_OPS ops completed, or until the deadline.  Returns the raw
    latencies and the latencies scaled by the probes around each window."""
    raw: list[float] = []
    scaled: list[float] = []
    window: list[float] = []
    failed = 0
    cycle = first_cycle
    before = calibration.probe()

    def close_window():
        nonlocal before
        after = calibration.probe()
        factor = calibration.scale(before, after)
        scaled.extend(dt * factor for dt in window)
        window.clear()
        before = after

    while True:
        for op in cycle:
            dt, ok = execute(op, tracer)
            raw.append(dt)
            window.append(dt)
            failed += not ok
            if sum(window) >= PROBE_EVERY_S:
                close_window()
            if perf_counter() - START > deadline:
                break
        if perf_counter() - START > deadline or (sum(raw) >= seconds and len(raw) >= MIN_OPS):
            break
        cycle = workload.cycle()
    if window:
        close_window()
    return {"raw": raw, "scaled": scaled, "failed": failed}


def p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def ops_per_s(loop: dict, key: str = "scaled") -> float:
    return (len(loop[key]) - loop["failed"]) / sum(loop[key])


def selftest(package) -> list[str]:
    """Feed ops whose outputs are wrong and check that each counts as failed.
    Returns the problems found (empty when the checks work)."""
    problems = []
    closed = ClosedForm(package, 0)
    good = closed.make_op(3, 3, closed.rng)
    out = good.run()
    bump = package.basis.DivisorClass(3, 3, {package.basis.LAMBDA1: 1})
    perturbed_D = out[:2] + (out[2] + bump,) + out[3:]

    curve = TestCurve(package, 0)
    rec = curve.reconstruct_op(3, 3, "T", (2, -1, -1))
    wrong_class = rec.run() + bump

    cli = CliSmall(package, 0)
    cmd = cli.make_op(("class theta", "json", 3, 2), cli.rng)
    code, text = cmd.run()

    cases = [
        ("unchanged closed_form output", good, True),
        ("perturbed D class", Op("selftest", (3, 3), lambda: perturbed_D, good.check), False),
        ("perturbed reconstruction", Op("selftest", (3, 3), lambda: wrong_class, rec.check), False),
        ("unchanged cli output", cmd, True),
        ("wrong exit code", Op("selftest", (3, 2), lambda: (1, text), cmd.check), False),
        ("op that raises", Op("selftest", (3, 3), lambda: package.theta.class_T(3, 3, (1, 1, 1)), good.check), False),
    ]
    print("self-test: the next FAILED lines are expected", file=sys.stderr)
    for label, op, expect_ok in cases:
        _, ok = execute(op)
        if ok != expect_ok:
            problems.append(f"{label}: counted as {'ok' if ok else 'failed'}")
    if code != 0:
        problems.append(f"cli op exited {code}")
    return problems


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark may run from an exported tree that has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def sizes(workload) -> dict:
    """size.B, size.m of the workload's largest (g, n), and size.nnz of the
    largest pairing matrix it builds (0 when it builds none)."""
    lib = workload.lib
    g, n = workload.largest
    B = len(lib.basis.enumerate_boundary(g, n))
    nnz = 0
    if workload.matrix_size is not None:
        mat = lib.curves.build_matrix(*workload.matrix_size)
        nnz = sum(1 for row in mat.entries for x in row if x != 0)
    return {"size.B": B, "size.m": B + n + 2, "size.nnz": nnz}


def provenance(args, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "largest_size": list(workload.largest),
        **sizes(workload),
        "drcycle.terms": workload.counters["max_terms"],
    }


def end_to_end(setup_times: list[float], loop: dict, key: str) -> dict:
    """The end-to-end metrics from the "scaled" (nominal-machine) or "raw"
    times."""
    lat = loop[key]
    attempted = len(lat)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ops_per_s(loop, key), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90(lat) * 1e3, "ms"),
        "ok_frac": ((attempted - loop["failed"]) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, workload, loop: dict, untraced_ops_per_s: float) -> dict:
    ops = len(loop["raw"])
    calls, fn_s = tracer.calls, tracer.fn_s
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.layer_calls(layer) / ops, "calls/op")
        metrics[f"{layer}.busy_s"] = (tracer.busy_s[layer] / ops, "s/op")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] / ops, "s/op")
    intersects = calls["curves.intersect"]
    certifies = calls["solve.certify_basis"]
    reconstructs = calls["solve.reconstruct_T"] + calls["solve.reconstruct_Theta"]
    terms = tracer.counters["drcycle.terms"]
    dr_busy = tracer.busy_s["drcycle"]
    metrics.update(
        {
            "curves.intersect.calls": (intersects / ops, "calls/op"),
            "curves.intersect.nonzero_ratio": (
                tracer.counters["curves.intersect.nonzero"] / intersects if intersects else 0.0,
                "ratio",
            ),
            "basis.canonicalize_boundary.calls": (calls["basis.canonicalize_boundary"] / ops, "calls/op"),
            "basis.DivisorClass.calls": (calls["basis.DivisorClass"] / ops, "calls/op"),
            "solve.certify_basis.s": (fn_s["solve.certify_basis"] / ops, "s/op"),
            "solve.reconstruct.s": (
                (fn_s["solve.reconstruct_T"] + fn_s["solve.reconstruct_Theta"]) / ops,
                "s/op",
            ),
            "solve.reconstructs_per_size": (reconstructs / certifies if certifies else 0.0, "count"),
            "solve.m": (tracer.counters["solve.m"], "count"),
            "theta.theta_intersection.calls": (calls["theta.theta_intersection"] / ops, "calls/op"),
            "drcycle.terms": (terms / ops, "terms/op"),
            "drcycle.terms_per_s": (terms / dr_busy if dr_busy else 0.0, "terms/s"),
            "cli.stdout_bytes": (workload.counters["stdout_bytes"] / ops, "bytes/op"),
            "trace.overhead_frac": (1 - ops_per_s(loop) / untraced_ops_per_s, "ratio"),
        }
    )
    for key, value in sizes(workload).items():
        metrics[key] = (value, "count")
    return metrics


def tracer_selfcheck(package, tracer) -> tuple[int, int]:
    """Count intersect calls in one build_matrix twice: through the tracer
    and through an independent profile hook on the original function."""
    original = package.curves.intersect.__wrapped__.__code__
    profiled = 0

    def hook(frame, event, arg):
        nonlocal profiled
        if event == "call" and frame.f_code is original:
            profiled += 1

    tracer.reset()
    tracer.active = True
    sys.setprofile(hook)
    try:
        package.curves.build_matrix(*SELFCHECK_SIZE)
    finally:
        sys.setprofile(None)
        tracer.active = False
    return tracer.calls["curves.intersect"], profiled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="only check that the output checks can fail")
    args = parser.parse_args(argv)

    if args.selftest:
        problems = selftest(import_thetadiv())
        for problem in problems:
            print(f"self-test: {problem}", file=sys.stderr)
        print("self-test", "failed" if problems else "passed")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")

    workload_cls = WORKLOADS[args.workload]
    calibration = Calibration()
    setup_raw, setup_scaled = [], []
    before = calibration.probe()
    for _ in range(SETUP_REPEATS):
        # Each set-up starts from the same heap: without this the garbage of
        # the previous set-up's import is collected inside the next one.
        gc.collect()
        seconds, workload, first = set_up(workload_cls, args.seed)
        after = calibration.probe()
        setup_raw.append(seconds)
        setup_scaled.append(seconds * calibration.scale(before, after))
        before = after
    package = workload.lib
    problems = selftest(package)
    # Start the timed loop from the same heap in every run.  The collector
    # stays on: its pauses during ops are the program's own cost.
    gc.collect()

    deadline = TRACE_UNTRACED_DEADLINE_S if args.trace else RUN_DEADLINE_S
    loop = closed_loop(workload, first, args.seconds, deadline, calibration)
    attempted, failed = len(loop["raw"]), loop["failed"]
    record = {"provenance": None, "setup_s_raw": setup_raw, "setup_s_scaled": setup_scaled}

    if args.trace:
        from tracer import Tracer, install

        untraced = ops_per_s(loop)
        tracer = Tracer()
        install(tracer, package)
        traced_workload = workload_cls(package, args.seed)
        traced = closed_loop(
            traced_workload, traced_workload.cycle(), args.seconds, RUN_DEADLINE_S, calibration, tracer
        )
        attempted += len(traced["raw"])
        failed += traced["failed"]
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["spans_dropped"] = tracer.spans_dropped
        record["traced_ops"] = len(traced["raw"])
        record["untraced_ops_per_s"] = untraced
        record["traced_ops_per_s"] = ops_per_s(traced)
        metrics = per_layer(tracer, traced_workload, traced, untraced)
        by_tracer, by_profile = tracer_selfcheck(package, tracer)
        metrics["trace.selfcheck_intersect_calls"] = (by_tracer, "count")
        g, n = SELFCHECK_SIZE
        m = n + len(package.basis.enumerate_boundary(g, n)) + 2
        record["selfcheck"] = {"g": g, "n": n, "tracer": by_tracer, "profile": by_profile, "m_squared": m * m}
        if by_tracer != by_profile:
            problems.append(f"tracer counted {by_tracer} intersect calls, profile hook {by_profile}")
        workload = traced_workload
    else:
        metrics = end_to_end(setup_scaled, loop, "scaled")
        record["raw"] = {k: v for k, (v, _) in end_to_end(setup_raw, loop, "raw").items()}

    record["provenance"] = provenance(args, workload)
    record["attempted"], record["failed"] = attempted, failed
    record["failed_frac"] = failed / attempted
    record["op_samples"] = len(loop["raw"])
    record["reference_probes_s"] = calibration.probes
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({"provenance": record["provenance"]}))
    print(f"{args.workload}: {attempted} ops attempted, {failed} failed, failed_frac {failed / attempted}")
    for key, (value, unit) in metrics.items():
        note = f"  (n={len(loop['raw'])})" if key.startswith("op_p") else ""
        print(f"  {key:36s} {value:.6g} {unit}{note}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot import thetadiv from {SRC}: {exc}", file=sys.stderr)
        sys.exit(1)
