"""The benchmark harness in ``benchmarks/`` drives the library through its
module attributes; these tests keep a simplification from breaking it."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import thetadiv

ROOT = Path(__file__).resolve().parent.parent
LAYERS = {"basis", "curves", "theta", "solve", "drcycle", "cli"}

PUBLIC_NAMES = {
    "BoundaryIndex", "CorrectionLedger", "CorrectionTerm", "DELTA_IRR", "DivisorClass",
    "ELLIPTIC_TAIL", "FormalCycle", "Generator", "IRREDUCIBLE_NODE", "IntersectionMatrix",
    "K", "LAMBDA1", "SingularMatrixError", "TestCurve", "basis_generators", "boundary_curve",
    "build_matrix", "canonicalize_boundary", "certify_basis", "class_D_direct",
    "class_D_from_theta", "class_T", "class_Theta", "correction_ledger", "curve_label",
    "delta", "dr_expansion", "enumerate_boundary", "enumerate_test_curves", "evaluate",
    "generator_label", "intersect", "k_to_psi", "pair", "parse_generator_label", "plus_set",
    "point_curve", "psi_in_k_basis", "psi_to_k", "reconstruct_T", "reconstruct_Theta",
    "relabel_class", "restrict_to_compact_type", "theta_intersection", "weight_sum",
}


def test_public_names():
    names = {name for name, obj in vars(thetadiv).items() if not inspect.ismodule(obj)}
    assert {name for name in names if not name.startswith("_")} == PUBLIC_NAMES


def is_layer(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in LAYERS


def library_reads(path: Path) -> set[tuple[str, str]]:
    """(layer, attribute) for every ``<x>.<layer>.<attribute>`` in a file, and
    for every ``<alias>.<attribute>`` where ``<alias> = <x>.<layer>``."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            target, value = node.targets[0], node.value
            both = isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
            for name, source in zip(target.elts, value.elts) if both else [(target, value)]:
                if isinstance(name, ast.Name) and is_layer(source):
                    aliases[name.id] = source.attr
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_layer(node.value):
            reads.add((node.value.attr, node.attr))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            reads.add((aliases[node.value.id], node.attr))
    return reads


def test_benchmark_reads_exist():
    benchmarks = ROOT / "benchmarks"
    reads = library_reads(benchmarks / "workloads.py") | library_reads(benchmarks / "run.py")
    # the parser sees direct reads (lib.curves.x) and aliased ones (theta = lib.theta)
    assert {("curves", "boundary_curve"), ("theta", "correction_ledger")} <= reads
    missing = [
        f"{layer}.{attr}"
        for layer, attr in sorted(reads)
        if not hasattr(importlib.import_module(f"thetadiv.{layer}"), attr)
    ]
    assert missing == []


def tree_files() -> list[Path]:
    return sorted(p for p in ROOT.rglob("*") if not {".git", "__pycache__"} & set(p.parts))


def test_benchmark_selftest_passes():
    before = tree_files()
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "self-test passed\n"), done.stderr
    assert tree_files() == before  # the self-test writes no files


def test_one_cycle_of_each_workload_passes_its_checks(monkeypatch):
    # in process, so that a work budget that refuses a benchmark op fails
    # here rather than only lowering the benchmark's ok_frac
    import importlib.util

    import thetadiv.cli  # noqa: F401  the cli_small ops call thetadiv.cli.main

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        for op in workload(thetadiv, seed=1).cycle():
            assert op.check(op.run()) is True, (name, op.kind, op.size)


def test_code_lines_counts_only_code():
    import importlib.util

    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = (
        '"""Module docstring,\n\non three lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # a trailing comment\n"
        '    """One line."""\n'
        "    return (x,\n"
        "            x)\n"
        "\n"
        "class C:\n"
        "    'a docstring'\n"
        "    y = 'no docstring'\n"
        "    'no docstring either'\n"
    )
    # def, both lines of the return, class, the assignment and the last string
    assert tool.code_lines(source) == 6
