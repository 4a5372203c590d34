"""The benchmark harness's references into the package still resolve and agree with it."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from polariton.cute import CavityParams, assemble_truncated
from polariton.vibronic import MolecularModel, VibrationalMode, build_vibronic

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(BENCH_DIR.glob("*.py"))


def _is_package(module):
    return module == "polariton" or module.startswith("polariton.")


def package_references(tree):
    """Dotted paths into the package that a benchmark source relies on.

    Every name imported from the package (`from polariton.cute import
    build_H0` gives 'polariton.cute.build_H0'), plus every attribute read
    through an imported package module (`cute.CavityParams` after `from
    polariton import cute` gives 'polariton.cute.CavityParams').
    """
    bound = {}  # local name -> dotted package path it stands for
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if _is_package(node.module):
                for alias in node.names:
                    path = f"{node.module}.{alias.name}"
                    bound[alias.asname or alias.name] = path
                    refs.append(path)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_package(alias.name):
                    refs.append(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["polariton"] = "polariton"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = []
            base = node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                refs.append(".".join([bound[base.id]] + chain[::-1]))
    return sorted(set(refs))


def resolve(path):
    """Import or getattr each component of a dotted package path in turn."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[: i + 1]))  # submodule not yet loaded
        obj = getattr(obj, part)
    return obj


def test_benchmark_sources_found():
    assert SOURCES, f"no benchmark sources under {BENCH_DIR}"


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_benchmark_references_resolve(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    for path in package_references(tree):
        try:
            resolve(path)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"{source.name} uses {path}, which no longer resolves: {exc}")


@pytest.mark.parametrize("n_max", [0, 5, 14], ids=["m1", "m6", "m15"])
def test_benchmark_cute1_reference_is_the_assembler(n_max):
    # perfbench's hand-built cute1 reference [H0, v0k; v0k^T, H1k] lists its states
    # in the symmetric basis order, so it is assemble_truncated's matrix as is
    spec = importlib.util.spec_from_file_location("perfbench_checks", BENCH_DIR / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    vs = build_vibronic(
        MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.012, 1.1, n_max),))
    )
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.03, n_molecules=50, kappa=0.0015)
    H_ref, n_ph = checks.cute1_matrix(vs, cav)
    basis, H = assemble_truncated(vs, cav, 1)
    assert H_ref.shape == H.shape == (vs.m * (vs.m + 1),) * 2
    assert abs(H_ref - H).max() <= 1e-15 * abs(H).max()
    np.testing.assert_array_equal(n_ph, basis.photon_numbers())
