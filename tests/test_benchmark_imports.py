"""The benchmark harness's references into the package still resolve."""

import ast
import importlib
from pathlib import Path

import pytest

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
