"""The package uses only the public API of numpy and scipy."""

import ast
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "polariton"
SOURCES = sorted(SRC_DIR.glob("*.py"))
THIRD_PARTY = ("numpy", "scipy")


def _is_third_party(module):
    return module.split(".")[0] in THIRD_PARTY


def private_references(tree):
    """Underscore-prefixed numpy/scipy modules or names a source relies on.

    Covers `import scipy._lib`, `from scipy.sparse.linalg._expm_multiply
    import f`, `from scipy.linalg import _f`, and attributes read through
    an imported module (`spla._expm_multiply` after `import
    scipy.sparse.linalg as spla`).
    """
    bound = {}  # local name -> dotted third-party module it stands for
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if _is_third_party(node.module):
                for alias in node.names:
                    refs.append(f"{node.module}.{alias.name}")
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_third_party(alias.name):
                    refs.append(alias.name)
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                refs.append(f"{bound[node.value.id]}.{node.attr}")
    return sorted({ref for ref in refs if any(p.startswith("_") for p in ref.split("."))})


def test_package_sources_found():
    assert SOURCES, f"no package sources under {SRC_DIR}"


def test_private_references_are_detected():
    source = (
        "import scipy._lib\n"
        "import scipy.sparse.linalg as spla\n"
        "from scipy.sparse.linalg._expm_multiply import _fragment_3_1\n"
        "from numpy import _NoValue\n"
        "spla._expm_multiply\n"
        "spla.expm_multiply\n"
    )
    assert private_references(ast.parse(source)) == [
        "numpy._NoValue",
        "scipy._lib",
        "scipy.sparse.linalg._expm_multiply",
        "scipy.sparse.linalg._expm_multiply._fragment_3_1",
    ]


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_numpy_or_scipy_imports(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    assert private_references(tree) == [], f"{source.name} relies on private third-party API"
