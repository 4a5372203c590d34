"""The package uses only the public API of numpy and scipy, and no scipy.linalg.

Importing scipy.linalg, which scipy.sparse.linalg also imports, costs about
8.2 MB of resident memory and 66 ms per process (on top of numpy and
scipy.sparse).  The package needs none of it: its matrix exponentials come
from the Taylor series in polariton.dynamics and its dense eigensolvers are
numpy's.
"""

import ast
from pathlib import Path

import pytest

import polariton

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


# scipy.sparse.linalg imports scipy.linalg itself
LINALG = ("scipy.linalg", "scipy.sparse.linalg")


def scipy_linalg_imports(tree):
    """The modules of LINALG a source imports, by name or from their parent."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if _in_linalg(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if _in_linalg(node.module):
                found.append(node.module)
            else:
                found += [
                    f"{node.module}.{alias.name}"
                    for alias in node.names
                    if f"{node.module}.{alias.name}" in LINALG
                ]
    return sorted(set(found))


def _in_linalg(module):
    return any(module == name or module.startswith(name + ".") for name in LINALG)


def test_scipy_linalg_imports_are_detected():
    source = (
        "import scipy.sparse.linalg\n"
        "import scipy.linalg as sla\n"
        "from scipy import linalg, sparse\n"
        "from scipy.linalg.blas import zgemm\n"
        "from scipy.sparse import csr_matrix, linalg\n"
    )
    assert scipy_linalg_imports(ast.parse(source)) == [
        "scipy.linalg", "scipy.linalg.blas", "scipy.sparse.linalg"
    ]
    assert scipy_linalg_imports(ast.parse("import scipy.sparse as sp\n")) == []


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_no_scipy_linalg_imports(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    assert scipy_linalg_imports(tree) == [], f"{source.name} imports scipy.linalg"


def test_public_api_resolves():
    # a dangling __all__ entry fails the star import
    namespace = {}
    exec("from polariton import *", namespace)
    for name in polariton.__all__:
        assert getattr(polariton, name) is namespace[name]
