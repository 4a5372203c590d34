"""The package uses only the public API of numpy and scipy, no scipy.linalg,
and scipy.sparse only where it builds a sparse matrix.

Importing scipy.linalg, which scipy.sparse.linalg also imports, costs about
8.2 MB of resident memory and 66 ms per process (on top of numpy and
scipy.sparse).  The package needs none of it: its matrix exponentials come
from the Taylor series in polariton.dynamics and its dense eigensolvers are
numpy's.  scipy.sparse itself costs about 22 MB and 0.2-0.3 s of CPU time
per process (scipy 1.17.1, numpy 2.4.6, Python 3.11, one BLAS thread),
mostly because it imports scipy._lib._array_api, so no module imports scipy
at module level, and no CLI run but validate and method = oracle loads it:
the N = infinity runs step the dense zeroth block and the finite-N
truncations (cute1, cuteq:<q>, exactN) the numpy-only k-major generator.
The 1/N correction, survival_correction, steps a Van Loan generator built
from that generator's coefficients, so it loads no scipy either.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polariton

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src" / "polariton"
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


def module_level_scipy_imports(tree):
    """The scipy modules a source imports when it is imported: outside any function."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "scipy":
                found.append(node.module)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(set(found))


def test_module_level_scipy_imports_are_detected():
    source = (
        "import scipy.sparse as sp\n"
        "class C:\n"
        "    from scipy import signal\n"
        "def f():\n"
        "    import scipy.linalg\n"
    )
    assert module_level_scipy_imports(ast.parse(source)) == ["scipy", "scipy.sparse"]


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_level_scipy_imports(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    assert module_level_scipy_imports(tree) == [], f"{source.name} imports scipy at module level"


RUN_CONFIG = """
[molecule]
electronic_gap = 0.1

[mode 1]
frequency = 0.012
huang_rhys = 2.0
n_max = 10

[cavity]
omega_c = 0.124
g_sqrt_n = 0.01
n_molecules = {n}
kappa = 0.0015

[grid]
t_max = 64
n_steps = 64

[run]
{run}
"""

SCIPY_MODULES = """
import json, sys
import polariton, polariton.cli
from polariton.cli import main

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

for task, config in json.loads(sys.argv[1]):
    assert main([task, "--config", config, "--out", sys.argv[3]]) == 0
numpy_only = scipy_modules()
assert main(["dynamics", "--config", sys.argv[2], "--out", sys.argv[3]]) == 0
print(json.dumps([numpy_only, scipy_modules()]))
"""


def test_infinite_rate_and_densities_runs_load_no_scipy(tmp_path):
    # a fresh interpreter: pytest itself has imported scipy in this one
    def config(name, n, run):
        path = tmp_path / f"{name}.ini"
        path.write_text(RUN_CONFIG.format(n=n, run=run))
        return str(path)

    numpy_only = [
        ("spectrum", config("spectrum", "inf", "task = spectrum\nmethod = infinite")),
        ("dynamics", config("dynamics", "inf", "task = dynamics\nmethod = infinite")),
        ("rate", str(ROOT / "configs" / "pumping_rate.ini")),
        ("densities", config("densities", "inf", "task = densities")),
        ("dynamics", config("cute0", "8", "task = dynamics\nmethod = cute0")),  # q = 0 at finite N
    ]
    # the finite-N truncations: cute1 (dim 132) and exactN at N = 3 (dim 187, a photon-only
    # top block) on the dense path, cuteq:2 (dim 792) on the Krylov path
    for method, n in (("cute1", "8"), ("cuteq:2", "8"), ("exactN", "3")):
        for task in ("dynamics", "spectrum"):
            name = f"{task}_{method.replace(':', '')}"
            numpy_only.append((task, config(name, n, f"task = {task}\nmethod = {method}")))
    oracle = config("oracle", "2", "task = dynamics\nmethod = oracle")
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_MODULES, json.dumps(numpy_only), oracle, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    loaded, after_oracle = json.loads(out.stdout.splitlines()[-1])
    assert loaded == []
    assert "scipy.sparse" in after_oracle  # the control: the oracle's tensor Hamiltonian loads it


CORRECTION_MODULES = """
import json, sys
import numpy as np
from polariton import dynamics
from polariton.cute import CavityParams
from polariton.dynamics import TimeGrid
from polariton.perturbation import survival_correction
from polariton.vibronic import MolecularModel, VibrationalMode, build_vibronic

for n_max, krylov in ((11, False), (21, True)):
    vs = build_vibronic(MolecularModel(0.1, (VibrationalMode(0.01, 1.0, n_max),)))
    assert ((vs.m + 1) ** 2 > dynamics.DENSE_DIM_LIMIT) == krylov
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.01, n_molecules=1000, kappa=0.002)
    res = survival_correction(vs, cav, np.eye(1, vs.m + 1).ravel(), TimeGrid(100.0, 64))
    assert np.all(np.isfinite(res.scaled_corr_t)) and np.max(np.abs(res.scaled_corr_t)) > 0
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_survival_correction_loads_no_scipy():
    # a fresh interpreter; m = 12 (dim 169) takes the dense path, m = 22
    # (dim 529) the Krylov path
    out = subprocess.run(
        [sys.executable, "-c", CORRECTION_MODULES],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == []
