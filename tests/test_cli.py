"""Config parsing, pipeline orchestration, outputs and exit codes."""

import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from polariton import cli, cute, dynamics, fockspace, oracle
from polariton.cli import ConfigError, main, parse_config, run
from polariton.cute import assemble_truncated
from polariton.errors import DimensionGuardError
from polariton.vibronic import build_vibronic

from reference_ops import photon_survival

BASE = """
[molecule]
electronic_gap = 0.1

[mode 1]
frequency = 0.012
huang_rhys = 0.7
n_max = 1

[cavity]
omega_c = 0.108
g_sqrt_n = 0.02
n_molecules = {n}
kappa = {kappa}

[grid]
t_max = 2048
n_steps = 2048

[run]
task = {task}
{extra}
"""


def write_cfg(tmp_path, task, n="inf", kappa="0.0015", extra="", name="run.ini"):
    path = tmp_path / name
    path.write_text(BASE.format(task=task, n=n, kappa=kappa, extra=extra))
    return path


def test_parse_valid_spectrum_config(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "spectrum", extra="method = infinite"))
    assert cfg.task == "spectrum"
    assert cfg.cavity.is_infinite
    assert cfg.model.modes[0].n_max == 1
    assert cfg.resolved["cavity.omega_c"] == "0.108"


@pytest.mark.parametrize(
    "task,n,extra,edit,msg",
    [
        ("spectrum", "inf", "method = infinite\nbogus_key = 1", None, "bogus_key"),
        ("spectrum", "inf", "method = infinite\nomega_min = abc", None, "omega_min"),
        ("rate", "8", "dark_index = x", None, "dark_index"),
        ("dynamics", "3", "method = cuteq:-1", None, "cuteq order"),
        ("spectrum", "inf", "method = infinite", ("omega_c = 0.108", "omega_c = nan"), "omega_c"),
        ("spectrum", "inf", "method = infinite", ("t_max = 2048", "t_max = nan"), "t_max"),
        ("spectrum", "inf", "method = infinite\nomega_min = 0.2\nomega_max = 0.1", None,
         "must be below omega_max"),
        ("spectrum", "inf", "method = infinite\nomega_min = -4", None, "Nyquist"),
        ("spectrum", "inf", "method = infinite\nwindow = hann", None, "window"),
        ("rate", "8", "dark_index = 99", None, "dark_index 99 out of range"),
        ("rate", "8", "dark_index = -1", None, "dark_index -1 out of range"),
        ("densities", "inf", "method = infinite\neigenstate = 999", None,
         "eigenstate index 999 out of range"),
        ("densities", "inf", "method = infinite\neigenstate = -1", None,
         "eigenstate index -1 out of range"),
        ("spectrum", "-inf", "method = infinite", None, "n_molecules"),
        ("rate", "8", "dark_index = 0", None, "not a dark state"),
        ("densities", "inf", "method = infinite\neigenstate = lp",
         ("g_sqrt_n = 0.02", "g_sqrt_n = 0"), "no excited-sector weight"),
        ("densities", "inf", "method = infinite\neigenstate = 1",
         ("g_sqrt_n = 0.02", "g_sqrt_n = 0"), "no excited-sector weight"),
        # malformed INI
        ("spectrum", "inf", "method = infinite", ("[molecule]", ""), "no section headers"),
        ("spectrum", "inf", "method = infinite", ("[cavity]", "[mode 1]\n\n[cavity]"),
         "section 'mode 1' already exists"),
        ("spectrum", "inf", "method = infinite",
         ("[cavity]", "[mode 01]\nfrequency = 0.02\nhuang_rhys = 0.1\nn_max = 1\n\n[cavity]"),
         "[mode 1] and [mode 01] both define mode 1"),
        ("spectrum", "inf", "method = infinite",
         ("omega_c = 0.108", "omega_c = 0.108\nomega_c = 0.1"),
         "option 'omega_c' in section 'cavity' already exists"),
        ("spectrum", "inf", "method = infinite", ("omega_c = 0.108", "omega_c = 0.108%"),
         "omega_c"),
        # values, orders and mode numbers are ASCII digits: int() would read "1_0" as 10,
        # "١" as 1, and float() "0.1_1" as 0.11
        ("dynamics", "3", "method = cuteq:1_0", None,
         "bad value for 'method' in [run]: 'cuteq:1_0' is not ASCII without '_'"),
        ("dynamics", "3", "method = cuteq:\u0661", None,
         "bad value for 'method' in [run]: 'cuteq:\u0661' is not ASCII"),
        ("spectrum", "inf", "method = infinite", ("n_max = 1", "n_max = 1_0"),
         "bad value for 'n_max' in [mode 1]: '1_0'"),
        ("spectrum", "inf", "method = infinite", ("n_max = 1", "n_max = \u0662"),
         "bad value for 'n_max' in [mode 1]: '\u0662'"),
        ("rate", "8", "dark_index = \u0661", None, "bad value for 'dark_index' in [run]"),
        ("densities", "inf", "method = infinite\neigenstate = 3_2", None,
         "bad value for 'eigenstate' in [run]: '3_2'"),
        ("spectrum", "inf", "method = infinite", ("omega_c = 0.108", "omega_c = 0.1_1"),
         "bad value for 'omega_c' in [cavity]: '0.1_1'"),
        ("spectrum", "inf", "method = infinite", ("[mode 1]", "[mode \u00b2]"),
         "mode sections must be named [mode <int>], got [mode \u00b2]"),
        ("spectrum", "inf", "method = infinite", ("[mode 1]", "[mode \u0661]"),
         "mode sections must be named [mode <int>], got [mode \u0661]"),
        ("spectrum", "inf", "method = %(x)s", None, "unknown method '%(x)s'"),
        # parameters the library rejects
        ("spectrum", "inf", "method = infinite", ("frequency = 0.012", "frequency = -0.012"),
         "mode frequency must be positive"),
        ("spectrum", "inf", "method = infinite", ("huang_rhys = 0.7", "huang_rhys = nan"),
         "mode parameters must be finite"),
        ("spectrum", "inf", "method = infinite", ("n_max = 1", "n_max = -1"), "n_max must be >= 0"),
        ("spectrum", "inf", "method = infinite", ("kappa = 0.0015", "kappa = abc"),
         "bad value for 'kappa'"),
        ("rate", "inf", "", None, "radiative pumping requires finite N"),
    ],
    ids=["unknown_key", "omega_min_abc", "dark_index_x", "cuteq_negative", "omega_c_nan",
         "t_max_nan", "omega_min_above_max", "omega_above_nyquist", "window_hann",
         "dark_index_99", "dark_index_negative", "eigenstate_999", "eigenstate_negative",
         "n_molecules_neg_inf", "dark_index_bright", "eigenstate_lp_uncoupled",
         "eigenstate_photon_uncoupled", "ini_no_section_header", "ini_duplicate_section",
         "mode_duplicate_number", "ini_duplicate_key", "ini_percent_value", "cuteq_underscore",
         "cuteq_arabic_indic_digit", "n_max_underscore",
         "n_max_arabic_indic_digit", "dark_index_arabic_indic_digit", "eigenstate_underscore",
         "omega_c_underscore", "mode_superscript_digit", "mode_arabic_indic_digit",
         "ini_interpolation",
         "mode_frequency_negative", "mode_huang_rhys_nan", "mode_n_max_negative", "kappa_abc",
         "rate_infinite"],
)
def test_bad_config_is_exit_code_2(tmp_path, capsys, task, n, extra, edit, msg):
    path = write_cfg(tmp_path, task, n=n, extra=extra)
    if edit:
        path.write_text(path.read_text().replace(*edit))
    assert main([task, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert msg in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc,code,prefix",
    [
        (ConfigError("boom"), 2, "config error"),
        (ValueError("boom"), 2, "config error"),
        (RuntimeError("boom"), 1, "error"),
        (DimensionGuardError("boom"), 1, "error"),
        (np.linalg.LinAlgError("boom"), 1, "error"),  # a ValueError subclass
        (PermissionError("boom"), 1, "error"),  # an OSError
    ],
    ids=["ConfigError", "ValueError", "RuntimeError", "DimensionGuardError", "LinAlgError",
         "OSError"],
)
def test_exception_type_decides_exit_code(tmp_path, capsys, monkeypatch, exc, code, prefix):
    def fail(cfg, out_dir):
        raise exc

    monkeypatch.setattr(cli, "run", fail)
    path = write_cfg(tmp_path, "spectrum", extra="method = infinite")
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


@pytest.mark.parametrize("under", ["", "sub"], ids=["existing_file", "path_under_a_file"])
def test_unusable_out_is_exit_code_1(tmp_path, capsys, under):
    path = write_cfg(tmp_path, "spectrum", extra="method = infinite")
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / under if under else blocker
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


RATE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "pumping_rate.ini"

# task -> (write_cfg arguments, or None for RATE_CONFIG; its artifacts):
# together the five artifact kinds
_ARTIFACTS = {
    "spectrum": ({"extra": "method = infinite"}, ["spectrum.csv"]),
    "dynamics": ({"extra": "method = infinite"}, ["trajectory.csv"]),
    "rate": (None, ["rate.json"]),
    "densities": ({"extra": "eigenstate = lp"}, ["density_lp_mode1.csv"]),
    "validate": ({"n": "2"}, ["validate.txt"]),
}


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
@pytest.mark.parametrize("task", sorted(_ARTIFACTS))
def test_artifacts_follow_the_umask(tmp_path, task, umask, mode):
    kwargs, names = _ARTIFACTS[task]
    path = RATE_CONFIG if kwargs is None else write_cfg(tmp_path, task, **kwargs)
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main([task, "--config", str(path), "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert sorted(p.name for p in out.iterdir()) == names  # no temp file left behind
    assert {stat.S_IMODE((out / name).stat().st_mode) for name in names} == {mode}


def test_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    out = tmp_path / "out"
    assert main(["rate", "--config", str(RATE_CONFIG), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert list(out.iterdir()) == []


def test_trajectory_and_spectrum_csv_roundtrip(tmp_path):
    cfg_text = (
        "[molecule]\nelectronic_gap = 0.1\n\n"
        "[cavity]\nomega_c = 0.1\ng_sqrt_n = 0.01\nn_molecules = inf\nkappa = 0.001\n\n"
        "[grid]\nt_max = 100\nn_steps = 10\n\n"
        "[run]\nmethod = infinite\nwindow = none\n"
    )
    path = tmp_path / "run.ini"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "# molecule.electronic_gap = 0.1"
    n_header = sum(line.startswith("# ") for line in lines)
    assert lines[n_header] == "t,re_c,im_c,norm"
    data = np.loadtxt(lines[n_header + 1 :], delimiter=",")
    assert data.shape == (11, 4)
    cfg = parse_config(path, task="dynamics")
    traj = photon_survival(build_vibronic(cfg.model), cfg.cavity, cfg.grid)
    np.testing.assert_allclose(data[:, 1] + 1j * data[:, 2], traj.c_t, atol=1e-15)

    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "# molecule.electronic_gap = 0.1"
    assert lines[sum(line.startswith("# ") for line in lines)] == "omega,intensity"


def test_vibronic_cap_is_exit_code_1(tmp_path, capsys):
    path = write_cfg(tmp_path, "spectrum", extra="method = infinite")
    mode2 = "[mode 2]\nfrequency = 0.02\nhuang_rhys = 0.1\nn_max = 4096\n\n[cavity]"
    path.write_text(path.read_text().replace("[cavity]", mode2))
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds cap 4096" in err


def test_basis_cap_is_exit_code_1_before_enumeration(tmp_path, capsys, monkeypatch):
    def no_state(slots, n_ph):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(fockspace, "SymState", no_state)
    fig5 = (Path(__file__).resolve().parents[1] / "configs" / "fig5_spectrum.ini").read_text()
    path = tmp_path / "fig5_cute2.ini"  # m = 123, cuteq:2 at N = 1000: 945,624 states
    path.write_text(
        fig5.replace("n_molecules = inf", "n_molecules = 1000").replace(
            "method = infinite", "method = cuteq:2"
        )
    )
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "945624" in err


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[weird]\nx = 1\n" + BASE.format(task="spectrum", n="inf", kappa="0", extra="method = infinite"))
    with pytest.raises(ConfigError, match="weird"):
        parse_config(path)


def test_missing_file_and_task_conflict(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.ini")
    path = write_cfg(tmp_path, "spectrum", extra="method = infinite")
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config(path, task="dynamics")


@pytest.mark.parametrize(
    "task,n,extra,msg",
    [
        ("rate", "8", "method = oracle", "cute1"),
        ("spectrum", "8", "method = infinite", "inf"),
        ("spectrum", "inf", "method = cute1", "finite"),
        ("spectrum", "inf", "", "requires a method"),
        ("validate", "8", "", "<= 4"),
        ("spectrum", "inf", "method = warp", "unknown method"),
        ("densities", "inf", "method = oracle", "densities"),
        ("densities", "8", "method = infinite", "inf"),
        ("densities", "inf", "method = cute0", "finite"),
        ("dynamics", "5", "method = oracle", "<= 4"),
    ],
)
def test_compatibility_matrix(tmp_path, task, n, extra, msg):
    path = write_cfg(tmp_path, task, n=n, extra=extra)
    with pytest.raises(ConfigError, match=msg):
        parse_config(path)


def test_rate_requires_kappa(tmp_path, capsys):
    path = write_cfg(tmp_path, "rate", n="8", kappa="0")
    assert main(["rate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "radiative pumping requires kappa > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "window",
    ["omega_min = 0.05\nomega_max = 0.17\nwindow = none", "window = none"],
    ids=["omega_window", "default_bins"],
)
def test_spectrum_run_writes_headers_and_is_deterministic(tmp_path, window):
    path = write_cfg(tmp_path, "spectrum", extra="method = infinite\n" + window)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["spectrum", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", str(path), "--out", str(out2)]) == 0
    b1 = (out1 / "spectrum.csv").read_bytes()
    b2 = (out2 / "spectrum.csv").read_bytes()
    assert b1 == b2  # bit-identical across repeated runs
    lines = b1.decode().splitlines()
    assert "# cavity.omega_c = 0.108" in lines
    assert "# run.task = spectrum" in lines
    assert "omega,intensity" in lines
    # the header states the spacing of the rows below it (2 pi / t_max on a
    # window, 2 pi / (n_t dt) on the default bins)
    header = dict(l[2:].split(" = ", 1) for l in lines if l.startswith("#"))
    omega = np.loadtxt(lines[lines.index("omega,intensity") + 1 :], delimiter=",")[:, 0]
    np.testing.assert_allclose(np.diff(omega), float(header["derived.delta_omega"]), rtol=1e-9)
    assert header["derived.method"] == "split"
    assert not {"derived.krylov_dim", "derived.substeps"} & set(header)


def run_dynamics_cuteq(tmp_path):
    """Header dict and data rows of a cuteq:2 dynamics run at N = 3."""
    path = write_cfg(tmp_path, "dynamics", n="3", extra="method = cuteq:2")
    out = tmp_path / "out"
    assert main(["dynamics", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = dict(l[2:].split(" = ", 1) for l in lines if l.startswith("#"))
    data = np.loadtxt([l for l in lines if not l.startswith("#")][1:], delimiter=",")
    return header, data


def test_dynamics_run_finite_N_cuteq(tmp_path):
    header, data = run_dynamics_cuteq(tmp_path)
    keys = list(header)
    assert keys[keys.index("derived.dim") + 1] == "derived.method"
    assert header["derived.method"] == "dense"
    assert not {"derived.krylov_dim", "derived.substeps"} & set(keys)
    assert not any("delta_omega" in key for key in keys)  # no frequency grid here
    assert abs(data[0, 1] - 1.0) < 1e-12  # c(0) = 1


def test_dynamics_run_header_reports_krylov_window(tmp_path, monkeypatch):
    (tmp_path / "dense").mkdir()
    _, dense = run_dynamics_cuteq(tmp_path / "dense")
    monkeypatch.setattr(dynamics, "DENSE_DIM_LIMIT", 1)
    header, data = run_dynamics_cuteq(tmp_path)
    keys = list(header)
    i = keys.index("derived.method")
    assert keys[i : i + 4] == [
        "derived.method", "derived.krylov_dim", "derived.block_steps", "derived.substeps"
    ]
    assert header["derived.method"] == "krylov"
    # dim 9 <= KRYLOV_DIM: one exact basis of all 9 states spans the 2048 steps
    assert [int(header[key]) for key in keys[i + 1 : i + 4]] == [9, 2048, 1]
    assert int(header["derived.dim"]) == 9
    assert abs(data[0, 1] - 1.0) < 1e-12
    np.testing.assert_allclose(data, dense, rtol=0, atol=1e-10)


@pytest.mark.parametrize("method", ["cute0", "cuteq:0"])
def test_order_zero_dynamics_is_H0_not_the_assembler(tmp_path, monkeypatch, method):
    # every q = 0 method propagates build_H0, which equals the q_max = 0 assembly bit for bit
    path = write_cfg(tmp_path, "dynamics", n="8", extra=f"method = {method}")
    cfg = parse_config(path)
    basis, H = assemble_truncated(build_vibronic(cfg.model), cfg.cavity, q_max=0)
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[0] = 1.0
    want = dynamics.propagate(
        H, psi0, cfg.grid, kappa=cfg.cavity.kappa, n_ph=basis.photon_numbers()
    )

    calls = []
    monkeypatch.setattr(cli, "assemble_truncated", lambda *args, **kw: calls.append(kw))
    assert main(["dynamics", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert calls == []
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "t,re_c,im_c,norm"
    # %.17g round-trips every float64, so equal parsed values are equal bits
    columns = (want.grid.times, want.c_t.real, want.c_t.imag, want.norm_t)
    np.testing.assert_array_equal(np.loadtxt(data[1:], delimiter=","), np.column_stack(columns))
    header = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("#"))
    assert header["derived.dim"] == str(basis.dim)


def test_spectrum_cute_methods_take_the_split_route(tmp_path):
    # the assembled sparse matrix at N = 3 (exactN) against the oracle's tensor Hamiltonian
    rows, header = {}, {}
    for method in ("exactN", "oracle"):
        path = write_cfg(tmp_path, "spectrum", n="3", extra=f"method = {method}\nwindow = none")
        out = tmp_path / method
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        header[method] = dict(l[2:].split(" = ", 1) for l in lines if l.startswith("#"))
        rows[method] = np.loadtxt(lines[lines.index("omega,intensity") + 1 :], delimiter=",")
    assert (header["exactN"]["derived.method"], header["oracle"]["derived.method"]) == (
        "split", "split"
    )
    assert header["exactN"]["derived.block_steps"] == "46"  # ceil(sqrt(2049))
    np.testing.assert_allclose(rows["exactN"], rows["oracle"], rtol=0, atol=1e-10)


@pytest.mark.parametrize("method", ["infinite", "cute0", "cute1", "cuteq:2", "exactN", "oracle"])
@pytest.mark.parametrize("task", ["spectrum", "dynamics"])
def test_task_picks_the_stepper(tmp_path, monkeypatch, task, method):
    # spectrum reads c(t) alone from autocorrelation, dynamics propagates: for every method
    calls = []

    def counted(name):
        step = getattr(dynamics, name)
        return lambda *args, **kwargs: calls.append(name) or step(*args, **kwargs)

    for name in ("autocorrelation", "propagate"):
        monkeypatch.setattr(dynamics, name, counted(name))
    n = "inf" if method == "infinite" else "3"
    path = write_cfg(tmp_path, task, n=n, extra=f"method = {method}")
    assert main([task, "--config", str(path), "--out", str(tmp_path)]) == 0
    assert calls == [{"spectrum": "autocorrelation", "dynamics": "propagate"}[task]]


def test_grid_cap_is_exit_code_1_before_allocating(tmp_path, capsys, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("stepped past the grid cap")

    monkeypatch.setattr(dynamics, "_step", no_step)
    path = write_cfg(tmp_path, "dynamics", extra="method = infinite")
    path.write_text(path.read_text().replace("n_steps = 2048", f"n_steps = {2**22}"))
    assert main(["dynamics", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"n_steps = {2**22}" in err
    assert not (tmp_path / "trajectory.csv").exists()


def test_oracle_method_runs(tmp_path):
    path = write_cfg(tmp_path, "dynamics", n="2", extra="method = oracle")
    out = tmp_path / "out"
    assert main(["dynamics", "--config", str(path), "--out", str(out)]) == 0


def test_exactN_and_oracle_methods_agree(tmp_path):
    # exactN (q_max = N symmetric space) and the brute-force oracle are two
    # independent code paths to the same trajectory
    outs = {}
    for method in ("exactN", "oracle"):
        path = write_cfg(tmp_path, "dynamics", n="2", extra=f"method = {method}",
                         name=f"{method}.ini")
        out = tmp_path / method
        assert main(["dynamics", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        outs[method] = np.loadtxt(
            [l for l in lines if not l.startswith("#")][1:], delimiter=","
        )
    np.testing.assert_allclose(outs["exactN"][:, 1:3], outs["oracle"][:, 1:3], atol=1e-10)


def test_rate_task_writes_json(tmp_path):
    cfg_text = """
[molecule]
electronic_gap = 0.1

[mode 1]
frequency = 0.02
huang_rhys = 1.0
n_max = 5

[cavity]
omega_c = 0.08225
g_sqrt_n = 0.00025
n_molecules = 16
kappa = 0.0015

[grid]
t_max = 1000
n_steps = 100

[run]
task = rate
dark_index = 2
"""
    path = tmp_path / "rate.ini"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    assert main(["rate", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "rate.json").read_text())
    assert payload["dark_index"] == 2
    assert payload["Gamma_total"] > 0
    assert payload["channels"]
    assert "_config" in payload


def test_densities_task(tmp_path):
    cfg_text = """
[molecule]
electronic_gap = 0.1

[mode 1]
frequency = 0.012
huang_rhys = 2.0
n_max = 10

[cavity]
omega_c = 0.124
g_sqrt_n = 0.01
n_molecules = inf
kappa = 0.0015

[grid]
t_max = 1000
n_steps = 100

[run]
task = densities
"""
    path = tmp_path / "dens.ini"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    assert main(["densities", "--config", str(path), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert "density_dark_mode1.csv" in files
    assert "density_lp_mode1.csv" in files


def test_validate_task_passes_at_small_N(tmp_path):
    path = write_cfg(tmp_path, "validate", n="2", extra="")
    out = tmp_path / "out"
    assert main(["validate", "--config", str(path), "--out", str(out)]) == 0
    report = (out / "validate.txt").read_text()
    assert "PASS" in report


def test_failed_validate_writes_its_report_then_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "VALIDATE_TOL", 0.0)  # no deviation is below 0
    path = write_cfg(tmp_path, "validate", n="2", extra="")
    out = tmp_path / "out"
    assert main(["validate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: validation failed: max deviation ")
    report = (out / "validate.txt").read_text()
    assert report.endswith("result                          = FAIL\n")


def test_validate_assembles_the_exact_truncation_once(tmp_path, monkeypatch):
    # the H_sym check and the exactN amplitude share one q_max = N assembly
    calls = []
    assemble = cli.assemble_truncated
    monkeypatch.setattr(
        cli, "assemble_truncated", lambda *args, **kw: calls.append(kw) or assemble(*args, **kw)
    )
    config = Path(__file__).resolve().parents[1] / "configs" / "validate_n2.ini"
    assert main(["validate", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert "result                          = PASS" in (tmp_path / "validate.txt").read_text()
    assert calls == [{"q_max": 2}]


def test_validate_builds_the_oracle_once(tmp_path, monkeypatch):
    # the H_sym check and the oracle amplitude share one tensor Hamiltonian, and its
    # one symmetrizer maps the basis assemble_truncated enumerated, enumerated once
    calls = {"build_full_H": [], "enumerate_basis": [], "symmetrizer": []}
    for module, name in [(oracle, "build_full_H"), (cli, "build_full_H"),
                         (cute, "enumerate_basis"), (cli, "symmetrizer")]:
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, f=original, n=name: calls[n].append(args) or f(*args)
        )
    config = Path(__file__).resolve().parents[1] / "configs" / "validate_n2.ini"
    assert main(["validate", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert "result                          = PASS" in (tmp_path / "validate.txt").read_text()
    assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(calls, 1)


@pytest.mark.parametrize("task", ["dynamics", "spectrum"])
def test_oracle_method_builds_no_symmetrizer(tmp_path, monkeypatch, task):
    # the oracle generator starts from the tensor photon state, T[:, 0] without T
    def fail(*args):
        raise AssertionError("symmetric basis built")

    for module, name in [(oracle, "symmetrizer"), (cli, "symmetrizer"),
                         (fockspace, "enumerate_basis"), (cute, "enumerate_basis")]:
        monkeypatch.setattr(module, name, fail)
    path = write_cfg(tmp_path, task, n="3", extra="method = oracle")
    assert main([task, "--config", str(path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "config", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini")),
    ids=lambda path: path.name,
)
def test_shipped_config_parses(config):
    cfg = parse_config(config)  # raises ConfigError on a bad key, value or combination
    assert cfg.model.modes


def test_run_config_object_roundtrip(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "validate", n="2"))
    paths = run(cfg, tmp_path / "art")
    assert all(p.exists() for p in paths)


def test_benchmark_spectrum_has_two_polariton_bands(tmp_path):
    # reduced-grid variant of configs/fig5_spectrum.ini: the two dominant
    # bands must straddle the cavity frequency
    import configparser
    import pathlib

    src = pathlib.Path(__file__).resolve().parents[1] / "configs" / "fig5_spectrum.ini"
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(src)
    cp["grid"]["t_max"] = "8192"
    cp["grid"]["n_steps"] = "8192"
    path = tmp_path / "fig5_small.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    data = np.loadtxt([l for l in lines if not l.startswith("#")][1:], delimiter=",")
    om, A = data[:, 0], data[:, 1]
    idx = np.argsort(A)[-2:]
    lo, hi = np.sort(om[idx])
    assert lo < 0.1161 < hi
    # dim 124, n_t = 8193: the split amplitude steps w = ceil(sqrt(8193)) = 91 states a side
    keys = [l[2:].split(" = ", 1)[0] for l in lines if l.startswith("#")]
    i = keys.index("derived.method")
    assert lines[i : i + 2] == ["# derived.method = split", "# derived.block_steps = 91"]


def test_import_and_parse_leave_scipy_signal_unloaded():
    # importing scipy.signal costs about 0.6 s and 43 MB per process
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parents[1]
    code = (
        "import sys, polariton, polariton.cli\n"
        "polariton.cli.parse_config(sys.argv[1])\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(root / "configs" / "fig5_spectrum.ini")],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "False"
