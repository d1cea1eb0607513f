import configparser
import functools
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import hfspec
from hfspec.cli import (
    EXIT_CONFIG,
    EXIT_DATASET,
    EXIT_MODEL,
    main,
)
from hfspec import perturbation
from hfspec.config import (MEASURED_LINES, REFERENCE_CONFIG, bundled_path, load_config, parse_half_integer,
                           parse_transition_label)
from hfspec.datasets import format_half_integer
from hfspec.hamiltonian import cf_levels, hf_levels_exact
from hfspec.perturbation import delta_full
from hfspec.spectra import transition_lines

from conftest import EDITED_CONFIGS, edited_config

runner = CliRunner()

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: SHA-256 of each benchmark command's output, recorded at the seed commit
RECORDED = json.loads((PERFBENCH / "cli_expected.json").read_text())
#: nine more commands: arguments and SHA-256 of stdout, NUL, stderr, NUL and
#: the exit code (then NUL and the file for --output), recorded in fresh
#: interpreters before the model core was reduced to one path per job (the
#: two hf --compare runs of 8.1-8.3 and 8.2-8.3: before the singlet moment
#: was set to exactly 0; fit_refindex: after the refractive-index fit became
#: a profile search over the pole)
MORE_RECORDED = json.loads((Path(__file__).resolve().parent / "cli_recorded.json").read_text())


def invoke(*args):
    return runner.invoke(main, list(args), catch_exceptions=False)


MINIMAL_CONFIG = """\
[meta]
schema_version = 1

[system]
j = 8
i = 7/2

[cf]
b20 = -2.66e-1
b40 = 1.68e-3
b44 = 2.81e-2
b60 = 5.74e-6
b64 = 5.60e-4

[hyperfine]
a_j = 0.02703
b_quad = 0.04
"""


# --------------------------------------------------------------------- levels

def test_levels_reference_table():
    result = invoke("levels")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "level,energy_cm1,irrep,degeneracy,jz"
    assert len(lines) == 14
    first = lines[1].split(",")
    assert first[0] == "8.1"
    assert float(first[1]) == 0.0
    assert first[2] == "G34"
    assert abs(float(first[4]) - 5.40) < 0.1


def test_levels_json_matches_csv():
    csv_out = invoke("levels").output
    json_out = json.loads(invoke("levels", "--format", "json").output)
    csv_rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
    for row, entry in zip(csv_rows, json_out["levels"]):
        assert float(row[1]) == entry["energy_cm1"]
        assert row[2] == entry["irrep"]


def test_levels_zero_cf(tmp_path):
    config = tmp_path / "zero.ini"
    config.write_text("[meta]\nschema_version = 1\n")
    result = invoke("levels", "--config", str(config))
    assert result.exit_code == 0
    rows = result.output.strip().splitlines()[1:]
    energies = {float(r.split(",")[1]) for r in rows}
    assert energies == {0.0}
    assert sum(int(r.split(",")[3]) for r in rows) == 17


def test_levels_large_axial_field(tmp_path):
    """A large S4-symmetric crystal field is solved, not refused as S4-breaking."""
    config = tmp_path / "axial.ini"
    config.write_text(MINIMAL_CONFIG.replace("b20 = -2.66e-1", "b20 = 1e8"))
    result = invoke("levels", "--config", str(config))
    assert result.exit_code == 0, result.output
    assert "breaks S4" not in result.output


def test_levels_deterministic(tmp_path):
    a = invoke("levels", "--output", str(tmp_path / "a.csv"))
    b = invoke("levels", "--output", str(tmp_path / "b.csv"))
    assert a.exit_code == b.exit_code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ("hf", "--transition", "8.1-8.2", "--compare"),
        ("fit", "--mode", "cf_aj", "--dataset", str(bundled_path(MEASURED_LINES))),
        ("fit", "--mode", "b", "--dataset", str(bundled_path(MEASURED_LINES))),
        ("analyze",),
        ("synth",),
    ],
    ids=["hf", "fit_cf_aj", "fit_b", "analyze", "synth"],
)
def test_every_command_deterministic(tmp_path, args):
    """Two runs in one process write identical bytes: no state carried over
    in the cached operators leaks from one command into the next."""
    outputs = []
    for name in ("a.out", "b.out"):
        result = invoke(*args, "--output", str(tmp_path / name))
        assert result.exit_code == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0]


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[meta]\nschema_version = 1\n\n[cf]\nb99 = 1.0\n")
    result = invoke("levels", "--config", str(config))
    assert result.exit_code == EXIT_CONFIG
    assert "b99" in result.output


def test_g_j_is_an_unknown_key(tmp_path):
    """No computation reads a Lande factor, so the schema has no key for one."""
    config = tmp_path / "g_j.ini"
    config.write_text(MINIMAL_CONFIG.replace("i = 7/2\n", "i = 7/2\ng_j = 5/4\n"))
    result = invoke("levels", "--config", str(config))
    assert result.exit_code == EXIT_CONFIG
    assert "unknown key 'g_j' in section [system]" in result.stderr


@pytest.mark.parametrize("j", ["15/2", "7/2"])
def test_half_integer_j_exits_config(tmp_path, j):
    """The G1/G2/G34 labels are the M mod 4 sectors of an integer j, so a
    Kramers ion is refused with the reason, not as an unpaired doublet."""
    config = tmp_path / "kramers.ini"
    config.write_text(MINIMAL_CONFIG.replace("j = 8\n", f"j = {j}\n").replace("b_quad = 0.04", "b_quad = 0"))
    result = invoke("levels", "--config", str(config))
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "bad value for system.j" in result.stderr
    assert "non-Kramers ions only" in result.stderr


# ------------------------------------------------------------------------- hf

def test_hf_ground_ladder_spacing():
    result = invoke("hf", "--transition", "8.1-8.2")
    assert result.exit_code == 0
    rows = result.output.strip().splitlines()[1:]
    assert len(rows) == 8
    energies = [float(r.split(",")[1]) for r in rows]
    spacing = np.abs(np.diff(energies))
    assert np.mean(spacing) == pytest.approx(0.146, abs=0.003)


def test_hf_singlet_pair_merged_rows():
    result = invoke("hf", "--transition", "8.2-8.3")
    rows = result.output.strip().splitlines()[1:]
    assert len(rows) == 4
    assert all(r.startswith("±") for r in rows)


def test_hf_compare_close_to_exact():
    result = invoke("hf", "--transition", "8.1-8.3", "--compare")
    rows = result.output.strip().splitlines()[1:]
    deviations = [abs(float(r.split(",")[3])) for r in rows]
    assert max(deviations) < 2e-3


def test_hf_compare_takes_each_line_at_its_own_branches(tmp_path):
    """At six times the reference a_j the 8.6-8.12 lines of one m_z lie
    closer together than their perturbative error: each row's perturbative
    energy is E_12 - E_6 + delta(12, sigma_f, m) - delta(6, +1, m), with
    sigma_f the branch whose exact energy the row prints."""
    config = tmp_path / "strong.ini"
    config.write_text(bundled_path(REFERENCE_CONFIG).read_text().replace("a_j = 0.02703", "a_j = 0.16218"))
    result = invoke("hf", "--config", str(config), "--transition", "8.6-8.12", "--compare")
    assert result.exit_code == 0
    cfg = load_config(config)
    levels = cf_levels(cfg.cf, cfg.system)
    exact = {(h.n, h.sigma, h.m_z): h.energy for h in hf_levels_exact(cfg.cf, cfg.hyperfine, cfg.system)}
    rows = [row.split(",") for row in result.output.strip().splitlines()[1:]]
    for m_text, energy, perturbative, _ in rows:
        m = parse_half_integer(m_text)
        s_f = min((+1, -1), key=lambda s: abs(exact[(12, s, m)] - exact[(6, +1, m)] - float(energy)))
        assert exact[(12, s_f, m)] - exact[(6, +1, m)] == pytest.approx(float(energy), rel=0, abs=1e-4)
        d_i = delta_full(6, +1, m, levels, cfg.hyperfine, cfg.system)
        d_f = delta_full(12, s_f, m, levels, cfg.hyperfine, cfg.system)
        assert float(perturbative) == float(f"{levels[11].energy + d_f - levels[5].energy - d_i:.8g}")
    assert len({perturbative for _, _, perturbative, _ in rows}) == len(rows) == 16


def _scaled_reference(path, scale, a_j_factor=1.0):
    """The bundled configuration with every [cf] and [hyperfine] value times
    ``scale``, and a_j also times ``a_j_factor``."""
    parser = configparser.ConfigParser()
    parser.read(bundled_path(REFERENCE_CONFIG))
    for section in ("cf", "hyperfine"):
        for key, value in parser[section].items():
            parser[section][key] = repr(float(value) * scale * (a_j_factor if key == "a_j" else 1.0))
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)
    return str(path)


def test_hf_compare_scales_with_the_model(tmp_path):
    """At 1e-10 of every coupling the ground-doublet lines come out 1e-10 times
    the reference ones; no absolute energy tolerance calls them degenerate."""
    config = _scaled_reference(tmp_path / "small.ini", 1e-10)
    result = invoke("hf", "--config", config, "--transition", "8.1-8.2", "--compare")
    assert result.exit_code == 0
    assert result.output.splitlines()[1] == "-7/2,7.3361146e-10,7.3363361e-10,2.2153079e-14"


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-6, 1e-10])
def test_strong_coupling_refused_at_every_scale(tmp_path, scale):
    """Three times the reference a_j cannot be labelled, whatever the energy scale."""
    config = _scaled_reference(tmp_path / "strong.ini", scale, a_j_factor=3.0)
    result = invoke("hf", "--config", config, "--transition", "8.1-8.2", "--compare")
    assert result.exit_code == EXIT_MODEL
    assert "weight 0.447 < 0.5" in result.output


def test_hf_compare_at_zero_couplings_exits_model(tmp_path):
    """With every level at one energy the perturbative correction diverges."""
    config = _scaled_reference(tmp_path / "zero.ini", 0.0)
    result = invoke("hf", "--config", config, "--transition", "8.1-8.2", "--compare")
    assert result.exit_code == EXIT_MODEL
    assert "levels 1 and 2 are degenerate" in result.output


def _compare_oracle(config, transition, fmt):
    """``hf --compare`` output from one scalar delta_full call per line end:
    each line's perturbative energy is E_f + delta_f - E_i - delta_i, and a
    singlet-pair row averages its +-m_z members."""
    cfg = load_config(config)
    ni, nf = parse_transition_label(transition, cfg.system.j)
    levels = cf_levels(cfg.cf, cfg.system)
    lines = transition_lines(hf_levels_exact(cfg.cf, cfg.hyperfine, cfg.system), ni, nf)

    def perturbative(line):
        si, sf = line.branches
        d_i = delta_full(ni, si, line.m_z, levels, cfg.hyperfine, cfg.system)
        d_f = delta_full(nf, sf, line.m_z, levels, cfg.hyperfine, cfg.system)
        return levels[nf - 1].energy + d_f - levels[ni - 1].energy - d_i

    if levels[ni - 1].degeneracy == levels[nf - 1].degeneracy == 1:
        groups = [(f"±{format_half_integer(m)}", [ln for ln in lines if abs(ln.m_z) == m])
                  for m in sorted({abs(ln.m_z) for ln in lines})]
    else:
        groups = [(format_half_integer(ln.m_z), [ln]) for ln in sorted(lines, key=lambda ln: ln.m_z)]
    rows = []
    for m_text, members in groups:
        energy = float(np.mean([ln.energy for ln in members]))
        pert = float(np.mean([perturbative(ln) for ln in members]))
        rows.append((m_text, f"{energy:.8g}", f"{pert:.8g}", f"{pert - energy:.8g}"))
    if fmt == "csv":
        header = ("m_z", "energy_cm1", "perturbative_cm1", "deviation_cm1")
        return "".join(",".join(row) + "\n" for row in [header, *rows])
    entries = [{"m_z": m, "energy_cm1": float(e), "perturbative_cm1": float(p), "deviation_cm1": float(d)}
               for m, e, p, d in rows]
    return json.dumps({"transition": transition, "lines": entries}, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("transition", ["8.1-8.2", "8.2-8.3", "8.6-8.12"])
@pytest.mark.parametrize("name", sorted(EDITED_CONFIGS))
def test_hf_compare_equals_the_per_line_oracle(tmp_path, name, transition, fmt):
    """Reading each line's delta off its branch's ladder prints the bytes of
    one scalar delta_full evaluation per line end."""
    config = edited_config(tmp_path / f"{name}.ini", name)
    result = invoke("hf", "--config", config, "--transition", transition, "--compare", "--format", fmt)
    assert result.exit_code == 0, result.output
    assert result.output == _compare_oracle(config, transition, fmt)


@pytest.mark.parametrize("transition, branches", [("8.1-8.2", 2), ("8.2-8.3", 2), ("8.6-8.12", 3)])
def test_hf_compare_evaluates_each_branch_once(monkeypatch, transition, branches):
    """One delta_full call over the whole nuclear ladder per (n, sigma)
    branch that the transition's lines use."""
    calls = []
    real = perturbation.delta_full

    def spy(n, sigma, m_z, *rest):
        calls.append((n, sigma, np.array(m_z, dtype=float).tolist()))
        return real(n, sigma, m_z, *rest)

    monkeypatch.setattr(perturbation, "delta_full", spy)
    assert invoke("hf", "--transition", transition, "--compare").exit_code == 0
    cfg = load_config(bundled_path(REFERENCE_CONFIG))
    ni, nf = parse_transition_label(transition, cfg.system.j)
    lines = transition_lines(hf_levels_exact(cfg.cf, cfg.hyperfine, cfg.system), ni, nf)
    used = {(ni, ln.branches[0]) for ln in lines} | {(nf, ln.branches[1]) for ln in lines}
    assert sorted((n, sigma) for n, sigma, _ in calls) == sorted(used)
    assert len(calls) == branches
    assert all(m == cfg.system.m_i.tolist() for _, _, m in calls)


def test_hf_json_matches_csv():
    csv_rows = invoke("hf", "--transition", "8.1-8.2").output.strip().splitlines()[1:]
    as_json = json.loads(
        invoke("hf", "--transition", "8.1-8.2", "--format", "json").output
    )
    assert as_json["transition"] == "8.1-8.2"
    for row, entry in zip(csv_rows, as_json["lines"]):
        assert float(row.split(",")[1]) == entry["energy_cm1"]


def test_hf_unknown_transition():
    result = invoke("hf", "--transition", "8.1-8.77")
    assert result.exit_code == EXIT_CONFIG
    assert "unknown transition" in result.output


# ------------------------------------------------------------------------ fit

def test_fit_b_on_bundled_dataset(tmp_path):
    out = tmp_path / "fit.json"
    result = invoke(
        "fit", "--mode", "b",
        "--dataset", str(bundled_path(MEASURED_LINES)),
        "--output", str(out),
    )
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    b = report["parameters"]["b_quad"]["value"]
    assert 0.02 < b < 0.06
    assert report["dof"] == 23
    assert len(report["residuals"]) == 24


def test_fit_malformed_dataset(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "transition,m_z,energy_cm1,sigma_cm1\n"
        "8.1-8.2,-7/2,7.33,0.01\n"
        "8.1-8.2,-5/2,oops,0.01\n"
    )
    result = invoke("fit", "--mode", "b", "--dataset", str(bad))
    assert result.exit_code == EXIT_DATASET
    assert ":3" in result.output  # row number in the diagnostic


def test_fit_too_few_rows_exits_dataset(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text(
        "transition,m_z,energy_cm1,sigma_cm1\n"
        "8.1-8.2,-7/2,7.33,0.01\n"
        "8.1-8.3,-7/2,23.4,0.01\n"
    )
    result = invoke("fit", "--mode", "cf_aj", "--dataset", str(short))
    assert result.exit_code == EXIT_DATASET
    assert "2 rows cannot constrain 7 parameters" in result.output

    header_only = tmp_path / "header.csv"
    header_only.write_text("transition,m_z,energy_cm1,sigma_cm1\n")
    result = invoke("fit", "--mode", "b", "--dataset", str(header_only))
    assert result.exit_code == EXIT_DATASET
    assert "0 rows cannot constrain 1 parameter" in result.output

    header_only = tmp_path / "n.csv"
    header_only.write_text("nu_cm1,n\n")
    result = invoke("fit", "--mode", "refindex", "--dataset", str(header_only))
    assert result.exit_code == EXIT_DATASET
    assert f"{header_only}: no data rows" in result.output

    three = tmp_path / "three.csv"
    three.write_text("nu_cm1,n\n50,2.40\n60,2.45\n70,2.50\n")
    result = invoke("fit", "--mode", "refindex", "--dataset", str(three))
    assert result.exit_code == EXIT_DATASET
    assert "3 points cannot constrain 3 parameters" in result.output


@pytest.mark.parametrize("mode", ["cf_aj", "b"])
@pytest.mark.parametrize("row", ["jz:8.0,,5.4,0.02", "jz:8.18,,5.4,0.02", "8.1-8.18,1/2,7.3,0.01"])
def test_fit_out_of_range_level_exits_dataset(tmp_path, mode, row):
    lines = bundled_path(MEASURED_LINES).read_text().splitlines()
    path = tmp_path / "lines.csv"
    path.write_text("\n".join(lines + [row]) + "\n")
    result = invoke("fit", "--mode", mode, "--dataset", str(path))
    assert result.exit_code == EXIT_DATASET
    assert "level" in result.output


@pytest.mark.parametrize("mode", ["cf_aj", "b"])
@pytest.mark.parametrize("row", ["8.1-8.2,9/2,7.3,0.01", "8.1-8.2,-9/2,7.3,0.01", "8.1-8.2,1/3,7.3,0.01"])
def test_fit_bad_m_z_exits_dataset(tmp_path, mode, row):
    lines = bundled_path(MEASURED_LINES).read_text().splitlines()
    path = tmp_path / "lines.csv"
    path.write_text("\n".join(lines + [row]) + "\n")
    result = invoke("fit", "--mode", mode, "--dataset", str(path))
    assert result.exit_code == EXIT_DATASET
    assert "m_z" in result.output


def test_fit_cf_aj_mode(tmp_path, cf_params, system):
    from hfspec.datasets import write_dataset

    from conftest import synthetic_cf_dataset

    dataset = synthetic_cf_dataset(cf_params, 0.02703, system)
    path = tmp_path / "synthetic.csv"
    write_dataset(path, dataset)
    out = tmp_path / "cf.json"
    result = invoke("fit", "--mode", "cf_aj", "--dataset", str(path), "--output", str(out))
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["parameters"]["a_j"]["value"] == pytest.approx(0.02703, rel=1e-4)
    assert report["parameters"]["b20"]["value"] == pytest.approx(-0.266, rel=1e-4)
    assert "b6m4" in report["unidentifiable"]


def test_fit_refindex_roundtrip(tmp_path):
    nu = np.linspace(10.0, 70.0, 30)
    n = -11.1 / (nu - 110.0) + 2.62
    data = tmp_path / "n.csv"
    data.write_text(
        "nu_cm1,n\n" + "\n".join(f"{x:.10g},{y:.10g}" for x, y in zip(nu, n)) + "\n"
    )
    result = invoke("fit", "--mode", "refindex", "--dataset", str(data))
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["parameters"]["a"]["value"] == pytest.approx(-11.1, rel=1e-6)
    assert report["parameters"]["nu0"]["value"] == pytest.approx(110.0, rel=1e-6)
    assert report["parameters"]["c"]["value"] == pytest.approx(2.62, rel=1e-6)


def test_fit_report_is_strict_json(tmp_path):
    """Two moment rows leave b_quad unconstrained, so its covariance is
    infinite; the report writes null there, not the non-JSON Infinity."""
    path = tmp_path / "moments.csv"
    path.write_text("transition,m_z,energy_cm1,sigma_cm1\njz:8.1,,5.4,0.02\njz:8.6,,-3.6,0.02\n")
    result = invoke("fit", "--mode", "b", "--dataset", str(path))
    assert result.exit_code == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads(result.output, parse_constant=refuse)
    assert report["covariance"] == [[None]]
    assert report["parameters"]["b_quad"]["error"] is None


def _family_rows(families, energy, sigma):
    m_values = ["-7/2", "-5/2", "-3/2", "-1/2", "1/2", "3/2", "5/2", "7/2"]
    return "".join(f"{family},{m},{energy},{sigma}\n" for family in families for m in m_values)


THREE_FAMILIES = ("8.1-8.2", "8.1-8.3", "8.2-8.3")


@pytest.mark.parametrize(
    "mode,families,energy,sigma",
    [
        ("b", ("8.1-8.2",), "1e308", "0.01"),
        ("b", ("8.1-8.2",), "7", "1e-320"),
        ("cf_aj", ("8.1-8.2",), "1e308", "0.01"),
        ("cf_aj", ("8.1-8.2",), "7", "1e-320"),
        ("cf_aj", THREE_FAMILIES, "1e100", "1e-100"),
    ],
    ids=["b-energy", "b-sigma", "cf_aj-energy", "cf_aj-sigma", "cf_aj-ratio"],
)
def test_fit_refuses_numbers_it_cannot_hold(tmp_path, mode, families, energy, sigma):
    """A cell above MAX_COUPLING, or a sigma below max(1, |value|) /
    MAX_COUPLING, is refused with its line (exit 4), not left to overflow in
    the fit (exit 1, or Infinity in the report)."""
    path = tmp_path / "lines.csv"
    path.write_text("transition,m_z,energy_cm1,sigma_cm1\n" + _family_rows(families, energy, sigma))
    result = invoke("fit", "--mode", mode, "--dataset", str(path))
    assert result.exit_code == EXIT_DATASET
    assert f"{path}:2: " in result.output


@pytest.mark.parametrize(
    "text, line",
    [
        ("nu_cm1,n\n10,2.7\n20,2.8\n30,2.9\n40,1e200\n", 5),
        ("nu_cm1,n\n10,2.7\n20,2.8\n30,2.9\n1e308,3.0\n", 5),
        ("nu_cm1,n\n10,2.7\n20,2.8\n30,2.9\n-1e308,3.0\n", 5),
        ("nu_cm1,n,sigma_n\n10,2.7,0.01\n20,2.8,0.01\n30,2.9,0.01\n40,3.0,1e-320\n", 5),
        # sigma_n is floored relative to n, not to itself
        ("nu_cm1,n,sigma_n\n10,1e50,1e-60\n20,2.8,0.01\n30,2.9,0.01\n40,3.0,0.01\n", 2),
    ],
    ids=["n", "nu", "minus-nu", "sigma_n", "sigma_n-of-large-n"],
)
def test_fit_refindex_refuses_numbers_it_cannot_hold(tmp_path, text, line):
    path = tmp_path / "n.csv"
    path.write_text(text)
    result = invoke("fit", "--mode", "refindex", "--dataset", str(path))
    assert result.exit_code == EXIT_DATASET
    assert f"{path}:{line}: " in result.output


def test_fit_refindex_refuses_a_span_too_narrow_for_a_pole(tmp_path):
    """Frequencies one ulp apart leave no room for a pole beside the data."""
    path = tmp_path / "n.csv"
    path.write_text("nu_cm1,n\n10,2.7\n10.000000000000002,2.8\n10.000000000000004,2.9\n10.000000000000005,3.0\n")
    result = invoke("fit", "--mode", "refindex", "--dataset", str(path))
    assert result.exit_code == EXIT_DATASET
    assert "span" in result.output


# -------------------------------------------------------------------- analyze

def test_analyze_bundled_lambdas():
    result = invoke("analyze", "--format", "json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    lam1 = report["lambda"]["lambda1"]["value_cm1"]
    assert 1.6e-3 <= lam1 <= 2.4e-3
    assert abs(report["slopes"]["D3"]["s_reported"]) == pytest.approx(6e-4, abs=3e-4)
    assert report["lambda"]["lambda2"]["value_cm1"] < 0
    assert report["lambda"]["lambda3"]["value_cm1"] > 0


def test_analyze_incomplete_families(tmp_path):
    partial = tmp_path / "partial.csv"
    lines = bundled_path(MEASURED_LINES).read_text().splitlines()
    kept = [l for l in lines if not l.startswith("8.2-8.3")]
    partial.write_text("\n".join(kept) + "\n")
    result = invoke("analyze", "--dataset", str(partial))
    assert result.exit_code == EXIT_DATASET
    assert "8.2-8.3" in result.output


def test_analyze_refuses_sigma_below_the_floor(tmp_path):
    """Every sigma at 1e-320 made every slope, s and lambda nan (exit 0)."""
    path = tmp_path / "lines.csv"
    path.write_text("transition,m_z,energy_cm1,sigma_cm1\n" + _family_rows(THREE_FAMILIES, "7", "1e-320"))
    result = invoke("analyze", "--dataset", str(path))
    assert result.exit_code == EXIT_DATASET
    assert f"{path}:2: uncertainty " in result.output
    assert "is below max(1, |value|) / MAX_COUPLING = 7e-100" in result.output


# ---------------------------------------------------------------------- synth

def test_synth_reference_band(tmp_path):
    out = tmp_path / "band.csv"
    result = invoke("synth", "--output", str(out))
    assert result.exit_code == 0
    rows = out.read_text().strip().splitlines()[1:]
    grid = np.array([float(r.split(",")[0]) for r in rows])
    absorbance = np.array([float(r.split(",")[1]) for r in rows])
    interior = np.arange(1, len(grid) - 1)
    peaks = interior[
        (absorbance[interior] > absorbance[interior - 1])
        & (absorbance[interior] > absorbance[interior + 1])
    ]
    assert len(peaks) >= 8  # the eight-line ladder survives blending


def test_synth_resolves_satellites(tmp_path):
    config = tmp_path / "sharp.ini"
    config.write_text(
        MINIMAL_CONFIG
        + "\n[conditions]\ntemperature_k = 3.5\n"
        + "\n[lineshape]\nshape = gaussian\nfwhm_cm1 = 0.004\namplitude = 1.0\n"
        + "\n[isotope]\nenabled = true\nsplitting_cm1 = 0.0098\nsatellite_ratio = 0.33\n"
        + "\n[grid]\nstart_cm1 = 22.5\nstop_cm1 = 24.1\nstep_cm1 = 0.0002\n"
        + "\n[transitions]\ninclude = 8.1-8.3\n"
    )
    out = tmp_path / "sharp.csv"
    result = invoke("synth", "--config", str(config), "--output", str(out))
    assert result.exit_code == 0
    rows = out.read_text().strip().splitlines()[1:]
    absorbance = np.array([float(r.split(",")[1]) for r in rows])
    interior = np.arange(1, len(absorbance) - 1)
    peaks = interior[
        (absorbance[interior] > absorbance[interior - 1])
        & (absorbance[interior] > absorbance[interior + 1])
    ]
    assert len(peaks) == 16  # 8 main lines + 8 resolved satellites


@pytest.mark.parametrize("fwhm", ["1e-4", "1e-170"])
def test_synth_line_narrower_than_grid_step_exits_config(tmp_path, fwhm):
    """A line narrower than the grid step can fall between grid points (a
    peak of 0.13 at FWHM 1e-4 on the 5e-4 grid, all zeros at 1e-170), so the
    config is refused, naming the key, and nothing is written."""
    config = tmp_path / "narrow.ini"
    config.write_text(bundled_path(REFERENCE_CONFIG).read_text().replace("fwhm_cm1 = 0.009", f"fwhm_cm1 = {fwhm}"))
    out = tmp_path / "narrow.csv"
    result = invoke("synth", "--config", str(config), "--output", str(out))
    assert result.exit_code == EXIT_CONFIG
    assert "bad value for lineshape.fwhm_cm1: must be at least grid.step_cm1 = 0.0005" in result.output
    assert not out.exists()


@pytest.mark.parametrize("edits, key", [
    ((("fwhm_cm1 = 0.009", "fwhm_cm1 = 1e300"),), "lineshape.fwhm_cm1"),
    ((("fwhm_cm1 = 0.009", "fwhm_cm1 = 1e200"), ("shape = gaussian", "shape = lorentzian")), "lineshape.fwhm_cm1"),
    ((("amplitude = 1.0", "amplitude = 1e308"), ("satellite_ratio = 0.33", "satellite_ratio = 1e10")),
     "lineshape.amplitude"),
], ids=["gaussian-fwhm-1e300", "lorentzian-fwhm-1e200", "amplitude-1e308"])
def test_synth_value_above_max_coupling_exits_config(tmp_path, edits, key):
    """A line width whose square overflows a float, or a satellite height
    that does, is refused as a config value above MAX_COUPLING, naming the
    key (both exited 1 before, at the profile or the satellite line)."""
    text = bundled_path(REFERENCE_CONFIG).read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    config = tmp_path / "huge.ini"
    config.write_text(text)
    out = tmp_path / "huge.csv"
    result = invoke("synth", "--config", str(config), "--output", str(out))
    assert result.exit_code == EXIT_CONFIG
    assert f"bad value for {key}: must be at most MAX_COUPLING = 1e+100 in magnitude" in result.output
    assert not out.exists()


@pytest.mark.parametrize("grid, message", [
    ("", "config has no [grid] section; synthesis needs one"),
    ("\n[grid]\nstart_cm1 = 1.0\n", "section [grid] needs start_cm1, stop_cm1, step_cm1"),
], ids=["no-grid", "start-only"])
def test_synth_without_a_whole_grid_exits_config(tmp_path, grid, message):
    config = tmp_path / "grid.ini"
    config.write_text(MINIMAL_CONFIG + grid)
    out = tmp_path / "out.csv"
    result = invoke("synth", "--config", str(config), "--output", str(out))
    assert result.exit_code == EXIT_CONFIG
    assert message in result.output
    assert not out.exists()


def test_synth_no_transitions_zero_spectrum(tmp_path):
    config = tmp_path / "empty.ini"
    config.write_text(
        "[meta]\nschema_version = 1\n\n[grid]\n"
        "start_cm1 = 1.0\nstop_cm1 = 2.0\nstep_cm1 = 0.005\n"
    )
    out = tmp_path / "zero.csv"
    result = invoke("synth", "--config", str(config), "--output", str(out))
    assert result.exit_code == 0
    values = [float(r.split(",")[1]) for r in out.read_text().strip().splitlines()[1:]]
    assert all(v == 0.0 for v in values)


def test_synth_roundtrip_through_peak_fit(tmp_path):
    # synthesized well-separated peaks, re-read and fitted: centers recovered
    # to well under 1e-4
    from hfspec.analysis import fit_peaks
    from hfspec.spectra import Spectrum

    config = tmp_path / "two.ini"
    config.write_text(
        "[meta]\nschema_version = 1\n\n[system]\nj = 8\ni = 7/2\n\n[cf]\n"
        "b20 = -2.66e-1\nb40 = 1.68e-3\nb44 = 2.81e-2\nb60 = 5.74e-6\nb64 = 5.60e-4\n\n"
        "[hyperfine]\na_j = 0.0\nb_quad = 0.0\n\n"
        "[lineshape]\nshape = gaussian\nfwhm_cm1 = 0.05\namplitude = 1.0\n\n"
        "[isotope]\nenabled = false\n\n"
        "[grid]\nstart_cm1 = 5.0\nstop_cm1 = 25.0\nstep_cm1 = 0.002\n\n"
        "[transitions]\ninclude = 8.1-8.2, 8.1-8.3\n"
    )
    out = tmp_path / "two.csv"
    result = invoke("synth", "--config", str(config), "--output", str(out))
    assert result.exit_code == 0
    header, *rows = out.read_text().splitlines()
    assert header == "wavenumber_cm1,absorbance"
    grid, absorbance = np.array([[float(cell) for cell in row.split(",")] for row in rows]).T
    peaks, _ = fit_peaks(Spectrum(grid, absorbance), 2, "gaussian")
    centers = sorted(p.center for p in peaks)
    assert centers[0] == pytest.approx(6.8302, abs=1e-4)
    assert centers[1] == pytest.approx(23.3411, abs=1e-4)


def test_bundled_reference_config_parses():
    from hfspec.config import load_config

    cfg = load_config(bundled_path(REFERENCE_CONFIG))
    assert cfg.system.j == 8.0
    assert cfg.system.i == 3.5
    assert cfg.hyperfine.a_j == 0.02703
    assert cfg.isotope.enabled


# ------------------------------------------------------- recorded benchmark output

@functools.cache
def _benchmark_commands() -> dict:
    """Arguments of each command the benchmark's cli workload runs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.Cli().commands


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_output_matches_benchmark_recording(tmp_path, name):
    """Every benchmark command prints, in process, the bytes recorded in
    perfbench/cli_expected.json; synth is compared by the file it writes."""
    args = list(_benchmark_commands()[name])
    if name == "synth":
        args[args.index("--output") + 1] = str(tmp_path / "synth.csv")
    result = invoke(*args)
    assert result.exit_code == 0, result.output
    data = (tmp_path / "synth.csv").read_bytes() if name == "synth" else result.stdout_bytes
    assert hashlib.sha256(data).hexdigest() == RECORDED[name]



def _write_refindex_points(path: Path) -> None:
    """31 points of n = -11.1/(nu - 110) + 2.62 at nu = 10, 12, ..., 70 cm^-1."""
    nu = np.linspace(10.0, 70.0, 31)
    path.write_text("nu_cm1,n\n" + "".join(f"{x:.8g},{-11.1 / (x - 110.0) + 2.62:.10g}\n" for x in nu))


@pytest.mark.parametrize("name", sorted(MORE_RECORDED))
def test_output_matches_recording(tmp_path, name):
    """stdout, stderr and exit code of each command, run in process, hash to
    the recording in tests/cli_recorded.json."""
    paths = {"{refindex}": tmp_path / "refindex.csv", "{output}": tmp_path / "out.csv"}
    _write_refindex_points(paths["{refindex}"])
    result = runner.invoke(main, [str(paths.get(a, a)) for a in MORE_RECORDED[name]["args"]])
    blob = result.stdout_bytes + b"\0" + result.stderr_bytes + b"\0" + str(result.exit_code).encode()
    if paths["{output}"].exists():
        blob += b"\0" + paths["{output}"].read_bytes()
    assert hashlib.sha256(blob).hexdigest() == MORE_RECORDED[name]["sha256"]


@pytest.mark.parametrize(
    "config, args",
    [
        (None, ("hf", "--transition", "8.6-8.12", "--compare")),
        (None, ("hf", "--transition", "8.2-8.3", "--compare", "--format", "json")),
        (None, ("fit", "--mode", "refindex", "--dataset", "{refindex}")),
        ("complex", ("fit", "--mode", "b", "--dataset", str(bundled_path(MEASURED_LINES)))),
        ("complex", ("synth", "--output", "{output}")),
        ("uncoupled", ("synth", "--output", "{output}")),
    ],
    ids=["hf_8.6-8.12_compare", "hf_8.2-8.3_compare_json", "fit_refindex_5_points", "complex-fit_b",
         "complex-synth", "uncoupled-synth"],
)
def test_command_exits_0_with_nothing_on_stderr(tmp_path, config, args):
    """Commands that no pin or oracle runs. Every warning is an error in this
    suite (pyproject.toml), so a warning would end the command with exit 1."""
    refindex = tmp_path / "refindex.csv"
    refindex.write_text("nu_cm1,n\n10,2.731\n25,2.75059\n40,2.77857\n55,2.82182\n70,2.8975\n")
    paths = {"{refindex}": str(refindex), "{output}": str(tmp_path / "out.csv")}
    config_args = ["--config", edited_config(tmp_path / "ci.ini", config)] if config else []
    result = invoke(*[paths.get(a, a) for a in args], *config_args)
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    assert result.stdout or (tmp_path / "out.csv").read_text()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity on this platform")
@pytest.mark.parametrize("config", [None, "complex"], ids=["bundled", "complex"])
def test_fit_b_prints_the_same_bytes_on_one_cpu(tmp_path, config):
    """fit_b evaluates on two threads; its report, from a fresh interpreter
    with every warning an error, depends neither on the CPUs it may use nor
    on the scheduling."""
    args = ["fit", "--mode", "b", "--dataset", str(bundled_path(MEASURED_LINES))]
    if config:
        args += ["--config", edited_config(tmp_path / "ci.ini", config)]
    src = str(Path(hfspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    one_cpu = {min(os.sched_getaffinity(0))}

    def run(pin):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "hfspec.cli", *args], env=env,
                              capture_output=True, check=False,
                              preexec_fn=(lambda: os.sched_setaffinity(0, one_cpu)) if pin else None)
        assert (proc.returncode, proc.stderr) == (0, b"")
        return proc.stdout

    assert run(pin=False) == run(pin=True)


# ------------------------------------------------------- boundary rules

@pytest.mark.parametrize(
    "args",
    [
        ("hf", "--transition", "5.1-9.2"),
        ("hf", "--transition", "8.1-8.2.7"),
        ("synth", "--transition", "3.1-3.3", "--output"),
    ],
    ids=["hf-5.1-9.2", "hf-8.1-8.2.7", "synth-3.1-3.3"],
)
def test_transition_in_another_manifold_exits_config(tmp_path, args):
    out = tmp_path / "synth.csv"
    result = invoke(*args, *([str(out)] if args[0] == "synth" else []))
    assert result.exit_code == EXIT_CONFIG
    assert "manifold" in result.output
    assert not out.exists()


def test_self_transition_refused(tmp_path):
    """A level's transition to itself has no line: refused where a transition
    label is read, in --transition and [transitions] include (exit 3) and in
    a dataset row (exit 4)."""
    config = tmp_path / "self.ini"
    config.write_text(bundled_path(REFERENCE_CONFIG).read_text().replace("include = 8.1-8.3", "include = 8.2-8.2"))
    dataset = tmp_path / "lines.csv"
    dataset.write_text(bundled_path(MEASURED_LINES).read_text() + "8.3-8.3,1/2,0.0,0.01\n")
    runs = [
        (("hf", "--transition", "8.6-8.6", "--compare"), EXIT_CONFIG, "'8.6-8.6' joins level 6 to itself"),
        (("synth", "--config", str(config), "--output", str(tmp_path / "synth.csv")), EXIT_CONFIG,
         "transitions.include: transition '8.2-8.2' joins level 2 to itself"),
        (("fit", "--mode", "b", "--dataset", str(dataset)), EXIT_DATASET, "'8.3-8.3' joins level 3 to itself"),
    ]
    for args, code, message in runs:
        result = invoke(*args)
        assert result.exit_code == code
        assert message in result.output
    assert not (tmp_path / "synth.csv").exists()


@pytest.mark.parametrize("row", ["jz:3.1,,5.4,0.02", "7.1-7.2,1/2,7.3,0.01"])
def test_fit_row_in_another_manifold_exits_dataset(tmp_path, row):
    lines = bundled_path(MEASURED_LINES).read_text().splitlines()
    path = tmp_path / "lines.csv"
    path.write_text("\n".join(lines + [row]) + "\n")
    result = invoke("fit", "--mode", "b", "--dataset", str(path))
    assert result.exit_code == EXIT_DATASET
    assert f":{len(lines) + 1}:" in result.output
    assert "manifold" in result.output


@pytest.mark.parametrize("row", ["8.1-8.2,1/2,nan,0.01", "8.1-8.2,1/2,inf,0.01", "8.1-8.2,1/2,7.3,inf"])
@pytest.mark.parametrize("mode", ["cf_aj", "b"])
def test_fit_non_finite_value_exits_dataset(tmp_path, mode, row):
    lines = bundled_path(MEASURED_LINES).read_text().splitlines()
    path = tmp_path / "lines.csv"
    path.write_text("\n".join(lines + [row]) + "\n")
    result = invoke("fit", "--mode", mode, "--dataset", str(path))
    assert result.exit_code == EXIT_DATASET
    assert f":{len(lines) + 1}: bad numeric field" in result.output


def test_fit_refindex_non_finite_exits_dataset(tmp_path):
    data = tmp_path / "n.csv"
    data.write_text("nu_cm1,n\n10,2.5\n20,2.51\n30,nan\n40,2.53\n50,2.55\n")
    result = invoke("fit", "--mode", "refindex", "--dataset", str(data))
    assert result.exit_code == EXIT_DATASET
    assert ":4: bad numeric field" in result.output


def test_fit_refindex_blank_n_exits_dataset(tmp_path):
    """Blank n cells are refused with their line, not dropped so that
    sigma_n is fitted as n."""
    data = tmp_path / "n.csv"
    data.write_text("nu_cm1,n,sigma_n\n" + "".join(f"{nu},,0.01\n" for nu in (10, 20, 30, 40, 50)))
    result = invoke("fit", "--mode", "refindex", "--dataset", str(data))
    assert result.exit_code == EXIT_DATASET
    assert f"{data}:2: bad numeric field" in result.output


def test_fit_refindex_two_frequencies_exits_dataset(tmp_path):
    data = tmp_path / "n.csv"
    data.write_text("nu_cm1,n\n50,2.40\n50,2.41\n60,2.45\n60,2.46\n")
    result = invoke("fit", "--mode", "refindex", "--dataset", str(data))
    assert result.exit_code == EXIT_DATASET
    assert "2 distinct frequencies cannot place a pole (need 3)" in result.output


@pytest.mark.parametrize("flag", ["--initial-a", "--initial-nu0", "--initial-c"])
def test_fit_refindex_takes_no_start(tmp_path, flag):
    """The refractive-index fit searches the pole without a start, so the
    start options are gone: each is an unknown option (exit 2)."""
    data = tmp_path / "refindex.csv"
    _write_refindex_points(data)
    result = invoke("fit", "--mode", "refindex", "--dataset", str(data), flag, "5")
    assert result.exit_code == 2
    assert "no such option" in result.output.lower() and flag in result.output


@pytest.mark.parametrize("args", [("levels", "--bogus"), ("hf",), ("levels", "--format", "xml"), ("nosuch",)])
def test_usage_errors_exit_2(args):
    result = invoke(*args)
    assert result.exit_code == 2
    assert "Usage:" in result.output


def test_synth_unknown_transition_exits_config(tmp_path):
    result = invoke("synth", "--transition", "8.1-8.99", "--output", str(tmp_path / "x.csv"))
    assert result.exit_code == EXIT_CONFIG
    assert "unknown transition 8.1-8.99: have levels 1..13" in result.output
    config = tmp_path / "far.ini"
    config.write_text(
        MINIMAL_CONFIG
        + "\n[grid]\nstart_cm1 = 1.0\nstop_cm1 = 2.0\nstep_cm1 = 0.005\n"
        + "\n[transitions]\ninclude = 8.1-8.20\n"
    )
    result = invoke("synth", "--config", str(config), "--output", str(tmp_path / "y.csv"))
    assert result.exit_code == EXIT_CONFIG
    assert "unknown transition 8.1-8.20" in result.output


@pytest.mark.parametrize("sigma", ["0", "-0.01"])
def test_fit_refindex_nonpositive_sigma_exits_dataset(tmp_path, sigma):
    data = tmp_path / "n.csv"
    data.write_text(f"nu_cm1,n,sigma_n\n10,2.5,0.01\n20,2.51,{sigma}\n30,2.52,0.01\n40,2.53,0.01\n50,2.55,0.01\n")
    result = invoke("fit", "--mode", "refindex", "--dataset", str(data))
    assert result.exit_code == EXIT_DATASET
    assert ":3: sigma_n must be positive" in result.output


@pytest.mark.parametrize(
    "command,good,bad,code",
    [
        ("hf", "8.1-8.2", "8.1-8.99", EXIT_CONFIG),
        ("synth", "8.1-8.2", "8.1-8.99", EXIT_CONFIG),
        ("fit", "8.1-8.2,1/2,7.3,0.01", "8.1-8.18,1/2,7.3,0.01", EXIT_DATASET),
    ],
    ids=["hf", "synth", "fit-b"],
)
def test_unknown_level_is_refused_before_labelling(tmp_path, command, good, bad, code):
    """A model too strongly coupled to label (exit 7) still reports a
    transition or dataset row naming an unknown level as such first."""
    config = tmp_path / "strong.ini"
    config.write_text(
        MINIMAL_CONFIG.replace("a_j = 0.02703", "a_j = 1.0")
        + "\n[grid]\nstart_cm1 = 1.0\nstop_cm1 = 2.0\nstep_cm1 = 0.005\n"
    )

    def run(level):
        if command == "fit":
            path = tmp_path / "lines.csv"
            path.write_text(bundled_path(MEASURED_LINES).read_text() + level + "\n")
            return invoke("fit", "--mode", "b", "--config", str(config), "--dataset", str(path))
        output = ["--output", str(tmp_path / "x.csv")] if command == "synth" else []
        return invoke(command, "--config", str(config), "--transition", level, *output)

    result = run(good)
    assert result.exit_code == EXIT_MODEL, result.output
    result = run(bad)
    assert result.exit_code == code, result.output
    assert "8.99" in result.output or "level index out of range" in result.output


@pytest.mark.parametrize("command", ["levels", "hf", "synth"])
@pytest.mark.parametrize("i", ["1/2", "0"])
def test_quadrupole_with_small_nuclear_spin_exits_config(tmp_path, command, i):
    config = tmp_path / "small_i.ini"
    config.write_text(MINIMAL_CONFIG.replace("i = 7/2", f"i = {i}"))
    args = {"levels": [], "hf": ["--transition", "8.1-8.2"], "synth": ["--transition", "8.1-8.2", "--output", str(tmp_path / "x.csv")]}
    result = invoke(command, "--config", str(config), *args[command])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "quadrupolar coupling requires i >= 1 and j >= 1" in result.output


@pytest.mark.parametrize("i", ["1/2", "0"])
def test_fit_b_with_small_nuclear_spin_exits_config(tmp_path, i):
    """fit --mode b fits the quadrupolar constant, so it needs i >= 1 even
    when the configured b_quad is 0."""
    config = tmp_path / "small_i.ini"
    config.write_text(MINIMAL_CONFIG.replace("i = 7/2", f"i = {i}").replace("b_quad = 0.04", "b_quad = 0"))
    result = invoke("fit", "--mode", "b", "--config", str(config), "--dataset", str(bundled_path(MEASURED_LINES)))
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "quadrupolar coupling requires i >= 1 and j >= 1" in result.output


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda rows: rows[:3] + rows[4:], "complete unit-spaced ladder"),
        (lambda rows: rows[1:], "mismatched m_z grids"),
        (lambda rows: rows[:1] + rows, "duplicate m_z"),
        (lambda rows: rows[:3], "need at least 3 points"),
    ],
    ids=["missing-middle", "missing-first", "duplicated", "three-rows"],
)
def test_analyze_broken_ladder_exits_dataset(tmp_path, edit, message):
    """Each edit applies to the 8.1-8.2 family only; the message names the family."""
    lines = bundled_path(MEASURED_LINES).read_text().splitlines()
    family = [line for line in lines if line.startswith("8.1-8.2,")]
    others = [line for line in lines if not line.startswith("8.1-8.2,")]
    path = tmp_path / "lines.csv"
    path.write_text("\n".join(others + edit(family)) + "\n")
    result = invoke("analyze", "--dataset", str(path))
    assert result.exit_code == EXIT_DATASET, result.output
    assert message in result.output and "8.1-8.2" in result.output


def test_console_script_names_the_click_command():
    """The ``hfspec`` console script of pyproject.toml's [project.scripts]
    names an importable click command, ``hfspec.cli.main``.  The table is
    read with a regex: Python 3.10, the floor, has no tomllib."""
    text = (PERFBENCH.parent / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S).group(1)
    scripts = dict(re.findall(r'^(\S+) = "([^"]*)"$', table, re.M))
    assert scripts == {"hfspec": "hfspec.cli:main"}
    module, name = scripts["hfspec"].split(":")
    command = getattr(importlib.import_module(module), name)
    assert isinstance(command, click.Command)
