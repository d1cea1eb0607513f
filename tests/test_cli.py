import functools
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hfspec.cli import (
    EXIT_CONFIG,
    EXIT_DATASET,
    main,
)
from hfspec.config import MEASURED_LINES, REFERENCE_CONFIG, bundled_path

runner = CliRunner()

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: SHA-256 of each benchmark command's output, recorded at the seed commit
RECORDED = json.loads((PERFBENCH / "cli_expected.json").read_text())


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


def test_synth_no_transitions_zero_spectrum(tmp_path):
    config = tmp_path / "empty.ini"
    config.write_text(
        "[meta]\nschema_version = 1\n\n[grid]\n"
        "start_cm1 = 1.0\nstop_cm1 = 2.0\nstep_cm1 = 0.01\n"
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
    from hfspec.datasets import read_spectrum

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
    spectrum = read_spectrum(out)
    peaks, _ = fit_peaks(spectrum, 2, "gaussian")
    centers = sorted(p.center for p in peaks)
    assert centers[0] == pytest.approx(6.8302, abs=1e-4)
    assert centers[1] == pytest.approx(23.3411, abs=1e-4)


def test_bundled_reference_config_parses():
    from hfspec.config import load_config

    cfg = load_config(bundled_path(REFERENCE_CONFIG))
    assert cfg.system.j == 8.0
    assert cfg.system.i == 3.5
    assert cfg.g_j == 1.25
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
