import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import hfspec
from hfspec.angular import SpinSystem
from hfspec.cli import EXIT_CONFIG, main
from hfspec.config import (
    MAX_GRID_POINTS,
    MAX_PRODUCT_DIM,
    REFERENCE_CONFIG,
    ConfigError,
    RunConfig,
    bundled_path,
    format_level,
    load_config,
    parse_level,
    parse_transition_label,
)
from hfspec.hamiltonian import CFParameters, HyperfineConstants
from hfspec.spectra import IsotopeConfig

HEADER = "[meta]\nschema_version = 1\n"


def _write(tmp_path, text: str):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_every_default(tmp_path):
    """A file with only [meta] gives the documented default of every key."""
    cfg = load_config(_write(tmp_path, HEADER))
    assert cfg == RunConfig(
        system=SpinSystem(j=8.0, i=3.5),
        cf=CFParameters(0.0, 0.0, 0.0, 0.0, 0.0, b6m4=0.0, b4m4=0.0),
        hyperfine=HyperfineConstants(0.0, 0.0),
        temperature=3.5,
        grid=None,
        isotope=IsotopeConfig(splitting=0.0098, satellite_ratio=0.33, enabled=False),
        lineshape="gaussian",
        fwhm=0.009,
        amplitude=1.0,
        transitions=(),
    )


def test_run_config_has_no_defaults():
    """load_config is the one place defaults live; RunConfig states none."""
    for f in dataclasses.fields(RunConfig):
        assert f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING, f.name


BAD_VALUES = [
    ("cf", "b20", "nan"),
    ("cf", "b64", "-inf"),
    ("hyperfine", "a_j", "inf"),
    ("hyperfine", "b_quad", "nan"),
    ("system", "j", "1/3"),
    ("system", "i", "-1/2"),
    ("isotope", "splitting_cm1", "inf"),
    ("isotope", "satellite_ratio", "-1"),
    ("conditions", "temperature_k", "-1"),
    ("conditions", "temperature_k", "0"),
    ("lineshape", "fwhm_cm1", "0"),
    ("lineshape", "amplitude", "nan"),
    ("lineshape", "shape", "voigt"),
    ("transitions", "include", "5.1-5.3"),
    ("transitions", "include", "8.1-8.3.2"),
    ("system", "j", "1e400"),
    ("cf", "b64", "-1e306"),
    ("hyperfine", "a_j", "1.0000001e100"),
    ("conditions", "temperature_k", "1e101"),
    ("isotope", "splitting_cm1", "-1e101"),
    ("isotope", "satellite_ratio", "1e101"),
    ("fit", "max_iterations", "0"),
]


def _refusal(section: str, key: str) -> str:
    """What the error for a bad ``[section] key = value`` says. The iteration
    cap is the constant fitting.MAX_ITERATIONS, so a file that still sets
    [fit] max_iterations is refused for its unknown section."""
    if section == "fit":
        return "unknown section [fit]"
    return f"bad value for {section}.{key}:"


@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_value_names_section_key(tmp_path, section, key, value):
    path = _write(tmp_path, f"{HEADER}\n[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(_refusal(section, key))):
        load_config(path)


@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_value_exits_config(tmp_path, section, key, value):
    path = _write(tmp_path, f"{HEADER}\n[{section}]\n{key} = {value}\n")
    result = CliRunner().invoke(main, ["levels", "--config", str(path)])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert _refusal(section, key).rstrip(":") in result.output


@pytest.mark.parametrize("key", ["start_cm1", "stop_cm1", "step_cm1"])
def test_grid_values_must_be_finite(tmp_path, key):
    grid = {"start_cm1": "1.0", "stop_cm1": "2.0", "step_cm1": "0.01", key: "inf"}
    text = HEADER + "\n[grid]\n" + "".join(f"{k} = {v}\n" for k, v in grid.items())
    with pytest.raises(ConfigError, match=rf"grid\.{key}"):
        load_config(_write(tmp_path, text))


def test_bundled_config_is_inside_the_caps():
    cfg = load_config(bundled_path(REFERENCE_CONFIG))
    start, stop, step = cfg.grid
    assert cfg.system.dim == 136 <= MAX_PRODUCT_DIM
    assert int((stop - start) / step) + 1 == 3201 <= MAX_GRID_POINTS


#: spin systems just above the product-dimension cap, and one far above it;
#: load_config refuses them from (2j+1)(2i+1) alone, building nothing
OVERSIZED_SPINS = [("600", "0"), ("8", "30"), ("1e300", "7/2")]


@pytest.mark.parametrize("j,i", OVERSIZED_SPINS)
def test_product_dimension_above_cap_refused(tmp_path, j, i):
    path = _write(tmp_path, f"{HEADER}\n[system]\nj = {j}\ni = {i}\n")
    with pytest.raises(ConfigError, match=f"MAX_PRODUCT_DIM = {MAX_PRODUCT_DIM}"):
        load_config(path)
    result = CliRunner().invoke(main, ["levels", "--config", str(path)])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "MAX_PRODUCT_DIM" in result.output


def test_product_dimension_at_cap_accepted(tmp_path):
    """(2j+1)(2i+1) = 1024 itself is allowed: j = 0, i = 1023/2."""
    path = _write(tmp_path, f"{HEADER}\n[system]\nj = 0\ni = 1023/2\n")
    assert load_config(path).system.dim == MAX_PRODUCT_DIM


#: grids of exactly MAX_GRID_POINTS + 1 points, and of far more
OVERSIZED_GRIDS = [("0", "1000000", "1"), ("0", "1", "1e-9"), ("-1e308", "1e308", "1")]


@pytest.mark.parametrize("start,stop,step", OVERSIZED_GRIDS)
def test_grid_above_cap_refused(tmp_path, start, stop, step):
    path = _write(tmp_path, f"{HEADER}\n[grid]\nstart_cm1 = {start}\nstop_cm1 = {stop}\nstep_cm1 = {step}\n")
    with pytest.raises(ConfigError, match=f"MAX_GRID_POINTS = {MAX_GRID_POINTS}"):
        load_config(path)
    result = CliRunner().invoke(main, ["levels", "--config", str(path)])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "MAX_GRID_POINTS" in result.output


def test_grid_at_cap_accepted(tmp_path):
    """floor((stop - start) / step) + 1 = MAX_GRID_POINTS is allowed (with a
    line width of at least the step)."""
    path = _write(tmp_path, f"{HEADER}\n[lineshape]\nfwhm_cm1 = 1\n\n[grid]\nstart_cm1 = 0\nstop_cm1 = 999999\nstep_cm1 = 1\n")
    assert load_config(path).grid == (0.0, 999999.0, 1.0)


def test_line_width_at_least_grid_step(tmp_path):
    """With a [grid], fwhm_cm1 may equal step_cm1 but not fall below it; the
    default width 0.009 counts too.  Without a grid any positive width loads."""
    grid = "\n[grid]\nstart_cm1 = 1\nstop_cm1 = 2\nstep_cm1 = 0.01\n"
    assert load_config(_write(tmp_path, f"{HEADER}\n[lineshape]\nfwhm_cm1 = 0.01\n{grid}")).fwhm == 0.01
    for lineshape in ("\n[lineshape]\nfwhm_cm1 = 0.0099\n", ""):
        with pytest.raises(ConfigError, match=r"lineshape\.fwhm_cm1: must be at least grid\.step_cm1 = 0\.01"):
            load_config(_write(tmp_path, f"{HEADER}{lineshape}{grid}"))
    assert load_config(_write(tmp_path, f"{HEADER}\n[lineshape]\nfwhm_cm1 = 1e-170\n")).fwhm == 1e-170


def test_reference_model_is_parsed_once():
    """``import hfspec.cli`` and a default ``levels`` in a fresh interpreter
    read reference.ini once: config holds it as REFERENCE, and every command
    without --config and every library constant takes it from there."""
    src = str(Path(hfspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import configparser, json, sys\n"
        "reads = []\n"
        "read_file = configparser.ConfigParser.read_file\n"
        "def counted(self, *args, **kwargs):\n"
        "    reads.append(kwargs.get('source'))\n"
        "    return read_file(self, *args, **kwargs)\n"
        "configparser.ConfigParser.read_file = counted\n"
        "import hfspec.cli\n"
        "hfspec.cli.main(['levels'], standalone_mode=False)\n"
        "print(json.dumps(reads), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.startswith("level,energy_cm1,")
    reads = json.loads(proc.stderr)
    assert len(reads) == 1 and Path(reads[0]).name == REFERENCE_CONFIG, reads


def test_non_utf8_config_is_config_error(tmp_path):
    path = tmp_path / "latin1.ini"
    path.write_bytes(HEADER.encode() + b"# caf\xe9\n")
    with pytest.raises(ConfigError, match="latin1.ini"):
        load_config(path)



@pytest.mark.parametrize("more", ["", "\n[cf]\nb20 = 1.0\n"], ids=["meta-only", "with-cf"])
def test_default_section_rejected(tmp_path, more):
    """An INI [DEFAULT] section would leak its keys into every section; it is
    refused like any other unknown section, whichever sections follow."""
    path = _write(tmp_path, "[DEFAULT]\nschema_version = 1\n\n" + HEADER + more)
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        load_config(path)
    result = CliRunner().invoke(main, ["levels", "--config", str(path)])
    assert result.exit_code == EXIT_CONFIG, result.output


def test_fit_section_is_unknown(tmp_path):
    """The iteration cap is the constant fitting.MAX_ITERATIONS: a file that
    still sets [fit] max_iterations to the old default 200 is refused for its
    unknown section."""
    path = _write(tmp_path, f"{HEADER}\n[fit]\nmax_iterations = 200\n")
    with pytest.raises(ConfigError, match=r"unknown section \[fit\]"):
        load_config(path)
    result = CliRunner().invoke(main, ["levels", "--config", str(path)])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "unknown section [fit]" in result.output


SMALL_SPINS = [("8", "1/2"), ("8", "0"), ("0", "7/2"), ("0", "1")]


@pytest.mark.parametrize("j,i", SMALL_SPINS)
def test_quadrupole_needs_spins_of_one(tmp_path, j, i):
    """A quadrupolar constant is refused on a spin system without one, and
    allowed at zero."""
    system = f"{HEADER}\n[system]\nj = {j}\ni = {i}\n"
    assert load_config(_write(tmp_path, system + "\n[hyperfine]\nb_quad = 0\n")).hyperfine.b_quad == 0.0
    path = _write(tmp_path, system + "\n[hyperfine]\nb_quad = 0.04\n")
    with pytest.raises(ConfigError, match=r"hyperfine\.b_quad: quadrupolar coupling requires i >= 1 and j >= 1"):
        load_config(path)


# ------------------------------------------------------------- level labels

@pytest.mark.parametrize("j,n,label", [(8.0, 1, "8.1"), (8.0, 13, "8.13"), (7.5, 2, "7.5.2")])
def test_level_label_round_trip(j, n, label):
    assert format_level(j, n) == label
    assert parse_level(label, j) == n


def test_transition_label_in_half_integer_manifold():
    assert parse_transition_label("7.5.1-7.5.3", 7.5) == (1, 3)
    assert parse_transition_label(" 8.1-8.12 ", 8.0) == (1, 12)


@pytest.mark.parametrize("label", ["5.1-9.2", "8.1-8.2.7", "3.1-3.3", "8.1-7.2", "7.5.1-7.5.2"])
def test_transition_in_another_manifold_rejected(label):
    with pytest.raises(ConfigError, match="manifold"):
        parse_transition_label(label, 8.0)


@pytest.mark.parametrize("label", ["x", "8.1", "8.1-8.2-8.3", "8.a-8.2", "8-8.2", "8.1-8.0", ".1-.2"])
def test_malformed_transition_rejected(label):
    with pytest.raises(ConfigError):
        parse_transition_label(label, 8.0)
