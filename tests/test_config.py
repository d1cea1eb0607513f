import dataclasses

import pytest
from click.testing import CliRunner

from hfspec.angular import SpinSystem
from hfspec.cli import EXIT_CONFIG, main
from hfspec.config import (
    ConfigError,
    RunConfig,
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
        g_j=1.25,
        cf=CFParameters(0.0, 0.0, 0.0, 0.0, 0.0, b6m4=0.0, b4m4=0.0),
        hyperfine=HyperfineConstants(0.0, 0.0),
        temperature=3.5,
        grid=None,
        isotope=IsotopeConfig(splitting=0.0098, satellite_ratio=0.33, enabled=False),
        lineshape="gaussian",
        fwhm=0.009,
        amplitude=1.0,
        transitions=[],
        max_iterations=200,
        schema_version=1,
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
    ("fit", "max_iterations", "0"),
    ("transitions", "include", "5.1-5.3"),
    ("transitions", "include", "8.1-8.3.2"),
]


@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_value_names_section_key(tmp_path, section, key, value):
    path = _write(tmp_path, f"{HEADER}\n[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"bad value for {section}\.{key}:"):
        load_config(path)


@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_value_exits_config(tmp_path, section, key, value):
    path = _write(tmp_path, f"{HEADER}\n[{section}]\n{key} = {value}\n")
    result = CliRunner().invoke(main, ["levels", "--config", str(path)])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert f"{section}.{key}" in result.output


@pytest.mark.parametrize("key", ["start_cm1", "stop_cm1", "step_cm1"])
def test_grid_values_must_be_finite(tmp_path, key):
    grid = {"start_cm1": "1.0", "stop_cm1": "2.0", "step_cm1": "0.01", key: "inf"}
    text = HEADER + "\n[grid]\n" + "".join(f"{k} = {v}\n" for k, v in grid.items())
    with pytest.raises(ConfigError, match=rf"grid\.{key}"):
        load_config(_write(tmp_path, text))


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

SMALL_SPINS = [("8", "1/2"), ("8", "0"), ("1/2", "7/2"), ("0", "1")]


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
