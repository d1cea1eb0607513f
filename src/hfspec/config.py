"""Run configuration: INI-style files with strict schema validation.

A configuration collects everything a command needs: the spin system, CF
coefficients, hyperfine constants, temperature, synthesis grid, line shape
and isotope satellite settings.  Files are plain key = value sections,
hand-editable, with fractions like 7/2 accepted wherever half-integers
appear.  Unknown sections or keys are rejected (typos should fail loudly,
not silently fall back to defaults).

The bundled reference model, reference.ini, and the measured line list live
in the package's ``data`` directory.  reference.ini is read once, at import,
as REFERENCE: the Ho3+:LiYF4 model whose parts are HO_LIYF4, CF_HO_LIYF4 and
HYPERFINE_HO_LIYF4.
"""

import configparser
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from .angular import SpinSystem
from .hamiltonian import CF_COEFFICIENTS, NON_KRAMERS_ONLY, CFParameters, HyperfineConstants, quadrupole_undefined
from .spectra import PEAK_SHAPES, IsotopeConfig

SCHEMA_VERSION = 1

REFERENCE_CONFIG = "reference.ini"
MEASURED_LINES = "hf_transitions.csv"

#: largest electron-nuclear product dimension (2j+1)(2i+1) accepted; Ho:LiYF4
#: has 136, and one dense complex matrix of the cap takes 16 MB
MAX_PRODUCT_DIM = 1024
#: most synthesis grid points accepted, floor((stop - start) / step) + 1; the
#: bundled grid has 3201
MAX_GRID_POINTS = 1_000_000
#: largest magnitude of a CF coefficient or hyperfine constant, cm^-1: far
#: above any physical value, and far enough inside the float range that no
#: Hamiltonian entry built from one overflows, up to MAX_PRODUCT_DIM
MAX_COUPLING = 1e100


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


def parse_half_integer(text: str) -> float:
    """Accept '7/2', '3.5' or '8' style spin values."""
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse {text!r} as a (half-)integer") from exc


def format_level(j: float, n: int) -> str:
    """Level n of the manifold j as '<manifold>.<n>': '8.1', or '7.5.2' for j = 15/2."""
    return f"{int(j) if float(j).is_integer() else j}.{n}"


def parse_level(label: str, j: float) -> int:
    """'8.2' -> 2: the inverse of format_level; the manifold must be j."""
    manifold, _, n = label.strip().rpartition(".")
    try:
        level, in_manifold = int(n), float(manifold) == j
    except ValueError as exc:
        raise ConfigError(f"cannot parse level {label!r}; expected like {format_level(j, 1)!r}") from exc
    if level < 1:
        raise ConfigError(f"level index must be >= 1 in {label!r}")
    if not in_manifold:
        raise ConfigError(f"level {label!r} is outside the configured manifold: expected like {format_level(j, 1)!r}")
    return level


def format_transition(j: float, n_init: int, n_final: int) -> str:
    """The transition from level n_init to n_final of the manifold j: '8.1-8.2'."""
    return f"{format_level(j, n_init)}-{format_level(j, n_final)}"


def parse_transition_label(label: str, j: float) -> tuple[int, int]:
    """'8.1-8.2' -> (1, 2): the inverse of format_transition; a level to itself is refused."""
    parts = label.strip().split("-")
    if len(parts) != 2:
        raise ConfigError(f"cannot parse transition label {label!r}; expected like {format_transition(j, 1, 2)!r}")
    n_init, n_final = parse_level(parts[0], j), parse_level(parts[1], j)
    if n_init == n_final:
        raise ConfigError(f"transition {label!r} joins level {n_init} to itself")
    return n_init, n_final


def _checked(parse: Callable[[str], Any], ok: Callable[[Any], bool], rule: str) -> Callable[[str], Any]:
    """A value parser that also requires ok(value); its ConfigError states the rule."""

    def checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ConfigError(f"must be {rule}, got {text.strip()!r}")
        return value

    return checked


finite_float = _checked(float, math.isfinite, "finite")
#: a finite float of magnitude at most MAX_COUPLING; datasets read their numeric cells with it too
bounded_float = _checked(finite_float, lambda v: abs(v) <= MAX_COUPLING,
                         f"at most MAX_COUPLING = {MAX_COUPLING:g} in magnitude")
_positive = _checked(bounded_float, lambda v: v > 0, "positive")
_nonnegative = _checked(bounded_float, lambda v: v >= 0, "nonnegative")
_spin = _checked(parse_half_integer, lambda v: v >= 0 and (2 * v).is_integer(), "an integer or half-integer >= 0")
_integer_j = _checked(parse_half_integer, lambda v: v >= 0 and v.is_integer(), f"an integer >= 0: {NON_KRAMERS_ONLY}")
_shape = _checked(lambda text: text.strip().lower(), lambda v: v in PEAK_SHAPES, f"one of {PEAK_SHAPES}")
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}
_bool = _checked(lambda text: _BOOLEANS.get(text.strip().lower()), lambda v: v is not None, "a boolean like true or false")


def _labels(text: str) -> tuple[str, ...]:
    """Transition labels; they are parsed once [system] j is known."""
    return tuple(text.replace(",", " ").split())


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for the command-line tools; see load_config."""

    system: SpinSystem
    cf: CFParameters
    hyperfine: HyperfineConstants
    temperature: float
    grid: tuple[float, float, float] | None
    isotope: IsotopeConfig
    lineshape: str
    fwhm: float
    amplitude: float
    transitions: tuple[tuple[int, int], ...]


_GRID_KEYS = ("start_cm1", "stop_cm1", "step_cm1")

#: section -> key -> (parser, default); key names are unique across sections.
#: A None default marks a key that must be present (meta.schema_version, and
#: every [grid] key once the section exists).
_SCHEMA: dict[str, dict[str, tuple[Callable[[str], Any], Any]]] = {
    "meta": {"schema_version": (int, None)},
    "system": {"j": (_integer_j, 8.0), "i": (_spin, 3.5)},
    "cf": {key: (bounded_float, 0.0) for key in CF_COEFFICIENTS},
    "hyperfine": {"a_j": (bounded_float, 0.0), "b_quad": (bounded_float, 0.0)},
    "conditions": {"temperature_k": (_positive, 3.5)},
    "grid": {key: (finite_float, None) for key in _GRID_KEYS},
    "isotope": {
        "enabled": (_bool, False),
        "splitting_cm1": (bounded_float, 0.0098),
        "satellite_ratio": (_nonnegative, 0.33),
    },
    "lineshape": {
        "shape": (_shape, "gaussian"),
        "fwhm_cm1": (_positive, 0.009),
        "amplitude": (bounded_float, 1.0),
    },
    "transitions": {"include": (_labels, ())},
}


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a configuration file.

    Raises ConfigError with the offending file, section and key (or the
    parser's line diagnostics for syntax errors).
    """
    path = Path(path)
    # no file can name the section "" (a header needs one character), so
    # [DEFAULT] is an ordinary section and the unknown-section rule refuses it
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")

    def bad(section: str, key: str, exc: Exception) -> ConfigError:
        return ConfigError(f"{path}: bad value for {section}.{key}: {exc}")

    v: dict[str, Any] = {}
    for section, keys in _SCHEMA.items():
        for key, (parse, default) in keys.items():
            v[key] = default
            if parser.has_option(section, key):
                try:
                    v[key] = parse(parser.get(section, key))
                except ValueError as exc:
                    raise bad(section, key, exc) from exc

    if v["schema_version"] is None:
        raise ConfigError(f"{path}: missing required key meta.schema_version")
    if v["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported schema_version {v['schema_version']} (expected {SCHEMA_VERSION})")
    grid = None
    if parser.has_section("grid"):
        grid = tuple(v[key] for key in _GRID_KEYS)
        if any(value is None for value in grid):
            raise ConfigError(f"{path}: section [grid] needs start_cm1, stop_cm1, step_cm1")
        if not (grid[1] > grid[0] and grid[2] > 0):
            raise ConfigError(f"{path}: invalid grid {grid}")
        # floor(x) + 1 > cap exactly when x >= cap; x may overflow to inf
        if (grid[1] - grid[0]) / grid[2] >= MAX_GRID_POINTS:
            raise ConfigError(f"{path}: grid {grid} has more than MAX_GRID_POINTS = {MAX_GRID_POINTS} points")
        # at FWHM >= step every line, wherever it is centred, reaches half its height on the grid
        if v["fwhm_cm1"] < grid[2]:
            raise bad("lineshape", "fwhm_cm1", ValueError(f"must be at least grid.step_cm1 = {grid[2]:g}, got {v['fwhm_cm1']:g}"))
    dim = (2 * v["j"] + 1) * (2 * v["i"] + 1)
    if dim > MAX_PRODUCT_DIM:
        raise ConfigError(
            f"{path}: [system] j = {v['j']:g}, i = {v['i']:g} give a product dimension (2j+1)(2i+1) = {dim:g}, "
            f"above MAX_PRODUCT_DIM = {MAX_PRODUCT_DIM}"
        )
    system = SpinSystem(j=v["j"], i=v["i"])
    if v["b_quad"] != 0.0 and (why := quadrupole_undefined(system)):
        raise ConfigError(f"{path}: bad value for hyperfine.b_quad: {why}")
    try:
        transitions = tuple(parse_transition_label(label, v["j"]) for label in v["include"])
    except ConfigError as exc:
        raise bad("transitions", "include", exc) from exc

    return RunConfig(
        system=system,
        cf=CFParameters(**{key: v[key] for key in CF_COEFFICIENTS}),
        hyperfine=HyperfineConstants(a_j=v["a_j"], b_quad=v["b_quad"]),
        temperature=v["temperature_k"],
        grid=grid,
        isotope=IsotopeConfig(
            splitting=v["splitting_cm1"], satellite_ratio=v["satellite_ratio"], enabled=v["enabled"]
        ),
        lineshape=v["shape"],
        fwhm=v["fwhm_cm1"],
        amplitude=v["amplitude"],
        transitions=transitions,
    )


def bundled_path(name: str) -> Path:
    """A file of the package's data directory."""
    return Path(__file__).with_name("data") / name


REFERENCE = load_config(bundled_path(REFERENCE_CONFIG))
#: Ho3+ electronic ground multiplet and the I = 7/2 holmium nuclear spin
HO_LIYF4 = REFERENCE.system
CF_HO_LIYF4 = REFERENCE.cf
HYPERFINE_HO_LIYF4 = REFERENCE.hyperfine
