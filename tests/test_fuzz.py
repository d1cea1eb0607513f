"""Derandomised fuzzing of the file readers.

Malformed INI and CSV files may only raise ConfigError or DatasetError, and
through the command line only exit 3 or 4: never exit 1 or a traceback.
Numeric values, however large or small, also exit 0 or 7 (a model the
numbers define but that cannot be labelled).
"""

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hfspec.cli import EXIT_CONFIG, EXIT_DATASET, EXIT_MODEL, main
from hfspec.config import MEASURED_LINES, REFERENCE_CONFIG, ConfigError, RunConfig, bundled_path, load_config
from hfspec.datasets import DatasetError, read_dataset, read_refractive_points
from hfspec.fitting import TransitionDataset

fuzz = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: any file content: raw bytes (often not UTF-8) or encoded text
contents = st.binary(max_size=300) | st.text(max_size=300).map(lambda t: t.encode("utf-8", "surrogatepass"))
#: one malformed cell or value: no digits (so never a number, level label or
#: spin), not blank, and no CSV separator, quote, comment mark or line break
junk = st.text(
    st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters=',"#\r\n'), min_size=1, max_size=12
).filter(lambda t: t.strip() != "")

#: a number as a configuration file may spell it: an integer, a float, a
#: decimal with an exponent reaching past the float range both ways, or a
#: fraction (allowed for spins), possibly with a zero denominator
numbers = (
    st.integers(-10**6, 10**6).map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.builds("{}e{}".format, st.integers(-999, 999), st.integers(-400, 400))
    | st.builds("{}/{}".format, st.integers(-200, 200), st.integers(0, 20))
)

REFERENCE = bundled_path(REFERENCE_CONFIG).read_text().splitlines()
VALUE_LINES = [k for k, line in enumerate(REFERENCE) if "=" in line]
LINES = bundled_path(MEASURED_LINES).read_text().splitlines()
ROW_LINES = [k for k, line in enumerate(LINES) if line and not line.startswith("#")]
REFRACTIVE = ["nu_cm1,n,sigma_n"] + [f"{nu},{2.4 + nu / 1000:.4f},0.001" for nu in range(50, 95, 5)]


def _replace_value(lines: list[str], line: int, text: str) -> str:
    key = lines[line].split("=")[0]
    return "\n".join(lines[:line] + [f"{key}= {text}"] + lines[line + 1:]) + "\n"


def _replace_cell(lines: list[str], line: int, column: int, text: str) -> str:
    cells = lines[line].split(",")
    cells[column % len(cells)] = text
    return "\n".join(lines[:line] + [",".join(cells)] + lines[line + 1:]) + "\n"


def _write(tmp_path, name: str, data: bytes | str):
    path = tmp_path / name
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    path.write_bytes(data)
    return path


def _exit_code(*args) -> int:
    result = CliRunner().invoke(main, list(args))
    assert isinstance(result.exception, (SystemExit, type(None))), result.exception
    return result.exit_code


# ------------------------------------------------------------------ library

@fuzz
@given(data=contents)
def test_load_config_any_bytes(tmp_path, data):
    try:
        assert isinstance(load_config(_write(tmp_path, "any.ini", data)), RunConfig)
    except ConfigError:
        pass


@fuzz
@given(line=st.sampled_from(VALUE_LINES), text=st.text(max_size=12))
def test_load_config_any_value(tmp_path, line, text):
    try:
        assert isinstance(load_config(_write(tmp_path, "value.ini", _replace_value(REFERENCE, line, text))), RunConfig)
    except ConfigError:
        pass


@fuzz
@given(data=contents)
def test_read_dataset_any_bytes(tmp_path, data):
    try:
        assert isinstance(read_dataset(_write(tmp_path, "any.csv", data)), TransitionDataset)
    except DatasetError:
        pass


@fuzz
@given(line=st.sampled_from(ROW_LINES), column=st.integers(0, 3), text=junk)
def test_read_dataset_junk_cell(tmp_path, line, column, text):
    with pytest.raises(DatasetError):
        read_dataset(_write(tmp_path, "junk.csv", _replace_cell(LINES, line, column, text)))


@fuzz
@given(data=contents)
def test_read_refractive_points_any_bytes(tmp_path, data):
    try:
        assert isinstance(read_refractive_points(_write(tmp_path, "any.csv", data)), np.ndarray)
    except DatasetError:
        pass


@fuzz
@given(line=st.integers(0, len(REFRACTIVE) - 1), column=st.integers(0, 2), text=junk)
def test_read_refractive_points_junk_cell(tmp_path, line, column, text):
    with pytest.raises(DatasetError):
        read_refractive_points(_write(tmp_path, "junk.csv", _replace_cell(REFRACTIVE, line, column, text)))


@fuzz
@given(lines=st.sets(st.integers(1, len(REFRACTIVE) - 1), min_size=1), column=st.integers(0, 2))
@example(lines=set(range(1, len(REFRACTIVE))), column=1)
def test_read_refractive_points_blank_cells(tmp_path, lines, column):
    """A blank cell is no number, in any column of any data rows, so a blank
    n column cannot shift sigma_n into n."""
    text = REFRACTIVE
    for line in lines:
        text = _replace_cell(text, line, column, "").splitlines()
    with pytest.raises(DatasetError, match=f":{min(lines) + 1}: bad numeric field"):
        read_refractive_points(_write(tmp_path, "blank.csv", "\n".join(text) + "\n"))


# ---------------------------------------------------------------------- CLI

@fuzz
@given(data=contents)
def test_cli_any_config_bytes_exits_config(tmp_path, data):
    """Without [meta] schema_version = 1 no file is a valid configuration."""
    assert _exit_code("levels", "--config", str(_write(tmp_path, "any.ini", data))) == EXIT_CONFIG


@fuzz
@given(line=st.sampled_from(VALUE_LINES), text=junk)
def test_cli_junk_config_value_exits_config(tmp_path, line, text):
    """A word in place of a value is refused, unless it is one the key takes
    (a line shape, a boolean word, or transition labels)."""
    path = _write(tmp_path, "junk.ini", _replace_value(REFERENCE, line, text))
    assert _exit_code("levels", "--config", str(path)) in (0, EXIT_CONFIG)


@fuzz
@given(line=st.sampled_from(VALUE_LINES), text=numbers)
def test_cli_numeric_config_value_never_exits_1(tmp_path, line, text):
    """Any number in place of any value either runs, is refused by a rule of
    the schema (a range, a cap), or gives a model that cannot be labelled."""
    path = _write(tmp_path, "number.ini", _replace_value(REFERENCE, line, text))
    assert _exit_code("hf", "--config", str(path), "--transition", "8.1-8.2", "--compare") in (
        0, EXIT_CONFIG, EXIT_MODEL)


@fuzz
@given(data=contents)
def test_cli_any_dataset_bytes_exits_dataset(tmp_path, data):
    assert _exit_code("analyze", "--dataset", str(_write(tmp_path, "any.csv", data))) == EXIT_DATASET


@fuzz
@given(line=st.sampled_from(ROW_LINES), column=st.integers(0, 3), text=junk)
def test_cli_junk_dataset_cell_exits_dataset(tmp_path, line, column, text):
    path = _write(tmp_path, "junk.csv", _replace_cell(LINES, line, column, text))
    assert _exit_code("analyze", "--dataset", str(path)) == EXIT_DATASET


@fuzz
@given(line=st.integers(0, len(REFRACTIVE) - 1), column=st.integers(0, 2), text=junk)
def test_cli_junk_refractive_cell_exits_dataset(tmp_path, line, column, text):
    path = _write(tmp_path, "junk.csv", _replace_cell(REFRACTIVE, line, column, text))
    assert _exit_code("fit", "--mode", "refindex", "--dataset", str(path)) == EXIT_DATASET


@fuzz
@given(line=st.sampled_from(ROW_LINES[1:]), duplicate=st.booleans())
def test_cli_deleted_or_duplicated_row_exits_dataset(line, duplicate, tmp_path):
    """Without one data row (not the header), or with one twice, a family's
    ladder is broken: analyze refuses it as a dataset error naming the family."""
    kept = LINES[:line] + LINES[line:line + 1] * (2 if duplicate else 0) + LINES[line + 1:]
    result = CliRunner().invoke(main, ["analyze", "--dataset", str(_write(tmp_path, "rows.csv", "\n".join(kept) + "\n"))])
    assert result.exit_code == EXIT_DATASET, result.output
    assert LINES[line].split(",")[0] in result.output
