"""CSV ingestion and output for transition datasets and spectra.

Transition dataset schema (UTF-8, LF, '#' comments allowed):

    transition,m_z,energy_cm1,sigma_cm1
    8.1-8.2,-7/2,7.33,0.01      <- hyperfine-resolved row
    8.1-8.4,,47.60,0.05         <- hyperfine-averaged row (empty m_z)
    jz:8.6,,-3.59,0.02          <- <J_z> pseudo-observation for a doublet

m_z accepts rationals like -7/2 or decimals.  Level labels are
'<manifold>.<n>' and must name the manifold j of the model (8 unless
read_dataset is told otherwise).  Refractive-index data uses columns
nu_cm1,n[,sigma_n] (wavenumber_cm1 is accepted for nu_cm1) with
sigma_n > 0; spectra are written with columns
wavenumber_cm1,absorbance.

Every file is one table: its first record is the header, in any case, and
every later record has exactly as many cells as the header.  Only the m_z
cell of a dataset row may be blank.

Every number must be finite and at most config.MAX_COUPLING = 1e100 in
magnitude, and every uncertainty (sigma_cm1, sigma_n) at least
max(1, |value|) / MAX_COUPLING, so that no weighted residual overflows; a
violation is a DatasetError naming file:line.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (MAX_COUPLING, bounded_float, format_level, format_transition, parse_half_integer,
                     parse_level, parse_transition_label)
from .hamiltonian import _not_finite_real
from .spectra import Spectrum


#: manifold of the level labels that read_dataset expects unless told
#: otherwise, and that write_dataset writes
DATASET_J = 8.0
_COLUMNS = ["transition", "m_z", "energy_cm1", "sigma_cm1"]
_REFRACTIVE_HEADERS = [[nu, "n", *sigma] for nu in ("nu_cm1", "wavenumber_cm1") for sigma in ([], ["sigma_n"])]
_SPECTRUM_COLUMNS = ["wavenumber_cm1", "absorbance"]

ROW_KINDS = ("hf", "cf", "moment")


class DatasetError(ValueError):
    """A dataset is malformed or cannot constrain the fit; file errors carry the row number."""


@dataclass(frozen=True)
class ObservationRow:
    """One measured quantity entering a fit.

    kind "hf": a hyperfine-resolved transition energy at fixed m_z.
    kind "cf": a transition energy averaged over the hyperfine structure
        (m_z is None).
    kind "moment": a pseudo-observation of <J_z> on the sigma = +1 branch of
        CF level n_init (n_final and m_z are None).
    """

    kind: str
    n_init: int
    n_final: int | None
    m_z: float | None
    value: float
    sigma: float

    def __post_init__(self) -> None:
        if self.kind not in ROW_KINDS:
            raise ValueError(f"unknown row kind {self.kind!r}")
        if why := _not_finite_real(self.value):
            raise ValueError(f"row value must be {why}, got {self.value}")
        if not self.sigma > 0:
            raise ValueError(f"row uncertainty must be positive, got {self.sigma}")
        if self.kind == "hf" and (self.m_z is None or self.n_final is None):
            raise ValueError("hf rows need both a final level and an m_z")
        if self.kind == "cf" and self.n_final is None:
            raise ValueError("cf rows need a final level")
        if self.n_init < 1 or (self.n_final is not None and self.n_final < 1):
            raise ValueError(f"level indices must be >= 1, got {self.n_init} and {self.n_final}")
        if self.m_z is not None and not float(2 * self.m_z).is_integer():
            raise ValueError(f"m_z must be an integer or half-integer, got {self.m_z}")


@dataclass
class TransitionDataset:
    """The rows of one measured dataset."""

    rows: list[ObservationRow]


def _rows_with_numbers(path: Path):
    """Yield (line_number, fields) for non-comment, non-blank CSV records; the
    number is the file line on which the record ends."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            for row in reader:
                if not row or (row[0].lstrip().startswith("#")):
                    continue
                yield reader.line_num, [cell.strip() for cell in row]
    except FileNotFoundError as exc:
        raise DatasetError(f"dataset file not found: {path}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: not a UTF-8 CSV file: {exc}") from exc


def _table(path: Path, headers: list[list[str]]):
    """Yield (line_number, fields) for each data record of a CSV table whose
    first record is one of ``headers`` (in any case) and whose every later
    record has as many cells as that header."""
    records = _rows_with_numbers(path)
    expected = " or ".join(",".join(header) for header in headers)
    number, header = next(records, (None, None))
    if header is None:
        raise DatasetError(f"{path}: no header; expected {expected}")
    if [f.lower() for f in header] not in headers:
        raise DatasetError(f"{path}:{number}: bad header {header!r}; expected {expected}")
    for number, fields in records:
        if len(fields) != len(header):
            raise DatasetError(f"{path}:{number}: expected {len(header)} columns, got {len(fields)}")
        yield number, fields


def _number(path: Path, number: int, text: str) -> float:
    """One CSV cell as a float of magnitude at most MAX_COUPLING, or a DatasetError naming the line."""
    try:
        return bounded_float(text)
    except ValueError as exc:
        raise DatasetError(f"{path}:{number}: bad numeric field: {exc}") from exc


def _check_sigma(path: Path, number: int, value: float, sigma: float) -> None:
    """A DatasetError naming the line unless sigma >= max(1, |value|) / MAX_COUPLING."""
    floor = max(1.0, abs(value)) / MAX_COUPLING
    if sigma < floor:
        raise DatasetError(f"{path}:{number}: uncertainty {sigma:g} is below max(1, |value|) / MAX_COUPLING = {floor:g}")


def format_table(header: list[str], rows) -> str:
    """A header line, then one line per row: numbers at 8 significant digits,
    None as an empty cell, strings as they are."""
    cell = lambda value: "" if value is None else value if isinstance(value, str) else f"{value:.8g}"
    return "".join(",".join(map(cell, cells)) + "\n" for cells in [header, *rows])


def read_dataset(path: str | Path, j: float = DATASET_J) -> TransitionDataset:
    """Parse a transition dataset whose level labels name the manifold j,
    validating every row."""
    path = Path(path)
    rows: list[ObservationRow] = []
    for number, (label, m_text, value_text, sigma_text) in _table(path, [_COLUMNS]):
        value = _number(path, number, value_text)
        sigma = _number(path, number, sigma_text)
        try:
            if label.lower().startswith("jz:"):
                if m_text:
                    raise ValueError(f"a jz: row takes no m_z, got {m_text!r}")
                rows.append(ObservationRow("moment", parse_level(label[3:], j), None, None, value, sigma))
            else:
                ni, nf = parse_transition_label(label, j)
                m_z = None if m_text == "" else parse_half_integer(m_text)
                rows.append(ObservationRow("cf" if m_z is None else "hf", ni, nf, m_z, value, sigma))
        except ValueError as exc:
            raise DatasetError(f"{path}:{number}: {exc}") from exc
        _check_sigma(path, number, value, sigma)
    return TransitionDataset(rows)


def write_dataset(path: str | Path, dataset: TransitionDataset) -> None:
    rows = []
    for row in dataset.rows:
        if row.kind == "moment":
            label, m_text = f"jz:{format_level(DATASET_J, row.n_init)}", ""
        else:
            label = format_transition(DATASET_J, row.n_init, row.n_final)
            m_text = "" if row.m_z is None else format_half_integer(row.m_z)
        rows.append([label, m_text, row.value, row.sigma])
    Path(path).write_text(format_table(_COLUMNS, rows), encoding="utf-8", newline="\n")


def format_half_integer(value: float) -> str:
    doubled = round(2 * value)
    if doubled % 2 == 0:
        return str(int(doubled // 2))
    return f"{int(doubled)}/2"


def read_refractive_points(path: str | Path) -> np.ndarray:
    """Columns (nu_cm1, n[, sigma_n]) -> array with 2 or 3 columns."""
    path = Path(path)
    data = []
    for number, fields in _table(path, _REFRACTIVE_HEADERS):
        values = [_number(path, number, f) for f in fields]
        if len(values) == 3:
            if not values[2] > 0:
                raise DatasetError(f"{path}:{number}: sigma_n must be positive, got {values[2]:g}")
            _check_sigma(path, number, values[1], values[2])
        data.append(values)
    if not data:
        raise DatasetError(f"{path}: no data rows")
    return np.array(data)


def write_spectrum(path: str | Path, spectrum: Spectrum) -> None:
    text = format_table(_SPECTRUM_COLUMNS, zip(spectrum.grid, spectrum.absorbance))
    Path(path).write_text(text, encoding="utf-8", newline="\n")
