"""CSV ingestion and output for transition datasets and spectra.

Transition dataset schema (UTF-8, LF, '#' comments allowed):

    transition,m_z,energy_cm1,sigma_cm1
    8.1-8.2,-7/2,7.33,0.01      <- hyperfine-resolved row
    8.1-8.4,,47.60,0.05         <- hyperfine-averaged row (empty m_z)
    jz:8.6,,-3.59,0.02          <- <J_z> pseudo-observation for a doublet

m_z accepts rationals like -7/2 or decimals.  Level labels are
'<manifold>.<n>' and must name the manifold j of the model (8 unless
read_dataset is told otherwise).  Every number must be finite.
Refractive-index data uses columns nu_cm1,n[,sigma_n] with sigma_n > 0;
spectra use wavenumber_cm1,absorbance.
"""

import csv
from pathlib import Path

import numpy as np

from .config import (finite_float, format_level, format_transition, parse_half_integer,
                     parse_level, parse_transition_label)
from .fitting import DatasetError, ObservationRow, TransitionDataset
from .spectra import Spectrum


#: manifold of the level labels that read_dataset expects unless told
#: otherwise, and that write_dataset writes
DATASET_J = 8.0
_COLUMNS = ["transition", "m_z", "energy_cm1", "sigma_cm1"]


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


def _number(path: Path, number: int, text: str) -> float:
    """One CSV cell as a finite float, or a DatasetError naming the line."""
    try:
        return finite_float(text)
    except ValueError as exc:
        raise DatasetError(f"{path}:{number}: bad numeric field: {exc}") from exc


def read_dataset(path: str | Path, j: float = DATASET_J) -> TransitionDataset:
    """Parse a transition dataset whose level labels name the manifold j,
    validating every row."""
    path = Path(path)
    rows: list[ObservationRow] = []
    header_seen = False
    for number, fields in _rows_with_numbers(path):
        if not header_seen:
            if [f.lower() for f in fields] != _COLUMNS:
                raise DatasetError(f"{path}:{number}: bad header {fields!r}; expected {_COLUMNS}")
            header_seen = True
            continue
        if len(fields) != len(_COLUMNS):
            raise DatasetError(f"{path}:{number}: expected {len(_COLUMNS)} columns, got {len(fields)}")
        label, m_text, value_text, sigma_text = fields
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
    if not header_seen:
        raise DatasetError(f"{path}: empty dataset (no header)")
    return TransitionDataset(rows)


def write_dataset(path: str | Path, dataset: TransitionDataset) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(_COLUMNS) + "\n")
        for row in dataset.rows:
            if row.kind == "moment":
                label, m_text = f"jz:{format_level(DATASET_J, row.n_init)}", ""
            else:
                label = format_transition(DATASET_J, row.n_init, row.n_final)
                m_text = "" if row.m_z is None else format_half_integer(row.m_z)
            handle.write(f"{label},{m_text},{row.value:.8g},{row.sigma:.8g}\n")


def format_half_integer(value: float) -> str:
    doubled = round(2 * value)
    if doubled % 2 == 0:
        return str(int(doubled // 2))
    return f"{int(doubled)}/2"


def read_refractive_points(path: str | Path) -> np.ndarray:
    """Columns (nu_cm1, n[, sigma_n]) -> array with 2 or 3 columns."""
    path = Path(path)
    data = []
    width = None
    for number, fields in _rows_with_numbers(path):
        if fields[0].lower() in ("nu_cm1", "wavenumber_cm1"):
            if [f.lower() for f in fields[1:]] not in (["n"], ["n", "sigma_n"]):
                raise DatasetError(f"{path}:{number}: bad header {fields!r}; expected nu_cm1,n[,sigma_n]")
            continue
        values = [_number(path, number, f) for f in fields if f != ""]
        if len(values) not in (2, 3):
            raise DatasetError(f"{path}:{number}: expected 2 or 3 columns, got {len(values)}")
        width = width or len(values)
        if len(values) != width:
            raise DatasetError(f"{path}:{number}: inconsistent column count")
        if width == 3 and not values[2] > 0:
            raise DatasetError(f"{path}:{number}: sigma_n must be positive, got {values[2]:g}")
        data.append(values)
    if not data:
        raise DatasetError(f"{path}: no data rows")
    return np.array(data)


def write_spectrum(path: str | Path, spectrum: Spectrum) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("wavenumber_cm1,absorbance\n")
        for x, y in zip(spectrum.grid, spectrum.absorbance):
            handle.write(f"{x:.8g},{y:.8g}\n")


def read_spectrum(path: str | Path) -> Spectrum:
    path = Path(path)
    xs, ys = [], []
    for number, fields in _rows_with_numbers(path):
        if fields[0].lower() == "wavenumber_cm1":
            continue
        if len(fields) != 2:
            raise DatasetError(f"{path}:{number}: expected 2 columns")
        xs.append(_number(path, number, fields[0]))
        ys.append(_number(path, number, fields[1]))
    if not xs:
        raise DatasetError(f"{path}: no data rows")
    return Spectrum(np.array(xs), np.array(ys))


def read_expected_levels(path: str | Path) -> list[dict]:
    """Reference level table: n, energy_cm1, irrep, jz (blank for singlets)."""
    path = Path(path)
    out = []
    for number, fields in _rows_with_numbers(path):
        if fields[0].lower() == "n":
            continue
        if len(fields) != 4:
            raise DatasetError(f"{path}:{number}: expected 4 columns")
        try:
            n = int(fields[0])
        except ValueError as exc:
            raise DatasetError(f"{path}:{number}: {exc}") from exc
        out.append(
            {
                "n": n,
                "energy": _number(path, number, fields[1]),
                "irrep": fields[2],
                "jz": _number(path, number, fields[3]) if fields[3] != "" else None,
            }
        )
    return out
