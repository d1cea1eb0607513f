"""CSV ingestion and output for transition datasets and spectra.

Transition dataset schema (UTF-8, LF, '#' comments allowed):

    transition,m_z,energy_cm1,sigma_cm1
    8.1-8.2,-7/2,7.33,0.01      <- hyperfine-resolved row
    8.1-8.4,,47.60,0.05         <- hyperfine-averaged row (empty m_z)
    jz:8.6,,-3.59,0.02          <- <J_z> pseudo-observation for a doublet

m_z accepts rationals like -7/2 or decimals.  Refractive-index data uses
columns nu_cm1,n[,sigma_n]; spectra use wavenumber_cm1,absorbance.
"""

import csv
from pathlib import Path

import numpy as np

from .config import parse_half_integer, parse_transition_label, ConfigError
from .fitting import DatasetError, ObservationRow, TransitionDataset
from .spectra import Spectrum


def _rows_with_numbers(path: Path):
    """Yield (line_number, fields) for non-comment, non-blank CSV lines."""
    with open(path, encoding="utf-8", newline="") as handle:
        for number, row in enumerate(csv.reader(handle), start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            yield number, [cell.strip() for cell in row]


def read_dataset(path: str | Path) -> TransitionDataset:
    """Parse a transition dataset, validating every row."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    rows: list[ObservationRow] = []
    header_seen = False
    for number, fields in _rows_with_numbers(path):
        if not header_seen:
            expected = ["transition", "m_z", "energy_cm1", "sigma_cm1"]
            if [f.lower() for f in fields] != expected:
                raise DatasetError(
                    f"{path}:{number}: bad header {fields!r}; expected {expected}"
                )
            header_seen = True
            continue
        if len(fields) != 4:
            raise DatasetError(
                f"{path}:{number}: expected 4 columns, got {len(fields)}"
            )
        label, m_text, value_text, sigma_text = fields
        try:
            value = float(value_text)
            sigma = float(sigma_text)
        except ValueError as exc:
            raise DatasetError(f"{path}:{number}: bad numeric field: {exc}") from exc
        try:
            if label.lower().startswith("jz:"):
                level = int(label.split(":")[1].split(".")[1])
                rows.append(ObservationRow("moment", level, None, None, value, sigma))
            elif m_text == "":
                ni, nf = parse_transition_label(label)
                rows.append(ObservationRow("cf", ni, nf, None, value, sigma))
            else:
                ni, nf = parse_transition_label(label)
                m_z = parse_half_integer(m_text)
                rows.append(ObservationRow("hf", ni, nf, m_z, value, sigma))
        except (ValueError, IndexError, ConfigError) as exc:
            raise DatasetError(f"{path}:{number}: {exc}") from exc
    if not header_seen:
        raise DatasetError(f"{path}: empty dataset (no header)")
    return TransitionDataset(rows, metadata={"source": str(path)})


def write_dataset(path: str | Path, dataset: TransitionDataset) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("transition,m_z,energy_cm1,sigma_cm1\n")
        for row in dataset.rows:
            if row.kind == "moment":
                label, m_text = f"jz:8.{row.n_init}", ""
            else:
                label = f"8.{row.n_init}-8.{row.n_final}"
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
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    data = []
    width = None
    for number, fields in _rows_with_numbers(path):
        if fields[0].lower() in ("nu_cm1", "wavenumber_cm1"):
            continue
        try:
            values = [float(f) for f in fields if f != ""]
        except ValueError as exc:
            raise DatasetError(f"{path}:{number}: bad numeric field: {exc}") from exc
        if len(values) not in (2, 3):
            raise DatasetError(
                f"{path}:{number}: expected 2 or 3 columns, got {len(values)}"
            )
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DatasetError(f"{path}:{number}: inconsistent column count")
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
    if not path.exists():
        raise DatasetError(f"spectrum file not found: {path}")
    xs, ys = [], []
    for number, fields in _rows_with_numbers(path):
        if fields[0].lower() in ("wavenumber_cm1",):
            continue
        if len(fields) != 2:
            raise DatasetError(f"{path}:{number}: expected 2 columns")
        try:
            xs.append(float(fields[0]))
            ys.append(float(fields[1]))
        except ValueError as exc:
            raise DatasetError(f"{path}:{number}: bad numeric field: {exc}") from exc
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
            out.append(
                {
                    "n": int(fields[0]),
                    "energy": float(fields[1]),
                    "irrep": fields[2],
                    "jz": float(fields[3]) if fields[3] != "" else None,
                }
            )
        except ValueError as exc:
            raise DatasetError(f"{path}:{number}: {exc}") from exc
    return out
