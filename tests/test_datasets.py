import numpy as np
import pytest

from hfspec.config import DATA_DIR_ENV, MEASURED_LINES, bundled_path, data_dir
from hfspec.datasets import (
    DatasetError,
    format_half_integer,
    read_dataset,
    read_spectrum,
    write_dataset,
    write_spectrum,
)
from hfspec.fitting import ObservationRow, TransitionDataset
from hfspec.spectra import Spectrum


def test_bundled_dataset_shape(measured):
    assert len(measured.rows) == 24
    families = {(r.n_init, r.n_final) for r in measured.rows}
    assert families == {(1, 2), (1, 3), (2, 3)}
    assert all(r.kind == "hf" for r in measured.rows)
    sigmas = {(r.n_init, r.n_final): r.sigma for r in measured.rows}
    assert sigmas[(1, 2)] == 0.01
    assert sigmas[(1, 3)] == 0.001
    assert sigmas[(2, 3)] == 0.003


def test_dataset_round_trip(tmp_path):
    rows = [
        ObservationRow("hf", 1, 2, -3.5, 7.33, 0.01),
        ObservationRow("cf", 1, 4, None, 47.6, 0.05),
        ObservationRow("moment", 6, None, None, -3.59, 0.02),
    ]
    path = tmp_path / "round.csv"
    write_dataset(path, TransitionDataset(rows))
    back = read_dataset(path)
    assert len(back.rows) == 3
    for a, b in zip(rows, back.rows):
        assert (a.kind, a.n_init, a.n_final, a.m_z) == (b.kind, b.n_init, b.n_final, b.m_z)
        assert a.value == pytest.approx(b.value, rel=1e-8)


def test_half_integer_formatting():
    assert format_half_integer(-3.5) == "-7/2"
    assert format_half_integer(0.5) == "1/2"
    assert format_half_integer(2.0) == "2"


def test_dataset_error_carries_row_number(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("transition,m_z,energy_cm1,sigma_cm1\n8.1-8.2,-7/2,x,0.01\n")
    with pytest.raises(DatasetError, match=":2"):
        read_dataset(bad)
    with pytest.raises(DatasetError, match="not found"):
        read_dataset(tmp_path / "gone.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(DatasetError, match="header"):
        read_dataset(empty)
    bad.write_text("transition,m_z,energy_cm1,sigma_cm1\n8.1-8.2,-7/2,7.3,0.01\n8.1-8.2,1/3,7.3,0.01\n")
    with pytest.raises(DatasetError, match=":3: m_z must be an integer or half-integer"):
        read_dataset(bad)


def test_spectrum_round_trip(tmp_path):
    grid = np.linspace(0.0, 1.0, 50)
    spec = Spectrum(grid, np.sin(grid))
    path = tmp_path / "spec.csv"
    write_spectrum(path, spec)
    back = read_spectrum(path)
    assert np.allclose(back.grid, grid, atol=1e-7)
    assert np.allclose(back.absorbance, np.sin(grid), atol=1e-7)


def test_data_dir_override(tmp_path, monkeypatch):
    (tmp_path / MEASURED_LINES).write_text(
        "transition,m_z,energy_cm1,sigma_cm1\n8.1-8.2,-7/2,7.33,0.01\n"
    )
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    assert data_dir() == tmp_path
    dataset = read_dataset(bundled_path(MEASURED_LINES))
    assert len(dataset.rows) == 1
