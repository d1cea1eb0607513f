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


def test_error_names_the_physical_line_after_a_multiline_cell(tmp_path):
    """A quoted cell may span two lines; later diagnostics still name the
    line of the file that holds the bad value."""
    bad = tmp_path / "ml.csv"
    bad.write_text(
        'transition,m_z,energy_cm1,sigma_cm1\n"8.1-8.2\n",1/2,7.3,0.01\n8.1-8.2,3/2,x,0.01\n'
    )
    with pytest.raises(DatasetError, match=r"ml\.csv:4:"):
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


HEADER = "transition,m_z,energy_cm1,sigma_cm1\n"


@pytest.mark.parametrize(
    "row",
    ["8.1-8.2,1/2,nan,0.01", "8.1-8.2,1/2,inf,0.01", "8.1-8.2,1/2,7.3,inf", "8.1-8.2,1/2,-inf,0.01", "jz:8.6,,NaN,0.02"],
)
def test_non_finite_dataset_cell_rejected(tmp_path, row):
    path = tmp_path / "lines.csv"
    path.write_text(HEADER + "8.1-8.2,-7/2,7.33,0.01\n" + row + "\n")
    with pytest.raises(DatasetError, match=r":3: bad numeric field: must be finite"):
        read_dataset(path)


def test_non_finite_refractive_and_spectrum_cells_rejected(tmp_path):
    from hfspec.datasets import read_refractive_points

    path = tmp_path / "n.csv"
    path.write_text("nu_cm1,n\n50,2.4\n60,inf\n70,2.5\n80,2.6\n")
    with pytest.raises(DatasetError, match=":3: bad numeric field"):
        read_refractive_points(path)
    path.write_text("nu_cm1,n,sigma_n\n50,2.4,0.01\n60,2.45,nan\n")
    with pytest.raises(DatasetError, match=":3: bad numeric field"):
        read_refractive_points(path)
    path.write_text("wavenumber_cm1,absorbance\n1.0,0.5\n1.1,nan\n")
    with pytest.raises(DatasetError, match=":3: bad numeric field"):
        read_spectrum(path)


@pytest.mark.parametrize("label", ["jz:3.1", "jz:8.6.7", "7.1-7.2", "8.1-9.2"])
def test_label_in_another_manifold_rejected(tmp_path, label):
    path = tmp_path / "lines.csv"
    m_z = "" if label.startswith("jz:") else "1/2"
    path.write_text(HEADER + f"{label},{m_z},5.4,0.02\n")
    with pytest.raises(DatasetError, match=":2: .*manifold"):
        read_dataset(path)


def test_dataset_in_half_integer_manifold(tmp_path):
    path = tmp_path / "lines.csv"
    path.write_text(HEADER + "7.5.1-7.5.2,1/2,5.4,0.02\njz:7.5.3,,1.5,0.02\n")
    dataset = read_dataset(path, j=7.5)
    assert [(r.kind, r.n_init, r.n_final) for r in dataset.rows] == [("hf", 1, 2), ("moment", 3, None)]
    with pytest.raises(DatasetError, match="manifold"):
        read_dataset(path)


def test_missing_and_undecodable_files_are_dataset_errors(tmp_path):
    from hfspec.datasets import read_refractive_points

    for reader in (read_dataset, read_refractive_points, read_spectrum):
        with pytest.raises(DatasetError, match="not found"):
            reader(tmp_path / "gone.csv")
    path = tmp_path / "latin1.csv"
    path.write_bytes(HEADER.encode() + b"8.1-8.2,1/2,7.3,0.01 # caf\xe9\n")
    for reader in (read_dataset, read_refractive_points, read_spectrum):
        with pytest.raises(DatasetError, match="latin1.csv"):
            reader(path)


def test_refractive_header_is_checked(tmp_path):
    from hfspec.datasets import read_refractive_points

    path = tmp_path / "n.csv"
    for header in ("nu_cm1,n", "NU_CM1,N,SIGMA_N", "wavenumber_cm1,n"):
        path.write_text(f"{header}\n50,2.4{',0.01' if header.count(',') == 2 else ''}\n")
        assert read_refractive_points(path).shape == (1, header.count(",") + 1)
    for header in ("nu_cm1,x", "nu_cm1,n,sigma", "nu_cm1"):
        path.write_text(f"{header}\n50,2.4\n")
        with pytest.raises(DatasetError, match=":1: bad header"):
            read_refractive_points(path)


def test_jz_row_with_m_z_rejected(tmp_path):
    path = tmp_path / "lines.csv"
    path.write_text(HEADER + "jz:8.6,7/2,-3.59,0.02\n")
    with pytest.raises(DatasetError, match=":2: a jz: row takes no m_z"):
        read_dataset(path)
