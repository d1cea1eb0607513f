import hashlib

import numpy as np
import pytest

from hfspec.datasets import (
    DatasetError,
    format_half_integer,
    read_dataset,
    read_expected_levels,
    read_refractive_points,
    write_dataset,
    write_spectrum,
)
from hfspec.fitting import ObservationRow, TransitionDataset
from hfspec.spectra import IsotopeConfig, PeakModel, Spectrum, TransitionLine, synthesize


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
    header, *rows = path.read_text().splitlines()
    assert header == "wavenumber_cm1,absorbance"
    back = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    assert np.allclose(back[:, 0], grid, atol=1e-7)
    assert np.allclose(back[:, 1], np.sin(grid), atol=1e-7)


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


def test_non_finite_refractive_cells_rejected(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("nu_cm1,n\n50,2.4\n60,inf\n70,2.5\n80,2.6\n")
    with pytest.raises(DatasetError, match=":3: bad numeric field"):
        read_refractive_points(path)
    path.write_text("nu_cm1,n,sigma_n\n50,2.4,0.01\n60,2.45,nan\n")
    with pytest.raises(DatasetError, match=":3: bad numeric field"):
        read_refractive_points(path)


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
    for reader in (read_dataset, read_refractive_points):
        with pytest.raises(DatasetError, match="not found"):
            reader(tmp_path / "gone.csv")
    path = tmp_path / "latin1.csv"
    path.write_bytes(HEADER.encode() + b"8.1-8.2,1/2,7.3,0.01 # caf\xe9\n")
    for reader in (read_dataset, read_refractive_points):
        with pytest.raises(DatasetError, match="latin1.csv"):
            reader(path)


def test_refractive_header_is_checked(tmp_path):
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


#: SHA-256 of what write_dataset and write_spectrum wrote for the files of
#: test_writers_write_the_recorded_bytes before both went through format_table
WRITTEN_SHA256 = {
    "lines.csv": "cbe143788d90cee80ac0388591971328dd6ca78919e874431e5dcecd86b16329",
    "spectrum.csv": "a3b64942998aa965aac2389fd1ddccbfd8ac49d53ad0af0f0f45d5dfe70650ce",
}


def test_writers_write_the_recorded_bytes(tmp_path, measured):
    """The bundled lines plus a hyperfine-averaged and a moment row, and a
    Gaussian spectrum whose tails reach 1e-254, write byte for byte as
    recorded."""
    extra = [ObservationRow("cf", 1, 4, None, 47.6, 0.05), ObservationRow("moment", 6, None, None, -3.59, 0.02)]
    write_dataset(tmp_path / "lines.csv", TransitionDataset(measured.rows + extra))
    lines = [TransitionLine(1, 2, m, 7.3 + 0.012 * m, intensity=1.0 / (1 + abs(m))) for m in np.arange(-3.5, 4.0)]
    spectrum = synthesize(
        lines, PeakModel("gaussian", 0.0, 0.004, 1.0), np.arange(7.2, 7.4, 0.0005),
        IsotopeConfig(splitting=0.0098, satellite_ratio=0.33, enabled=True),
    )
    write_spectrum(tmp_path / "spectrum.csv", spectrum)
    for name, digest in WRITTEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


#: (reader, file, diagnostic): every file breaks the rule that a table's first
#: record is its header and every later record is as wide as the header
BROKEN_TABLES = {
    "refractive-no-header": (read_refractive_points, "50,2.4\n60,2.45\n", ":1: bad header"),
    "levels-no-header": (read_expected_levels, "1,0.00,G34,5.40\n2,6.84,G2,\n", ":1: bad header"),
    "refractive-blank-cell": (read_refractive_points, "nu_cm1,n,sigma_n\n10,,0.01\n20,,0.01\n", ":2: bad numeric field"),
    "levels-blank-cell": (read_expected_levels, "n,energy_cm1,irrep,jz\n1,0.00,G34,5.40\n2,,G2,\n", ":3: bad numeric field"),
    "refractive-wider": (read_refractive_points, "nu_cm1,n\n50,2.4,0.01\n60,2.45,0.01\n", ":2: expected 2 columns, got 3"),
    "levels-wider": (read_expected_levels, "n,energy_cm1,irrep,jz\n1,0.00,G34,5.40,1\n", ":2: expected 4 columns, got 5"),
    "refractive-narrower": (read_refractive_points, "nu_cm1,n,sigma_n\n50,2.4\n60,2.45\n", ":2: expected 3 columns, got 2"),
    "levels-narrower": (read_expected_levels, "n,energy_cm1,irrep,jz\n1,0.00,G34\n", ":2: expected 4 columns, got 3"),
    "refractive-repeated-header": (read_refractive_points, "nu_cm1,n\n50,2.4\nnu_cm1,n\n60,2.45\n", ":3: bad numeric field"),
    "levels-repeated-header": (
        read_expected_levels, "n,energy_cm1,irrep,jz\n1,0.00,G34,5.40\nn,energy_cm1,irrep,jz\n2,6.84,G2,\n", ":3: invalid literal"
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_TABLES))
def test_table_rules(tmp_path, case):
    reader, text, diagnostic = BROKEN_TABLES[case]
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(DatasetError, match=diagnostic):
        reader(path)


@pytest.mark.parametrize("reader", [read_dataset, read_refractive_points, read_expected_levels])
def test_file_without_records_has_no_header(tmp_path, reader):
    path = tmp_path / "empty.csv"
    path.write_text("# only a comment\n\n")
    with pytest.raises(DatasetError, match=r"empty\.csv: no header; expected "):
        reader(path)


def test_level_table_reads_blank_jz_and_header_in_any_case(tmp_path):
    path = tmp_path / "levels.csv"
    path.write_text("N,Energy_cm1,IRREP,jz\n1,0.00,G34,5.40\n2,6.84,G2,\n")
    assert read_expected_levels(path) == [
        {"n": 1, "energy": 0.0, "irrep": "G34", "jz": 5.4},
        {"n": 2, "energy": 6.84, "irrep": "G2", "jz": None},
    ]
