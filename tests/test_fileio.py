import numpy as np
import pytest

from gflasso.fileio import atomic_write_text, default_headers, matrix_csv_text, read_json, read_matrix_csv

from oracles import matrix_csv_text_per_cell


def test_matrix_csv_text_matches_the_per_cell_formatter():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n, k = rng.integers(0, 8), rng.integers(0, 8)
        M = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-300, 301, size=(n, k))
        M[rng.random((n, k)) < 0.2] = 0.0
        M[rng.random((n, k)) < 0.1] = -0.0
        header = default_headers("y", k)
        assert matrix_csv_text(M, header) == matrix_csv_text_per_cell(M, header)


def test_byte_order_mark_is_not_part_of_the_first_header(tmp_path):
    path = tmp_path / "X.csv"
    path.write_bytes(b"\xef\xbb\xbfx1,x2\r\n1,2\r\n")
    M, header = read_matrix_csv(path)
    assert header == ["x1", "x2"]
    assert M.tolist() == [[1.0, 2.0]]


def test_files_are_written_and_read_as_utf8(tmp_path):
    atomic_write_text(tmp_path / "doc.json", '{"name": "\u00e9"}\n')
    assert (tmp_path / "doc.json").read_bytes() == b'{"name": "\xc3\xa9"}\n'
    assert read_json(tmp_path / "doc.json") == {"name": "\u00e9"}
    (tmp_path / "Y.csv").write_bytes("\u00e9,y2\n1,2\n".encode("utf-8"))
    assert read_matrix_csv(tmp_path / "Y.csv")[1] == ["\u00e9", "y2"]


def test_a_line_that_is_not_utf8_is_named(tmp_path):
    # blank lines count: the Latin-1 byte 0xE9 sits on the fourth line of the file
    path = tmp_path / "X.csv"
    path.write_bytes(b"x1,x2\n1,2\n\n3,\xe9\n")
    with pytest.raises(ValueError, match=r"X\.csv: line 4 is not UTF-8: .*byte 0xe9 in position 2"):
        read_matrix_csv(path)
