import numpy as np

from gflasso.fileio import default_headers, matrix_csv_text

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
