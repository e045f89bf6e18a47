"""Test-only matrix builders and the cofactor-expansion determinant oracle.

Companion and block upper triangular matrices are inputs that the tests
build; eqlef itself never assembles them.  Determinants and unimodular
inverses are computed here by cofactor expansion, independently of
eqlef's own arithmetic.
"""

from eqlef.exact_algebra import IntMatrix, IntPolynomial


def laplace_det(rows):
    """Cofactor-expansion determinant over plain Python ints."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, pivot in enumerate(rows[0]):
        if pivot == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * pivot * laplace_det(minor)
    return total


def unimodular_inverse(u: IntMatrix) -> IntMatrix:
    """u⁻¹ = det(u)·adj(u) for det(u) = ±1, every cofactor by :func:`laplace_det`."""
    rows = u.to_rows()
    det = laplace_det(rows)
    assert det in (1, -1), f"determinant {det} is not ±1"
    n = len(rows)

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1 :] for k, row in enumerate(rows) if k != i]
        return (-1) ** (i + j) * laplace_det(minor)

    # adj(u)[i][j] is the (j, i) cofactor.
    return IntMatrix(n, n, tuple(det * cofactor(j, i) for i in range(n) for j in range(n)))


def companion_matrix(p: IntPolynomial) -> IntMatrix:
    """Companion matrix of a monic polynomial: ones below the diagonal, −p's coefficients last."""
    assert p.is_monic, f"companion matrix requires a monic polynomial, got {p}"
    n = p.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        if i:
            rows[i][i - 1] = 1
        rows[i][n - 1] = -p.coefficients[i]
    return IntMatrix.from_rows(rows) if n else IntMatrix.zeros(0, 0)


def block_upper_triangular(top_left: IntMatrix, top_right: IntMatrix, bottom_right: IntMatrix) -> IntMatrix:
    """``[[B, C], [0, D]]`` from compatible blocks."""
    rows = [list(top_left.row(i)) + list(top_right.row(i)) for i in range(top_left.rows)]
    rows += [[0] * top_left.cols + list(bottom_right.row(i)) for i in range(bottom_right.rows)]
    return IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, 0)
