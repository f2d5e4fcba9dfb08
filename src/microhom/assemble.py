"""Conservative discretization of -div(a grad u) + c u on torus grids.

Diagonal tensor entries are sampled at face midpoints and discretized with
conservative two-point fluxes; off-diagonal entries are sampled at nodes and
discretized with nested centered differences.  This split keeps the scheme
second order, conservative, and gives the exact matrix identity
A(a^T) = A(a)^T, which the adjoint checks rely on.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .operators import DiscreteOperator, matrix_op


def assemble_diffusion(grid, diag_faces, cross_nodes=None, mass=0.0):
    """Sparse matrix of -div(a grad .) + mass * I.

    Parameters
    ----------
    grid : TorusGrid
    diag_faces : list of d arrays, diag_faces[m][i] = a_mm at the face
        between node i and i + e_m
    cross_nodes : dict {(m, k): array} of node samples of a_mk, m != k
    mass : coefficient of the identity part
    """
    d = grid.dim
    shape = grid.shape
    n = grid.size
    h2 = grid.h ** 2
    idx = np.arange(n).reshape(shape)

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(v.ravel())

    for m in range(d):
        af = np.asarray(diag_faces[m], dtype=float)
        ip = np.roll(idx, -1, axis=m)          # node i + e_m
        af_minus = np.roll(af, 1, axis=m)      # face between i - e_m and i
        add(idx, idx, (af + af_minus) / h2)
        add(idx, ip, -af / h2)
        add(ip, idx, -af / h2)

    if cross_nodes:
        for (m, k), c in cross_nodes.items():
            if m == k:
                raise ValueError("cross_nodes keys must have m != k")
            c = np.asarray(c, dtype=float)
            cp = np.roll(c, -1, axis=m)        # c at i + e_m
            cm = np.roll(c, 1, axis=m)
            # -D0_m(c D0_k u): four shifted-diagonal bands
            i_pp = np.roll(np.roll(idx, -1, axis=m), -1, axis=k)
            i_pm = np.roll(np.roll(idx, -1, axis=m), 1, axis=k)
            i_mp = np.roll(np.roll(idx, 1, axis=m), -1, axis=k)
            i_mm = np.roll(np.roll(idx, 1, axis=m), 1, axis=k)
            q = 1.0 / (4.0 * h2)
            add(idx, i_pp, -q * cp)
            add(idx, i_pm, q * cp)
            add(idx, i_mp, q * cm)
            add(idx, i_mm, -q * cm)

    if mass:
        add(idx, idx, np.full(shape, float(mass)))

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def _sample_coefficient(field, grid, eps=None):
    """Face and node samples of a(x, x/eps) (or a0(x) when eps is None)."""
    d = grid.dim

    def a_at(x):
        if eps is None:
            return field(x)
        return field.eval(x, x / eps)

    diag_faces = []
    for m in range(d):
        xf = grid.face_coords(m)
        diag_faces.append(a_at(xf)[..., m, m])
    cross = {}
    if d > 1:
        a_nodes = a_at(grid.coords())
        for m in range(d):
            for k in range(d):
                if m != k:
                    cross[(m, k)] = a_nodes[..., m, k]
    return diag_faces, cross


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
    diag_faces, cross = _sample_coefficient(field, grid, eps=eps)
    mat = assemble_diffusion(grid, diag_faces, cross, mass=1.0)
    return matrix_op(mat, grid=grid, label=f"A_eps(1/{k})+1")


def assemble_homogenized(hom, grid):
    """Discrete A0 + I with the slowly varying effective coefficient."""
    d = grid.dim
    diag_faces = []
    for m in range(d):
        vals = hom.resample_entry(m, m, grid.n, face_axis=m)
        diag_faces.append(vals)
    cross = {}
    if d > 1:
        for m in range(d):
            for k in range(d):
                if m != k:
                    cross[(m, k)] = hom.resample_entry(m, k, grid.n)
    mat = assemble_diffusion(grid, diag_faces, cross, mass=1.0)
    return matrix_op(mat, grid=grid, label="A0+1")


def resolvent_op(assembled, label=None):
    """LU-backed inverse of an assembled operator; transposed solves share the factors."""
    lu = spla.splu(assembled.matrix.tocsc())
    op = DiscreteOperator(assembled.shape, lu.solve, lambda x: lu.solve(x, trans="T"),
                          grid=assembled.grid, label=label or f"({assembled.label})^-1")
    op.lu = lu
    return op

