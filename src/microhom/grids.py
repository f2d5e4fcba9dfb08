"""Uniform periodic grids on the unit torus, their differences and interpolation."""

import numpy as np
import scipy.sparse as sp


class TorusGrid:
    """Uniform tensor grid on the unit torus [0, 1)^d with n points per axis.

    Node k sits at k/n along each axis; spacing h = 1/n.  The same structure
    serves the unit microstructure cell, the coarse grid of slow sample
    points, and the fine grid that resolves the oscillations.
    """

    def __init__(self, dim, n):
        if dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {dim}")
        n = int(n)
        if n < 2:
            raise ValueError(f"need at least 2 points per axis, got {n}")
        self.dim = dim
        self.n = n
        self.h = 1.0 / n
        self.shape = (n,) * dim
        self.size = n ** dim

    def axis_coords(self):
        return np.arange(self.n) / self.n

    def coords(self):
        """Node coordinates, shape (*shape, dim)."""
        axes = np.meshgrid(*([self.axis_coords()] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    def face_coords(self, axis):
        """Midpoints of the faces between node i and i + e_axis."""
        x = self.coords().copy()
        x[..., axis] += 0.5 * self.h
        return x

    def __eq__(self, other):
        return (isinstance(other, TorusGrid)
                and self.dim == other.dim and self.n == other.n)

    def __hash__(self):
        return hash((self.dim, self.n))

    def __repr__(self):
        return f"TorusGrid(dim={self.dim}, n={self.n})"


def centered_diff(values, axis, h):
    """Second-order centered difference along one periodic axis."""
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) * (1.0 / (2.0 * h))


def corners(n, pts):
    """Corner nodes and weights of periodic multilinear interpolation.

    pts: (N, d) points on the unit torus, interpolated from the (n,)*d grid
    of nodes k/n.  Returns C-order flat node indices (2^d, N) and weights
    (2^d, N); the first axis varies fastest over the corners.
    """
    d = pts.shape[-1]
    u = np.mod(pts, 1.0) * n
    i0 = np.floor(u).astype(int) % n
    w = u - np.floor(u)
    ends = ((i0, 1 - w), ((i0 + 1) % n, w))
    idx, wts = [], []
    for c in range(2 ** d):
        bits = [(c >> ax) & 1 for ax in range(d)]
        idx.append(np.ravel_multi_index(
            tuple(ends[b][0][:, ax] for ax, b in enumerate(bits)), (n,) * d))
        wt = ends[bits[0]][1][:, 0]
        for ax in range(1, d):
            wt = wt * ends[bits[ax]][1][:, ax]
        wts.append(wt)
    return np.stack(idx), np.stack(wts)


def interp_matrix(n, pts, fast=None, n_fast=1):
    """CSR matrix of periodic multilinear interpolation from the (n,)*d nodes.

    One row per point of pts (N, d), holding the 2^d `corners` entries in
    their order.  With `fast` ((N,) indices below n_fast) the columns are
    node * n_fast + fast[p], so the matrix reads a table laid out as
    (n^d * n_fast, ...) at each point's own fast index.
    """
    idx, wts = corners(n, pts)
    if fast is not None:
        idx = idx * n_fast + fast
    k, npts = idx.shape
    indptr = np.arange(0, k * npts + 1, k, dtype=np.int32)
    return sp.csr_matrix((wts.T.ravel(), idx.T.astype(np.int32).ravel(), indptr),
                         shape=(npts, n ** pts.shape[-1] * n_fast))

