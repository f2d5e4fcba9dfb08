"""Uniform periodic grids and grid functions on the unit torus."""

import numpy as np


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


class GridFunction:
    """Scalar field sampled at the nodes of a TorusGrid."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    def copy(self):
        return GridFunction(self.grid, self.values.copy())

    def __repr__(self):
        return f"GridFunction(grid={self.grid!r})"


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


def centered_gradient(values, h):
    """Stack of centered differences, shape (d, *values.shape)."""
    return np.stack([centered_diff(values, ax, h) for ax in range(values.ndim)])


def norms(u):
    """L2 and H1 norms of a grid function.

    The L2 norm uses the uniform node quadrature (the periodic trapezoid
    rule, exact on the grid); the H1 norm adds the centered-difference
    gradient energy.
    """
    g = u.grid
    w = g.h ** g.dim
    l2_sq = w * float(np.sum(u.values ** 2))
    grad_sq = 0.0
    for ax in range(g.dim):
        d = centered_diff(u.values, ax, g.h)
        grad_sq += w * float(np.sum(d ** 2))
    return np.sqrt(l2_sq), np.sqrt(l2_sq + grad_sq)
