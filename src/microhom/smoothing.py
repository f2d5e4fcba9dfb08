"""Shift and averaging operators on the fine torus grid.

The averaging (Steklov) operator is a convex combination of exact grid
shifts over a symmetric lattice of offsets spanning one eps-cell, so it is
an L2 contraction that preserves constants, and every shift it uses is an
exact index rotation (no interpolation).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .operators import stencil_matrix


@dataclass(frozen=True)
class SmoothingSpec:
    """Quadrature data for eps-scale averaging.

    The offset lattice is the closed symmetric trapezoid rule with n_omega
    panels per axis on [-1/2, 1/2]: offsets -1/2 + l/n_omega for
    l = 0..n_omega, endpoint weights halved, tensorized over axes.  With
    n_omega points per eps-cell on the fine grid, every offset eps*omega is
    an exact multiple of the grid spacing.  `drift_order` sets the order of
    the Gauss rule for offset integrals without grid shifts (`offset_rule`).
    """
    eps: float
    n_omega: int
    drift_order: int = 0     # 0: dimension-dependent default

    def __post_init__(self):
        if self.n_omega < 2 or self.n_omega % 2:
            raise ValueError("n_omega must be even and >= 2")

    def lattice(self, dim):
        """Integer fast-grid shifts, offset vectors, weights; weights sum to 1.

        One row per node of the 1D rule tensorized over the dim axes, the
        last axis fastest; a node's weight is the product of its 1D weights.
        """
        ls = np.arange(self.n_omega + 1)
        w = np.ones(self.n_omega + 1) / self.n_omega
        w[[0, -1]] *= 0.5
        idx = np.stack([g.ravel() for g in np.meshgrid(*[ls] * dim, indexing="ij")], axis=-1)
        return idx - self.n_omega // 2, -0.5 + idx / self.n_omega, np.prod(w[idx], axis=-1)

    def offset_rule(self, dim):
        """1D Gauss-Legendre nodes and weights on the offset axis [-1/2, 1/2].

        For offset integrals with no grid-function shifts (the
        double-averaged matrix), tensorized over the dim axes by the
        caller: their integrands are analytic but not offset-periodic, so
        the uniform lattice would stall at O(n^-2) while Gauss converges
        spectrally.  The order must also resolve the integrand's
        cell-periodic oscillation, hence the dimension-dependent default
        above the lattice size.
        """
        order = self.drift_order or max(self.n_omega, 24 if dim == 1 else 12)
        x, w = np.polynomial.legendre.leggauss(order)
        return 0.5 * x, 0.5 * w

    def check_grid(self, grid):
        ratio = self.eps / grid.h
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) != self.n_omega:
            raise ValueError(
                f"grid mismatch: eps/h = {ratio} but the offset lattice has "
                f"{self.n_omega} panels per eps-cell")


def shift(values, offset):
    """Exact torus translation: (shift u)(x) = u(x + offset).

    `values` holds u at the nodes of a (n,)*d TorusGrid, whose spacing 1/n
    it fixes; the offset must be a grid vector, so the result is an exact
    index rotation and an L2 isometry.
    """
    values = np.asarray(values, dtype=float)
    d, n = values.ndim, values.shape[0]
    offset = np.atleast_1d(np.asarray(offset, dtype=float))
    if offset.size != d:
        raise ValueError(f"offset has {offset.size} components, grid dim {d}")
    steps = offset * n
    rounded = np.round(steps)
    if np.max(np.abs(steps - rounded)) > 1e-9:
        raise ValueError(f"offset {offset} is not on the grid (spacing {1.0 / n})")
    return np.roll(values, tuple(-rounded.astype(int)), axis=tuple(range(d)))


def steklov_op(grid, spec: SmoothingSpec) -> sp.csr_matrix:
    """The Steklov average u -> sum_l w_l u(x - eps*omega_l), one CSR matrix."""
    spec.check_grid(grid)
    shifts, _, weights = spec.lattice(grid.dim)
    # the lattice is symmetric, so the matrix is symmetric
    return stencil_matrix(grid, -shifts, weights)
