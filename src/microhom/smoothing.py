"""Shift and averaging operators on the fine torus grid.

The averaging (Steklov) operator is a convex combination of exact grid
shifts over a symmetric lattice of offsets spanning one eps-cell, so it is
an L2 contraction that preserves constants, and every shift it uses is an
exact index rotation (no interpolation).
"""

from dataclasses import dataclass

import numpy as np

from .grids import GridFunction
from .operators import DiscreteOperator, matrix_op, stencil_matrix


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

    def lattice_1d(self):
        ls = np.arange(self.n_omega + 1)
        omega = -0.5 + ls / self.n_omega
        w = np.ones(self.n_omega + 1) / self.n_omega
        w[0] *= 0.5
        w[-1] *= 0.5
        shifts = ls - self.n_omega // 2
        return shifts, omega, w

    def lattice(self, dim):
        """Integer fast-grid shifts, offset vectors, weights; weights sum to 1."""
        s1, o1, w1 = self.lattice_1d()
        if dim == 1:
            return s1[:, None], o1[:, None], w1
        S1, S2 = np.meshgrid(s1, s1, indexing="ij")
        O1, O2 = np.meshgrid(o1, o1, indexing="ij")
        W = np.outer(w1, w1)
        shifts = np.stack([S1.ravel(), S2.ravel()], axis=-1)
        omegas = np.stack([O1.ravel(), O2.ravel()], axis=-1)
        return shifts, omegas, W.ravel()

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


def _offset_to_shift(u, offset):
    grid = u.grid
    offset = np.atleast_1d(np.asarray(offset, dtype=float))
    if offset.size != grid.dim:
        raise ValueError(f"offset has {offset.size} components, grid dim {grid.dim}")
    steps = offset / grid.h
    rounded = np.round(steps)
    if np.max(np.abs(steps - rounded)) > 1e-9:
        raise ValueError(f"offset {offset} is not on the grid (spacing {grid.h})")
    return rounded.astype(int)


def shift(u: GridFunction, offset) -> GridFunction:
    """Exact torus translation: (shift u)(x) = u(x + offset).

    The offset must be a grid vector; the rotation is an exact L2 isometry.
    """
    steps = _offset_to_shift(u, offset)
    vals = np.roll(u.values, tuple(-steps), axis=tuple(range(u.grid.dim)))
    return GridFunction(u.grid, vals)


def steklov(u: GridFunction, spec: SmoothingSpec) -> GridFunction:
    """Symmetric eps-cell average: sum_l w_l u(x - eps*omega_l)."""
    out = steklov_op(u.grid, spec).apply(u.values)
    return GridFunction(u.grid, out.reshape(u.grid.shape))


def steklov_op(grid, spec: SmoothingSpec) -> DiscreteOperator:
    """CSR matrix of u -> sum_l w_l u(x - eps*omega_l)."""
    spec.check_grid(grid)
    shifts, _, weights = spec.lattice(grid.dim)
    # the lattice is symmetric, so the operator is self-adjoint
    return matrix_op(stencil_matrix(grid, -shifts, weights), grid=grid,
                     symmetric=True, label="steklov")
