"""Effective matrices, flux deviations, and their skew potentials.

The effective matrix column is the cell average of the microscopic flux,

    a0(x) e^j = < a(x, .) (e^j + grad_y chi^j(x, .)) >,

the flux deviation is the zero-mean solenoidal remainder

    g^j(x, y) = a(x, y)(e^j + grad_y chi^j) - a0(x) e^j,

and its potential is a skew matrix field with div_y G^j = g^j, realized by
component-wise Poisson solves on the cell.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cell import CellField, CellSolutions, make_solver
from .errors import SolveError
from .grids import TorusGrid, centered_diff, corners
from .spectral import calculus, trig_resample


@dataclass
class HomogenizedField:
    """Effective matrix a0 on the slow sample grid.

    `matrices` has shape (*slow_shape, d, d).  Off-sample evaluation is
    multilinear (`at`); assembly onto fine grids uses trigonometric
    resampling of the analytic-in-x samples (`resample_entry`).
    """
    slow_grid: TorusGrid
    matrices: np.ndarray
    ellipticity: float
    lipschitz_quotient: float
    symmetric: bool
    adjoint_defect: float = 0.0

    @property
    def dim(self):
        return self.slow_grid.dim

    def at(self, x):
        """Multilinear periodic interpolation at points x of shape (..., d)."""
        return multilinear(self.matrices, self.slow_grid, x)

    def resample_entry(self, p, q, n_to, face_axis=None):
        """Entry (p, q) on a uniform n_to grid, optionally at face midpoints."""
        offset = None
        if face_axis is not None:
            offset = np.zeros(self.dim)
            offset[face_axis] = 0.5 / n_to
        return trig_resample(self.matrices[..., p, q], n_to, offset=offset)

    def to_csv(self):
        lines = []
        header = [f"x{ax}" for ax in range(self.dim)]
        header += [f"a0_{p}{q}" for p in range(self.dim) for q in range(self.dim)]
        lines.append(",".join(header))
        coords = self.slow_grid.coords().reshape(-1, self.dim)
        mats = self.matrices.reshape(-1, self.dim, self.dim)
        for x, m in zip(coords, mats):
            row = [f"{c:.12e}" for c in x]
            row += [f"{m[p, q]:.12e}" for p in range(self.dim) for q in range(self.dim)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def multilinear(table, slow_grid, x):
    """Periodic multilinear interpolation over the leading slow axes.

    table: (*slow_shape, *rest); x: (..., d).  Returns (..., *rest).
    """
    d = slow_grid.dim
    x = np.asarray(x, dtype=float)
    idx, wts = corners(slow_grid.n, x.reshape(-1, d))
    flat = table.reshape((slow_grid.size, -1))
    out = wts[0][:, None] * flat[idx[0]]
    for i, w in zip(idx[1:], wts[1:]):
        out = out + w[:, None] * flat[i]
    return out.reshape(x.shape[:-1] + table.shape[d:])


def effective_matrix(cells: CellSolutions, field) -> HomogenizedField:
    """Cell-average flux response at every slow sample.

    Checks ellipticity of every sample against the field's claimed
    constant, records the adjacent-sample Lipschitz quotient, and verifies
    the adjoint identity: the effective matrix built from the adjoint cell
    solutions equals the transpose of the primal one.
    """
    d = cells.dim
    xs = cells.slow_grid.coords().reshape(-1, d)
    cshape = cells.cell_grid.shape
    n_slow = xs.shape[0]
    mats = np.zeros((n_slow, d, d))
    mats_adj = np.zeros((n_slow, d, d))
    for fld, chi, gy, out in ((field, cells.chi, cells.grad_y_chi, mats),
                              (field.transposed(), cells.chi_adj, cells.grad_y_chi_adj,
                               mats_adj)):
        chi = chi.reshape((n_slow, d) + cshape)
        gy = gy.reshape((n_slow, d, d) + cshape)
        for i, x in enumerate(xs):
            solver = make_solver(fld.frozen(x), cells.cell_grid, 1e-11, cells.method)
            for j in range(d):
                cf = CellField(chi[i, j], gy[i, j], 0.0, cells.method)
                out[i, :, j] = solver.effective_column(cf, j)

    adjoint_defect = float(np.abs(mats_adj - np.swapaxes(mats, -1, -2)).max())

    lam = field.ellipticity
    for i in range(n_slow):
        sym = 0.5 * (mats[i] + mats[i].T)
        low = float(np.linalg.eigvalsh(sym).min())
        if low < lam * (1 - 1e-8) - 1e-12:
            raise SolveError(
                f"effective matrix lost ellipticity at sample {i}: {low:.6g} < {lam:.6g}")

    mats = mats.reshape(cells.slow_grid.shape + (d, d))
    lip = 0.0
    for ax in range(d):
        diff = np.roll(mats, -1, axis=ax) - mats
        lip = max(lip, float(np.linalg.norm(
            diff.reshape(-1, d, d), ord=2, axis=(-2, -1)).max()) / cells.slow_grid.h)

    return HomogenizedField(slow_grid=cells.slow_grid, matrices=mats,
                            ellipticity=lam, lipschitz_quotient=lip,
                            symmetric=field.symmetric, adjoint_defect=adjoint_defect)


@dataclass
class FluxCorrector:
    """Zero-mean solenoidal flux deviations and their skew potentials.

    deviation[..., j, m, cell...] holds component m of g^j at the slow
    samples; potential stores only the strictly-upper-triangle components
    of the skew matrix G^j (empty in 1D).  Slow gradients of the potential
    are computed on demand (`grad_x_potential`).
    """
    slow_grid: TorusGrid
    cell_grid: TorusGrid
    deviation: np.ndarray                     # (*slow, d, d, *cell)
    adjoint: bool = False
    potential_upper: Optional[np.ndarray] = None   # (*slow, d, n_upper, *cell)
    potential_bound_ratio: float = 0.0
    div_defect: float = 0.0

    @property
    def dim(self):
        return self.cell_grid.dim

    def potential_matrix(self, slow_index, j):
        """Full skew matrix G^j at one slow sample, shape (d, d, *cell)."""
        if self.potential_upper is None:
            raise ValueError("potential not built; call vector_potential first")
        d = self.dim
        out = np.zeros((d, d) + self.cell_grid.shape)
        t = 0
        for i in range(d):
            for k in range(i + 1, d):
                comp = self.potential_upper[slow_index + (j, t)]
                out[i, k] = comp
                out[k, i] = -comp
                t += 1
        return out

    def grad_x_potential(self, j):
        """Centered slow-grid differences of the potential components."""
        if self.potential_upper is None:
            raise ValueError("potential not built; call vector_potential first")
        d = self.dim
        comp = self.potential_upper[..., j, :, :, :] if d == 2 else self.potential_upper
        return np.stack([centered_diff(comp, ax, self.slow_grid.h) for ax in range(d)],
                        axis=d)


def flux_corrector(cells: CellSolutions, field, hom: HomogenizedField,
                   adjoint=False) -> FluxCorrector:
    """Pointwise flux deviation g^j per slow sample.

    With adjoint=True, builds the deviation of the transposed field from
    the adjoint cell solutions (used by the coefficient tensors).  The mean
    is removed with the same node quadrature that defines it, so the
    zero-mean identity holds at machine precision; solenoidality is
    inherited from the cell residual.
    """
    d = cells.dim
    if adjoint:
        fld = field.transposed()
        gy = cells.grad_y_chi_adj
    else:
        fld = field
        gy = cells.grad_y_chi
    xs = cells.slow_grid.coords()
    ys = cells.cell_grid.coords()
    cell_axes = tuple(range(-d, 0))

    # a(x_i, y) for all samples and cell nodes: (*slow, *cell, d, d)
    xb = xs.reshape(xs.shape[:-1] + (1,) * d + (d,))
    a = fld.eval(np.broadcast_to(xb, xs.shape[:-1] + ys.shape),
                 np.broadcast_to(ys, xs.shape[:-1] + ys.shape))

    dev = np.zeros(cells.slow_grid.shape + (d, d) + cells.cell_grid.shape)
    for j in range(d):
        grad = np.take(gy, j, axis=d)       # (*slow, d, *cell)
        e_plus_grad = grad.copy()
        idx = (Ellipsis, j) + (slice(None),) * d
        e_plus_grad[idx] += 1.0
        flux = _flux(a, e_plus_grad, d)     # (*slow, d, *cell)
        mean = flux.mean(axis=cell_axes, keepdims=True)
        dev[(Ellipsis, j) + (slice(None),) * (d + 1)] = flux - mean

    fc = FluxCorrector(slow_grid=cells.slow_grid, cell_grid=cells.cell_grid,
                       deviation=dev, adjoint=adjoint)
    if cells.method == "fv":
        fc.div_defect = _divergence_defect_fv(cells, fld, adjoint)
    else:
        fc.div_defect = _divergence_defect(fc)
    if fc.div_defect > 1e-6:
        raise SolveError(f"flux deviation not solenoidal: defect {fc.div_defect:.2e} "
                         "(upstream cell table inconsistent with the field)")
    return fc


def _flux(a, e_plus_grad, d):
    """flux[..., m(comp), cell...] = sum_q a[..., cell..., m, q] epg[..., q(comp), cell...]"""
    if d == 1:
        return a[..., 0, 0][..., None, :] * e_plus_grad
    # d == 2: a (*slow, cy1, cy2, 2, 2); epg (*slow, 2, cy1, cy2)
    return np.einsum("...yzpq,...qyz->...pyz", a, e_plus_grad)


def _divergence_defect(fc):
    """Max spectral-divergence norm of the deviations over samples and j."""
    d = fc.dim
    calc = calculus(fc.cell_grid.shape)
    w = fc.cell_grid.h ** d
    dev = fc.deviation.reshape((-1, d, d) + fc.cell_grid.shape)
    worst = 0.0
    for i in range(dev.shape[0]):
        for j in range(d):
            div = calc.div(dev[i, j])
            worst = max(worst, np.sqrt(w * float(np.sum(div ** 2))))
    return worst


def _divergence_defect_fv(cells, fld, adjoint):
    """Conservative-scheme divergence of the microscopic flux per sample.

    For finite-volume cell tables the flux deviation carries kinks, so
    solenoidality is measured in the scheme's own sense: the flux
    differencing that defined the solve.
    """
    d = cells.dim
    grid = cells.cell_grid
    w = grid.h ** d
    xs = cells.slow_grid.coords().reshape(-1, d)
    chi = (cells.chi_adj if adjoint else cells.chi).reshape((-1, d) + grid.shape)
    worst = 0.0
    for i, x in enumerate(xs):
        solver = make_solver(fld.frozen(x), grid, 1e-11, "fv")
        for j in range(d):
            res = solver.mat @ chi[i, j].ravel() - solver._rhs(j).ravel()
            worst = max(worst, np.sqrt(w * float(np.sum(res ** 2))))
    return worst


def vector_potential(fc: FluxCorrector, grid: TorusGrid) -> FluxCorrector:
    """Fill the skew potentials G^j with div_y G^j = g^j.

    Construction: solve -Laplace(phi^j_k) = g^j_k componentwise with zero
    mean on the cell, then G^j_ik = d_i phi^j_k - d_k phi^j_i.  Skew
    symmetry is exact by construction; the divergence identity holds
    because div phi is harmonic with zero mean, hence zero.  Records the
    worst ratio ||G||_H1 / ||g||_L2 and the divergence defect.
    """
    if grid != fc.cell_grid:
        raise ValueError("potential grid must match the corrector's cell grid")
    d = fc.dim
    n_upper = d * (d - 1) // 2
    sshape = fc.slow_grid.shape
    cshape = grid.shape
    fc.potential_upper = np.zeros(sshape + (d, n_upper) + cshape)
    if d == 1:
        fc.potential_bound_ratio = 0.0
        return fc
    calc = calculus(cshape)
    w = grid.h ** d
    dev = fc.deviation.reshape((-1, d, d) + cshape)
    pot = fc.potential_upper.reshape((-1, d, n_upper) + cshape)
    worst_ratio = 0.0
    worst_div = 0.0
    for i in range(dev.shape[0]):
        for j in range(d):
            g = dev[i, j]
            phi = np.stack([calc.poisson(g[k]) for k in range(d)])
            dphi = np.stack([calc.grad(phi[k]) for k in range(d)])  # (k, i, cell)
            t = 0
            gmat = np.zeros((d, d) + cshape)
            for p in range(d):
                for q in range(p + 1, d):
                    comp = dphi[q][p] - dphi[p][q]   # d_p phi_q - d_q phi_p
                    pot[i, j, t] = comp
                    gmat[p, q] = comp
                    gmat[q, p] = -comp
                    t += 1
            div_g = np.stack([calc.div(gmat[p]) for p in range(d)])
            defect = np.sqrt(w * float(np.sum((div_g - g) ** 2)))
            worst_div = max(worst_div, defect)
            g_l2 = np.sqrt(w * float(np.sum(g ** 2)))
            if g_l2 > 0:
                h1_sq = w * (float(np.sum(gmat ** 2))
                             + sum(float(np.sum(calc.grad(gmat[p][q_]) ** 2))
                                   for p in range(d) for q_ in range(d)))
                worst_ratio = max(worst_ratio, np.sqrt(h1_sq) / g_l2)
    fc.potential_bound_ratio = worst_ratio
    fc.div_defect = max(fc.div_defect, worst_div)
    if worst_div > 1e-6:
        raise SolveError(f"potential divergence defect {worst_div:.2e} too large")
    return fc
