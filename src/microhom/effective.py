"""Effective matrices, flux deviations, and their skew potentials.

The effective matrix column is the cell average of the microscopic flux,

    a0(x) e^j = < a(x, .) (e^j + grad_y chi^j(x, .)) >,

the flux deviation is the zero-mean solenoidal remainder

    g^j(x, y) = a(x, y)(e^j + grad_y chi^j) - a0(x) e^j,

and its potential is a skew matrix field with div_y G^j = g^j, realized by
component-wise Poisson solves on the cell.
"""

from dataclasses import dataclass

import numpy as np

from .cell import CellSolutions, make_solver, sample_groups
from .errors import SolveError
from .grids import TorusGrid
from .spectral import calculus, trig_resample

_ENERGY_SLACK = 1.0 + 1e-6
_DIV_LIMIT = 1e-6   # largest divergence defect accepted (deviations, potentials)


@dataclass
class HomogenizedField:
    """Effective matrix a0 on the slow sample grid.

    `matrices` has shape (*slow_shape, d, d).  Assembly onto fine grids
    reads one entry at a time by trigonometric resampling of the
    analytic-in-x samples (`resample_entry`); `to_csv` writes the samples.
    """
    slow_grid: TorusGrid
    matrices: np.ndarray
    ellipticity: float
    lipschitz_quotient: float
    adjoint_defect: float

    @property
    def dim(self):
        return self.slow_grid.dim

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


def effective_matrix(cells: CellSolutions, field) -> HomogenizedField:
    """The cell table's effective columns, checked and packaged.

    Checks ellipticity of every sample against the field's claimed
    constant, records the adjacent-sample Lipschitz quotient, and verifies
    the adjoint identity: the effective matrix built from the adjoint cell
    solutions equals the transpose of the primal one.
    """
    d = cells.dim
    mats, mats_adj = cells.a0
    adjoint_defect = float(np.abs(mats_adj - np.swapaxes(mats, -1, -2)).max())

    lam = field.ellipticity
    flat = mats.reshape(-1, d, d)
    low = np.linalg.eigvalsh(0.5 * (flat + np.swapaxes(flat, -1, -2))).min(axis=-1)
    lost = low < lam * (1 - 1e-8) - 1e-12
    if lost.any():
        i = int(np.argmax(lost))
        raise SolveError(
            f"effective matrix lost ellipticity at sample {i}: {low[i]:.6g} < {lam:.6g}")

    lip = 0.0
    for ax in range(d):
        diff = np.roll(mats, -1, axis=ax) - mats
        lip = max(lip, float(np.linalg.norm(
            diff.reshape(-1, d, d), ord=2, axis=(-2, -1)).max()) / cells.slow_grid.h)

    return HomogenizedField(slow_grid=cells.slow_grid, matrices=mats, ellipticity=lam,
                            lipschitz_quotient=lip, adjoint_defect=adjoint_defect)


def _group_fluxes(cells: CellSolutions, field, families):
    """Per group of slow samples (`cell.sample_groups`), one cell solver for
    the field and, for each family in `families` (1: the adjoint one, which
    reads the transposed node matrix), the node flux a (e^j + grad_y chi^j)
    (S, j, m, *cell), its deviation from the node-quadrature cell mean and
    each sample's worst divergence defect.  Every direction is held to the
    gradient energy bound |grad chi^j| <= sqrt(d) / lam^2 (lam: the field's
    claimed ellipticity constant) and to solenoidality (the solver's
    `div_residual`: on finite volumes the scheme's own divergence of its
    flux, with no matrix assembled); a SolveError names the first failing
    sample and its first failing check.
    Yields (group, [(flux, dev, defect) per family]).
    """
    d, cell_grid = cells.dim, cells.cell_grid
    w = cell_grid.h ** d
    cell_axes = tuple(range(-d, 0))
    bound = np.sqrt(d) / field.ellipticity ** 2
    xs = cells.slow_grid.coords().reshape(-1, d)
    for g in sample_groups(len(xs), cell_grid):
        solver = make_solver(field.frozen(xs[g]), cell_grid, 1e-11, cells.method)
        out, checks = [], []
        for adj in families:
            chi = cells.chi[adj].reshape((-1, d) + cell_grid.shape)[g]
            grad = cells.grad_y_chi[adj].reshape((-1, d, d) + cell_grid.shape)[g]
            gnorm = np.sqrt(w * np.sum(grad ** 2, axis=(2,) + cell_axes)).max(axis=1)
            epg = grad + np.eye(d).reshape((d, d) + (1,) * d)
            a = np.swapaxes(solver.a, -1, -2) if adj else solver.a
            # C order: the default would follow a's (cell, p, q) layout, and the cell
            # means taken of the flux and its products reduce several times slower
            flux = np.einsum("s...pq,sjq...->sjp...", a, epg, order="C")
            dev = flux - flux.mean(axis=cell_axes, keepdims=True)
            res = solver.div_residual(chi, dev, adj)
            defect = np.sqrt(w * np.sum(res ** 2, axis=-1)).max(axis=-1)
            checks += [(gnorm > bound * _ENERGY_SLACK, gnorm, "cell gradient energy {:.3g} "
                        f"violates bound {bound:.3g}"),
                       (defect > _DIV_LIMIT, defect, "flux deviation not solenoidal: defect "
                        "{:.2e} (upstream cell table inconsistent with the field)")]
            out.append((flux, dev, defect))
        failed = np.array([bad for bad, *_ in checks])          # (check, sample)
        if failed.any():
            s = int(np.argmax(failed.any(axis=0)))
            _, values, message = checks[int(np.argmax(failed[:, s]))]
            raise SolveError(f"slow sample x = {xs[g][s]}: " + message.format(values[s]))
        yield g, out


def flux_corrector(cells: CellSolutions, field, adjoint=False):
    """Pointwise flux deviations g^j at the slow samples.

    Returns (deviation, div_defect): deviation[..., j, m, *cell] holds
    component m of g^j at the slow samples, div_defect the worst
    divergence defect.  With adjoint=True, builds the deviation of the
    transposed field from the adjoint cell solutions.  Every sample goes
    through the flux walk of the coefficient tensors (`_group_fluxes`):
    the mean is removed with the same node quadrature that defines it, so
    the zero-mean identity holds at machine precision, and the energy
    bound and solenoidality are checked sample by sample.
    """
    d = cells.dim
    dev = np.zeros((cells.slow_grid.size, d, d) + cells.cell_grid.shape)
    worst = 0.0
    for g, [(_, dev_g, defect)] in _group_fluxes(cells, field, [int(adjoint)]):
        dev[g] = dev_g
        worst = max(worst, float(defect.max()))
    return dev.reshape(cells.slow_grid.shape + dev.shape[1:]), worst


def vector_potential(deviation, cell_grid: TorusGrid):
    """The skew potentials G^j with div_y G^j = g^j, all samples at once.

    deviation: (*lead, j, m, *cell), as `flux_corrector` returns it.
    Construction: solve -Laplace(phi^j_q) = g^j_q componentwise with zero
    mean on the cell, then G^j_pq = d_p phi^j_q - d_q phi^j_p.  Skew
    symmetry is exact by construction; the divergence identity holds
    because div phi is harmonic with zero mean, hence zero.  Returns
    (potential, bound_ratio, div_defect): the full skew matrices
    potential[..., j, p, q, *cell], the worst ratio ||G^j||_H1 / ||g^j||_L2
    and the worst divergence defect ||div G^j - g^j||_L2.  In 1D the
    potential is 0 and no defect is measured.
    """
    d, cshape = cell_grid.dim, cell_grid.shape
    if deviation.shape[-d:] != cshape:
        raise ValueError(f"deviation cell axes {deviation.shape[-d:]} do not match "
                         f"the potential grid {cshape}")
    if d == 1:
        return np.zeros(deviation.shape[:-d] + (d,) + cshape), 0.0, 0.0
    calc = calculus(cshape)
    w = cell_grid.h ** d
    cell_axes = tuple(range(-d, 0))
    dphi = calc.grad(calc.poisson(deviation))            # [..., q, p] = d_p phi_q
    potential = np.swapaxes(dphi, -d - 2, -d - 1) - dphi
    defect = np.sqrt(w * np.sum((calc.div(potential) - deviation) ** 2,
                                axis=(-d - 1,) + cell_axes))
    g_l2 = np.sqrt(w * np.sum(deviation ** 2, axis=(-d - 1,) + cell_axes))
    h1 = np.sqrt(w * (np.sum(potential ** 2, axis=(-d - 2, -d - 1) + cell_axes)
                      + np.sum(calc.grad(potential) ** 2,
                               axis=(-d - 3, -d - 2, -d - 1) + cell_axes)))
    ratio = float(np.max(h1[g_l2 > 0] / g_l2[g_l2 > 0], initial=0.0))
    div_defect = float(defect.max(initial=0.0))
    if div_defect > _DIV_LIMIT:
        raise SolveError(f"potential divergence defect {div_defect:.2e} too large")
    return potential, ratio, div_defect
