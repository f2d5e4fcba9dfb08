"""Smoothed correctors, coefficient tensors, and the composed operators.

All objects here are built from the cell tables, the flux deviations, and
the homogenized resolvent:

  * the smoothed corrector applies the cell solutions along a symmetric
    offset lattice: K(x) = sum_l w_l chi(x - eps w_l, x/eps) . grad u(x - eps w_l);
  * third/second-order coefficient tensors pair flux deviations with the
    adjoint cell solutions and slow gradients;
  * the eps-free composed operator sandwiches those differential operators
    between homogenized resolvents;
  * the double-averaged matrix contracts the slow difference quotient of
    the coefficient with both families of cell gradients over a tensor
    Gauss rule of offsets, read off the cell tables by one map per cell axis.

The smoothed corrector's fast-variable evaluations land on the n_f-point
sublattice of the cell by construction (its offsets are grid multiples), so
its cell data is restricted once per sweep point and then only gathered.

Every factor that does not solve (the kernel quadrature of the centered
gradient for K and for K-tilde, and the differential core of the composed
operator) is assembled once per eps as one CSR matrix, so applying it is one
sparse product and its transpose is exact by construction; only the
homogenized resolvents stay LU solves.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assemble import assemble_diffusion
from .effective import _flux, flux_corrector, multilinear
from .grids import GridFunction, TorusGrid, corners
from .operators import DiscreteOperator, diff_matrix, matrix_op, stencil_matrix
from .smoothing import SmoothingSpec
from .spectral import integer_freqs


def _restrict_cell_axes(table, d, n_f):
    """The trailing d cell axes restricted to the n_f-point fast sublattice."""
    n_y = table.shape[-1]
    if n_y % n_f:
        raise ValueError(f"n_f = {n_f} does not divide n_y = {n_y}")
    return table[(Ellipsis,) + (slice(None, None, n_y // n_f),) * d]


def _fast_index(grid, n_f, rho=0):
    """Flat fast-sublattice index of (fine node + rho) mod n_f at each fine node."""
    nodes = np.indices(grid.shape).reshape(grid.dim, -1)
    return np.ravel_multi_index(nodes + np.reshape(rho, (-1, 1)), (n_f,) * grid.dim,
                                mode="wrap")


def _fine_gather(table, slow_corners, fidx):
    """Fast samples slow-interpolated onto the fine nodes.

    table: (n_slow, *comp, n_f^d); slow_corners: `grids.corners` of the
    slow grid at the N fine nodes; fidx: (N,) fast index.  Returns
    (N, *comp) with entries sum_c w_c table[idx_c, ..., fidx].
    """
    out = np.zeros((fidx.size,) + table.shape[1:-1])
    for i, w in zip(*slow_corners):
        out += w.reshape((-1,) + (1,) * (out.ndim - 1)) * table[i, ..., fidx]
    return out


class CorrectorKernel:
    """Cell solutions evaluated over the fine grid for every fast residue.

    fields[rho][j] is the fine-grid array of chi^j(z, ((i + rho) mod n_f)/n_f)
    with z the fine node and i its fast index; the offset-lattice operator
    only ever needs these n_f^d residue fields.
    """

    def __init__(self, cells, grid, eps, n_f, adjoint=False):
        d = cells.dim
        if grid.n % n_f or abs(grid.n * eps - n_f) > 1e-9:
            raise ValueError("fine grid must carry exactly n_f points per eps-cell")
        self.grid = grid
        self.n_f = n_f
        self.dim = d
        table = cells.chi_adj if adjoint else cells.chi
        fast = _restrict_cell_axes(table, d, n_f).reshape(cells.slow_grid.size, d, -1)
        slow_corners = corners(cells.slow_grid.n, grid.coords().reshape(-1, d))
        self.fields = {}
        for rho in np.ndindex((n_f,) * d):
            per_j = _fine_gather(fast, slow_corners, _fast_index(grid, n_f, rho))
            self.fields[rho] = np.ascontiguousarray(per_j.T).reshape((d,) + grid.shape)

    def field(self, shift_vec):
        rho = tuple(int(s) % self.n_f for s in shift_vec)
        return self.fields[rho]


def _quad_grad_matrix(cells, spec, grid, adjoint):
    """CSR matrix of u -> sum_l w_l chi(x - eps w_l, x/eps) . grad u(x - eps w_l).

    Row x reads u at x - s_l +- e_j with weight +-w_l chi^j(x - s_l) / 2h,
    where s_l is the grid shift of eps w_l and chi^j the residue field of s_l.
    """
    spec.check_grid(grid)
    kernel = CorrectorKernel(cells, grid, spec.eps, spec.n_omega, adjoint=adjoint)
    d = grid.dim
    shifts, _, weights = spec.lattice(d)
    eye = np.eye(d, dtype=int)
    offsets = [-s + sign * eye[j] for s in shifts for j in range(d) for sign in (1, -1)]

    def coeffs():
        for s, w in zip(shifts, weights):
            fld = np.roll(kernel.field(s), tuple(s), axis=tuple(range(1, d + 1)))
            for j in range(d):
                c = (w / (2.0 * grid.h)) * fld[j].ravel()
                yield c
                yield -c

    return stencil_matrix(grid, offsets, coeffs())


def _smoothed_corrector(u, cells, spec, adjoint):
    mat = _quad_grad_matrix(cells, spec, u.grid, adjoint)
    return GridFunction(u.grid, (mat @ u.values.ravel()).reshape(u.grid.shape))


def corrector_K(u_hom: GridFunction, cells, spec: SmoothingSpec) -> GridFunction:
    """Smoothed corrector of a homogenized solution.

    K(x) = sum_l w_l chi(x - eps w_l, x/eps) . grad u_hom(x - eps w_l),
    with the slow argument interpolated multilinearly from the sample grid
    and the fast argument landing on the cell sublattice.
    """
    return _smoothed_corrector(u_hom, cells, spec, adjoint=False)


def corrector_Ktilde(v_hom: GridFunction, cells, spec: SmoothingSpec) -> GridFunction:
    """Smoothed corrector of the adjoint problem's homogenized solution."""
    return _smoothed_corrector(v_hom, cells, spec, adjoint=True)


def corrector_op(cells, spec: SmoothingSpec, grid, resolvent: DiscreteOperator,
                 adjoint=False) -> DiscreteOperator:
    """The corrector as an operator on right-hand sides.

    Composition: resolve, then apply the kernel quadrature of the centered
    gradient, one CSR matrix per eps.  For the adjoint corrector pass the
    transposed homogenized resolvent.  The true adjoint of the returned
    operator (via .T) realizes the divergence-form identity
    resolvent^T . (-div) . kernel-quadrature^T without further derivation.
    """
    quad = matrix_op(_quad_grad_matrix(cells, spec, grid, adjoint), grid=grid,
                     label="kernel-quad")
    op = quad @ resolvent
    op.label = "Ktilde" if adjoint else "K"
    return op


@dataclass
class CorrectorCoeffs:
    """Cell-averaged coefficient tensors of the composed corrector operator.

    Index conventions over the trailing axes:
      c3[..., j, k, m]      = < dev^j_m  chi_adj^k >
      c3_adj[..., k, j, m]  = < dev_adj^k_m  chi^j >
      c2[..., j, k]         = < dev^j . grad_x chi_adj^k >
      c2_adj[..., k, j]     = < dev_adj^k . grad_x chi^j >
    All vanish when the coefficient has no slow dependence except c3/c3_adj,
    which vanish only for constant coefficients.
    """
    slow_grid: TorusGrid
    c3: np.ndarray
    c3_adj: np.ndarray
    c2: np.ndarray
    c2_adj: np.ndarray
    equivalence_defect: float = 0.0


def corrector_coeffs(cells, fc, field, hom, fc_adj=None) -> CorrectorCoeffs:
    """Coefficient tensors from the flux deviations and cell solutions.

    `fc` is the primal flux corrector; the adjoint one is built on demand
    (deviation of the transposed field from the adjoint cell solutions).
    The third-order tensor is also evaluated through its reduced form
    < chi_adj^k (a (grad chi^j + e^j))_m > and the worst relative
    disagreement of the two quadratures is recorded.
    """
    if fc_adj is None:
        fc_adj = flux_corrector(cells, field, hom, adjoint=True)
    d = cells.dim
    cell_axes = tuple(range(-d, 0))
    w_mean = lambda arr: arr.mean(axis=cell_axes)

    sshape = cells.slow_grid.shape
    c3 = np.zeros(sshape + (d, d, d))
    c3_alt = np.zeros(sshape + (d, d, d))
    c3_adj = np.zeros(sshape + (d, d, d))
    c2 = np.zeros(sshape + (d, d))
    c2_adj = np.zeros(sshape + (d, d))

    xs = cells.slow_grid.coords()
    ys = cells.cell_grid.coords()
    xb = xs.reshape(xs.shape[:-1] + (1,) * d + (d,))
    a = field.eval(np.broadcast_to(xb, xs.shape[:-1] + ys.shape),
                   np.broadcast_to(ys, xs.shape[:-1] + ys.shape))

    integrand_scale = 1e-30
    for j in range(d):
        dev_j = np.take(fc.deviation, j, axis=d)        # (*slow, d, *cell)
        grad_j = np.take(cells.grad_y_chi, j, axis=d)
        epg = grad_j.copy()
        epg[(Ellipsis, j) + (slice(None),) * d] += 1.0
        flux_j = _flux(a, epg, d)
        for k in range(d):
            chi_ak = np.take(cells.chi_adj, k, axis=d)  # (*slow, *cell)
            gx_ak = np.take(cells.grad_x_chi_adj, k, axis=d)
            for m in range(d):
                c3[..., j, k, m] = w_mean(np.take(dev_j, m, axis=d) * chi_ak)
                c3_alt[..., j, k, m] = w_mean(np.take(flux_j, m, axis=d) * chi_ak)
                integrand_scale = max(integrand_scale,
                                      float(w_mean(np.abs(np.take(flux_j, m, axis=d)
                                                          * chi_ak)).max()))
            c2[..., j, k] = w_mean((dev_j * gx_ak).sum(axis=d))
    for k in range(d):
        dev_ak = np.take(fc_adj.deviation, k, axis=d)
        for j in range(d):
            chi_j = np.take(cells.chi, j, axis=d)
            gx_j = np.take(cells.grad_x_chi, j, axis=d)
            for m in range(d):
                c3_adj[..., k, j, m] = w_mean(np.take(dev_ak, m, axis=d) * chi_j)
            c2_adj[..., k, j] = w_mean((dev_ak * gx_j).sum(axis=d))

    # relative to the integrand's own magnitude, so identically-zero tensors
    # (one-dimensional flux deviations vanish) do not produce 0/0 ratios
    defect = float(np.abs(c3 - c3_alt).max()) / integrand_scale

    # tensors that are zero up to quadrature roundoff become exact zeros,
    # otherwise they would seed third-derivative-amplified noise downstream
    for arr in (c3, c3_adj, c2, c2_adj):
        if float(np.abs(arr).max()) < 1e-12 * integrand_scale:
            arr[...] = 0.0

    return CorrectorCoeffs(slow_grid=cells.slow_grid, c3=c3, c3_adj=c3_adj,
                           c2=c2, c2_adj=c2_adj, equivalence_defect=defect)


def _coeff_field(table, slow_grid, grid):
    """Interpolate a slow-sample coefficient table to the fine nodes."""
    pts = grid.coords().reshape(-1, slow_grid.dim)
    vals = multilinear(table, slow_grid, pts)
    return vals.reshape(grid.shape + table.shape[slow_grid.dim:])


def assemble_L(coeffs: CorrectorCoeffs, hom_solver: DiscreteOperator,
               grid: TorusGrid) -> DiscreteOperator:
    """The eps-free composed operator.

    Builds the third- and second-order differential operators from the
    coefficient tensors (interpolated to the fine grid), takes the true
    operator transpose of the adjoint pair, and sandwiches everything
    between homogenized resolvents.  The third-order parts act only inside
    this composition.
    """
    d = grid.dim
    n = grid.size
    c3 = _coeff_field(coeffs.c3, coeffs.slow_grid, grid)
    c3_adj = _coeff_field(coeffs.c3_adj, coeffs.slow_grid, grid)
    c2 = _coeff_field(coeffs.c2, coeffs.slow_grid, grid)
    c2_adj = _coeff_field(coeffs.c2_adj, coeffs.slow_grid, grid)
    D = [diff_matrix(grid, ax) for ax in range(d)]
    # primal family D_k D_m c3[j,k,m] D_j - D_k c2[j,k] D_j plus the transpose
    # of the adjoint family D_j D_m c3_adj[k,j,m] D_k - D_j c2_adj[k,j] D_k
    core = sp.csr_matrix((n, n))
    for j in range(d):
        for k in range(d):
            for m in range(d):
                core = core + D[k] @ D[m] @ sp.diags(c3[..., j, k, m].ravel()) @ D[j]
                core = core + (D[j] @ D[m] @ sp.diags(c3_adj[..., k, j, m].ravel()) @ D[k]).T
            core = core - D[k] @ sp.diags(c2[..., j, k].ravel()) @ D[j]
            core = core - (D[j] @ sp.diags(c2_adj[..., k, j].ravel()) @ D[k]).T
    core = matrix_op(core, grid=grid, label="L-core")
    op = hom_solver @ core @ hom_solver
    op.label = "Lop"
    return op


def _cell_kernels(nodes, n_f, n_y, method):
    """Per-axis maps from the n_y cell nodes to the points c/n_f + node.

    Row c of a node's map weighs cell node m by kern[(m - c s) mod n_y],
    s = n_y / n_f, plus the imaginary part imag[c] (-1)^m.  FV tables use
    the periodic linear hat of `grids.corners` (real); spectral tables the
    trigonometric interpolant on the signed modes of `integer_freqs`, whose
    unmatched Nyquist mode is the only complex term.
    """
    if n_y % n_f:
        raise ValueError(f"n_f = {n_f} does not divide n_y = {n_y}")
    if method == "fv":
        idx, wts = corners(n_y, nodes[:, None])
        kern = np.zeros((len(nodes), n_y))
        rows = np.arange(len(nodes))
        kern[rows, idx[0]] = wts[0]
        kern[rows, idx[1]] += wts[1]
        return kern, np.zeros((len(nodes), n_f))
    k = integer_freqs((n_y,))[0]
    z = np.fft.fft(np.exp(2j * np.pi * nodes[:, None] * k), axis=-1) / n_y
    return z.real, z.imag[:, (-(n_y // n_f) * np.arange(n_f)) % n_y]


def _offset_rows(table, d, kern, imag):
    """A cell table at the fast lattices c/n_f + o of a tensor offset rule.

    table: (*lead, *cell), d <= 2 cell axes; kern, imag: `_cell_kernels` of
    the rule's 1D nodes.  Yields one lattice row at a time (the offsets
    sharing the axis-0 node; in 1D every node) as (per, *lead, n_f^d): the
    real part of the axis maps applied to the table, axis 0 by the row's
    map, then the last axis for every offset at once.
    """
    cell = table.shape[-d:]
    (per, n_y), n_f = kern.shape, imag.shape[1]
    flat = table.reshape((-1,) + cell)
    m = np.arange(n_y)
    cs = (n_y // n_f) * np.arange(n_f)[:, None]
    if d == 2:
        # the imaginary parts meet only in the unmatched Nyquist mode
        nyquist = (flat * (-1.0) ** np.indices(cell).sum(axis=0)).sum(axis=(1, 2))
    for row in range(per if d == 2 else 1):
        lead = flat
        if d == 2:
            lead = np.matmul(kern[row][(m - cs) % n_y], flat)
        # row c of the last axis reads the table rolled by c s; one small
        # product per table slice keeps BLAS single-threaded (threaded: slower, 2x CPU)
        vals = (np.take(lead.reshape(len(flat), -1, n_y), (m + cs) % n_y, axis=2)
                .reshape(len(flat), -1, n_y) @ kern.T).reshape(len(flat), -1, n_f, per)
        if d == 2:
            vals -= nyquist[:, None, None, None] * imag[row][:, None, None] * imag.T
        yield np.moveaxis(vals, 3, 0).reshape((per,) + table.shape[:-d] + (-1,))


def drift_matrix_field(field, cells, spec: SmoothingSpec, grid: TorusGrid):
    """Double-averaged matrix from the slow difference quotient, fine nodes.

    Entry [j, k] at node x contracts (grad_y chi_adj^k + e^k) with the
    offset average of the line integral over t in [0, 1] of
    grad_x a(x + t eps w, x/eps + w) . w applied to (grad_y chi^j + e^j);
    both gradient families are evaluated at the slow point x and the
    offset fast point.  The fast argument does not depend on t, so the
    line integral is exactly (a(x + eps w, y) - a(x, y)) / eps.  The
    offset integral has no grid-function shifts in it, so it uses the
    tensor Gauss rule (the integrand is analytic in the offset but not
    periodic), one row of the lattice at a time, in batches of at most
    4096 (fine node, offset) pairs.  Returns (*fine, d, d).
    """
    d = grid.dim
    n_f = spec.n_omega
    spec.check_grid(grid)
    eps = spec.eps

    pts = grid.coords().reshape(-1, d)
    slow_corners = corners(cells.slow_grid.n, pts)
    fidx = _fast_index(grid, n_f)
    fast_base = (np.indices(grid.shape).reshape(d, -1).T % n_f) / n_f
    nodes, node_w = spec.offset_rule(d)
    maps = _cell_kernels(nodes, n_f, cells.cell_grid.n, cells.method)
    batch = max(1, 4096 // grid.size)

    eye = np.eye(d)
    out = np.zeros((grid.size, d, d))
    rows = zip(*(_offset_rows(tab, d, *maps)
                 for tab in (cells.grad_y_chi, cells.grad_y_chi_adj)))
    for row, row_vals in enumerate(rows):
        # (n_slow, per, d, d, n_f^d) gradient tables at the row's offsets
        row_vals = [np.moveaxis(v.reshape(len(nodes), -1, d, d, n_f ** d), 0, 1)
                    for v in row_vals]
        for lo in range(0, len(nodes), batch):
            sl = slice(lo, lo + batch)
            om = nodes[sl, None]
            w = node_w[sl]
            if d == 2:
                om = np.concatenate([np.full_like(om, nodes[row]), om], axis=1)
                w = node_w[row] * w
            # (N, per, d, d): gradients plus identity at the fine nodes
            P, Q = (_fine_gather(v[:, sl], slow_corners, fidx) + eye for v in row_vals)
            # line integral of grad_x a . omega along each offset, times its weight
            fast_pts = fast_base[:, None] + om
            slow_pts = np.broadcast_to(pts[:, None], fast_pts.shape)
            mid = field.eval(slow_pts + eps * om, fast_pts) - field.eval(slow_pts, fast_pts)
            mid *= (w / eps)[:, None, None]
            # out[n, j, k] += sum over offsets of Q[k, p] mid[p, q] P[j, q]
            out += np.matmul(P, np.matmul(Q, mid).swapaxes(-1, -2)).sum(axis=1)
        del row_vals  # one row of offset values alive at a time
    return out.reshape(grid.shape + (d, d))


def assemble_M(field, cells, spec: SmoothingSpec, hom_solver: DiscreteOperator,
               grid: TorusGrid) -> DiscreteOperator:
    """Conservative discretization of the double-averaged form, sandwiched.

    The bilinear form is <c-hat^{jk} d_j u, d_k v>, so the assembler
    receives the transposed matrix field (its flux convention is
    flux_m = sum_k C[m, k] d_k u).  Diagonal entries are averaged onto
    faces; off-diagonal entries stay at nodes.
    """
    d = grid.dim
    chat = drift_matrix_field(field, cells, spec, grid)
    cmat = np.swapaxes(chat, -1, -2)
    diag_faces = []
    for m in range(d):
        vals = cmat[..., m, m]
        diag_faces.append(0.5 * (vals + np.roll(vals, -1, axis=m)))
    cross = {}
    for m in range(d):
        for k in range(d):
            if m != k:
                cross[(m, k)] = cmat[..., m, k]
    mat = assemble_diffusion(grid, diag_faces, cross, mass=0.0)
    mop = matrix_op(mat, grid=grid, label="M_eps")
    op = hom_solver @ mop @ hom_solver
    op.label = "Mop"
    return op


def full_corrector(cor_op: DiscreteOperator, cor_adj_transposed: DiscreteOperator,
                   l_op: DiscreteOperator, m_op: DiscreteOperator) -> DiscreteOperator:
    """The assembled corrector: primal + transposed-adjoint - composed - averaged."""
    op = cor_op + cor_adj_transposed - l_op - m_op
    op.label = "C_eps"
    return op
