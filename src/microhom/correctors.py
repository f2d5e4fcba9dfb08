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
sublattice of the cell by construction (its offsets are grid multiples),
which `fast_sublattice` cuts out of the table.  Both it and the
double-averaged matrix read their tables at the fine nodes through one CSR
slow-interpolation matrix whose columns also carry the fast index
(`grids.interp_matrix`), each both of its tables in one product.

Every factor that does not solve (the kernel quadratures of the centered
gradient for K and K-tilde, built by one lattice walk on one CSR column
table, and the differential core of the composed operator) is one CSR
matrix per eps, so applying it is one sparse product and its transpose is
exact by construction; only the homogenized resolvents stay LU solves.
"""

from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from scipy.sparse.linalg import LinearOperator

from .assemble import assemble_diffusion
from .effective import _group_fluxes
from .grids import TorusGrid, centered_diff, interp_matrix
from .operators import DiscreteOperator, matrix_op, stencil_matrix
from .smoothing import SmoothingSpec
from .spectral import trig_kernel

_DRIFT_PAIRS = 2 ** 14  # (fine node, offset) pairs per pass of the drift walk


def fast_sublattice(cells, n_f):
    """The cell solutions on the n_f-point fast sublattice of the cell.

    The smoothed correctors read both families of chi only there (their
    offsets are grid multiples).  Returns the table with a contiguous copy
    of chi, cell_grid the n_f-point grid and no gradient table; a table
    already on that grid comes back without a copy.
    """
    d, n_y = cells.dim, cells.cell_grid.n
    if n_y % n_f:
        raise ValueError(f"n_f = {n_f} does not divide n_y = {n_y}")
    step = (Ellipsis,) + (slice(None, None, n_y // n_f),) * d
    return replace(cells, cell_grid=TorusGrid(d, n_f),
                   chi=np.ascontiguousarray(cells.chi[step]), grad_y_chi=None)


def _slow_interp(slow_grid, grid, n_f):
    """CSR matrix reading a (n_slow * n_f^d, ...) table at each fine node x:
    the slow argument x interpolated, the fast one x/eps on the sublattice."""
    d = grid.dim
    fast = np.ravel_multi_index(np.indices(grid.shape).reshape(d, -1) % n_f, (n_f,) * d)
    return interp_matrix(slow_grid.n, grid.coords().reshape(-1, d), fast, n_f ** d)


def corrector_matrix(cells, spec, grid):
    """The smoothed correctors' kernel quadratures (Q_K, Q_K-tilde), CSR:

        Q u(x) = sum_l w_l chi(x - eps w_l, x/eps) . grad u(x - eps w_l),

    chi the primal cell solutions (family 0) for K and the adjoint ones
    (family 1) for K-tilde, the slow argument interpolated multilinearly from
    the sample grid and the fast one on the cell's n_f-point sublattice.
    Row x reads u at x - s_l +- e_j with weight +-w_l chi^j(x - s_l, x/eps) / 2h,
    s_l the grid shift of eps w_l: the slow interpolation of the fast table
    rolled by -s_l, rolled back by s_l.  One walk does both, its table
    holding both families of chi as 2d columns; the pair shares one indptr
    and indices array.
    """
    spec.check_grid(grid)
    d, n_f = grid.dim, spec.n_omega
    interp = _slow_interp(cells.slow_grid, grid, n_f)
    cells = fast_sublattice(cells, n_f)
    # (n_slow * n_f^d, 2d): the d components of family 0's chi, then family 1's
    fast = np.moveaxis(cells.chi.reshape((2, -1, d, n_f ** d)), (0, 2), (2, 3)).reshape(-1, 2 * d)
    axes = tuple(range(1, d + 1))  # the grid axes of a (2d, *grid) field
    shifts, _, weights = spec.lattice(d)
    # the stencil offsets -s + sign e_j in the coefficients' order (shift, j, sign)
    offsets = (np.array([1, -1])[:, None] * np.eye(d, dtype=int)[:, None]
               - shifts[:, None, None]).reshape(-1, d)
    # the table rolled by -s reads fast node c + s at node c: rows of `fast` per shift
    corner = np.indices((n_f,) * d).reshape(d, 1, -1)
    src = np.ravel_multi_index(tuple((corner + shifts.T[:, :, None]) % n_f), (n_f,) * d)
    slow = n_f ** d * np.arange(len(fast) // n_f ** d)[:, None]
    per = n_f + 1  # a lattice row: the shifts sharing s[0] (in 1D, all of them)

    def coeffs():
        for lo in range(0, len(shifts), per):
            # the row's rolled tables, (per, n_slow * n_f^d, 2d), by one gather
            rolled = fast[(slow + src[lo:lo + per, None]).reshape(-1, len(fast))]
            for table, s, w in zip(rolled, shifts[lo:lo + per], weights[lo:lo + per]):
                fld = np.roll((interp @ table).T.reshape((2 * d,) + grid.shape), tuple(s),
                              axis=axes)
                for j in range(d):
                    c = (w / (2.0 * grid.h)) * fld[j::d].reshape(2, -1)  # chi^j per family
                    yield from (c, -c)

    return tuple(stencil_matrix(grid, offsets, coeffs(), sets=2))


def corrector_op(cells, spec: SmoothingSpec, grid, resolvent: LinearOperator) -> tuple:
    """The correctors (K, K-tilde) = (Q_K R0, Q_K-tilde R0^T), R0 the
    `resolvent`, from the quadratures of `corrector_matrix` (one walk per
    eps).  The true adjoint of each (via .T) realizes the divergence-form
    identity resolvent^T . (-div) . kernel-quadrature^T without derivation.
    """
    quads = [matrix_op(q, grid=grid, label="kernel-quad")
             for q in corrector_matrix(cells, spec, grid)]
    ops = (quads[0] @ resolvent, quads[1] @ resolvent.T)
    for op, quad, label in zip(ops, quads, ("K", "Ktilde")):
        op.label, op.quad = label, quad
    return ops


@dataclass
class CorrectorCoeffs:
    """Cell-averaged coefficient tensors of the composed corrector operator.

    Family f first (0 primal, 1 adjoint, as in `CellSolutions`), then the
    slow sample axes; each family pairs its flux deviation dev_f with chi of
    the other family, chi_{1-f}:
      c3[f, ..., a, b, m]  = < dev_f^a_m  chi_{1-f}^b >        (2, *slow, d, d, d)
      c2[f, ..., a, b]     = < dev_f^a . grad_x chi_{1-f}^b >  (2, *slow, d, d)
    so c3[0][..., j, k, m] = < dev^j_m chi_adj^k > and c3[1][..., k, j, m] =
    < dev_adj^k_m chi^j >.  All vanish when the coefficient has no slow
    dependence except c3, which vanishes only for constant coefficients.
    """
    slow_grid: TorusGrid
    c3: np.ndarray
    c2: np.ndarray
    equivalence_defect: float = 0.0


def corrector_coeffs(cells, field) -> CorrectorCoeffs:
    """Coefficient tensors, built in one walk over groups of slow samples.

    Each group's primal and adjoint fluxes and deviations come from one
    cell solver of the group and the flux walk (`effective._group_fluxes`,
    which also checks the energy bound and solenoidality); the slow
    gradients in c2 are centered differences of the neighbouring samples'
    cell solutions (`grids.centered_diff` along the slow axes).  The
    third-order tensor is also evaluated through its reduced form
    < chi_adj^k (a (grad chi^j + e^j))_m > and the worst relative
    disagreement of the two quadratures is recorded.
    """
    d = cells.dim
    slow = cells.slow_grid
    cshape = cells.cell_grid.shape
    cell_axes = tuple(range(-d, 0))
    w_mean = lambda arr: arr.mean(axis=cell_axes)
    chi = cells.chi.reshape((2, -1, d) + cshape)
    # per family, (sample, j, m, *cell): the m-th slow derivative of solution j
    gx = [np.stack([centered_diff(table, ax, slow.h) for ax in range(d)], axis=d + 1)
          .reshape((-1, d, d) + cshape) for table in cells.chi]

    c3, c2 = np.zeros((2, slow.size, d, d, d)), np.zeros((2, slow.size, d, d))
    c3_alt = np.zeros((slow.size, d, d, d))
    integrand_scale = 1e-30
    for g, fluxes in _group_fluxes(cells, field, [0, 1]):
        for f, (flux, dev, _) in enumerate(fluxes):
            # index order [s, a, b, m]: dev_f^a against chi_{1-f}^b
            other = chi[1 - f, g][:, None, :, None]
            c3[f, g] = w_mean(dev[:, :, None] * other)
            c2[f, g] = w_mean((dev[:, :, None] * gx[1 - f][g][:, None]).sum(axis=3))
        # the reduced form of c3[0]: family 0's flux, not its deviation
        reduced = fluxes[0][0][:, :, None] * chi[1, g][:, None, :, None]
        c3_alt[g] = w_mean(reduced)
        integrand_scale = max(integrand_scale, float(w_mean(np.abs(reduced)).max()))

    # relative to the integrand's own magnitude, so identically-zero tensors
    # (one-dimensional flux deviations vanish) do not produce 0/0 ratios
    defect = float(np.abs(c3[0] - c3_alt).max()) / integrand_scale

    # tensors that are zero up to quadrature roundoff become exact zeros,
    # otherwise they would seed third-derivative-amplified noise downstream
    for arr in (*c3, *c2):
        if float(np.abs(arr).max()) < 1e-12 * integrand_scale:
            arr[...] = 0.0

    lift = lambda arr: arr.reshape((2,) + slow.shape + arr.shape[2:])
    return CorrectorCoeffs(slow_grid=slow, c3=lift(c3), c2=lift(c2), equivalence_defect=defect)


def _l_terms(coeffs, grid):
    """The L-core as stencil terms (offset, C, where C is read, factor): the
    primal family D_k D_m c3[0][j,k,m] D_j - D_k c2[0][j,k] D_j and, as D^T =
    -D, the transposed adjoint family -D_k c3[1][k,j,m] D_m D_j - D_k
    c2[1][k,j] D_j.  Over signs s, t, r = +-1, D_k D_m C D_j reads u at x +
    s e_k + t e_m + r e_j with weight s t r C(x + s e_k + t e_m) / (2h)^3.  A
    component that vanishes adds no term; vanishing tensors (every 1D
    field's) are not even interpolated to the fine nodes."""
    d = grid.dim
    slow = coeffs.slow_grid
    tables = (coeffs.c3, coeffs.c2)
    if not any(t.any() for t in tables):
        return []
    # both tables, both families column-stacked, interpolated to the fine nodes by one product
    fine = interp_matrix(slow.n, grid.coords().reshape(-1, d)) @ np.hstack(
        [np.moveaxis(t, 0, d).reshape(slow.size, -1) for t in tables])
    c3, c2 = (np.moveaxis(p.reshape(grid.shape + (2,) + t.shape[d + 1:]), d, 0)
              for p, t in zip(np.split(fine, [2 * d ** 3], axis=1), tables))
    step = 1.0 / (2.0 * grid.h)
    node = lambda *st: tuple(sum(g for g, a in st if a == i) for i in range(d))  # sum g e_a
    terms = []
    for j, k, m in product(range(d), repeat=3):
        for c, adj in ((c3[0][..., j, k, m], False), (c3[1][..., k, j, m], True)):
            if c.any():
                terms += [(node((s, k), (t, m), (r, j)), c, node((s, k), (0 if adj else t, m)),
                           (-1 if adj else 1) * s * t * r * step ** 3)
                          for s, t, r in product((1, -1), repeat=3)]
    for j, k in product(range(d), repeat=2):
        for c in (c2[0][..., j, k], c2[1][..., k, j]):
            if c.any():
                terms += [(node((s, k), (r, j)), c, node((s, k)), -s * r * step ** 2)
                          for s, r in product((1, -1), repeat=2)]
    return terms


def assemble_L(coeffs: CorrectorCoeffs, hom_solver: LinearOperator,
               grid: TorusGrid) -> LinearOperator:
    """The eps-free composed operator.

    Builds the third- and second-order differential operators from the
    coefficient tensors (interpolated to the fine grid), takes the true
    operator transpose of the adjoint pair, and sandwiches everything
    between homogenized resolvents.  The third-order parts act only inside
    this composition.
    """
    d = grid.dim
    terms = _l_terms(coeffs, grid)
    axes = tuple(range(d))

    def weights():  # consecutive terms share a roll (c3[0] over r, c3[1] and c2 over t, r)
        key = None
        for _, c, at, f in terms:
            if key != (id(c), at):
                key, rolled = (id(c), at), np.roll(c, tuple(-a for a in at), axis=axes).ravel()
            yield f * rolled

    core = matrix_op(stencil_matrix(grid, [o for o, *_ in terms], weights()),
                     grid=grid, label="L-core")
    op = hom_solver @ core @ hom_solver
    op.label = "Lop"
    op.core = core
    return op


def _cell_kernels(nodes, n_f, n_y, method):
    """Per-axis maps from the n_y cell nodes to the points c/n_f + node.

    Row c of a node's map weighs cell node m by kern[(m - c s) mod n_y],
    s = n_y / n_f.  FV tables use the periodic linear hat of
    `grids.interp_matrix`, spectral tables the trigonometric interpolant
    `spectral.trig_kernel` that also resamples a0; both maps are real.
    """
    if n_y % n_f:
        raise ValueError(f"n_f = {n_f} does not divide n_y = {n_y}")
    if method == "fv":
        return interp_matrix(n_y, nodes[:, None]).toarray()
    return trig_kernel(n_y, nodes)


def _offset_rows(table, d, kern, n_f):
    """Both cell-gradient families at the fast lattices c/n_f + o of a tensor offset rule.

    table: (2, *slow, d, d, *cell) as `CellSolutions` holds it, d <= 2 cell axes;
    kern: `_cell_kernels` of the rule's 1D nodes.  Yields each lattice row (the
    offsets sharing the axis-0 node; in 1D every node) as the contiguous (n_slow *
    n_f^d, 2, d, d, per) array the drift's passes read: the axis maps applied to
    the table, axis 0 by the row's map, then the last axis for every offset at
    once.  In 2D each map is one GEMM over all table slices; in 1D the last axis
    is one product per slice, as one GEMM there rounds differently.
    """
    per, n_y = kern.shape
    flat = table.reshape((-1,) + table.shape[-d:])
    m = np.arange(n_y)
    cs = (n_y // n_f) * np.arange(n_f)[:, None]

    def last_axis(lead):  # one call per row: the suspended frame holds no row buffer
        # lead (X, slices, n_y); row c of the last axis reads it rolled by c s
        vals = np.take(lead, (m + cs) % n_y, axis=2)
        vals = (vals.reshape(-1, n_y) if d == 2 else vals.reshape(len(flat), -1, n_y)) @ kern.T
        # (X, family, sample, component, c, offset) -> (sample, X, c, family, component, offset)
        return vals.reshape(-1, 2, len(flat) // (2 * d * d), d * d, n_f, per).transpose(
            2, 0, 4, 1, 3, 5).reshape(-1, 2, d, d, per)

    if d == 1:
        yield last_axis(flat[None])
        return
    cols = flat.transpose(1, 0, 2).reshape(n_y, -1)  # axis 0 of every slice side by side
    for row in range(per):
        yield last_axis((kern[row][(m - cs) % n_y] @ cols).reshape(n_f, len(flat), n_y))


def _shifted(base, om):
    """The points base + om, (*lead, batch, d), as a view of a component-major
    (d, *lead, batch) buffer filled one component at a time; base is (d, *lead, 1)."""
    out = np.empty(base.shape[:-1] + (len(om),))
    for i in range(len(out)):
        np.add(base[i], om[:, i], out=out[i])
    return out.transpose(tuple(range(1, out.ndim)) + (0,))


def drift_matrix_field(field, cells, specs, grids):
    """Double-averaged matrices from the slow difference quotient, fine nodes.

    Entry [j, k] at node x contracts (grad_y chi_adj^k + e^k) with the
    offset average of the line integral over t in [0, 1] of
    grad_x a(x + t eps w, x/eps + w) . w applied to (grad_y chi^j + e^j);
    both gradient families are evaluated at the slow point x and the
    offset fast point.  The fast argument does not depend on t, so the
    line integral is exactly (a(x + eps w, y) - a(x, y)) / eps.  The
    offset integral has no grid-function shifts in it, so it uses the
    tensor Gauss rule (the integrand is analytic in the offset but not
    periodic), whose rows are walked once, both families together, for all
    (spec, grid) pairs; a pass reads a row's table, plus identity, at a pair's
    fine nodes by one product, for at most _DRIFT_PAIRS (fine node, offset) pairs.
    The fine node x = eps (K + c/n_f) has the fast point c/n_f + w at
    offset w, so the nodes are laid out as (1/eps, n_f) per axis and
    `field.eval` gets the slow points (*layout, 1, d) against the fast
    points (1, n_f)*d + (batch, d): the evaluator's y-only terms run once
    per (c, offset), not per (fine node, offset), under the broadcast
    contract of `CoefficientField.evaluator`, which is checked; their
    difference is scaled and contracted in its (d, d, N, batch) entry planes.
    The specs must share n_omega and drift_order.  Returns a list of
    (*fine, d, d) views of (d, d, N) accumulators.
    """
    if len({(spec.n_omega, spec.drift_order) for spec in specs}) != 1:
        raise ValueError("one drift walk needs specs with one offset rule "
                         "(n_omega and drift_order)")
    d = cells.dim
    n_f = specs[0].n_omega
    runs = []
    # points are held component-major, (d, *layout, batch), and reach field.eval
    # as (*layout, batch, d) views: each component is one contiguous plane
    fast_base = (np.indices((n_f,) * d) / n_f).reshape((d,) + (1, n_f) * d + (1,))
    for spec, grid in zip(specs, grids, strict=True):
        spec.check_grid(grid)
        layout = (grid.n // n_f, n_f) * d
        pts = np.moveaxis(grid.coords(), -1, 0).reshape((d,) + layout + (1,))
        runs.append((spec.eps, grid, pts, np.moveaxis(pts, 0, -1),
                     _slow_interp(cells.slow_grid, grid, n_f),
                     max(1, _DRIFT_PAIRS // grid.size), np.zeros((d, d, grid.size))))
    nodes, node_w = specs[0].offset_rule(d)
    kern = _cell_kernels(nodes, n_f, cells.cell_grid.n, cells.method)

    def dot(a, b):  # sum_p a[p] b[p] of (N, batch) planes, summed in place
        acc = a[0] * b[0]
        for p in range(1, d):
            acc += a[p] * b[p]
        return acc

    # the tensor Gauss rule by lattice row: offsets (rows, per, d), weights (rows, per)
    row_oms = np.stack(np.meshgrid(*[nodes] * d, indexing="ij"), axis=-1).reshape(-1, len(nodes), d)
    row_ws = np.prod(np.meshgrid(*[node_w] * d, indexing="ij"), axis=0).reshape(-1, len(nodes))
    rows = _offset_rows(cells.grad_y_chi, d, kern, n_f)
    for row_om, row_w in zip(row_oms, row_ws):
        tab = next(rows)  # not zipped: zip's reused tuple would hold it through the next row
        tab += np.eye(d)[:, :, None]  # both gradient families plus identity at the row's offsets
        for eps, grid, pts, at, interp, batch, out in runs:
            for lo in range(0, len(nodes), batch):
                om, w = row_om[lo:lo + batch], row_w[lo:lo + batch]
                # P and Q, (d, d, N, batch) each, from one product
                pq = interp @ tab[..., lo:lo + batch].reshape(interp.shape[1], -1)
                pq = np.ascontiguousarray(pq.reshape(grid.size, 2 * d * d, -1).transpose(1, 0, 2))
                P, Q = pq.reshape(2, d, d, grid.size, -1)
                # line integral of grad_x a . omega along each offset, times its
                # weight, read back as the evaluator's (d, d, N, batch) entry planes
                fast_pts = _shifted(fast_base, om)
                mid = field.eval(_shifted(pts, eps * om), fast_pts) - field.eval(at, fast_pts)
                mid = np.moveaxis(mid, (-2, -1), (0, 1)).reshape(d, d, grid.size, len(om))
                mid *= w / eps
                # out[j, k] += sum over offsets of Q[k, p] mid[p, q] P[j, q], as elementwise
                # products on contiguous (N, batch) planes (einsum, broadcasts: slower)
                for k in range(d):
                    r = [dot(Q[k], mid[:, q]) for q in range(d)]
                    for j in range(d):
                        out[j, k] += dot(r, P[j]).sum(axis=1)
        del tab  # the walk makes the next row with this one freed
    return [np.moveaxis(out, 2, 0).reshape(grid.shape + (d, d)) for _, grid, *_, out in runs]


def assemble_M(chat, hom_solver: LinearOperator, grid: TorusGrid) -> LinearOperator:
    """Conservative discretization of the double-averaged form, sandwiched.

    `chat` is this eps's (*fine, d, d) matrix from `drift_matrix_field`.
    The bilinear form is <c-hat^{jk} d_j u, d_k v>, so the assembler
    receives the transposed matrix field (its flux convention is
    flux_m = sum_k C[m, k] d_k u).  Diagonal entries are averaged onto
    faces; off-diagonal entries stay at nodes.
    """
    d = grid.dim
    cmat = np.swapaxes(chat, -1, -2)
    faces = [0.5 * (cmat[..., m, m] + np.roll(cmat[..., m, m], -1, axis=m)) for m in range(d)]
    core = matrix_op(assemble_diffusion(grid, faces, cmat), grid=grid, label="M_eps")
    op = hom_solver @ core @ hom_solver
    op.label = "Mop"
    op.core = core
    return op


def full_corrector(cor_op: LinearOperator, cor_adj_transposed: LinearOperator,
                   l_op: LinearOperator, m_op: LinearOperator) -> LinearOperator:
    """The assembled corrector: primal + transposed-adjoint - composed - averaged."""
    op = cor_op + cor_adj_transposed - l_op - m_op
    op.label = "C_eps"
    return op


def error_operators(r_eps, r_hom, cor, cor_adj, l_op, m_op, eps):
    """The three error operators R_eps - R0, R_eps - R0 - eps K, R_eps - R0 - eps C.

    All three are fused: with u = R0 x, w = R0^T y, Q_K = cor.quad,
    Q~ = cor_adj.quad and S = L-core + M_eps (summed once, if the L-core
    has entries),

      diff0 x   = R_eps x - R0 x,  diff0^T y = R_eps^T y - R0^T y
      diff1 x   = R_eps x - u - eps Q_K u
      diff1^T y = R_eps^T y - R0^T (y + eps Q_K^T y)
      diff2 x   = R_eps x - u - eps (Q_K u + R0 (Q~^T x - S u))
      diff2^T y = R_eps^T y - w - eps (R0^T (Q_K^T y - S^T w) + Q~ w)

    so an application of diff0 or diff1 costs 2 LU solves and one of diff2
    3, either side (the composed forms of the last two cost 3 and 8).
    Solves go through the resolvents' _mv/_rmv, looked up at each call, and
    the factors through the `matrix_op`s of the corrector operators.
    """
    q_k, q_t = cor.quad, cor_adj.quad
    s = matrix_op(l_op.core.matrix + m_op.core.matrix) if l_op.core.matrix.nnz else m_op.core

    def mv0(x):
        return r_eps._mv(x) - r_hom._mv(x)

    def rmv0(y):
        return r_eps._rmv(y) - r_hom._rmv(y)

    def mv1(x):
        u = r_hom._mv(x)
        return r_eps._mv(x) - u - eps * q_k._mv(u)

    def rmv1(y):
        return r_eps._rmv(y) - r_hom._rmv(y + eps * q_k._rmv(y))

    def mv2(x):
        u = r_hom._mv(x)
        return r_eps._mv(x) - u - eps * (q_k._mv(u) + r_hom._mv(q_t._rmv(x) - s._mv(u)))

    def rmv2(y):
        w = r_hom._rmv(y)
        return r_eps._rmv(y) - w - eps * (r_hom._rmv(q_k._rmv(y) - s._rmv(w)) + q_t._mv(w))

    grid = r_eps.grid
    diff0 = DiscreteOperator(r_eps.shape, mv0, rmv0, grid=grid, label="R_eps-R0")
    diff1 = DiscreteOperator(r_eps.shape, mv1, rmv1, grid=grid, label="R_eps-R0-eps*K")
    diff2 = DiscreteOperator(r_eps.shape, mv2, rmv2, grid=grid, label="R_eps-R0-eps*C")
    return diff0, diff1, diff2
