"""Periodic cell problems on the unit cell and their slow-parameter tables.

For each slow sample x and direction j this solves

    div_y[ a(x, y) (e^j + grad_y chi^j(x, y)) ] = 0,   <chi^j(x, .)> = 0,

periodically in y, together with the adjoint problems (coefficient a^T).
Smooth coefficients use Fourier collocation with an inverse-Laplacian
preconditioner; discontinuous laminates use conservative finite volumes
with a direct sparse solve.
"""

import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import assemble_diffusion
from .errors import SolveError
from .grids import TorusGrid, centered_diff, centered_gradient
from .spectral import calculus

_ENERGY_SLACK = 1.0 + 1e-6


@dataclass
class CellField:
    """One cell solution: zero-mean values and gradient on the cell grid."""
    values: np.ndarray          # (*cell_shape)
    grad: np.ndarray            # (d, *cell_shape)
    residual: float             # relative discrete residual
    method: str


class SpectralCellSolver:
    """Fourier collocation for div_y[a (e^j + grad chi)] = 0 on one cell.

    The unknown lives in the zero-mean, Nyquist-masked trig space; the
    preconditioner is the exact inverse Laplacian on that space, so the
    preconditioned operator has spectrum controlled by the ellipticity
    bounds alone.  The directions (and adjoint directions) of one cell are
    solved together as one block-diagonal system over a (B, *cell) stack.
    """

    def __init__(self, a_nodes, grid, tol, maxiter=300):
        self.grid = grid
        self.a = a_nodes                    # (*shape, d, d)
        self.tol = tol
        self.maxiter = maxiter
        self.calc = calculus(grid.shape)

    def solve(self, j):
        return self._solve_blocks(self.a[None], [j])[0]

    def solve_all(self, adjoint):
        """Every direction, then with `adjoint` every transposed-coefficient one."""
        d = self.grid.dim
        blocks = [self.a] * d
        if adjoint:
            blocks += [np.swapaxes(self.a, -1, -2)] * d
        return self._solve_blocks(np.stack(blocks), list(range(d)) * (2 if adjoint else 1))

    def _solve_blocks(self, a, dirs):
        """Solve block b with coefficient a[b] (*shape, d, d) in direction dirs[b].

        Each right-hand side is scaled to unit norm and the global relative
        tolerance is tol/sqrt(B), so every block's relative residual is
        bounded by tol; each block's true residual is still checked alone.
        """
        shape, d = self.grid.shape, self.grid.dim
        cell_axes = tuple(range(1, d + 1))
        a = np.moveaxis(a, (-2, -1), (1, 2))                 # (B, d, d, *shape)
        rhs = self.calc.div(a[np.arange(len(dirs)), :, dirs])
        scale = np.sqrt(np.sum(rhs ** 2, axis=cell_axes))
        live = scale > 0.0
        values = np.zeros((len(dirs),) + shape)
        residuals = np.zeros(len(dirs))
        if live.any():
            norms = scale[live].reshape((-1,) + (1,) * d)
            values[live], residuals[live] = self._krylov(a[live], rhs[live] / norms)
            values[live] *= norms
        for b, res in enumerate(residuals):
            if res > 10 * self.tol:
                raise SolveError(f"cell solve (spectral, j={dirs[b]}) residual {res:.2e}")
        grads = self.calc.grad(values)
        return [CellField(values[b], grads[b], float(residuals[b]), "spectral")
                for b in range(len(dirs))]

    def _krylov(self, a, rhs):
        """Block solve for unit-norm right-hand sides: (zero-mean values, residuals).

        lgmres runs one outer iteration per call, warm-started from the last
        iterate and its augmentation vectors, and the true residual of every
        block is checked after each call.  It cannot push the
        residual below the FFT roundoff floor, so the solve stops as soon as
        every block reaches tol or a chunk fails to halve the best residual,
        and keeps the best iterate.
        """
        nblk = rhs.shape[0]
        shape = rhs.shape
        n = rhs.size
        cell_axes = tuple(range(1, rhs.ndim))

        def apply(x):
            g = self.calc.grad(x.reshape(shape))             # (B, d, *cell)
            flux = np.sum(a * g[:, None], axis=2)
            return -self.calc.div(flux).ravel()

        def residuals(v):
            r = (apply(v.ravel()) - rhs.ravel()).reshape(shape)
            return np.sqrt(np.sum(r ** 2, axis=cell_axes))

        lin = spla.LinearOperator((n, n), matvec=apply, dtype=float)
        pre = spla.LinearOperator(
            (n, n), matvec=lambda r: self.calc.poisson(r.reshape(shape)).ravel(),
            dtype=float)
        x = np.zeros(n)
        outer_v = []
        best_v, best_res = np.zeros(shape), np.ones(nblk)
        for _ in range(self.maxiter):
            # looked up at call time so that callers may wrap scipy's lgmres
            x, _ = spla.lgmres(lin, rhs.ravel(), x0=x, M=pre,
                               rtol=self.tol / np.sqrt(nblk), atol=0.0,
                               maxiter=1, outer_v=outer_v)
            v = x.reshape(shape)
            v = v - v.mean(axis=cell_axes, keepdims=True)
            res = residuals(v)
            halved = res.max() <= 0.5 * best_res.max()
            if res.max() < best_res.max():
                best_v, best_res = v, res
            if best_res.max() <= self.tol or not halved:
                break
        return best_v, best_res

    def effective_column(self, cf, j):
        """Cell mean of the node flux a (e^j + grad chi^j)."""
        ej = np.zeros_like(cf.grad)
        ej[j] = 1.0
        flux = np.einsum("...pq,q...->p...", self.a, cf.grad + ej)
        return flux.reshape(self.grid.dim, -1).mean(axis=1)


class FVCellSolver:
    """Conservative finite volumes for cells with discontinuous coefficients.

    The singular periodic system is pinned at node 0 (the conservative
    right-hand side is exactly compatible, so pinning is exact) and solved
    directly.  The effective column uses the face-flux quadrature, which is
    exact for laminates whose jumps align with grid nodes.
    """

    def __init__(self, a_eval, grid, tol):
        self.grid = grid
        self.tol = tol
        self.a_eval = a_eval
        d = grid.dim
        self.diag_faces = []
        for m in range(d):
            xf = grid.face_coords(m)
            self.diag_faces.append(a_eval(xf)[..., m, m])
        self.a_nodes = a_eval(grid.coords())
        self.cross = {}
        for m in range(d):
            for k in range(d):
                if m != k:
                    self.cross[(m, k)] = self.a_nodes[..., m, k]
        self.mat = assemble_diffusion(grid, self.diag_faces, self.cross, mass=0.0)
        self._lu = None

    @property
    def lu(self):
        # pin node 0 against the constant null space (the conservative rhs
        # is exactly compatible, so pinning is exact); factored on first use
        # since quadrature-only consumers never solve
        if self._lu is None:
            coo = self.mat.tocoo()
            keep = coo.row != 0
            pinned = sp.coo_matrix(
                (np.concatenate([coo.data[keep], [1.0]]),
                 (np.concatenate([coo.row[keep], [0]]),
                  np.concatenate([coo.col[keep], [0]]))),
                shape=coo.shape).tocsc()
            self._lu = spla.splu(pinned)
        return self._lu

    def _rhs(self, j):
        # div of the constant-direction flux a e^j, discretized like the matrix
        d = self.grid.dim
        h = self.grid.h
        out = np.zeros(self.grid.shape)
        for m in range(d):
            if m == j:
                af = self.diag_faces[m]
                out += (af - np.roll(af, 1, axis=m)) / h
            else:
                out += centered_diff(self.cross[(m, j)], m, h)
        return out

    def solve(self, j):
        b = self._rhs(j).ravel()
        nb = np.linalg.norm(b)
        if nb == 0.0:
            zero = np.zeros(self.grid.shape)
            return CellField(zero, np.zeros((self.grid.dim,) + self.grid.shape),
                             0.0, "fv")
        b_pinned = b.copy()
        b_pinned[0] = 0.0
        x = self.lu.solve(b_pinned)
        v = x.reshape(self.grid.shape)
        v = v - v.mean()
        res = np.linalg.norm(self.mat @ v.ravel() - b) / nb
        if res > max(10 * self.tol, 1e-10):
            raise SolveError(f"cell solve (fv, j={j}) residual {res:.2e}")
        return CellField(v, centered_gradient(v, self.grid.h), res, "fv")

    def solve_all(self, adjoint):
        """Every direction, then with `adjoint` every transposed-coefficient one."""
        fields = [self.solve(j) for j in range(self.grid.dim)]
        if adjoint:
            solver_t = FVCellSolver(lambda y: np.swapaxes(self.a_eval(y), -1, -2),
                                    self.grid, self.tol)
            fields += [solver_t.solve(j) for j in range(self.grid.dim)]
        return fields

    def effective_column(self, cf, j):
        """Flux mean of a (e^j + grad chi^j): conservative faces plus node cross terms."""
        d = self.grid.dim
        h = self.grid.h
        col = np.zeros(d)
        for m in range(d):
            face_flux = self.diag_faces[m] * (
                (np.roll(cf.values, -1, axis=m) - cf.values) / h + (1.0 if m == j else 0.0))
            col[m] = face_flux.mean()
            for k in range(d):
                if k != m:
                    dk = centered_diff(cf.values, k, h)
                    col[m] += (self.cross[(m, k)] * (dk + (1.0 if k == j else 0.0))).mean()
        return col


def make_solver(a_eval, grid, tol, method):
    if grid.n % 2:
        raise ValueError(f"cell grids need an even point count, got {grid.n}")
    if method == "spectral":
        return SpectralCellSolver(a_eval(grid.coords()), grid, tol)
    if method == "fv":
        return FVCellSolver(a_eval, grid, tol)
    raise ValueError(f"unknown cell method '{method}'")


def solve_cell(a_eval, j, grid, tol=1e-11, method="spectral"):
    """Solve one periodic cell problem in direction j.

    `a_eval` maps cell coordinates (..., d) to matrices (..., d, d) for one
    frozen slow point.  Returns a zero-mean CellField whose discrete
    residual is below 10*tol; raises SolveError otherwise.
    """
    if not 0 <= j < grid.dim:
        raise ValueError(f"direction {j} out of range for dim {grid.dim}")
    solver = make_solver(a_eval, grid, tol, method)
    cf = solver.solve(j)
    _check_energy(cf, grid, a_eval)
    return cf


def solve_adjoint_cell(a_eval, j, grid, tol=1e-11, method="spectral"):
    """Cell problem with the transposed coefficient matrix."""
    def a_t(y):
        return np.swapaxes(a_eval(y), -1, -2)
    return solve_cell(a_t, j, grid, tol=tol, method=method)


def _check_energy(cf, grid, a_eval):
    # gradient energy of any cell solution obeys |grad chi| <= sqrt(d)/lam^2
    # for any lam satisfying both ellipticity inequalities; the sampled
    # two-sided lam below is such a constant
    a = a_eval(grid.coords())
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    lam_low = float(np.linalg.eigvalsh(sym).min())
    if lam_low <= 0:
        raise SolveError("cell coefficient not elliptic on the grid")
    upper = float(np.linalg.norm(a, ord=2, axis=(-2, -1)).max())
    lam = min(lam_low, 1.0 / upper)
    w = grid.h ** grid.dim
    gnorm = np.sqrt(w * float(np.sum(cf.grad ** 2)))
    bound = np.sqrt(grid.dim) / lam ** 2
    if gnorm > bound * _ENERGY_SLACK:
        raise SolveError(f"cell gradient energy {gnorm:.3g} violates bound {bound:.3g}")


@dataclass
class CellSolutions:
    """Cell solutions, adjoints, and slow-variable gradients on a sample grid.

    Array layout (slow sample axes first, then direction j, then cell axes):
      chi, chi_adj:                 (*slow_shape, d, *cell_shape)
      grad_y_chi, grad_y_chi_adj:   (*slow_shape, d, d, *cell_shape)
      grad_x_chi, grad_x_chi_adj:   (*slow_shape, d, d, *cell_shape)
    where grad_* [..., j, m, ...] holds the m-derivative of solution j.
    """
    family: str
    slow_grid: TorusGrid
    cell_grid: TorusGrid
    chi: np.ndarray
    grad_y_chi: np.ndarray
    chi_adj: np.ndarray
    grad_y_chi_adj: np.ndarray
    grad_x_chi: np.ndarray
    grad_x_chi_adj: np.ndarray
    residual_max: float = 0.0
    lipschitz_quotient: float = 0.0
    method: str = "spectral"

    @property
    def dim(self):
        return self.cell_grid.dim


def _h1_cell_norm(values, grad, w):
    return np.sqrt(w * (np.sum(values ** 2) + np.sum(grad ** 2)))


def build_cell_table(field, slow_grid, cell_grid, tol=1e-11):
    """Solve primal and adjoint cell problems at every slow sample.

    The directions and adjoints of one sample are solved together (one
    block system on the spectral path); samples are solved in turn.

    Slow-variable gradients are taken by centered differences over the
    (periodic) slow grid.  The largest adjacent-sample H1 Lipschitz
    quotient of the solutions is recorded.
    """
    d = field.dim
    if slow_grid.dim != d or cell_grid.dim != d:
        raise ValueError("grid dimensions do not match the field")
    method = field.cell_method
    xs = slow_grid.coords().reshape(-1, d)
    n_slow = xs.shape[0]
    cshape = cell_grid.shape

    chi = np.zeros((n_slow, d) + cshape)
    gy = np.zeros((n_slow, d, d) + cshape)
    chi_a = np.zeros((n_slow, d) + cshape)
    gy_a = np.zeros((n_slow, d, d) + cshape)

    def work(i):
        try:
            fields = make_solver(field.frozen(xs[i]), cell_grid, tol, method).solve_all(
                adjoint=not field.symmetric)
        except SolveError as exc:
            raise SolveError(f"slow sample x = {xs[i]}: {exc}") from exc
        return fields if not field.symmetric else fields + fields

    try:
        if field.lipschitz_x == 0.0:
            # no slow dependence: one solve serves every sample
            results = [work(0)] * n_slow
        else:
            results = [work(i) for i in range(n_slow)]
    except SolveError as exc:
        raise SolveError(f"cell table build failed: {exc}") from exc

    residual_max = 0.0
    for i, fields in enumerate(results):
        for j in range(d):
            chi[i, j], gy[i, j] = fields[j].values, fields[j].grad
            chi_a[i, j], gy_a[i, j] = fields[d + j].values, fields[d + j].grad
        residual_max = max([residual_max] + [cf.residual for cf in fields])

    sshape = slow_grid.shape
    chi = chi.reshape(sshape + (d,) + cshape)
    gy = gy.reshape(sshape + (d, d) + cshape)
    chi_a = chi_a.reshape(sshape + (d,) + cshape)
    gy_a = gy_a.reshape(sshape + (d, d) + cshape)

    # centered differences over the slow axes, derivative axis after j
    gx, gx_a = (np.stack([centered_diff(t, ax, slow_grid.h) for ax in range(d)], axis=d + 1)
                for t in (chi, chi_a))

    # adjacent-sample H1 Lipschitz quotient along each slow axis
    w = cell_grid.h ** d
    quot = 0.0
    for ax in range(d):
        dv = np.roll(chi, -1, axis=ax) - chi
        dg = np.roll(gy, -1, axis=ax) - gy
        dv_sq = np.sum(dv ** 2, axis=tuple(range(d + 1, dv.ndim)))   # (*slow, d)
        dg_sq = np.sum(dg ** 2, axis=tuple(range(d + 1, dg.ndim)))
        per_pair = np.sqrt(w * (dv_sq + dg_sq))
        quot = max(quot, float(per_pair.max()) / slow_grid.h)

    return CellSolutions(family=field.name, slow_grid=slow_grid, cell_grid=cell_grid,
                         chi=chi, grad_y_chi=gy, chi_adj=chi_a, grad_y_chi_adj=gy_a,
                         grad_x_chi=gx, grad_x_chi_adj=gx_a,
                         residual_max=residual_max, lipschitz_quotient=quot,
                         method=method)


# -- binary container --------------------------------------------------------

_MAGIC = b"CELLTBL2"


def save_cell_table(path, cells):
    """Write a cell table to the documented flat binary layout.

    Layout: 8-byte magic `CELLTBL2`, 64-byte family name and 8-byte cell
    method (`spectral` or `fv`; both utf-8, zero padded), three
    little-endian int64 (dim, n_x, n_y), one little-endian float64 pair
    (residual_max, lipschitz_quotient), then the six float64 arrays chi,
    grad_y_chi, chi_adj, grad_y_chi_adj, grad_x_chi, grad_x_chi_adj in
    C order.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(cells.family.encode()[:64].ljust(64, b"\0"))
        fh.write(cells.method.encode()[:8].ljust(8, b"\0"))
        fh.write(struct.pack("<3q", cells.dim, cells.slow_grid.n, cells.cell_grid.n))
        fh.write(struct.pack("<2d", cells.residual_max, cells.lipschitz_quotient))
        for arr in (cells.chi, cells.grad_y_chi, cells.chi_adj,
                    cells.grad_y_chi_adj, cells.grad_x_chi, cells.grad_x_chi_adj):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_cell_table(path):
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError(f"{path}: not a cell table container ({_MAGIC.decode()})")
        family = fh.read(64).rstrip(b"\0").decode()
        method = fh.read(8).rstrip(b"\0").decode()
        dim, n_x, n_y = struct.unpack("<3q", fh.read(24))
        residual_max, lip = struct.unpack("<2d", fh.read(16))
        slow = TorusGrid(dim, n_x)
        cell = TorusGrid(dim, n_y)
        sshape, cshape = slow.shape, cell.shape

        def read(shape):
            count = int(np.prod(shape))
            arr = np.frombuffer(fh.read(8 * count), dtype="<f8", count=count)
            return arr.reshape(shape).copy()

        chi = read(sshape + (dim,) + cshape)
        gy = read(sshape + (dim, dim) + cshape)
        chi_a = read(sshape + (dim,) + cshape)
        gy_a = read(sshape + (dim, dim) + cshape)
        gx = read(sshape + (dim, dim) + cshape)
        gx_a = read(sshape + (dim, dim) + cshape)
    return CellSolutions(family=family, slow_grid=slow, cell_grid=cell,
                         chi=chi, grad_y_chi=gy, chi_adj=chi_a, grad_y_chi_adj=gy_a,
                         grad_x_chi=gx, grad_x_chi_adj=gx_a,
                         residual_max=residual_max, lipschitz_quotient=lip, method=method)
